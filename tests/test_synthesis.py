from collections import Counter
from dataclasses import fields, replace
from itertools import count
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from qre.analysis import StateSpace, hinf_norm
from qre.augmentation import AugmentedSystem, augment, lift_uncertainty
from qre import quantum, synthesis
from qre.errors import CareFailure, QreError, ScalingTooLarge, ShapeMismatch
from qre.linalg import CARE_RESIDUAL_TOL, CareSolution, _conj_t, _solve_cares
from qre.quantum import (
    QuantumPlant,
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    homodyne_matrix,
    omega,
    pass_through_controller,
    squeezer_controller,
    squeezer_plant,
)
from qre.synthesis import (
    Estimator,
    ScaledProblem,
    assemble,
    eps_grid_search,
    riccati_residual_x,
    riccati_residual_y,
    synthesize,
)
from qre.uncertainty import UncertaintyModel, squeezer_uncertainty


@pytest.fixture
def series_parts():
    plant = squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1])
    u = squeezer_uncertainty(2.0, 0.1)
    S = homodyne_matrix([np.deg2rad(10.0)])
    return plant, u, S


class TestAssembleClassical:
    def test_structure_constants(self, series_parts):
        plant, u, S = series_parts
        p = assemble(plant, u, S, 0.65, 0.19, 0.81)
        np.testing.assert_array_equal(
            p.D12bar, np.vstack([np.zeros((6, 1)), -np.eye(1)])
        )
        # C1bar stacks the scaled uncertainty rows, a zero block, and the
        # estimand row
        np.testing.assert_allclose(p.C1bar[:4], 0.19 * u.E)
        np.testing.assert_array_equal(p.C1bar[4:6], np.zeros((2, 2)))
        np.testing.assert_array_equal(p.C1bar[6:], plant.L)

    def test_input_scaling_factor(self, series_parts):
        plant, u, S = series_parts
        p = assemble(plant, u, S, 0.65, 0.19, 0.81)
        factor = 1 / np.sqrt(1 - 0.81**2)
        np.testing.assert_allclose(p.B1bar[:, :2], plant.B1 * factor, rtol=1e-12)
        np.testing.assert_allclose(
            p.B1bar[:, 2:6], 0.65 / 0.19 * u.H1, rtol=1e-12
        )
        np.testing.assert_allclose(
            p.B1bar[:, 6:], 0.65 / 0.81 * u.H2, rtol=1e-12
        )

    def test_zero_uncertainty_input_weight(self, series_parts):
        plant, _, S = series_parts
        u0 = squeezer_uncertainty(2.0, 0.0)
        import dataclasses

        u0 = dataclasses.replace(u0, G=np.zeros((2, 2)))
        p = assemble(plant, u0, S, 0.65, 0.19, 0.81)
        np.testing.assert_allclose(p.B1bar[:, :2], plant.B1, atol=1e-14)
        expected = S @ plant.D1 @ plant.D1.conj().T @ S.conj().T
        np.testing.assert_allclose(p.E2bar, expected, atol=1e-14)

    def test_scaling_too_large(self, series_parts):
        plant, u, S = series_parts
        with pytest.raises(ScalingTooLarge):
            assemble(plant, u, S, 0.65, 0.19, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    @pytest.mark.parametrize("slot", range(3))
    def test_rejects_non_finite_or_non_positive_scaling(self, series_parts, bad, slot):
        plant, u, S = series_parts
        scaling = [0.65, 0.19, 0.81]
        scaling[slot] = bad
        with pytest.raises(QreError, match="must all be positive and finite"):
            assemble(plant, u, S, *scaling)


class TestAssembleFeedbackClassical:
    @pytest.fixture
    def feedback_parts(self):
        plant = feedback_squeezer_plant(4.0, 2.0, 2.0, -1.0, [0.1, -0.1])
        u = squeezer_uncertainty(np.sqrt(2.0), 0.1)
        S = homodyne_matrix([np.deg2rad(80.0)])
        return plant, u, S

    def test_column_blocks(self, feedback_parts):
        plant, u, S = feedback_parts
        p = assemble(plant, u, S, 0.65, 0.2, 0.6)
        assert p.B1bar.shape[1] == 2 + 2 + 4 + 2
        np.testing.assert_allclose(p.B1bar[:, :2], plant.B1 * 1.25, rtol=1e-12)
        np.testing.assert_allclose(p.B1bar[:, 2:4], plant.B2, rtol=1e-12)
        np.testing.assert_allclose(p.D21bar[:, 2:4], np.zeros((2, 2)), atol=1e-14)

    def test_zero_control_block_reduces_to_classical(self):
        plant2 = feedback_squeezer_plant(4.0, 4.0, 0.0, 0.5, [0.1, -0.1])
        plant1 = squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1])
        u = squeezer_uncertainty(2.0, 0.1)
        S = homodyne_matrix([np.deg2rad(10.0)])
        p2 = assemble(plant2, u, S, 0.65, 0.19, 0.81)
        p1 = assemble(plant1, u, S, 0.65, 0.19, 0.81)
        np.testing.assert_allclose(p2.B1bar[:, :2], p1.B1bar[:, :2], atol=1e-12)
        np.testing.assert_allclose(p2.B1bar[:, 2:4], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(p2.B1bar[:, 4:], p1.B1bar[:, 2:], atol=1e-12)
        np.testing.assert_allclose(p2.E2bar, p1.E2bar, atol=1e-12)


class TestAssembleAugmented:
    def test_block_identity_with_classical_problem(self, series_parts):
        # the augmented scaled matrices must equal the block assembly built
        # from the plant-level scaled matrices
        plant, u, S = series_parts
        ctrl = squeezer_controller(4.0, 4.0, -1.0)
        aug = augment(plant, ctrl)
        au = lift_uncertainty(u, ctrl, plant)
        pa = assemble(aug, au, S, 0.65, 0.19, 0.81)
        pc = assemble(plant, u, S, 0.65, 0.19, 0.81)
        np.testing.assert_allclose(
            pa.Abar,
            np.block(
                [
                    [pc.Abar, np.zeros((2, 2))],
                    [ctrl.B_c2 @ pc.C2bar, ctrl.A_c],
                ]
            ),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            pa.B1bar,
            np.vstack([pc.B1bar, ctrl.B_c2 @ pc.D21bar]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            pa.D21bar, ctrl.Dt_c2 @ pc.D21bar, atol=1e-12
        )
        np.testing.assert_allclose(
            pa.C2bar, np.hstack([ctrl.Dt_c2 @ pc.C2bar, ctrl.Ct_c]), atol=1e-12
        )
        np.testing.assert_allclose(
            pa.C1bar, np.hstack([pc.C1bar, np.zeros((7, 2))]), atol=1e-12
        )
        np.testing.assert_allclose(pa.E2bar, pc.E2bar, atol=1e-12)

    def test_dimensions(self, series_parts):
        plant, u, S = series_parts
        ctrl = squeezer_controller(4.0, 4.0, -1.0)
        pa = assemble(
            augment(plant, ctrl),
            lift_uncertainty(u, ctrl, plant),
            S,
            0.65,
            0.19,
            0.81,
        )
        assert pa.Abar.shape == (4, 4)
        assert pa.B1bar.shape == (4, 8)


class TestSynthesize:
    def test_estimator_gain_is_estimand_row(self, series_study):
        est = series_study.estimator("classical")
        np.testing.assert_allclose(est.C_K, [[0.1, -0.1]], atol=1e-14)
        est_a = series_study.estimator("coherent")
        np.testing.assert_allclose(est_a.C_K, [[0.1, -0.1, 0, 0]], atol=1e-14)

    def test_conjugate_pairing(self, series_study, feedback_study):
        for est in (
            series_study.estimator("classical"),
            series_study.estimator("coherent"),
            feedback_study.estimator("classical"),
            feedback_study.estimator("coherent"),
        ):
            assert reference.is_doubled(reference.deinterleave(est.A_K), tol=1e-10)
            # gain rows come in conjugate pairs, one per mode
            np.testing.assert_allclose(
                est.B_K[1::2], est.B_K[0::2].conj(), atol=1e-10
            )

    def test_riccati_residuals_within_gate(self, series_study, feedback_study):
        for study in (series_study, feedback_study):
            for problem in study.problems.values():
                est = synthesize(problem)
                assert riccati_residual_x(problem, est.X.X) <= 1e-8
                assert riccati_residual_y(problem, est.Y.X) <= 1e-8
                assert est.residual_x <= 1e-8
                assert est.residual_y <= 1e-8

    def test_nominal_performance_theorem_convention(self, series_study):
        # with the gamma^2 gain prefactor, the filter is stable and the full
        # scaled disturbance-to-error channel stays below gamma
        p = series_study.problems["classical"]
        est = synthesize(p, gain_convention="theorem")
        assert est.stable
        n = p.n
        Acl = np.block(
            [
                [p.Abar, np.zeros((n, est.A_K.shape[0]))],
                [est.B_K @ p.Sbar @ p.C2bar, est.A_K],
            ]
        )
        Bcl = np.vstack([p.B1bar, est.B_K @ p.Sbar @ p.D21bar])
        L = p.C1bar[-1:]
        Ccl = np.hstack([L, -est.C_K])
        ss = StateSpace(Acl, Bcl, Ccl, np.zeros((1, Bcl.shape[1])))
        assert hinf_norm(ss) <= p.gamma + 1e-6

    def test_coupling_diagnostics_reported(self, series_study):
        est = series_study.estimator("classical")
        assert np.isfinite(est.coupling_condition)
        assert est.spectral_abscissa == pytest.approx(
            np.max(np.linalg.eigvals(est.A_K).real)
        )

    def test_failure_tagged_with_equation(self, series_parts):
        plant, u, S = series_parts
        # an unreachable attenuation level leaves the state equation without
        # a stabilizing solution
        p = assemble(plant, u, S, 0.01, 0.19, 0.81)
        with pytest.raises(CareFailure) as exc:
            synthesize(p)
        assert exc.value.which in ("X", "Y")
        assert exc.value.__cause__ is exc.value.cause


class TestEpsGridSearch:
    def test_smoke(self, series_parts):
        plant, u, S = series_parts

        def assemble_at(e1, e2):
            return assemble(plant, u, S, 0.65, e1, e2)

        e1, e2, val, est = eps_grid_search(
            assemble_at,
            lambda est: est.coupling_condition,
            eps1_grid=[0.1, 0.19],
            eps2_grid=[0.5, 0.81],
        )
        assert (e1, e2) in {(a, b) for a in (0.1, 0.19) for b in (0.5, 0.81)}
        assert np.isfinite(val)

    @staticmethod
    def scripted(series_parts, values, eps1_grid=(0.1, 0.19), eps2_grid=(0.5, 0.81)):
        """eps_grid_search whose objective returns the listed values in the
        order it is called, and the (eps1, eps2) of each call."""
        plant, u, S = series_parts
        calls, values = [], iter(values)

        def objective(est):
            calls.append((est.eps1, est.eps2))
            return next(values)

        best = eps_grid_search(
            lambda e1, e2: assemble(plant, u, S, 0.65, e1, e2),
            objective,
            eps1_grid=list(eps1_grid),
            eps2_grid=list(eps2_grid),
        )
        return best, calls

    def test_first_minimum_in_row_major_order(self, series_parts):
        (e1, e2, val, est), calls = self.scripted(series_parts, [2.0, 1.0, 1.0, 3.0])
        assert calls == [(0.1, 0.5), (0.1, 0.81), (0.19, 0.5), (0.19, 0.81)]
        assert (e1, e2, val) == (0.1, 0.81, 1.0)
        assert (est.eps1, est.eps2) == (0.1, 0.81)

    def test_non_finite_objective_is_infeasible(self, series_parts):
        (e1, e2, val, _), _ = self.scripted(series_parts, [np.nan, -5.0, -5.0, -5.0])
        assert (e1, e2, val) == (0.1, 0.81, -5.0)
        (e1, e2, val, _), _ = self.scripted(series_parts, [1.0, -np.inf, np.nan, 2.0])
        assert (e1, e2, val) == (0.1, 0.5, 1.0)
        with pytest.raises(QreError, match="no feasible"):
            self.scripted(series_parts, [np.nan] * 4)

    def test_non_finite_scaling_point_is_skipped(self, series_parts):
        (e1, e2, val, _), calls = self.scripted(
            series_parts, [4.0, 3.0], eps1_grid=(np.nan, 0.19)
        )
        assert calls == [(0.19, 0.5), (0.19, 0.81)]
        assert (e1, e2, val) == (0.19, 0.81, 3.0)


def assemble_or_error(system, u, S, scaling):
    try:
        return assemble(system, u, S, *scaling)
    except QreError as exc:
        return type(exc)


def assert_same_problem(p, q):
    if isinstance(p, type) or isinstance(q, type):
        assert p is q
        return
    # exact equality, entry for entry; only the sign of a zero may differ
    # (a product with a zero block can round to -0.0)
    for name in ScaledProblem.__dataclass_fields__:
        a, b = np.asarray(getattr(p, name)), np.asarray(getattr(q, name))
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name, strict=True)


positive = st.floats(0.25, 8.0)
scaling = st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 1.2))
squeezing = st.floats(-3.0, 3.0)
estimand = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
# estimands that weigh a as a#: [x, -x] (the benchmarks' form) or [z, z#]
doubled_estimand = st.one_of(
    st.floats(-1.0, 1.0).map(lambda x: [x, -x]),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda t: [complex(*t), complex(t[0], -t[1])]
    ),
)
uncertainty = st.floats(0.0, 0.5)
angle = st.floats(-180.0, 180.0)


class TestClassicalIsDegenerateCoherent:
    """The classical channel is the plant behind ``pass_through_controller``:
    assembling the plant directly gives exactly the same scaled problem as
    augmenting and lifting through that controller, or the same assembly
    error."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kappa=positive, chi=squeezing, L=estimand, mu=uncertainty,
           theta=angle, scaling=scaling)
    def test_series(self, kappa, chi, L, mu, theta, scaling):
        plant = squeezer_plant(kappa, kappa, chi, L, strict=True)
        u = squeezer_uncertainty(np.sqrt(kappa), mu)
        S = homodyne_matrix([np.deg2rad(theta)])
        ctrl = pass_through_controller(plant)
        assert_same_problem(
            assemble_or_error(plant, u, S, scaling),
            assemble_or_error(
                augment(plant, ctrl), lift_uncertainty(u, ctrl, plant), S, scaling
            ),
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kappa1=positive, kappa2=positive, chi=squeezing, L=estimand,
           mu=uncertainty, theta=angle, scaling=scaling)
    def test_feedback(self, kappa1, kappa2, chi, L, mu, theta, scaling):
        plant = feedback_squeezer_plant(
            kappa1 + kappa2, kappa1, kappa2, chi, L, strict=True
        )
        u = squeezer_uncertainty(np.sqrt(kappa1), mu)
        S = homodyne_matrix([np.deg2rad(theta)])
        ctrl = pass_through_controller(plant)
        assert_same_problem(
            assemble_or_error(plant, u, S, scaling),
            assemble_or_error(
                augment(plant, ctrl),
                lift_uncertainty(u, ctrl, plant),
                S,
                scaling,
            ),
        )


class TestSeriesIsZeroPortFeedback:
    """The series topology is the coherent-feedback formula with zero-width
    ports: on realizable squeezers it gives the series block formula's
    augmented system, lifted model and scaled problem entry for entry (a
    zero's sign may differ), or the same assembly error."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kappa=positive, kappa_c=positive, chi=squeezing, chi_c=squeezing,
           L=estimand, mu=uncertainty, theta=angle, scaling=scaling)
    def test_realizable_squeezers(self, kappa, kappa_c, chi, chi_c, L, mu,
                                  theta, scaling):
        plant = squeezer_plant(kappa, kappa, chi, L, strict=True)
        ctrl = squeezer_controller(kappa_c, kappa_c, chi_c, strict=True)
        u = squeezer_uncertainty(np.sqrt(kappa), mu)
        S = homodyne_matrix([np.deg2rad(theta)])
        got = augment(plant, ctrl), lift_uncertainty(u, ctrl, plant)
        want = reference.series_augment(plant, ctrl), reference.series_lift(u, ctrl)
        for a, b, names in zip(got, want, ("ABCDL", ("H1", "H2", "H3", "E", "G"))):
            for name in names:
                np.testing.assert_array_equal(
                    getattr(a, name), getattr(b, name), err_msg=name, strict=True
                )
        assert_same_problem(
            assemble_or_error(*got, S, scaling), assemble_or_error(*want, S, scaling)
        )


def benchmark_channels(study):
    """(name, assemble(eps1, eps2)) of each channel of a study."""
    return [
        (name, lambda e1, e2, system=system, u=u: assemble(
            system, u, study.S, study.gamma, e1, e2
        ))
        for name, (system, u) in study.channels.items()
    ]


def grid_problems(assemble_at, eps1_grid, eps2_grid):
    """The problems of a grid, in row-major order, where assembly succeeds."""
    problems = []
    for e1 in eps1_grid:
        for e2 in eps2_grid:
            try:
                problems.append(assemble_at(float(e1), float(e2)))
            except QreError:
                pass
    return problems


def assert_stack_matches_reference(problems, **kwargs):
    """Each outcome of the stacked synthesis equals the per-problem
    reference's; returns the outcome class names."""
    got = problems and synthesis._synthesize(synthesis._stack(problems), **kwargs)
    assert len(got) == len(problems)
    for p, est in zip(problems, got):
        reference.assert_same_outcome(est, reference.outcome(
            reference.synthesize, p, **kwargs
        ))
        # the one-problem case is the same kernel
        reference.assert_same_outcome(reference.outcome(synthesize, p, **kwargs), est)
    return [type(est).__name__ for est in got]


def stacked_cares(problems, **kwargs):
    """(equation, real data, outcome class) of each CARE that the stacked
    synthesis of ``problems`` solves: equation 0 is the state equation, 1
    the output-injection one."""
    cares, calls = [], count()
    solve_cares = synthesis._solve_cares

    def record(A, R, Q, *args):
        got = solve_cares(A, R, Q, *args)
        which = next(calls)
        for a, r, q, sol in zip(A, R, Q, got):
            real = not (a.imag.any() or r.imag.any() or q.imag.any())
            cares.append((which, real, type(sol).__name__))
        return got

    with mock.patch.object(synthesis, "_solve_cares", record):
        synthesis._synthesize(synthesis._stack(problems), **kwargs)
    return cares


class TestStackedSynthesis:
    """The stacked synthesis against the per-problem reference: the same
    outcome class at every grid point, and every Estimator field equal."""

    @pytest.mark.parametrize("require_stable", [False, True])
    @pytest.mark.parametrize("convention", ["reproduction", "theorem"])
    def test_benchmark_grids(self, series_study, feedback_study, convention,
                             require_stable):
        grid = np.logspace(-2, 0, 9)
        feasible, cares = 0, []
        design = convention == "theorem" and require_stable
        for study in (series_study, feedback_study):
            for _, assemble_at in benchmark_channels(study):
                problems = grid_problems(assemble_at, grid, grid)
                classes = assert_stack_matches_reference(
                    problems,
                    gain_convention=convention,
                    require_stable=require_stable,
                )
                feasible += classes.count("Estimator")
                if design:
                    cares += stacked_cares(problems, gain_convention=convention,
                                           require_stable=require_stable)
        if design:
            # the design benchmark's setting: 128 of the 324 points; of its
            # 497 CAREs, the 288 state equations have real data and the 209
            # output-injection ones doubled-up data, real in quadrature
            # coordinates: all are solved in real arithmetic; 337 solve and
            # 160 fail the imaginary-axis gate
            assert feasible == 128
            assert Counter(c[:2] for c in cares) == {(0, True): 288, (1, True): 209}
            assert Counter(c[2] for c in cares) == {
                "CareSolution": 337, "ImaginaryAxisEigenvalue": 160
            }

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(feedback=st.booleans(), kappa1=positive, kappa2=positive,
           chis=st.lists(squeezing, min_size=2, max_size=2), L=estimand,
           mu=uncertainty, theta=angle,
           gammas=st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2),
           eps1=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
           eps2=st.lists(st.floats(0.05, 1.2), min_size=1, max_size=3),
           convention=st.sampled_from(["reproduction", "theorem"]),
           require_stable=st.booleans())
    def test_realizable_squeezers(self, feedback, kappa1, kappa2, chis, L, mu,
                                  theta, gammas, eps1, eps2, convention,
                                  require_stable):
        # one stack per channel holds the grids of two squeezings at two
        # attenuation levels, so Abar, gamma and the scaled maps all vary
        u = squeezer_uncertainty(np.sqrt(kappa1), mu)
        S = homodyne_matrix([np.deg2rad(theta)])
        stacks = [[], []]
        for chi, gamma in zip(chis, gammas):
            if feedback:
                plant = feedback_squeezer_plant(
                    kappa1 + kappa2, kappa1, kappa2, chi, L, strict=True
                )
                ctrl = pass_through_controller(plant)
                channels = [(plant, u),
                            (augment(plant, ctrl),
                             lift_uncertainty(u, ctrl, plant))]
            else:
                plant = squeezer_plant(kappa1, kappa1, chi, L, strict=True)
                ctrl = squeezer_controller(kappa2, kappa2, chi / 2, strict=True)
                channels = [(plant, u),
                            (augment(plant, ctrl),
                             lift_uncertainty(u, ctrl, plant))]
            for stack, (system, channel_u) in zip(stacks, channels):
                stack += grid_problems(
                    lambda e1, e2: assemble(system, channel_u, S, gamma, e1, e2),
                    eps1, eps2,
                )
        for problems in stacks:
            assert_stack_matches_reference(
                problems, gain_convention=convention, require_stable=require_stable
            )

    def test_empty_stack(self, series_parts):
        # a block whose every point failed a gate of assembly
        empty = assemble(*series_parts, 0.65, [np.nan, 0.19], [0.5, 1.0])
        assert len(empty.gamma) == 0
        assert synthesis._synthesize(empty) == []
        with pytest.raises(QreError, match="unknown gain convention"):
            synthesis._synthesize(empty, gain_convention="other")


def assert_assembly_matches_reference(system, u, S, gamma, eps1, eps2):
    """Each point of the stacked assembly of the points (eps1, eps2) has the
    per-point reference's outcome: its error, or every ScaledProblem field
    equal.  So has the one-point call at each point.  Returns the outcome
    class names."""
    eps1, eps2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    s = assemble(system, u, S, gamma, eps1, eps2)
    assembled = iter(range(len(s.gamma)))
    classes = []
    for j, (e1, e2) in enumerate(zip(eps1.tolist(), eps2.tolist())):
        want = reference.outcome(reference.assemble, system, u, S, gamma, e1, e2)
        got = s.failures[j] if j in s.failures else s[next(assembled)]
        reference.assert_same_outcome(got, want)
        reference.assert_same_outcome(
            reference.outcome(assemble, system, u, S, gamma, e1, e2), want
        )
        classes.append(type(want).__name__)
    assert next(assembled, None) is None
    return classes


def row_major(eps1_grid, eps2_grid):
    return [g.ravel() for g in np.meshgrid(eps1_grid, eps2_grid, indexing="ij")]


def realizable_channels(feedback, kappa1, kappa2, chi, chi_c, L, mu):
    """The classical and coherent channels of realizable squeezers of the
    series or the feedback topology, as (measured system, uncertainty)."""
    u = squeezer_uncertainty(np.sqrt(kappa1), mu)
    if feedback:
        plant = feedback_squeezer_plant(
            kappa1 + kappa2, kappa1, kappa2, chi, L, strict=True
        )
        ctrl = feedback_squeezer_controller(
            kappa1 + kappa2, kappa1, kappa2, chi_c, strict=True
        )
    else:
        plant = squeezer_plant(kappa1, kappa1, chi, L, strict=True)
        ctrl = squeezer_controller(kappa2, kappa2, chi_c, strict=True)
    return [(plant, u), (augment(plant, ctrl), lift_uncertainty(u, ctrl, plant))]


class TestRealizableChannels:
    """A channel meets the realizability condition under the layout its port
    sizes declare: the interconnection of realizable models is realizable."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(feedback=st.booleans(), kappa1=positive, kappa2=positive,
           chis=st.lists(st.one_of(squeezing, st.complex_numbers(
               max_magnitude=3.0, allow_nan=False, allow_infinity=False)),
               min_size=2, max_size=2), L=estimand, mu=uncertainty)
    def test_every_channel_is_realizable(self, feedback, kappa1, kappa2, chis, L, mu):
        channels = realizable_channels(feedback, kappa1, kappa2, *chis, L, mu)
        plant = channels[0][0]
        channels.append((augment(plant, pass_through_controller(plant)), None))
        for system, _ in channels:
            assert quantum._realizable(system.A, system.B, system._layout)


class TestStackedAssembly:
    """A block of (eps1, eps2) points assembled as one stack against the
    per-point reference: at every point the same error class and message,
    or every ScaledProblem field equal to the bit."""

    def test_benchmark_grids(self, series_study, feedback_study):
        grid = row_major(np.logspace(-2, 0, 9), np.logspace(-2, 0, 9))
        for study in (series_study, feedback_study):
            for system, u in study.channels.values():
                classes = assert_assembly_matches_reference(
                    system, u, study.S, study.gamma, *grid
                )
                # eps2 = 1 saturates the scaling (G = I): the design
                # benchmark synthesizes the other 72 points of each grid
                assert classes.count("ScaledProblem") == 72
                assert classes.count("ScalingTooLarge") == 9

    def test_every_field_has_the_stack_axis(self, series_study, feedback_study):
        # one stack format: every matrix, shared by the points or not, and
        # gamma, eps1, eps2 lead with the axis of the K points assembled
        grid = row_major(np.logspace(-2, 0, 9), np.logspace(-2, 0, 9))
        for study in (series_study, feedback_study):
            for system, u in study.channels.values():
                s = assemble(system, u, study.S, study.gamma, *grid)
                for f in fields(s):
                    x = getattr(s, f.name)
                    if isinstance(x, np.ndarray):
                        assert x.shape[0] == 72, f.name
                        assert x.ndim == (1 if f.type is float else 3), f.name

    def test_every_gate_in_one_block(self, series_parts):
        plant, u, S = series_parts
        eps1 = [0.19, np.nan, 0.19, -0.5, 0.19, 0.19, 0.0, 0.19]
        eps2 = [0.81, 0.81, 1.5, 0.81, np.inf, 1.0, 0.5, 0.5]
        assert assert_assembly_matches_reference(plant, u, S, 0.65, eps1, eps2) == [
            "ScaledProblem", "DomainError", "ScalingTooLarge", "DomainError",
            "DomainError", "ScalingTooLarge", "DomainError", "ScaledProblem",
        ]
        # with no feedthrough and no output uncertainty the measurement
        # weighting vanishes: every point past the scaling gate is singular
        quiet = SimpleNamespace(A=plant.A, B=plant.B, C=plant.C,
                                D=np.zeros_like(plant.D), L=plant.L)
        u0 = squeezer_uncertainty(2.0, 0.0)
        assert assert_assembly_matches_reference(quiet, u0, S, 0.65, eps1, eps2) == [
            "SingularE2", "DomainError", "ScalingTooLarge", "DomainError",
            "DomainError", "ScalingTooLarge", "DomainError", "SingularE2",
        ]
        assert set(assert_assembly_matches_reference(
            plant, u, S, np.nan, eps1, eps2
        )) == {"DomainError"}
        # a faint output uncertainty: E2bar = 16 mu^2 (gamma / eps1)^2 is
        # singular at eps1 = 1 and not at eps1 = 0.19, within one block
        faint = squeezer_uncertainty(2.0, 1e-7)
        assert assert_assembly_matches_reference(
            quiet, faint, S, 0.65, [0.19, 1.0, 0.19, 1.0], [0.5, 0.5, 0.81, 0.81]
        ) == ["ScaledProblem", "SingularE2", "ScaledProblem", "SingularE2"]

    def test_squares_round_as_the_one_point_formula(self, series_parts):
        # x ** 2 of a float is C pow, which rounds some squares otherwise
        # than numpy's x * x: a block holding such eps2 (where the scaling
        # (1 - eps2^2)^(-1/2) keeps the difference) and gamma / eps1 still
        # matches the one-point formula to the bit
        grid = np.linspace(0.05, 0.95, 40001).tolist()
        eps2 = [x for x in grid if (1 - x**2) ** -0.5 != (1 - x * x) ** -0.5][:3]
        eps1 = [x for x in grid if (0.65 / x) ** 2 != (0.65 / x) * (0.65 / x)][:3]
        assert len(eps1) == len(eps2) == 3
        assert_assembly_matches_reference(*series_parts, 0.65, *row_major(eps1, eps2))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(feedback=st.booleans(), kappa1=positive, kappa2=positive,
           chis=st.lists(squeezing, min_size=2, max_size=2), L=estimand,
           mu=uncertainty, theta=angle, gamma=st.floats(0.1, 2.0),
           eps1=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
           eps2=st.lists(st.floats(0.05, 1.2), min_size=1, max_size=4))
    def test_realizable_squeezers(self, feedback, kappa1, kappa2, chis, L, mu,
                                  theta, gamma, eps1, eps2):
        S = homodyne_matrix([np.deg2rad(theta)])
        grid = row_major(eps1, eps2)
        for system, channel_u in realizable_channels(feedback, kappa1, kappa2,
                                                     *chis, L, mu):
            assert_assembly_matches_reference(system, channel_u, S, gamma, *grid)

    def test_blocks_not_conforming_raise_before_any_gate(self, series_parts,
                                                         feedback_study):
        plant, u, S = series_parts
        for eps in (0.5, [0.5, np.nan]):
            with pytest.raises(ShapeMismatch, match=r"^S has shape \(3, 3\)"):
                assemble(plant, u, np.eye(3), 0.65, eps, eps)
            # the feedback benchmark's lifted model has four states
            with pytest.raises(ShapeMismatch, match=r"^H1 has shape \(4, 4\)"):
                assemble(plant, feedback_study.lifted, S, np.nan, eps, eps)


class TestGridSearchBlocks:
    """eps_grid_search hands each block of GRID_BLOCK grid points to its
    assemble callable as arrays, in one call."""

    def test_one_call_per_block(self, series_study):
        system, u = series_study.channels["coherent"]
        grid = np.logspace(-2, 0, 10)
        calls = []

        def assemble_at(e1, e2):
            calls.append((e1, e2))
            return assemble(system, u, series_study.S, series_study.gamma, e1, e2)

        kwargs = dict(gain_convention="theorem", require_stable=True)
        got = eps_grid_search(assemble_at, lambda est: est.spectral_abscissa,
                              grid, grid, **kwargs)
        assert [len(e1) for e1, _ in calls] == [81, 19]
        for e1, e2 in calls:
            assert e1.dtype == e2.dtype == float and e1.ndim == e2.ndim == 1
        np.testing.assert_array_equal(
            np.concatenate([e1 for e1, _ in calls]), row_major(grid, grid)[0]
        )
        np.testing.assert_array_equal(
            np.concatenate([e2 for _, e2 in calls]), row_major(grid, grid)[1]
        )
        want = reference.eps_grid_search(
            lambda e1, e2: reference.assemble(
                system, u, series_study.S, series_study.gamma, e1, e2
            ),
            lambda est: est.spectral_abscissa, grid, grid, **kwargs,
        )
        assert got[:3] == want[:3]
        reference.assert_same_outcome(got[3], want[3])

    def test_an_error_the_callable_raises_propagates(self, series_parts):
        plant, u, S = series_parts
        with pytest.raises(ShapeMismatch, match="^S has shape"):
            eps_grid_search(
                lambda e1, e2: assemble(plant, u, np.eye(3), 0.65, e1, e2),
                lambda est: est.coupling_condition,
            )

    def test_gate_failures_the_stack_carries_are_skipped(self, series_parts):
        plant, u, S = series_parts

        def search(eps2_grid):
            return eps_grid_search(
                lambda e1, e2: assemble(plant, u, S, 0.65, e1, e2),
                lambda est: est.coupling_condition,
                eps1_grid=[0.19, np.nan], eps2_grid=eps2_grid,
            )

        e1, e2, _, _ = search([np.nan, 1.0, 0.81, 1.5])
        assert (e1, e2) == (0.19, 0.81)
        with pytest.raises(QreError, match="no feasible"):
            search([np.nan, 1.0, 1.5])


def assert_matches_complex_solve(s, **kwargs):
    """Every output-injection CARE of the stack ``s`` runs in real
    arithmetic and has the outcome class of the complex solve of its data
    in the original coordinates; where it solves, the mapped-back Y is that
    solve's to 1e-12 relative and meets the residual gate in the original
    equation.  Returns the number of output-injection CAREs solved."""
    cares = stacked_cares([s[j] for j in range(len(s.gamma))], **kwargs)
    assert all(real for which, real, _ in cares if which == 1)
    A, R, Q = synthesis._output_injection(s)
    want = _solve_cares(A, (R + _conj_t(R)) / 2, (Q + _conj_t(Q)) / 2)
    solved = 0
    for est, sol in zip(synthesis._synthesize(s, **kwargs), want):
        if isinstance(est, CareFailure):
            if est.which == "Y":
                assert type(est.cause) is type(sol), (est, sol)
            continue
        assert isinstance(sol, CareSolution), sol
        solved += 1
        if isinstance(est, Estimator):
            assert np.linalg.norm(est.Y.X - sol.X) <= 1e-12 * np.linalg.norm(sol.X)
            assert est.residual_y <= CARE_RESIDUAL_TOL
    return solved


def two_mode_parts(L):
    """A two-mode plant of omega(m1, m2) blocks, its states laid out
    [a1, a2, a1#, a2#], with a doubled-up uncertainty model and two
    homodyne angles."""
    m1 = np.array([[-1.0 + 0.3j, 0.2], [0.1j, -1.5]])
    m2 = np.array([[0.3, 0.1 - 0.2j], [0.1 - 0.2j, -0.2j]])
    plant = QuantumPlant(
        A=omega(m1, m2), B1=-omega(np.eye(2), 0.1 * m2), B2=np.zeros((4, 0)),
        C=omega(np.eye(2), 0.1j * np.eye(2)), D1=np.eye(4), L=L,
    )
    u = UncertaintyModel(
        H1=0.2 * np.eye(4), H2=-0.1 * np.eye(4), H3=0.1 * np.eye(4),
        E=-0.5 * np.eye(4), G=np.eye(4), f1_exponents=(1,) * 4,
        f2_exponents=(1,) * 4,
    )
    return plant, u, homodyne_matrix([0.3, 1.1])


class TestQuadratureCoordinates:
    """The output-injection equation of a channel whose data are doubled-up
    is solved in real quadrature coordinates, and its solution mapped back
    is the complex solve's; any other channel keeps the complex path."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(feedback=st.booleans(), kappa1=positive, kappa2=positive,
           chis=st.lists(squeezing, min_size=2, max_size=2), L=doubled_estimand,
           mu=uncertainty, theta=angle, gamma=st.floats(0.1, 2.0),
           eps1=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
           eps2=st.lists(st.floats(0.05, 1.2), min_size=1, max_size=3),
           convention=st.sampled_from(["reproduction", "theorem"]))
    def test_realizable_squeezers(self, feedback, kappa1, kappa2, chis, L, mu,
                                  theta, gamma, eps1, eps2, convention):
        S = homodyne_matrix([np.deg2rad(theta)])
        for system, u in realizable_channels(feedback, kappa1, kappa2, *chis, L, mu):
            s = assemble(system, u, S, gamma, *row_major(eps1, eps2))
            if len(s.gamma):
                assert s._quadrature is not None
                assert_matches_complex_solve(s, gain_convention=convention)

    def test_two_mode_subsystem(self):
        plant, u, S = two_mode_parts([[0.3 - 0.1j, 0.2, 0.3 + 0.1j, 0.2]])
        s = assemble(plant, u, S, 1.0, *row_major([0.2, 0.5], [0.3, 0.6]))
        q, p = np.eye(4)[:, :2], 1j * np.eye(4)[:, :2]
        np.testing.assert_array_equal(s._quadrature[0], np.hstack([
            q + np.roll(q, 2, axis=0), p - np.roll(p, 2, axis=0)
        ]) / np.sqrt(2))
        assert assert_matches_complex_solve(s) == 4
        # a per-mode T, right only for the layout [a1, a1#, a2, a2#], leaves
        # these data far from real
        per_mode = np.kron(np.eye(2), [[1, 1j], [1, -1j]]) / np.sqrt(2)
        A = _conj_t(per_mode) @ synthesis._output_injection(s)[0] @ per_mode
        assert np.abs(A.imag).max() > 0.1 * np.abs(A).max()

    @pytest.mark.parametrize("channel", ["augmented-by-hand", "plant-not-doubled",
                                         "controller-not-doubled",
                                         "estimand-not-doubled",
                                         "uncertainty-not-doubled", "not-homodyne"])
    def test_other_channels_keep_the_complex_path(self, series_study, channel):
        system, u = series_study.channels["coherent"]
        S = series_study.S
        not_doubled = [[-2.0, -0.5], [-0.3, -2.0]]
        if channel == "plant-not-doubled":
            plant = replace(series_study.plant, A=not_doubled)
            system = augment(plant, series_study.controller)
        elif channel == "controller-not-doubled":
            ctrl = replace(series_study.controller, A_c=not_doubled)
            system = augment(series_study.plant, ctrl)
        elif channel == "augmented-by-hand":
            system = AugmentedSystem(**{m: getattr(system, m) for m in "ABCDL"})
        elif channel == "estimand-not-doubled":
            plant = replace(series_study.plant, L=[[0.1, 0.0]])
            system = augment(plant, series_study.controller)
        elif channel == "uncertainty-not-doubled":
            u = replace(u, H1=u.H1 * [[1.0], [0.5], [1.0], [1.0]])
        else:
            S = np.array([[0.6, 0.8j]])
        grid = np.logspace(-2, 0, 9)
        problems = grid_problems(lambda e1, e2: assemble(
            system, u, S, series_study.gamma, e1, e2
        ), grid, grid)
        assert all(p._quadrature is None for p in problems)
        assert {c[:2] for c in stacked_cares(problems)} == {(0, True), (1, False)}
        # the complex path is the per-problem reference's, to the bit, and
        # the reference's rule finds no quadrature map either
        assert_assembly_matches_reference(system, u, S, series_study.gamma,
                                          *row_major(grid, grid))
        assert "Estimator" in assert_stack_matches_reference(problems)
