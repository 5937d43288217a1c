import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from qre.analysis import StateSpace, hinf_norm
from qre.augmentation import augment, augment_feedback, lift_uncertainty
from qre import synthesis
from qre.errors import CareFailure, QreError, ScalingTooLarge
from qre.quantum import (
    CoherentController,
    deinterleave,
    feedback_squeezer_plant,
    homodyne_matrix,
    is_doubled,
    squeezer_controller,
    squeezer_plant,
)
from qre.synthesis import (
    ScaledProblem,
    assemble,
    eps_grid_search,
    riccati_residual_x,
    riccati_residual_y,
    synthesize,
)
from qre.uncertainty import squeezer_uncertainty


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
        np.testing.assert_allclose(p.E1bar, np.eye(1), atol=1e-14)
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
        au = lift_uncertainty(u, ctrl)
        pa = assemble(aug, au, S, 0.65, 0.19, 0.81)
        pc = assemble(plant, u, S, 0.65, 0.19, 0.81)
        np.testing.assert_allclose(
            pa.Abar,
            np.block(
                [
                    [pc.Abar, np.zeros((2, 2))],
                    [ctrl.B_c1 @ pc.C2bar, ctrl.A_c],
                ]
            ),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            pa.B1bar,
            np.vstack([pc.B1bar, ctrl.B_c1 @ pc.D21bar]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            pa.D21bar, ctrl.D_c @ pc.D21bar, atol=1e-12
        )
        np.testing.assert_allclose(
            pa.C2bar, np.hstack([ctrl.D_c @ pc.C2bar, ctrl.C_c]), atol=1e-12
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
            lift_uncertainty(u, ctrl),
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
            assert is_doubled(deinterleave(est.A_K), tol=1e-10)
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


def pass_through_controller():
    """Zero-state series controller whose output is its input."""
    return CoherentController(
        A_c=np.zeros((0, 0)),
        B_c1=np.zeros((0, 2)),
        C_c=np.zeros((2, 0)),
        D_c=np.eye(2),
    )


def pass_through_feedback_controller():
    """Zero-state feedback-capable controller that passes the plant output
    to the detector and its own input field to the plant's control port."""
    return CoherentController(
        A_c=np.zeros((0, 0)),
        B_c1=np.zeros((0, 2)),
        B_c2=np.zeros((0, 2)),
        Ct_c=np.zeros((2, 0)),
        C_c=np.zeros((2, 0)),
        Dt_c1=np.zeros((2, 2)),
        Dt_c2=np.eye(2),
        D_c1=np.eye(2),
        D_c2=np.zeros((2, 2)),
        feedback_capable=True,
    )


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
uncertainty = st.floats(0.0, 0.5)
angle = st.floats(-180.0, 180.0)


class TestClassicalIsDegenerateCoherent:
    """The classical channel is the plant behind a zero-state controller
    with unit feedthrough: assembling it directly gives exactly the same
    scaled problem as augmenting and lifting through that controller, or
    the same assembly error."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kappa=positive, chi=squeezing, L=estimand, mu=uncertainty,
           theta=angle, scaling=scaling)
    def test_series(self, kappa, chi, L, mu, theta, scaling):
        plant = squeezer_plant(kappa, kappa, chi, L, strict=True)
        u = squeezer_uncertainty(np.sqrt(kappa), mu)
        S = homodyne_matrix([np.deg2rad(theta)])
        ctrl = pass_through_controller()
        assert_same_problem(
            assemble_or_error(plant, u, S, scaling),
            assemble_or_error(
                augment(plant, ctrl), lift_uncertainty(u, ctrl), S, scaling
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
        ctrl = pass_through_feedback_controller()
        assert_same_problem(
            assemble_or_error(plant, u, S, scaling),
            assemble_or_error(
                augment_feedback(plant, ctrl),
                lift_uncertainty(u, ctrl, plant=plant),
                S,
                scaling,
            ),
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
    got = synthesis._synthesize(problems, **kwargs)
    assert len(got) == len(problems)
    for p, est in zip(problems, got):
        reference.assert_same_outcome(est, reference.outcome(
            reference.synthesize, p, **kwargs
        ))
        # the one-problem case is the same kernel
        reference.assert_same_outcome(reference.outcome(synthesize, p, **kwargs), est)
    return [type(est).__name__ for est in got]


class TestStackedSynthesis:
    """The stacked synthesis against the per-problem reference: the same
    outcome class at every grid point, and every Estimator field equal."""

    @pytest.mark.parametrize("require_stable", [False, True])
    @pytest.mark.parametrize("convention", ["reproduction", "theorem"])
    def test_benchmark_grids(self, series_study, feedback_study, convention,
                             require_stable):
        grid = np.logspace(-2, 0, 9)
        feasible = 0
        for study in (series_study, feedback_study):
            for _, assemble_at in benchmark_channels(study):
                classes = assert_stack_matches_reference(
                    grid_problems(assemble_at, grid, grid),
                    gain_convention=convention,
                    require_stable=require_stable,
                )
                feasible += classes.count("Estimator")
        if convention == "theorem" and require_stable:
            # the design benchmark's setting: 128 of the 324 points
            assert feasible == 128

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
                ctrl = pass_through_feedback_controller()
                channels = [(plant, u),
                            (augment_feedback(plant, ctrl),
                             lift_uncertainty(u, ctrl, plant=plant))]
            else:
                plant = squeezer_plant(kappa1, kappa1, chi, L, strict=True)
                ctrl = squeezer_controller(kappa2, kappa2, chi / 2, strict=True)
                channels = [(plant, u),
                            (augment(plant, ctrl), lift_uncertainty(u, ctrl))]
            for stack, (system, channel_u) in zip(stacks, channels):
                stack += grid_problems(
                    lambda e1, e2: assemble(system, channel_u, S, gamma, e1, e2),
                    eps1, eps2,
                )
        for problems in stacks:
            assert_stack_matches_reference(
                problems, gain_convention=convention, require_stable=require_stable
            )

    def test_empty_stack(self):
        assert synthesis._synthesize([]) == []
        with pytest.raises(QreError, match="unknown gain convention"):
            synthesis._synthesize([], gain_convention="other")
