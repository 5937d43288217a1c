"""Acceptance gate: reference-matrix reproduction, dominance and spread
properties of the benchmark studies, Riccati residual gates, norm-oracle
equivalence, and the structural identity suite."""

import time

import numpy as np
import pytest
from reference import is_doubled

from qre import grid_peak_gain, hinf_norm
from qre.augmentation import augment, lift_uncertainty
from qre.quantum import homodyne_matrix, omega
from qre.synthesis import (
    assemble,
    riccati_residual_x,
    riccati_residual_y,
)
from qre.uncertainty import evaluate_deltas

# Reference estimator matrices for the two benchmark parameter sets
# (frozen regression targets, four significant decimals for the classical
# filters and two for the coherent-classical ones).

SERIES_CLASSICAL_AK = np.array(
    [
        [-0.0274 - 2.3799j, 1.8584 - 1.6718j],
        [1.8584 + 1.6718j, -0.0274 + 2.3799j],
    ]
)
SERIES_CLASSICAL_BK = np.array([[-1.5600 + 1.5188j], [-1.5600 - 1.5188j]])

SERIES_COHERENT_AK = np.array(
    [
        [-2.03 + 0.13j, -0.86 + 0.03j, -0.28 + 0.14j, -0.31 + 0.03j],
        [-0.86 - 0.03j, -2.03 - 0.13j, -0.31 - 0.03j, -0.28 - 0.14j],
        [-6.59 + 0.50j, -2.90 - 0.47j, -4.95 + 0.54j, -1.95 - 0.50j],
        [-2.90 + 0.47j, -6.59 - 0.50j, -1.95 + 0.50j, -4.95 - 0.54j],
    ]
)
SERIES_COHERENT_BK = np.array(
    [[0.21 - 0.06j], [0.21 + 0.06j], [2.12 - 0.01j], [2.12 + 0.01j]]
)

FEEDBACK_CLASSICAL_AK = np.array(
    [
        [1.4589 + 1.4235j, -2.5630 - 0.2493j],
        [-2.5630 + 0.2493j, 1.4589 - 1.4235j],
    ]
)
FEEDBACK_CLASSICAL_BK = np.array([[0.8659 - 3.6066j], [0.8659 + 3.6066j]])

FEEDBACK_COHERENT_AK = np.array(
    [
        [-3.88 - 0.002j, 1.05 - 0.003j, -4.29 - 0.27j, 2.17 - 0.51j],
        [1.05 + 0.003j, -3.88 + 0.002j, 2.17 + 0.51j, -4.29 + 0.27j],
        [-1.95 - 0.003j, 0.03 - 0.004j, -4.98 - 0.32j, 2.39 - 0.72j],
        [0.03 + 0.004j, -1.95 + 0.003j, 2.39 + 0.72j, -4.98 + 0.32j],
    ]
)
FEEDBACK_COHERENT_BK = np.array(
    [[0.12 + 2.267j], [0.12 - 2.267j], [0.20 + 2.993j], [0.20 - 2.993j]]
)


@pytest.fixture(scope="module")
def sweeps(series_study, feedback_study, delta_grid_21):
    out = {}
    for name, study in (("series", series_study), ("feedback", feedback_study)):
        loops_c = [study.closed_loop("classical", d) for d in delta_grid_21]
        loops_q = [study.closed_loop("coherent", d) for d in delta_grid_21]
        out[name] = {
            "loops": loops_c + loops_q,
            "classical": np.array(
                [hinf_norm(l, allow_unstable=True) for l in loops_c]
            ),
            "coherent": np.array(
                [hinf_norm(l, allow_unstable=True) for l in loops_q]
            ),
        }
    return out


def test_criterion_1_series_classical_reference_matrices(series_study):
    t0 = time.perf_counter()
    est = series_study.estimator("classical")
    elapsed = time.perf_counter() - t0
    err_a = np.abs(est.A_K - SERIES_CLASSICAL_AK).max()
    err_b = np.abs(est.B_K - SERIES_CLASSICAL_BK).max()
    assert err_a <= 5e-4, f"A_K max error {err_a:.2e}"
    assert err_b <= 5e-4, f"B_K max error {err_b:.2e}"
    np.testing.assert_array_equal(est.C_K, [[0.1, -0.1]])
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: A_K err {err_a:.1e}, B_K err {err_b:.1e}")


def test_criterion_2_series_coherent_reference_matrices(series_study):
    est = series_study.estimator("coherent")
    err_a = np.abs(est.A_K - SERIES_COHERENT_AK).max()
    err_b = np.abs(est.B_K - SERIES_COHERENT_BK).max()
    assert err_a <= 1e-2, f"A_K max error {err_a:.2e}"
    assert err_b <= 1e-2, f"B_K max error {err_b:.2e}"
    np.testing.assert_array_equal(est.C_K, [[0.1, -0.1, 0, 0]])
    print(f"\ncriterion 2 PASS: A_K err {err_a:.1e}, B_K err {err_b:.1e}")


def test_criterion_3_feedback_reference_matrices(feedback_study):
    est_c = feedback_study.estimator("classical")
    est_q = feedback_study.estimator("coherent")
    errs = [
        np.abs(est_c.A_K - FEEDBACK_CLASSICAL_AK).max(),
        np.abs(est_c.B_K - FEEDBACK_CLASSICAL_BK).max(),
    ]
    assert errs[0] <= 5e-4 and errs[1] <= 5e-4, f"classical errors {errs}"
    errs_q = [
        np.abs(est_q.A_K - FEEDBACK_COHERENT_AK).max(),
        np.abs(est_q.B_K - FEEDBACK_COHERENT_BK).max(),
    ]
    assert errs_q[0] <= 1e-2 and errs_q[1] <= 1e-2, f"coherent errors {errs_q}"
    print(
        f"\ncriterion 3 PASS: classical err {max(errs):.1e}, "
        f"coherent err {max(errs_q):.1e}"
    )


def test_criterion_4_design_point_dominance(series_study, feedback_study):
    for name, study in (("series", series_study), ("feedback", feedback_study)):
        n_c = hinf_norm(study.closed_loop("classical", -1.0), allow_unstable=True)
        n_q = hinf_norm(study.closed_loop("coherent", -1.0), allow_unstable=True)
        assert n_q < n_c, f"{name}: coherent {n_q:.4f} !< classical {n_c:.4f}"
    print("\ncriterion 4 PASS: coherent filter dominates at the design point")


def test_criterion_5_series_dominance_across_window(sweeps):
    cls, coh = sweeps["series"]["classical"], sweeps["series"]["coherent"]
    assert np.all(coh < cls), (
        f"dominance violated at deltas "
        f"{np.linspace(-1, 1, 21)[~(coh < cls)]}"
    )
    print("\ncriterion 5 PASS: series dominance at all 21 grid points")


def test_criterion_6_feedback_dominance_and_spread(sweeps):
    cls, coh = sweeps["feedback"]["classical"], sweeps["feedback"]["coherent"]
    assert np.all(coh < cls)
    spread_c = cls.max() - cls.min()
    spread_q = coh.max() - coh.min()
    assert spread_q < spread_c, f"spread {spread_q:.4f} !< {spread_c:.4f}"
    print(
        f"\ncriterion 6 PASS: feedback dominance everywhere, spread "
        f"{spread_q:.4f} < {spread_c:.4f}"
    )


def test_criterion_7_riccati_residuals(series_study, feedback_study):
    worst = 0.0
    for study in (series_study, feedback_study):
        for name, problem in study.problems.items():
            est = study.estimator(name)
            rx = riccati_residual_x(problem, est.X.X)
            ry = riccati_residual_y(problem, est.Y.X)
            assert rx <= 1e-8 and ry <= 1e-8
            worst = max(worst, rx, ry)
    print(f"\ncriterion 7 PASS: worst relative residual {worst:.1e}")


def test_criterion_8_norm_oracle_equivalence(sweeps):
    worst = 0.0
    for name in ("series", "feedback"):
        data = sweeps[name]
        norms = np.concatenate([data["classical"], data["coherent"]])
        for loop, norm in zip(data["loops"], norms):
            ref = grid_peak_gain(loop)
            worst = max(worst, abs(norm - ref) / ref)
    assert worst <= 1e-4, f"worst relative disagreement {worst:.2e}"
    print(f"\ncriterion 8 PASS: level set vs dense grid within {worst:.1e}")


def test_criterion_9_structural_suite(series_study, feedback_study):
    rng = np.random.default_rng(31)
    # doubled-operator closure under products
    for _ in range(20):
        a = omega(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        )
        b = omega(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        )
        assert is_doubled(a @ b) and is_doubled(a + b)
    # homodyne row orthonormality
    for _ in range(20):
        m = rng.integers(1, 4)
        s = homodyne_matrix(rng.uniform(-np.pi, np.pi, size=m))
        assert np.linalg.norm(s @ s.conj().T - np.eye(m)) < 1e-13
    # uncertainty factorization identity against closed forms
    u = series_study.uncertainty
    alpha, mu = 2.0, 0.1
    for d in np.linspace(-1, 1, 41):
        t = evaluate_deltas(u, d)
        da = (-(alpha**2) * mu * d - alpha**2 * mu**2 * d**2 / 2) * np.eye(2)
        assert np.abs(t.dA - da).max() <= 1e-13
        assert np.abs(t.dB - (-mu * d * alpha) * np.eye(2)).max() <= 1e-13
        assert np.abs(t.dC - (mu * d * alpha) * np.eye(2)).max() <= 1e-13
    # lifted-uncertainty consistency, both topologies: one formula, the
    # series plant's control input B2 having no columns
    for study in (series_study, feedback_study):
        ctrl, B2 = study.controller, study.plant.B2
        for d in (-1.0, -0.5, 0.0, 0.5, 1.0):
            t = evaluate_deltas(study.uncertainty, d)
            ta = evaluate_deltas(study.lifted, d)
            da = np.block(
                [
                    [t.dA + B2 @ ctrl.D_c2 @ t.dC, np.zeros((2, 2))],
                    [ctrl.B_c2 @ t.dC, np.zeros((2, 2))],
                ]
            )
            db = np.vstack([t.dB, np.zeros((2, 2))])
            assert np.abs(ta.dA - da).max() <= 1e-12
            assert np.abs(ta.dB - db).max() <= 1e-12
    # block identity: augmented scaled matrices from plant-level ones
    plant, ctrl, u, S = (
        series_study.plant,
        series_study.controller,
        series_study.uncertainty,
        series_study.S,
    )
    pc = assemble(plant, u, S, 0.65, 0.19, 0.81)
    pa = assemble(
        augment(plant, ctrl),
        lift_uncertainty(u, ctrl, plant),
        S,
        0.65,
        0.19,
        0.81,
    )
    assert (
        np.abs(pa.B1bar - np.vstack([pc.B1bar, ctrl.B_c2 @ pc.D21bar])).max()
        <= 1e-12
    )
    assert np.abs(pa.D21bar - ctrl.Dt_c2 @ pc.D21bar).max() <= 1e-12
    assert np.abs(pa.E2bar - pc.E2bar).max() <= 1e-12
    print("\ncriterion 9 PASS: structural identity suite")
