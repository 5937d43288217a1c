import numpy as np
import pytest
from reference import deinterleave, is_doubled

from qre.augmentation import augment, lift_uncertainty
from qre.errors import WrongTopology
from qre.quantum import (
    CoherentController,
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    squeezer_controller,
    squeezer_plant,
)
from qre.uncertainty import evaluate_deltas, squeezer_uncertainty


@pytest.fixture
def series_parts():
    plant = squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1])
    ctrl = squeezer_controller(4.0, 4.0, -1.0)
    u = squeezer_uncertainty(2.0, 0.1)
    return plant, ctrl, u


@pytest.fixture
def feedback_parts():
    plant = feedback_squeezer_plant(4.0, 2.0, 2.0, -1.0, [0.1, -0.1])
    ctrl = feedback_squeezer_controller(4.0, 2.0, 2.0, 0.5)
    u = squeezer_uncertainty(np.sqrt(2.0), 0.1)
    return plant, ctrl, u


def series_controller(A_c, B_c, C_c, D_c):
    """A series controller in the zero-port convention: driven by the plant
    output through B_c, measured through C_c and D_c, with no field input
    of its own and no control output."""
    k, p = np.shape(B_c)
    q = np.shape(C_c)[0]
    return CoherentController(
        A_c=A_c, B_c1=np.zeros((k, 0)), B_c2=B_c, Ct_c=C_c, C_c=np.zeros((0, k)),
        Dt_c1=np.zeros((q, 0)), Dt_c2=D_c, D_c1=np.zeros((0, 0)),
        D_c2=np.zeros((0, p)),
    )


class TestAugment:
    def test_pass_through_controller(self, series_parts):
        plant, _, _ = series_parts
        ctrl = series_controller(
            -np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)
        )
        a = augment(plant, ctrl)
        np.testing.assert_array_equal(a.A[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(a.A[2:, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(a.C, np.hstack([plant.C, np.zeros((2, 2))]))
        np.testing.assert_array_equal(a.D, plant.D1)

    def test_benchmark_coupling_block(self, series_parts):
        plant, ctrl, _ = series_parts
        a = augment(plant, ctrl)
        np.testing.assert_array_equal(a.A[2:, :2], -4 * np.eye(2))
        np.testing.assert_array_equal(a.L, [[0.1, -0.1, 0, 0]])

    def test_dimensions(self, series_parts):
        plant, ctrl, _ = series_parts
        a = augment(plant, ctrl)
        assert a.A.shape == (4, 4)
        assert a.B.shape == (4, 2)

    def test_rejects_feedback_controller(self, series_parts, feedback_parts):
        # its control output is two wide, the series plant's control input
        # has no width
        plant, _, _ = series_parts
        _, ctrl, _ = feedback_parts
        with pytest.raises(WrongTopology, match=r"\(2, 2\) .* \(2, 0\)"):
            augment(plant, ctrl)

    def test_rejects_input_width_mismatch(self, series_parts):
        plant, _, _ = series_parts
        ctrl = series_controller(
            -np.eye(2), np.zeros((2, 4)), np.eye(2), np.zeros((2, 4))
        )
        with pytest.raises(WrongTopology, match=r"\(4, 0\) .* \(2, 0\)"):
            augment(plant, ctrl)

    def test_preserves_doubled_structure(self, series_parts):
        plant, ctrl, _ = series_parts
        a = augment(plant, ctrl)
        for m in (a.A, a.B, a.C, a.D):
            assert is_doubled(deinterleave(m))


class TestAugmentFeedback:
    def test_severed_loop_is_block_diagonal(self, feedback_parts):
        plant, _, _ = feedback_parts
        ctrl = CoherentController(
            A_c=-np.eye(2),
            B_c1=-np.eye(2),
            B_c2=np.zeros((2, 2)),
            Ct_c=np.eye(2),
            C_c=np.zeros((2, 2)),
            Dt_c1=np.eye(2),
            Dt_c2=np.zeros((2, 2)),
            D_c1=np.zeros((2, 2)),
            D_c2=np.zeros((2, 2)),
        )
        a = augment(plant, ctrl)
        np.testing.assert_array_equal(a.A[:2, :2], plant.A)
        np.testing.assert_array_equal(a.A[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(a.A[2:, :2], np.zeros((2, 2)))

    def test_benchmark_blocks(self, feedback_parts):
        plant, ctrl, _ = feedback_parts
        a = augment(plant, ctrl)
        # closing the loop shifts the plant poles by B2 Dc2 C = -2 I
        np.testing.assert_allclose(a.A[:2, :2], plant.A - 2 * np.eye(2))
        np.testing.assert_allclose(a.B[2:, :2], -np.sqrt(2) * np.eye(2))

    def test_rejects_wrong_parts(self, series_parts, feedback_parts):
        splant, sctrl, _ = series_parts
        fplant, fctrl, _ = feedback_parts
        with pytest.raises(WrongTopology):
            augment(splant, fctrl)
        with pytest.raises(WrongTopology):
            augment(fplant, sctrl)

    def test_preserves_doubled_structure(self, feedback_parts):
        plant, ctrl, _ = feedback_parts
        a = augment(plant, ctrl)
        for m in (a.A, a.B, a.C, a.D):
            assert is_doubled(deinterleave(m))


class TestLiftUncertainty:
    def test_zero_coupling_controller(self, series_parts):
        plant, _, u = series_parts
        ctrl = series_controller(
            -np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        )
        au = lift_uncertainty(u, ctrl, plant)
        np.testing.assert_array_equal(au.H1[2:], np.zeros((2, 4)))
        np.testing.assert_array_equal(au.H3, np.zeros((2, 4)))

    def test_benchmark_lower_block(self, series_parts):
        plant, ctrl, u = series_parts
        au = lift_uncertainty(u, ctrl, plant)
        # independent oracle: direct product of the controller input block
        # with the plant output factor
        np.testing.assert_allclose(au.H1[2:], ctrl.B_c2 @ u.H3)
        assert au.H1[2, 0] == pytest.approx(0.8)
        assert au.H1[3, 1] == pytest.approx(0.8)

    def test_series_consistency_identity(self, series_parts):
        plant, ctrl, u = series_parts
        au = lift_uncertainty(u, ctrl, plant)
        for d in np.linspace(-1, 1, 11):
            t = evaluate_deltas(u, d)
            ta = evaluate_deltas(au, d)
            expected_dA = np.block(
                [
                    [t.dA, np.zeros((2, 2))],
                    [ctrl.B_c2 @ t.dC, np.zeros((2, 2))],
                ]
            )
            np.testing.assert_allclose(ta.dA, expected_dA, atol=1e-12)
            np.testing.assert_allclose(
                ta.dB, np.vstack([t.dB, np.zeros((2, 2))]), atol=1e-12
            )
            np.testing.assert_allclose(
                ta.dC,
                np.hstack([ctrl.Dt_c2 @ t.dC, np.zeros((2, 2))]),
                atol=1e-12,
            )

    def test_feedback_consistency_identity(self, feedback_parts):
        plant, ctrl, u = feedback_parts
        au = lift_uncertainty(u, ctrl, plant)
        for d in (-1.0, -0.5, 0.0, 0.5, 1.0):
            t = evaluate_deltas(u, d)
            ta = evaluate_deltas(au, d)
            expected_dA = np.block(
                [
                    [t.dA + plant.B2 @ ctrl.D_c2 @ t.dC, np.zeros((2, 2))],
                    [ctrl.B_c2 @ t.dC, np.zeros((2, 2))],
                ]
            )
            # dB acts on the plant disturbance block alone, the leading
            # columns of the augmented input; G is not widened
            expected_dB = np.vstack([t.dB, np.zeros((2, 2))])
            np.testing.assert_allclose(ta.dA, expected_dA, atol=1e-12)
            np.testing.assert_allclose(ta.dB, expected_dB, atol=1e-12)
            np.testing.assert_allclose(
                ta.dC,
                np.hstack([ctrl.Dt_c2 @ t.dC, np.zeros((2, 2))]),
                atol=1e-12,
            )

    def test_feedback_lift_requires_plant(self, series_parts, feedback_parts):
        # a plant whose ports match the controller's
        splant, sctrl, _ = series_parts
        fplant, fctrl, u = feedback_parts
        with pytest.raises(WrongTopology):
            lift_uncertainty(u, fctrl, splant)
        with pytest.raises(WrongTopology):
            lift_uncertainty(u, sctrl, fplant)
