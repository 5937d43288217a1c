import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import is_doubled, scalar_realizable

from qre.errors import DomainError, NotPhysicallyRealizable, ShapeMismatch
from qre.presets import build_study, feedback_benchmark_config, series_benchmark_config
from qre.quantum import (
    CoherentController,
    QuantumPlant,
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    homodyne_matrix,
    omega,
    pass_through_controller,
    squeezer_controller,
    squeezer_plant,
)


def assert_strict_rejects(feedback, group, **params):
    """build_study under strict_pr, the one place that rejects an
    unrealizable model, raises on a benchmark config with ``params`` in its
    ``group``, naming the group and the condition it fails."""
    cfg = feedback_benchmark_config() if feedback else series_benchmark_config()
    cfg[group].update(params)
    message = f"{group} is not physically realizable: A J + J A^dag + B J B^dag != 0"
    with pytest.raises(NotPhysicallyRealizable, match=f"^{re.escape(message)}$"):
        build_study({**cfg, "strict_pr": True})


class TestOmega:
    def test_identity_block(self):
        np.testing.assert_array_equal(
            omega([[1.0]], [[0.0]]), np.eye(2)
        )

    def test_swap_block(self):
        np.testing.assert_array_equal(
            omega([[0.0]], [[1.0]]), np.array([[0, 1], [1, 0]])
        )

    def test_squeezer_state_matrix(self):
        # loss 4, nonlinearity 0.5 -> diagonal -2, off-diagonal -0.5
        np.testing.assert_array_equal(
            omega([[-2.0]], [[-0.5]]),
            np.array([[-2, -0.5], [-0.5, -2]]),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            omega(np.eye(2), np.eye(3))


class TestDoubledClosure:
    def test_products_and_sums_preserve_structure(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q, r = rng.integers(1, 4, size=3)
            a = omega(
                rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)),
                rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)),
            )
            b = omega(
                rng.standard_normal((q, r)) + 1j * rng.standard_normal((q, r)),
                rng.standard_normal((q, r)) + 1j * rng.standard_normal((q, r)),
            )
            c = omega(
                rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)),
                rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)),
            )
            assert is_doubled(a @ b)
            assert is_doubled(a + c)


class TestHomodyne:
    def test_zero_angle(self):
        np.testing.assert_allclose(
            homodyne_matrix([0.0]), np.array([[1, 1]]) / np.sqrt(2)
        )

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            homodyne_matrix([np.pi / 2]),
            np.array([[-1j, 1j]]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_ten_degrees(self):
        s = homodyne_matrix([np.deg2rad(10.0)])
        c, d = np.cos(np.deg2rad(10)), np.sin(np.deg2rad(10))
        np.testing.assert_allclose(
            s, np.array([[c - 1j * d, c + 1j * d]]) / np.sqrt(2), rtol=1e-12
        )
        np.testing.assert_allclose(s @ s.conj().T, np.eye(1), atol=1e-14)

    def test_rows_orthonormal_random_angles(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = rng.integers(1, 5)
            s = homodyne_matrix(rng.uniform(-np.pi, np.pi, size=m))
            np.testing.assert_allclose(s @ s.conj().T, np.eye(m), atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_angles(self, bad):
        for angles in (bad, [0.1, bad]):
            with pytest.raises(DomainError, match="must be finite"):
                homodyne_matrix(angles)


class TestSqueezerPlant:
    def test_benchmark_values(self):
        p = squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1])
        np.testing.assert_array_equal(p.A, [[-2, -0.5], [-0.5, -2]])
        np.testing.assert_array_equal(p.B1, -2 * np.eye(2))
        np.testing.assert_array_equal(p.C, 2 * np.eye(2))
        np.testing.assert_array_equal(p.D1, np.eye(2))
        # no control input: B2 has no columns
        assert p.B2.shape == (2, 0)
        np.testing.assert_array_equal(p.B, p.B1)
        np.testing.assert_array_equal(p.D, p.D1)
        assert p.physically_realizable

    def test_output_input_product_anchor(self):
        p = squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1])
        np.testing.assert_array_equal(p.C @ p.B1, -4 * np.eye(2))

    def test_strict_realizability(self):
        # the builder builds it; build_study's strict_pr rejects it
        assert not squeezer_plant(4.0, 2.0, 0.5, [0.1, -0.1]).physically_realizable
        assert_strict_rejects(False, "plant", beta=4.0, kappa=2.0)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 1)])
    def test_rejects_feedthrough_not_conforming(self, shape):
        # D1 maps the disturbance inputs (columns of B1) to the outputs
        # (rows of C)
        with pytest.raises(ShapeMismatch, match=r"^D1 has shape .*expected \(2, 2\)"):
            QuantumPlant(A=-np.eye(2), B1=np.eye(2), B2=np.zeros((2, 0)),
                         C=np.eye(2), D1=np.zeros(shape), L=[[1, 0]])

    def test_zero_nonlinearity_decouples(self):
        p = squeezer_plant(2.0, 2.0, 0.0, [1.0, 0.0])
        np.testing.assert_array_equal(p.A, -np.eye(2))
        np.testing.assert_allclose(p.B1, -np.sqrt(2) * np.eye(2))
        np.testing.assert_allclose(p.C, np.sqrt(2) * np.eye(2))


class TestSqueezerController:
    def test_benchmark_values(self):
        c = squeezer_controller(4.0, 4.0, -1.0)
        np.testing.assert_array_equal(c.A_c, [[-2, 1], [1, -2]])
        np.testing.assert_array_equal(c.B_c2, -2 * np.eye(2))
        np.testing.assert_array_equal(c.Ct_c, 2 * np.eye(2))
        np.testing.assert_array_equal(c.Dt_c2, np.eye(2))
        # no field input of its own and no control output: those ports
        # have zero width
        assert c.B_c1.shape == c.Dt_c1.shape == (2, 0)
        assert c.C_c.shape == c.D_c2.shape == (0, 2)
        assert c.D_c1.shape == (0, 0)

    def test_strict_realizability(self):
        assert not squeezer_controller(4.0, 2.0, -1.0).physically_realizable
        assert_strict_rejects(False, "controller", beta_c=4.0, kappa_c=2.0)

    def test_complex_nonlinearity_conjugation(self):
        chi = 0.5 + 0.5j
        c = squeezer_controller(2.0, 2.0, chi)
        np.testing.assert_allclose(
            c.A_c, [[-1, -chi], [-np.conj(chi), -1]]
        )


class TestFeedbackSqueezerPlant:
    def test_benchmark_values(self):
        p = feedback_squeezer_plant(4.0, 2.0, 2.0, -1.0, [0.1, -0.1])
        np.testing.assert_array_equal(p.A, [[-2, 1], [1, -2]])
        np.testing.assert_allclose(p.B1, -np.sqrt(2) * np.eye(2))
        np.testing.assert_allclose(p.B2, -np.sqrt(2) * np.eye(2))
        np.testing.assert_allclose(p.C, np.sqrt(2) * np.eye(2))
        np.testing.assert_array_equal(
            p.D, np.hstack([np.eye(2), np.zeros((2, 2))])
        )
        assert p.physically_realizable

    def test_strict_realizability(self):
        p = feedback_squeezer_plant(4.0, 3.0, 2.0, -1.0, [0.1, -0.1])
        assert not p.physically_realizable
        assert_strict_rejects(True, "plant", beta=4.0, kappa1=3.0, kappa2=2.0)

    def test_degenerate_single_input_limit(self):
        p = feedback_squeezer_plant(2.0, 2.0, 0.0, 0.0, [1.0, 0.0])
        np.testing.assert_array_equal(p.B2, np.zeros((2, 2)))


class TestFeedbackSqueezerController:
    def test_benchmark_values(self):
        c = feedback_squeezer_controller(4.0, 2.0, 2.0, 0.5)
        np.testing.assert_array_equal(c.A_c, [[-2, -0.5], [-0.5, -2]])
        rk = np.sqrt(2)
        np.testing.assert_allclose(c.B_c1, -rk * np.eye(2))
        np.testing.assert_allclose(c.B_c2, -rk * np.eye(2))
        np.testing.assert_allclose(c.Ct_c, rk * np.eye(2))
        np.testing.assert_allclose(c.C_c, rk * np.eye(2))
        np.testing.assert_array_equal(c.Dt_c1, np.eye(2))
        np.testing.assert_array_equal(c.Dt_c2, np.zeros((2, 2)))
        np.testing.assert_array_equal(c.D_c1, np.zeros((2, 2)))
        np.testing.assert_array_equal(c.D_c2, np.eye(2))
        # both ports two wide
        assert c.B_c1.shape == c.C_c.shape == (2, 2)

    def test_strict_realizability(self):
        assert not feedback_squeezer_controller(4.0, 1.0, 2.0, 0.5).physically_realizable
        assert_strict_rejects(True, "controller", beta_c=4.0, kappa_c1=1.0, kappa_c2=2.0)

    def test_zero_nonlinearity(self):
        c = feedback_squeezer_controller(2.0, 1.0, 1.0, 0.0)
        np.testing.assert_array_equal(c.A_c, -np.eye(2))


# each builder with realizable arguments, and which of them must be
# positive; its other couplings may be 0
RANGES = [
    (squeezer_plant, dict(beta=4.0, kappa=4.0, chi=0.5, L=[0.1, -0.1]),
     ("beta", "kappa")),
    (feedback_squeezer_plant,
     dict(beta=4.0, kappa1=2.0, kappa2=2.0, chi=-1.0, L=[0.1, -0.1]),
     ("beta", "kappa1")),
    (squeezer_controller, dict(beta_c=4.0, kappa_c=4.0, chi_c=-1.0),
     ("beta_c", "kappa_c")),
    (feedback_squeezer_controller,
     dict(beta_c=4.0, kappa_c1=2.0, kappa_c2=2.0, chi_c=0.5), ("beta_c",)),
]


def range_cases(must_be_positive):
    """(builder, arguments, name) for each argument of RANGES that must be
    positive, or else for each coupling that may be 0."""
    return [pytest.param(build, args, name, id=f"{build.__name__}-{name}")
            for build, args, positive in RANGES for name in args
            if (name in positive if must_be_positive
                else name.startswith("kappa") and name not in positive)]


class TestRanges:
    """Each builder's range check names the argument at fault and its value."""

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("build, args, name", range_cases(True))
    def test_a_parameter_that_is_not_positive_raises(self, build, args, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be positive, got {value}$"):
            build(**{**args, name: value})

    @pytest.mark.parametrize("value", [-1.0, np.nan])
    @pytest.mark.parametrize("build, args, name", range_cases(False))
    def test_a_negative_coupling_raises(self, build, args, name, value):
        with pytest.raises(DomainError,
                           match=f"^{name} must be nonnegative, got {value}$"):
            build(**{**args, name: value})

    @pytest.mark.parametrize("build, args, name", range_cases(False))
    def test_a_zero_coupling_builds(self, build, args, name):
        # and with the loss at the sum of the couplings it is realizable
        loss = "beta_c" if "beta_c" in args else "beta"
        args = {**args, name: 0.0, loss: args[loss] - args[name]}
        assert build(**args).physically_realizable


def controller_blocks(**overrides):
    """The blocks of a conforming two-port controller with two states."""
    blocks = {name: np.zeros((2, 2)) for name in (
        "A_c", "B_c1", "B_c2", "Ct_c", "C_c", "Dt_c1", "Dt_c2", "D_c1", "D_c2"
    )}
    blocks["A_c"] = -np.eye(2)
    return {**blocks, **overrides}


class TestCoherentControllerShapes:
    def test_conforming_blocks(self):
        CoherentController(**controller_blocks())
        # zero-width ports conform too
        CoherentController(**controller_blocks(
            B_c1=np.zeros((2, 0)), Dt_c1=np.zeros((2, 0)), D_c1=np.zeros((0, 0)),
            C_c=np.zeros((0, 2)), D_c2=np.zeros((0, 2)),
        ))

    @pytest.mark.parametrize("name, shape", [
        ("A_c", (2, 3)),
        ("B_c1", (3, 2)),
        ("B_c2", (1, 2)),
        ("Ct_c", (2, 3)),
        ("C_c", (2, 1)),
        ("Dt_c1", (2, 3)),
        ("Dt_c2", (1, 2)),
        ("D_c1", (3, 2)),
        ("D_c2", (2, 4)),
    ])
    def test_rejects_nonconforming_block(self, name, shape):
        with pytest.raises(ShapeMismatch, match=f"^{name} has shape"):
            CoherentController(**controller_blocks(**{name: np.zeros(shape)}))


# each builder as (its number of couplings, a call with the loss, the
# couplings and the squeezing)
BUILDERS = {
    "squeezer_plant": (1, lambda b, k, chi, **kw: squeezer_plant(
        b, *k, chi, [0.1, -0.1], **kw)),
    "squeezer_controller": (1, lambda b, k, chi, **kw: squeezer_controller(
        b, *k, chi, **kw)),
    "feedback_squeezer_plant": (2, lambda b, k, chi, **kw: feedback_squeezer_plant(
        b, *k, chi, [0.1, -0.1], **kw)),
    "feedback_squeezer_controller": (2, lambda b, k, chi, **kw:
                                     feedback_squeezer_controller(b, *k, chi, **kw)),
}
coupling = st.floats(1e-3, 50.0)
# the loss is the sum of the couplings, or off it by at least 1e-6
# relative: the scalar rule's tolerance and the matrix condition's differ
# only within 2e-12 of the sum
mismatch = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-0.9, -1e-6))
squeezing = st.one_of(
    st.floats(-5.0, 5.0),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
)


class TestRealizability:
    """``physically_realizable`` is the matrix condition
    A J + J A^dag + B J B^dag = 0 on the model's own matrices, which on the
    squeezer builders is the scalar rule they used to check."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(BUILDERS)),
           couplings=st.tuples(coupling, st.one_of(st.just(0.0), coupling)),
           mismatch=mismatch, chi=squeezing)
    def test_matches_the_scalar_rule(self, name, couplings, mismatch, chi):
        width, build = BUILDERS[name]
        k = couplings[:width]
        beta = sum(k) * (1 + mismatch)
        want = scalar_realizable(beta, k)
        assert want == (mismatch == 0)
        assert build(beta, k, chi).physically_realizable is want

    def test_pass_through_controller(self):
        for plant in (squeezer_plant(4.0, 4.0, 0.5, [0.1, -0.1]),
                      feedback_squeezer_plant(4.0, 2.0, 2.0, -1.0, [0.1, -0.1])):
            assert pass_through_controller(plant).physically_realizable

    def test_a_perturbed_state_matrix_fails(self):
        rng = np.random.default_rng(5)
        plant = feedback_squeezer_plant(4.0, 2.0, 2.0, -1.0, [0.1, -0.1])
        ctrl = squeezer_controller(4.0, 4.0, -1.0)
        assert plant.physically_realizable and ctrl.physically_realizable
        for scale in (1e-3, 1e-8):
            dA = scale * rng.standard_normal((2, 2))
            for model in (dataclasses.replace(plant, A=plant.A + dA),
                          dataclasses.replace(ctrl, A_c=ctrl.A_c + dA)):
                assert not model.physically_realizable

    def test_an_odd_block_fails_without_raising(self):
        # three states, or an input block one wide, have no doubled-up form
        plant = QuantumPlant(A=-np.eye(3), B1=np.eye(3), B2=np.zeros((3, 0)),
                             C=np.eye(3), D1=np.zeros((3, 3)), L=[[1, 0, 0]])
        assert plant.physically_realizable is False
        ctrl = CoherentController(**controller_blocks(
            B_c1=np.zeros((2, 1)), Dt_c1=np.zeros((2, 1)), D_c1=np.zeros((2, 1))))
        assert ctrl.physically_realizable is False
        # with even ports, the all-zero controller meets the condition
        assert CoherentController(**controller_blocks(
            A_c=np.zeros((2, 2)))).physically_realizable
