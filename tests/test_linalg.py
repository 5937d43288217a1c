import numpy as np
import pytest
import scipy.linalg as sla

from qre.errors import ImaginaryAxisEigenvalue, NotPositiveDefinite
from qre.linalg import (
    CareInstance,
    adjoint,
    hermitian_inv_sqrt,
    max_singular_value,
    solve_care,
)


class TestAdjoint:
    def test_scalar_conjugate(self):
        assert adjoint([[1j]])[0, 0] == -1j

    def test_identity(self):
        np.testing.assert_array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_entrywise_definition(self):
        m = np.array([[1 + 1j, 2], [0, 3 - 1j]])
        expected = np.array([[1 - 1j, 0], [2, 3 + 1j]])
        np.testing.assert_array_equal(adjoint(m), expected)

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            np.testing.assert_array_equal(adjoint(adjoint(m)), m)


class TestHermitianInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_inv_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal_closed_form(self):
        p = hermitian_inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(p, np.diag([0.5, 1 / 3]))

    def test_scalar_scaling_matrix(self):
        # (1 - 0.81^2) I appears when an input-scaling factor saturates at
        # eps2 = 0.81; the inverse square root is 1/sqrt(0.3439)
        m = (1 - 0.81**2) * np.eye(2)
        p = hermitian_inv_sqrt(m)
        np.testing.assert_allclose(p, np.eye(2) / np.sqrt(0.3439), rtol=1e-12)
        np.testing.assert_allclose(p @ m @ p, np.eye(2), atol=1e-12)

    def test_property_seeded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(1, 9)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = a @ a.conj().T + 0.1 * np.eye(n)
            p = hermitian_inv_sqrt(m)
            assert np.linalg.norm(p - p.conj().T) < 1e-12 * np.linalg.norm(p)
            assert np.linalg.norm(p @ m @ p - np.eye(n)) <= 1e-10 * np.sqrt(n)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_inv_sqrt(np.diag([1.0, -1.0]))


class TestMaxSingularValue:
    def test_zero(self):
        assert max_singular_value(np.zeros((3, 2))) == 0.0

    def test_diagonal(self):
        assert max_singular_value(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_nilpotent(self):
        assert max_singular_value([[0, 2], [0, 0]]) == pytest.approx(2.0)


def kleinman_iterate(inst, x0, iters=60):
    """Independent Newton iteration for the canonical Riccati equation,
    seeded from a stabilizing guess."""
    X = x0
    for _ in range(iters):
        Acl = inst.A + inst.R @ X
        X = sla.solve_continuous_lyapunov(Acl.conj().T, X @ inst.R @ X - inst.Q)
        X = (X + X.conj().T) / 2
    return X


def random_care(rng, n, m, p):
    """Random instance with R <= 0, Q >= 0 (stabilizing solution exists
    generically)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return CareInstance(A=a, R=-b @ b.conj().T, Q=c.conj().T @ c)


class TestSolveCare:
    def test_scalar_lyapunov_reduction(self):
        sol = solve_care(CareInstance(A=[[-1.0]], R=[[0.0]], Q=[[2.0]]))
        assert sol.X[0, 0] == pytest.approx(1.0)

    def test_scalar_quadratic_stabilizing_root(self):
        sol = solve_care(CareInstance(A=[[0.0]], R=[[-1.0]], Q=[[1.0]]))
        assert sol.X[0, 0] == pytest.approx(1.0)
        assert sol.closed_loop_abscissa == pytest.approx(-1.0)

    def test_seeded_4x4_residual_oracle(self):
        rng = np.random.default_rng(3)
        inst = random_care(rng, 4, 2, 3)
        sol = solve_care(inst)
        X = sol.X
        # direct evaluation of the quadratic matrix polynomial
        res = inst.A.conj().T @ X + X @ inst.A + X @ inst.R @ X + inst.Q
        assert np.linalg.norm(res) / (1 + np.linalg.norm(inst.Q)) <= 1e-10
        assert sol.closed_loop_abscissa < 0
        assert np.linalg.norm(X - X.conj().T) < 1e-12 * max(np.linalg.norm(X), 1)

    @pytest.mark.parametrize("n,seed", [(2, 5), (4, 9)])
    def test_agrees_with_newton_iteration(self, n, seed):
        rng = np.random.default_rng(seed)
        inst = random_care(rng, n, n, n)
        sol = solve_care(inst)
        # A is Hurwitz and R <= 0, so X0 = 0 is a stabilizing seed
        ref = kleinman_iterate(inst, np.zeros((n, n), dtype=complex))
        assert np.max(np.abs(sol.X - ref)) <= 1e-8

    def test_residual_gate_enforced(self):
        rng = np.random.default_rng(21)
        inst = random_care(rng, 3, 2, 2)
        sol = solve_care(inst)
        assert sol.residual <= 1e-8

    def test_imaginary_axis_eigenvalue(self):
        # A = 0, R = 0: the Hamiltonian is nilpotent with spectrum {0}
        with pytest.raises(ImaginaryAxisEigenvalue):
            solve_care(CareInstance(A=[[0.0]], R=[[0.0]], Q=[[1.0]]))

    def test_gap_read_off_the_schur_form(self):
        # spectrum {-1e-10, 1e-10}: the reported gap is the eigenvalue's
        with pytest.raises(ImaginaryAxisEigenvalue, match="within 1.000e-10 "):
            solve_care(CareInstance(A=[[-1e-10]], R=[[0.0]], Q=[[0.0]]))

    def test_rejects_non_hermitian_data(self):
        with pytest.raises(ValueError):
            CareInstance(A=np.eye(2), R=[[0, 1], [0, 0]], Q=np.eye(2))
