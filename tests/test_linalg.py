from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import assert_same_outcome as assert_same_result
from reference import outcome as result
from reference import solve_care as reference_solve_care
from test_synthesis import angle, estimand, positive, scaling, squeezing, uncertainty

from qre import synthesis
from qre.augmentation import augment, lift_uncertainty
from qre.errors import (
    ImaginaryAxisEigenvalue,
    NotPositiveDefinite,
    QreError,
    ResidualTooLarge,
    SingularU1,
    UnstableSystem,
)
from qre.linalg import (
    CARE_RESIDUAL_TOL,
    IMAG_AXIS_GAP,
    CareInstance,
    adjoint,
    hermitian_inv_sqrt,
    _solve_cares,
    max_singular_value,
    solve_care,
)
from qre.quantum import (
    feedback_squeezer_plant,
    homodyne_matrix,
    squeezer_controller,
    squeezer_plant,
)
from qre.synthesis import assemble
from qre.uncertainty import squeezer_uncertainty


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

    def test_gap_read_off_the_hamiltonian_spectrum(self):
        # spectrum {-1e-10, 1e-10}: the reported gap is the eigenvalue's
        with pytest.raises(ImaginaryAxisEigenvalue, match="within 1.000e-10 "):
            solve_care(CareInstance(A=[[-1e-10]], R=[[0.0]], Q=[[0.0]]))

    def test_singular_u1(self):
        # H = diag(1, -1): the stable eigenvector (0, 1) has U1 = 0 exactly
        with pytest.raises(SingularU1, match="condition number inf"):
            solve_care(CareInstance(A=[[1.0]], R=[[0.0]], Q=[[0.0]]))

    def test_singular_kleinman_step(self):
        # A has the eigenvalues 0 and 3 and R = 0, so Acl = A and the
        # Kronecker matrix of Acl^dag X + X Acl is exactly singular; the
        # defective Hamiltonian eigenvalue at 0 splits to about 2.7e-8 and
        # passes the gap gate
        inst = CareInstance(A=[[1.0, -2.0], [-1.0, 2.0]], R=np.zeros((2, 2)),
                            Q=[[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ResidualTooLarge, match="Kleinman step"):
            solve_care(inst)

    def test_unstable_closed_loop(self):
        # the stable eigenvectors of H belong to -A^T, so U1 is rounding
        # noise that the scale-free cond(U1) gate passes; the Lyapunov step
        # then meets the residual gate with Acl = A, whose abscissa is 2
        inst = CareInstance(A=[[2.0, -1.0], [2.0, 2.0]], R=np.zeros((2, 2)),
                            Q=[[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(UnstableSystem, match="abscissa 2.000e\\+00"):
            solve_care(inst)

    def test_rejects_non_hermitian_data(self):
        with pytest.raises(ValueError):
            CareInstance(A=np.eye(2), R=[[0, 1], [0, 0]], Q=np.eye(2))


def schur_care(inst):
    """Reference solver with the gates of ``solve_care``: the ordered complex
    Schur form of the Hamiltonian (Laub, IEEE TAC 24, 1979) and a
    Bartels-Stewart Kleinman step."""
    A, R, Q = inst.A, inst.R, inst.Q
    n = inst.n
    H = np.block([[A, R], [-Q, -A.conj().T]])
    T, Z, sdim = sla.schur(H, output="complex", sort=lambda lam: lam.real < 0)
    gap = np.min(np.abs(np.diag(T).real))
    if gap < IMAG_AXIS_GAP or sdim != n:
        raise ImaginaryAxisEigenvalue(f"gap {gap:.3e}, sdim {sdim}")
    U1, U2 = Z[:n, :n], Z[n:, :n]
    cond = np.linalg.cond(U1)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularU1(f"U1 condition number {cond:.3e}")
    X = U2 @ np.linalg.inv(U1)
    X = (X + X.conj().T) / 2
    Acl = A + R @ X
    X = sla.solve_continuous_lyapunov(Acl.conj().T, X @ R @ X - Q)
    X = (X + X.conj().T) / 2
    if not inst.residual(X) <= CARE_RESIDUAL_TOL:
        raise ResidualTooLarge("residual")
    if not np.max(np.linalg.eigvals(A + R @ X).real) < 0:
        raise UnstableSystem("abscissa")
    return X


def outcome(solver, inst):
    """(outcome class name, X or None); only QreError is an outcome."""
    try:
        X = solver(inst)
    except QreError as exc:
        return type(exc).__name__, None
    return "solved", X


def solve_x(inst):
    return solve_care(inst).X


def assert_same_outcome(inst):
    got, X = outcome(solve_x, inst)
    ref, Xref = outcome(schur_care, inst)
    assert got == ref
    if X is not None:
        assert np.linalg.norm(X - Xref) <= 1e-10 * np.linalg.norm(Xref)


def backward_residual(inst, X):
    """Residual scaled by the size of the terms that make it up."""
    A, R, Q = inst.A, inst.R, inst.Q
    res = A.conj().T @ X + X @ A + X @ R @ X + Q
    nx = np.linalg.norm(X)
    scale = 2 * np.linalg.norm(A) * nx + np.linalg.norm(R) * nx**2
    return np.linalg.norm(res) / (scale + np.linalg.norm(Q))


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def near_defective_care(rng, n, log_cond, re):
    """A = S J S^-1 with J one Jordan block at re + i w and S of condition
    number 10^log_cond; R <= 0 and Q >= 0 of random rank."""
    J = (re + 1j * rng.uniform(-1, 1)) * np.eye(n) + np.eye(n, k=1)
    U = np.linalg.qr(complex_normal(rng, (n, n)))[0]
    W = np.linalg.qr(complex_normal(rng, (n, n)))[0]
    S = U @ np.diag(np.logspace(0, -log_cond, n)) @ W
    B = complex_normal(rng, (n, rng.integers(1, n + 1)))
    C = complex_normal(rng, (rng.integers(1, n + 1), n))
    return CareInstance(A=S @ J @ np.linalg.inv(S), R=-B @ B.conj().T,
                        Q=C.conj().T @ C)


seeds = st.integers(0, 2**32 - 1)


class TestAgainstSchurReference:
    """The eigenvector solver against the Schur solver: the same outcome
    class and the same X on well-posed draws; on near-defective draws, any
    outcome it accepts is a backward-stable stabilizing solution."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(feedback=st.booleans(), kappa1=positive, kappa2=positive,
           chi=squeezing, L=estimand, mu=uncertainty, theta=angle,
           scaling=scaling)
    def test_realizable_squeezer_cares(self, feedback, kappa1, kappa2, chi,
                                       L, mu, theta, scaling):
        u = squeezer_uncertainty(np.sqrt(kappa1), mu)
        if feedback:
            plant = feedback_squeezer_plant(
                kappa1 + kappa2, kappa1, kappa2, chi, L, strict=True
            )
            channels = [(plant, u)]
        else:
            plant = squeezer_plant(kappa1, kappa1, chi, L, strict=True)
            ctrl = squeezer_controller(kappa2, kappa2, chi / 2, strict=True)
            channels = [(plant, u),
                        (augment(plant, ctrl), lift_uncertainty(u, ctrl))]
        S = homodyne_matrix([np.deg2rad(theta)])
        cares = []

        def record(A, R, Q, *args):
            # every CARE of the stack, as the instance it would be alone
            for a, r, q in zip(*np.broadcast_arrays(A, R, Q)):
                cares.append(CareInstance(A=a, R=r, Q=q))
            return _solve_cares(A, R, Q, *args)

        problems = []
        for system, channel_u in channels:
            try:
                problems.append(assemble(system, channel_u, S, *scaling))
            except QreError:
                pass
        assume(problems)
        with mock.patch.object(synthesis, "_solve_cares", record):
            for p in problems:
                try:
                    synthesis.synthesize(p)
                except QreError:
                    pass
        # each synthesis solves its state equation at least
        assert len(cares) >= len(problems)
        for inst in cares:
            assert_same_outcome(inst)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=seeds, n=st.integers(1, 4))
    def test_random_stabilizable_instances(self, seed, n):
        rng = np.random.default_rng(seed)
        B = complex_normal(rng, (n, rng.integers(1, n + 1)))
        C = complex_normal(rng, (rng.integers(1, n + 1), n))
        inst = CareInstance(A=complex_normal(rng, (n, n)),
                            R=-B @ B.conj().T, Q=C.conj().T @ C)
        assert_same_outcome(inst)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=seeds, n=st.integers(2, 4), log_cond=st.floats(0.0, 8.0),
           re=st.floats(-1.0, 1.0))
    def test_near_defective_draws(self, seed, n, log_cond, re):
        # the two Kleinman steps can fall on either side of the residual
        # gate (about 3.6% of such draws, mostly accepted here and rejected
        # by Bartels-Stewart), so outcomes may differ among these classes
        inst = near_defective_care(np.random.default_rng(seed), n, log_cond, re)
        swappable = {"solved", "ImaginaryAxisEigenvalue", "ResidualTooLarge",
                     "SingularU1"}
        results = [outcome(solve_x, inst), outcome(schur_care, inst)]
        if results[0][0] != results[1][0]:
            assert {results[0][0], results[1][0]} <= swappable
        for _, X in results:
            if X is not None:
                assert backward_residual(inst, X) <= 1e-13
                assert np.max(np.linalg.eigvals(inst.A + inst.R @ X).real) < 0


def singular_kleinman_care():
    """A has the eigenvalues 0 and 3 and R = 0, so the Kleinman step's
    Kronecker matrix is exactly singular (see test_singular_kleinman_step)."""
    return CareInstance(A=[[1.0, -2.0], [-1.0, 2.0]], R=np.zeros((2, 2)),
                        Q=[[1.0, 1.0], [1.0, 1.0]])


def assert_stack_matches_one_at_a_time(insts):
    """Each CARE of a stack gets the outcome of its one-CARE solve and of
    the per-CARE reference: the same class and message, X bitwise."""
    got = _solve_cares(*(np.stack([getattr(i, m) for i in insts]) for m in "ARQ"))
    assert len(got) == len(insts)
    for inst, sol in zip(insts, got):
        assert_same_result(sol, result(solve_care, inst))
        assert_same_result(sol, result(reference_solve_care, inst))
    return [type(sol).__name__ for sol in got]


class TestStackedKernel:
    """The stacked CARE kernel: every gate per CARE, a failed CARE leaving
    the stack without disturbing the others."""

    def test_singular_kleinman_step_beside_a_solvable_care(self):
        solvable = random_care(np.random.default_rng(3), 2, 1, 2)
        classes = assert_stack_matches_one_at_a_time(
            [solvable, singular_kleinman_care(), solvable]
        )
        assert classes == ["CareSolution", "ResidualTooLarge", "CareSolution"]

    def test_every_gate_in_one_stack(self):
        insts = [
            CareInstance(A=[[-1.0]], R=[[0.0]], Q=[[2.0]]),
            CareInstance(A=[[0.0]], R=[[0.0]], Q=[[1.0]]),  # gap
            CareInstance(A=[[1.0]], R=[[0.0]], Q=[[0.0]]),  # singular U1
            CareInstance(A=[[0.0]], R=[[-1.0]], Q=[[1.0]]),
        ]
        assert assert_stack_matches_one_at_a_time(insts) == [
            "CareSolution", "ImaginaryAxisEigenvalue", "SingularU1", "CareSolution"
        ]
        unstable = CareInstance(A=[[2.0, -1.0], [2.0, 2.0]], R=np.zeros((2, 2)),
                                Q=[[1.0, -1.0], [-1.0, 1.0]])
        assert assert_stack_matches_one_at_a_time(
            [unstable, singular_kleinman_care(), unstable]
        ) == ["UnstableSystem", "ResidualTooLarge", "UnstableSystem"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=seeds, n=st.integers(1, 4), k=st.integers(1, 6),
           singular=st.booleans())
    def test_random_mixed_stacks(self, seed, n, k, singular):
        rng = np.random.default_rng(seed)
        insts = []
        for _ in range(k):
            B = complex_normal(rng, (n, rng.integers(1, n + 1)))
            C = complex_normal(rng, (rng.integers(1, n + 1), n))
            # R of either sign, so that every gate can be met
            insts.append(CareInstance(A=complex_normal(rng, (n, n)),
                                      R=rng.choice([-1, 0, 1]) * B @ B.conj().T,
                                      Q=C.conj().T @ C))
        if singular and n == 2:
            insts.insert(rng.integers(0, k + 1), singular_kleinman_care())
        assert_stack_matches_one_at_a_time(insts)

    def test_non_hermitian_or_non_finite_slice(self):
        good = random_care(np.random.default_rng(5), 2, 1, 1)
        R = np.stack([good.R, good.R + [[0, 1], [0, 0]], good.R])
        Q = np.stack([good.Q, good.Q, np.full((2, 2), np.nan)])
        got = _solve_cares(good.A, R, Q)
        assert_same_result(got[0], solve_care(good))
        assert isinstance(got[1], ValueError)
        assert str(got[1]) == "R is not Hermitian to tolerance"
        assert isinstance(got[2], ValueError)
        assert str(got[2]) == "matrix contains NaN or Inf entries"
