"""Dense complex matrix kernel: adjoints, Hermitian functions and the CARE
A^dag X + X A + X R X + Q = 0 (R, Q Hermitian), solved in numpy alone from the
Hamiltonian's stable eigenvectors and one Kronecker-system Kleinman step.

The CARE solver works on a stack of K equations of one size, every gate
applied to each; ``synthesis`` solves a grid's equations as one stack, and
``solve_care`` is the K = 1 case.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ImaginaryAxisEigenvalue,
    NotPositiveDefinite,
    ResidualTooLarge,
    ShapeMismatch,
    SingularU1,
    UnstableSystem,
)

__all__ = [
    "as_cmatrix",
    "adjoint",
    "hermitian_inv_sqrt",
    "max_singular_value",
    "CareInstance",
    "CareSolution",
    "solve_care",
]

#: relative Hermiticity tolerance for CARE coefficient matrices
HERMITICITY_RTOL = 1e-12
#: minimum distance of Hamiltonian eigenvalues from the imaginary axis
IMAG_AXIS_GAP = 1e-9
#: residual acceptance gate for CARE solutions
CARE_RESIDUAL_TOL = 1e-8


def as_cmatrix(m):
    """Coerce to a 2-D complex ndarray, rejecting non-finite entries."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def adjoint(m):
    """Conjugate transpose."""
    return as_cmatrix(m).conj().T


def _conj_t(m):
    """Conjugate transpose of each matrix of a (..., p, q) stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius(m):
    """Frobenius norm of each matrix of a (..., p, q) stack, summed as
    ``np.linalg.norm`` sums one matrix: real and imaginary parts apart."""
    v = m.reshape(m.shape[:-2] + (1, m.shape[-2] * m.shape[-1]))
    re, im = v.real, v.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _not_hermitian(m):
    """Whether each matrix of a (..., n, n) stack misses Hermiticity."""
    size, skew = _frobenius(np.stack([m, m - _conj_t(m)]))
    return skew > HERMITICITY_RTOL * np.maximum(size, 1.0) * 10


def _check_hermitian(m, name):
    if _not_hermitian(m):
        raise ValueError(f"{name} is not Hermitian to tolerance")


def hermitian_inv_sqrt(m):
    """Inverse principal square root of a Hermitian positive definite matrix.

    Returns P = m^(-1/2), Hermitian, with P @ m @ P = I.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue is below 1e-12 times the largest.
    """
    m = as_cmatrix(m)
    _check_hermitian(m, "matrix")
    w, v = np.linalg.eigh(m)
    if w[0] <= 1e-12 * max(w[-1], 0.0):
        raise NotPositiveDefinite(
            f"eigenvalue floor violated: min={w[0]:.3e}, max={w[-1]:.3e}"
        )
    p = (v / np.sqrt(w)) @ v.conj().T
    return (p + p.conj().T) / 2


def max_singular_value(m):
    """Largest singular value of m."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class CareInstance:
    """Canonical CARE data: A^dag X + X A + X R X + Q = 0."""

    A: np.ndarray
    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = as_cmatrix(self.A)
        R = as_cmatrix(self.R)
        Q = as_cmatrix(self.Q)
        n = A.shape[0]
        if A.shape != (n, n) or R.shape != (n, n) or Q.shape != (n, n):
            raise ShapeMismatch(
                f"A, R, Q must all be {n}x{n}; got {A.shape}, {R.shape}, {Q.shape}"
            )
        _check_hermitian(R, "R")
        _check_hermitian(Q, "Q")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Q", Q)

    @property
    def n(self):
        return self.A.shape[0]

    def residual(self, X):
        """Relative residual of a candidate solution."""
        return float(_residual(self.A, self.R, self.Q, X))


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing Hermitian solution together with its diagnostics."""

    X: np.ndarray
    residual: float
    closed_loop_abscissa: float


def _residual(A, R, Q, X):
    """Relative residual of each candidate solution of a stack of CAREs."""
    res = _conj_t(A) @ X + X @ A + X @ R @ X + Q
    return _frobenius(res) / (1 + _frobenius(Q))


def _solve_cares(A, R, Q, residual_tol=CARE_RESIDUAL_TOL):
    """Stabilizing solutions of K canonical CAREs, each solved as
    ``solve_care`` solves one.  A, R, Q are (K, n, n) stacks, or (n, n)
    matrices shared by all K, at least one of them being a stack.

    Returns a list of K outcomes, a CareSolution or the error its CARE would
    raise.  The gates run per CARE, in ``solve_care``'s order; a CARE that
    fails one carries its own error and leaves the stack, and the rest go on
    without it.  Non-finite or non-Hermitian R, Q give a ValueError.
    """
    A, R, Q = np.broadcast_arrays(A, R, Q)
    K, n = A.shape[:2]
    out = [None] * K
    live = np.arange(K)

    def failed(ok, error):
        """Give each CARE not ``ok`` its error(j); True if there was one."""
        if ok.all():
            return False
        for j in np.flatnonzero(~ok):
            out[live[j]] = error(j)
        return True

    finite = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(Q).all(axis=(1, 2))
    skew_r, skew_q = _not_hermitian(np.stack([R, Q]))
    ok = finite & ~skew_r & ~skew_q
    if failed(ok, lambda j: ValueError(
        "matrix contains NaN or Inf entries" if not finite[j]
        else f"{'R' if skew_r[j] else 'Q'} is not Hermitian to tolerance"
    )):
        live, A, R, Q = (x[ok] for x in (live, A, R, Q))

    H = np.empty((len(live), 2 * n, 2 * n), dtype=complex)
    H[:, :n, :n], H[:, :n, n:] = A, R
    np.negative(Q, out=H[:, n:, :n])
    np.negative(_conj_t(A), out=H[:, n:, n:])
    lam, V = np.linalg.eig(H)
    del H
    gap = np.abs(lam.real).min(axis=1)
    stable = lam.real < 0
    sdim = stable.sum(axis=1)
    ok = gap >= IMAG_AXIS_GAP
    failed(ok, lambda j: ImaginaryAxisEigenvalue(
        f"Hamiltonian eigenvalue within {gap[j]:.3e} of the imaginary axis"
    ))
    dim = ok & (sdim != n)
    failed(~dim, lambda j: ImaginaryAxisEigenvalue(
        f"stable invariant subspace has dimension {sdim[j]}, expected {n}"
    ))
    ok &= ~dim
    if not ok.all():
        live, A, R, Q, stable, V = (x[ok] for x in (live, A, R, Q, stable, V))

    # the n stable eigenvectors of each Hamiltonian, in their original order
    V = V.swapaxes(1, 2)[stable].reshape(-1, n, 2 * n).swapaxes(1, 2)
    U = np.linalg.qr(V)[0]
    del V
    U1, U2 = U[:, :n], U[:, n:]
    cond = np.linalg.cond(U1)
    ok = np.isfinite(cond) & (cond <= 1e12)
    if failed(ok, lambda j: SingularU1(f"U1 condition number {cond[j]:.3e}")):
        live, A, R, Q, U1, U2 = (x[ok] for x in (live, A, R, Q, U1, U2))
    X = U2 @ np.linalg.inv(U1)
    X = (X + _conj_t(X)) / 2

    # one Kleinman step: with Acl = A + R X, Acl^dag X+ + X+ Acl = X R X - Q,
    # row-major vectorized as (Acl^dag kron I + I kron Acl^T) vec(X+), built
    # in one buffer as the (i, j, k, l) entry Acl^dag[i, k] d(j, l) +
    # d(i, k) Acl[l, j]
    Acl = A + R @ X
    kron = np.zeros((len(live), n, n, n, n), dtype=complex)
    for j in range(n):
        kron[:, :, j, :, j] = _conj_t(Acl)
    for i in range(n):
        kron[:, i, :, i, :] += Acl.swapaxes(1, 2)
    kron = kron.reshape(-1, n * n, n * n)
    rhs = (X @ R @ X - Q).reshape(-1, n * n, 1)
    try:
        X = np.linalg.solve(kron, rhs)
    except np.linalg.LinAlgError:
        # a singular step fails its own CARE only
        X = np.empty_like(rhs)
        ok = np.ones(len(live), dtype=bool)
        for j in range(len(live)):
            try:
                X[j] = np.linalg.solve(kron[j], rhs[j])
            except np.linalg.LinAlgError as exc:
                ok[j] = False
                out[live[j]] = ResidualTooLarge(f"Kleinman step: {exc}")
        live, A, R, Q, X = (x[ok] for x in (live, A, R, Q, X))
    del kron, rhs
    X = X.reshape(-1, n, n)
    X = (X + _conj_t(X)) / 2

    res = _residual(A, R, Q, X)
    ok = res <= residual_tol
    if failed(ok, lambda j: ResidualTooLarge(
        f"relative residual {res[j]:.3e} > {residual_tol:.1e}"
    )):
        live, A, R, X, res = (x[ok] for x in (live, A, R, X, res))
    abscissa = np.linalg.eigvals(A + R @ X).real.max(axis=1)
    ok = abscissa < 0
    failed(ok, lambda j: UnstableSystem(
        f"closed-loop abscissa {abscissa[j]:.3e} is not negative"
    ))
    for j in np.flatnonzero(ok):
        out[live[j]] = CareSolution(
            X=X[j], residual=float(res[j]), closed_loop_abscissa=float(abscissa[j])
        )
    return out


def solve_care(inst, residual_tol=CARE_RESIDUAL_TOL):
    """Stabilizing solution of the canonical CARE.

    X = U2 U1^{-1}, Hermitian-symmetrized, from the QR-orthonormalized basis
    [U1; U2] of the Hamiltonian's n stable eigenvectors, then refined with one
    Kleinman step solved as an n^2 x n^2 Kronecker system.  This is the
    one-CARE case of the stacked solver that ``synthesis`` runs over a grid.

    Raises
    ------
    ImaginaryAxisEigenvalue
        No dichotomy: a Hamiltonian eigenvalue sits within 1e-9 of the axis.
    SingularU1
        The stable subspace is not complementary to the graph subspace.
    ResidualTooLarge
        The refined solution fails the residual gate, or the step is singular.
    UnstableSystem
        The closed-loop matrix A + R X is not Hurwitz.
    """
    (sol,) = _solve_cares(inst.A[None], inst.R[None], inst.Q[None], residual_tol)
    if isinstance(sol, Exception):
        raise sol
    return sol
