"""Dense complex matrix kernel: adjoints, Hermitian functions and the CARE
A^dag X + X A + X R X + Q = 0 (R, Q Hermitian), solved in numpy alone from the
Hamiltonian's stable eigenvectors and one Kronecker-system Kleinman step.
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


def _check_hermitian(m, name):
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > HERMITICITY_RTOL * scale * 10:
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
        A, R, Q = self.A, self.R, self.Q
        res = A.conj().T @ X + X @ A + X @ R @ X + Q
        return float(np.linalg.norm(res) / (1 + np.linalg.norm(Q)))


@dataclass(frozen=True)
class CareSolution:
    """Stabilizing Hermitian solution together with its diagnostics."""

    X: np.ndarray
    residual: float
    closed_loop_abscissa: float


def solve_care(inst, residual_tol=CARE_RESIDUAL_TOL):
    """Stabilizing solution of the canonical CARE.

    X = U2 U1^{-1}, Hermitian-symmetrized, from the QR-orthonormalized basis
    [U1; U2] of the Hamiltonian's n stable eigenvectors, then refined with one
    Kleinman step solved as an n^2 x n^2 Kronecker system.

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
    A, R, Q = inst.A, inst.R, inst.Q
    n = inst.n
    H = np.vstack([np.hstack([A, R]), np.hstack([-Q, -A.conj().T])])
    lam, V = np.linalg.eig(H)
    gap = np.min(np.abs(lam.real))
    if gap < IMAG_AXIS_GAP:
        raise ImaginaryAxisEigenvalue(
            f"Hamiltonian eigenvalue within {gap:.3e} of the imaginary axis"
        )
    sdim = np.count_nonzero(lam.real < 0)
    if sdim != n:
        raise ImaginaryAxisEigenvalue(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1, U2 = np.split(np.linalg.qr(V[:, lam.real < 0])[0], 2)
    cond = np.linalg.cond(U1)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularU1(f"U1 condition number {cond:.3e}")
    X = U2 @ np.linalg.inv(U1)
    X = (X + X.conj().T) / 2

    # one Kleinman step: with Acl = A + R X, Acl^dag X+ + X+ Acl = X R X - Q,
    # row-major vectorized as (Acl^dag kron I + I kron Acl^T) vec(X+)
    Acl, eye = A + R @ X, np.eye(n)
    K = Acl.conj().T[:, None, :, None] * eye[:, None]
    K = (K + eye[:, None, :, None] * Acl.T[:, None]).reshape(n * n, n * n)
    try:
        X = np.linalg.solve(K, (X @ R @ X - Q).ravel()).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise ResidualTooLarge(f"Kleinman step: {exc}") from exc
    X = (X + X.conj().T) / 2

    res = inst.residual(X)
    if not res <= residual_tol:
        raise ResidualTooLarge(f"relative residual {res:.3e} > {residual_tol:.1e}")
    abscissa = float(np.max(np.linalg.eigvals(A + R @ X).real))
    if not abscissa < 0:
        raise UnstableSystem(f"closed-loop abscissa {abscissa:.3e} is not negative")
    return CareSolution(X=X, residual=res, closed_loop_abscissa=abscissa)
