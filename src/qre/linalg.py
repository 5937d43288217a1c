"""Dense complex matrix kernel: adjoints, Hermitian functions and the
stabilizing continuous algebraic Riccati equation solver.

The CARE is taken in the canonical form

    A^dag X + X A + X R X + Q = 0,

with R and Q Hermitian, and is solved through the ordered Schur
decomposition of the associated Hamiltonian matrix ``[[A, R], [-Q, -A^dag]]``
followed by a single Newton (Kleinman) refinement step.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ImaginaryAxisEigenvalue,
    NotPositiveDefinite,
    ResidualTooLarge,
    ShapeMismatch,
    SingularU1,
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

    The 2n x 2n Hamiltonian ``[[A, R], [-Q, -A^dag]]`` is reduced to ordered
    complex Schur form with the stable spectrum leading; the solution is
    X = U2 U1^{-1} from the stacked basis [U1; U2] of the stable invariant
    subspace, Hermitian-symmetrized, then refined with one Kleinman step.

    Raises
    ------
    ImaginaryAxisEigenvalue
        No dichotomy: a Hamiltonian eigenvalue sits within 1e-9 of the axis.
    SingularU1
        The stable subspace is not complementary to the graph subspace.
    ResidualTooLarge
        The refined solution fails the residual gate.
    """
    A, R, Q = inst.A, inst.R, inst.Q
    n = inst.n
    H = np.block([[A, R], [-Q, -A.conj().T]])

    # the diagonal of the triangular Schur factor holds the eigenvalues of H
    T, Z, sdim = sla.schur(H, output="complex", sort=lambda lam: lam.real < 0)
    gap = np.min(np.abs(np.diag(T).real))
    if gap < IMAG_AXIS_GAP:
        raise ImaginaryAxisEigenvalue(
            f"Hamiltonian eigenvalue within {gap:.3e} of the imaginary axis"
        )
    if sdim != n:
        raise ImaginaryAxisEigenvalue(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    cond = np.linalg.cond(U1)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularU1(f"U1 condition number {cond:.3e}")
    X = U2 @ np.linalg.inv(U1)
    X = (X + X.conj().T) / 2

    # one Kleinman refinement step: with Acl = A + R X,
    # Acl^dag X+ + X+ Acl = X R X - Q
    Acl = A + R @ X
    X = sla.solve_continuous_lyapunov(Acl.conj().T, X @ R @ X - Q)
    X = (X + X.conj().T) / 2

    res = inst.residual(X)
    if res > residual_tol:
        raise ResidualTooLarge(f"relative residual {res:.3e} > {residual_tol:.1e}")
    abscissa = float(np.max(np.linalg.eigvals(A + R @ X).real))
    return CareSolution(X=X, residual=res, closed_loop_abscissa=abscissa)
