"""Dense matrix kernel: the CARE A^dag X + X A + X R X + Q = 0 (R, Q
Hermitian), solved in numpy alone from the Hamiltonian's stable
eigenvectors and one Kronecker-system Kleinman step.

The CARE solver works on a (K, n, n) stack of K equations, every gate
applied to each; ``synthesis`` solves a grid's equations as one stack, and
``solve_care`` is the K = 1 case.  It takes R and Q finite and Hermitian,
as ``CareInstance`` checks them and ``synthesis`` builds them, and every
equation takes the Kleinman step (``solve_care`` says why).  Each equation
whose A, R and Q have no imaginary part is solved in real arithmetic
throughout (the Hamiltonian's eig, the QR, U2 U1^-1, the Kleinman step, the
residual and the closed-loop eigenvalues), the others in complex; a stack
holding both is solved as two, so an equation's result never depends on
the rest of its stack.  The solution X is complex128 either way.  On
qre's doubled-up models ``synthesis`` hands it both of its equations real:
the state equation's data are real, and the output-injection equation's
become real in quadrature coordinates.  ``_hamiltonian`` is qre's one
builder of the Hamiltonian, also of the bounded-real one in ``analysis``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ImaginaryAxisEigenvalue,
    ResidualTooLarge,
    ShapeMismatch,
    SingularU1,
    UnstableSystem,
)

__all__ = [
    "as_cmatrix",
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


def _conj_t(m):
    """Conjugate transpose of each matrix of a (..., p, q) stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius(m):
    """Frobenius norm of each matrix of a (..., p, q) stack, summed as
    ``np.linalg.norm`` sums one matrix: real and imaginary parts apart."""
    v = m.reshape(m.shape[:-2] + (1, m.shape[-2] * m.shape[-1]))
    re, im = v.real, v.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _check_hermitian(m, name):
    size, skew = _frobenius(np.stack([m, m - _conj_t(m)]))
    if skew > HERMITICITY_RTOL * max(size, 1.0) * 10:
        raise ValueError(f"{name} is not Hermitian to tolerance")


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


def _drop(out, live, ok, error, *arrays):
    """Give each point j of a stack that is not ``ok`` its error(j), stored
    at out[live[j]] (``out`` a list, an object array or a dict), and return
    ``live`` and ``arrays`` without those points."""
    if ok.all():
        return (live, *arrays)
    for j in np.flatnonzero(~ok):
        out[int(live[j])] = error(j)
    return tuple(x[ok] for x in (live, *arrays))


def _solve_cares(A, R, Q):
    """Stabilizing solutions of K canonical CAREs, each solved as
    ``solve_care`` solves one, Kleinman step included.  A, R, Q are
    (K, n, n) stacks, with R and Q finite and Hermitian: unchecked here, as
    ``CareInstance`` checks them and ``synthesis`` builds them so.

    Returns an object array of K outcomes, a CareSolution or the error its
    CARE would raise.  The gates run per CARE, in ``solve_care``'s order; a
    CARE that fails one carries its own error and leaves the stack, and the
    rest go on without it.  The CAREs whose A, R and Q have no imaginary
    part are solved as one stack in real arithmetic, the others as one in
    complex.
    """
    out = np.empty(len(A), dtype=object)
    real = ~(A.imag.any(axis=(1, 2)) | R.imag.any(axis=(1, 2))
             | Q.imag.any(axis=(1, 2)))
    for part, take in ((real, np.real), (~real, np.asarray)):
        if part.any():
            _solve_stack(out, np.flatnonzero(part), *(take(x)[part] for x in (A, R, Q)))
    return out


def _hamiltonian(A, R, Q):
    """[[A, R], [-Q, -A^dag]] for each CARE of the (..., n, n) stacks A, R, Q."""
    return np.block([[A, R], [-Q, -_conj_t(A)]])


def _solve_stack(out, live, A, R, Q):
    """Solve the CAREs of the (K, n, n) stacks A, R, Q, all real or all
    complex, and put each outcome at out[live[j]]."""
    n = A.shape[1]
    lam, V = np.linalg.eig(_hamiltonian(A, R, Q))
    if not np.iscomplexobj(A):
        # a real basis of the eigenvectors: v itself for a real eigenvalue,
        # Re v and Im v for a conjugate pair (the first member, Im lam > 0,
        # gives Re v; its conjugate gives Im v, negated).  These are LAPACK's
        # real eigenvectors whether numpy returned V real or complex, so a
        # CARE's bits do not depend on the other eigenvalues of its stack.
        V = np.where(lam.imag[:, None] < 0, V.imag, V.real)
    gap = np.abs(lam.real).min(axis=1)
    stable = lam.real < 0
    sdim = stable.sum(axis=1)
    live, A, R, Q, stable, V, sdim = _drop(
        out, live, gap >= IMAG_AXIS_GAP, lambda j: ImaginaryAxisEigenvalue(
            f"Hamiltonian eigenvalue within {gap[j]:.3e} of the imaginary axis"
        ), A, R, Q, stable, V, sdim)
    live, A, R, Q, stable, V = _drop(
        out, live, sdim == n, lambda j: ImaginaryAxisEigenvalue(
            f"stable invariant subspace has dimension {sdim[j]}, expected {n}"
        ), A, R, Q, stable, V)

    # the n stable eigenvectors of each Hamiltonian, in their original order
    V = V.swapaxes(1, 2)[stable].reshape(-1, n, 2 * n).swapaxes(1, 2)
    U = np.linalg.qr(V)[0]
    del V
    U1, U2 = U[:, :n], U[:, n:]
    cond = np.linalg.cond(U1)
    live, A, R, Q, U1, U2 = _drop(
        out, live, np.isfinite(cond) & (cond <= 1e12),
        lambda j: SingularU1(f"U1 condition number {cond[j]:.3e}"), A, R, Q, U1, U2)
    X = U2 @ np.linalg.inv(U1)
    X = (X + _conj_t(X)) / 2

    # one Kleinman step: with Acl = A + R X, Acl^dag X+ + X+ Acl = X R X - Q,
    # row-major vectorized as (Acl^dag kron I + I kron Acl^T) vec(X+), built
    # in one buffer as the (i, j, k, l) entry Acl^dag[i, k] d(j, l) +
    # d(i, k) Acl[l, j]
    Acl = A + R @ X
    kron = np.zeros((len(live), n, n, n, n), dtype=A.dtype)
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
        X, errors = np.empty_like(rhs), {}
        for j in range(len(live)):
            try:
                X[j] = np.linalg.solve(kron[j], rhs[j])
            except np.linalg.LinAlgError as exc:
                errors[j] = ResidualTooLarge(f"Kleinman step: {exc}")
        ok = np.array([j not in errors for j in range(len(live))], dtype=bool)
        live, A, R, Q, X = _drop(out, live, ok, errors.get, A, R, Q, X)
    del kron, rhs
    X = X.reshape(-1, n, n)
    X = (X + _conj_t(X)) / 2

    res = _residual(A, R, Q, X)
    live, A, R, X, res = _drop(
        out, live, res <= CARE_RESIDUAL_TOL, lambda j: ResidualTooLarge(
            f"relative residual {res[j]:.3e} > {CARE_RESIDUAL_TOL:.1e}"
        ), A, R, X, res)
    abscissa = np.linalg.eigvals(A + R @ X).real.max(axis=1)
    live, X, res, abscissa = _drop(out, live, abscissa < 0, lambda j: UnstableSystem(
        f"closed-loop abscissa {abscissa[j]:.3e} is not negative"
    ), X, res, abscissa)
    X = X.astype(complex, copy=False)
    for j, r in enumerate(live):
        out[r] = CareSolution(
            X=X[j], residual=float(res[j]), closed_loop_abscissa=float(abscissa[j])
        )


def solve_care(inst):
    """Stabilizing solution of the canonical CARE.

    X = U2 U1^{-1}, Hermitian-symmetrized, from the QR-orthonormalized basis
    [U1; U2] of the Hamiltonian's n stable eigenvectors, then refined with one
    Kleinman step solved as an n^2 x n^2 Kronecker system.  Every CARE takes
    the step, even where X meets the residual gate already: at a repeated
    stable Hamiltonian eigenvalue such an X can still be 1e-8 off, and the
    step brings it to rounding.  This is the one-CARE case of the stacked
    solver that ``synthesis`` runs over a grid; ``inst`` is finite and
    Hermitian, as ``CareInstance`` checks.

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
    (sol,) = _solve_cares(inst.A[None], inst.R[None], inst.Q[None])
    if isinstance(sol, Exception):
        raise sol
    return sol
