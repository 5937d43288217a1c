"""Per-problem reference bodies of the stacked solvers: one CARE and one
estimator at a time, as qre solved them before the Riccati solver and the
synthesis ran on stacks.  The stacked kernels must give the same outcome
class and, where they solve, equal matrices and diagnostics."""

import numpy as np

from qre.errors import (
    CareFailure,
    CouplingSingular,
    ImaginaryAxisEigenvalue,
    QreError,
    ResidualTooLarge,
    SingularU1,
    UnstableEstimator,
    UnstableSystem,
)
from qre.linalg import (
    CARE_RESIDUAL_TOL,
    IMAG_AXIS_GAP,
    CareInstance,
    CareSolution,
)
from qre.synthesis import Estimator


def solve_care(inst, residual_tol=CARE_RESIDUAL_TOL):
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

    Acl, eye = A + R @ X, np.eye(n)
    K = Acl.conj().T[:, None, :, None] * eye[:, None]
    K = (K + eye[:, None, :, None] * Acl.T[:, None]).reshape(n * n, n * n)
    try:
        X = np.linalg.solve(K, (X @ R @ X - Q).ravel()).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise ResidualTooLarge(f"Kleinman step: {exc}") from exc
    X = (X + X.conj().T) / 2

    res = A.conj().T @ X + X @ A + X @ R @ X + Q
    res = float(np.linalg.norm(res) / (1 + np.linalg.norm(Q)))
    if not res <= residual_tol:
        raise ResidualTooLarge(f"relative residual {res:.3e} > {residual_tol:.1e}")
    abscissa = float(np.max(np.linalg.eigvals(A + R @ X).real))
    if not abscissa < 0:
        raise UnstableSystem(f"closed-loop abscissa {abscissa:.3e} is not negative")
    return CareSolution(X=X, residual=res, closed_loop_abscissa=abscissa)


def riccati_residual_x(p, X):
    g2 = p.gamma**2
    P = np.eye(p.C1bar.shape[0]) - p.D12bar @ np.linalg.solve(
        p.E1bar, p.D12bar.conj().T
    )
    Q = p.C1bar.conj().T @ P @ p.C1bar
    res = (
        p.Abar.conj().T @ X
        + X @ p.Abar
        + X @ (p.B1bar @ p.B1bar.conj().T / g2) @ X
        + Q
    )
    return float(np.linalg.norm(res) / (1 + np.linalg.norm(Q)))


def riccati_residual_y(p, Y):
    g = p.gamma
    T = p.B1bar @ p.D21bar.conj().T / g + g * Y @ p.C2bar.conj().T
    W = p.Sbar.conj().T @ np.linalg.solve(p.E2bar, p.Sbar)
    const = p.B1bar @ p.B1bar.conj().T / g**2
    res = (
        p.Abar @ Y
        + Y @ p.Abar.conj().T
        + Y @ p.C1bar.conj().T @ p.C1bar @ Y
        + const
        - T @ W @ T.conj().T
    )
    return float(np.linalg.norm(res) / (1 + np.linalg.norm(const)))


def synthesize(p, gain_convention="reproduction", require_stable=False):
    if gain_convention not in ("reproduction", "theorem"):
        raise QreError(f"unknown gain convention {gain_convention!r}")
    g = p.gamma
    g2 = g * g
    n = p.n
    B1, C1, C2 = p.B1bar, p.C1bar, p.C2bar
    D21, S = p.D21bar, p.Sbar

    P = np.eye(C1.shape[0]) - p.D12bar @ np.linalg.solve(
        p.E1bar, p.D12bar.conj().T
    )
    Qx = C1.conj().T @ P @ C1
    Rx = B1 @ B1.conj().T / g2
    try:
        solx = solve_care(CareInstance(A=p.Abar, R=(Rx + Rx.conj().T) / 2,
                                       Q=(Qx + Qx.conj().T) / 2))
    except QreError as exc:
        raise CareFailure("X", exc) from exc
    X = solx.X

    M = S.conj().T @ np.linalg.solve(p.E2bar, S)
    Ap = p.Abar - B1 @ D21.conj().T @ M @ C2
    Rp = C1.conj().T @ C1 - g2 * C2.conj().T @ M @ C2
    Qp = (B1 @ (np.eye(B1.shape[1]) - D21.conj().T @ M @ D21) @ B1.conj().T) / g2
    try:
        soly = solve_care(
            CareInstance(
                A=Ap.conj().T,
                R=(Rp + Rp.conj().T) / 2,
                Q=(Qp + Qp.conj().T) / 2,
            )
        )
    except QreError as exc:
        raise CareFailure("Y", exc) from exc
    Y = soly.X

    res_x = riccati_residual_x(p, X)
    res_y = riccati_residual_y(p, Y)

    coupling = np.eye(n) - Y @ X
    cond = float(np.linalg.cond(coupling))
    if not np.isfinite(cond) or cond > 1e12:
        raise CouplingSingular(f"I - YX has condition number {cond:.3e}")

    prefactor = 1 / g2 if gain_convention == "reproduction" else g2
    BK = prefactor * np.linalg.solve(coupling, (
        Y @ C2.conj().T @ S.conj().T + B1 @ D21.conj().T @ S.conj().T / g2
    )) @ np.linalg.inv(p.E2bar)
    AK = p.Abar - BK @ S @ C2 + (B1 - BK @ S @ D21) @ B1.conj().T @ X / g2
    CK = -np.linalg.solve(p.E1bar, p.D12bar.conj().T) @ C1

    abscissa = float(np.max(np.linalg.eigvals(AK).real))
    stable = abscissa < 0
    if require_stable and not stable:
        raise UnstableEstimator(
            f"estimator spectral abscissa {abscissa:.4f} is not negative"
        )
    return Estimator(
        A_K=AK,
        B_K=BK,
        C_K=CK,
        X=solx,
        Y=soly,
        gamma=g,
        eps1=p.eps1,
        eps2=p.eps2,
        spectral_abscissa=abscissa,
        stable=stable,
        coupling_condition=cond,
        residual_x=res_x,
        residual_y=res_y,
        gain_convention=gain_convention,
    )


def outcome(solver, *args, **kwargs):
    """The solver's result, or the QreError it raised."""
    try:
        return solver(*args, **kwargs)
    except QreError as exc:
        return exc


def assert_same_outcome(got, want):
    """Same class; for an error the same message (and for a CareFailure the
    same equation and cause class); for a result every field equal."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        if isinstance(want, CareFailure):
            assert got.which == want.which
            assert type(got.cause) is type(want.cause)
        return
    for name in type(want).__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, CareSolution):
            assert_same_outcome(a, b)
        elif isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=name, strict=True)
        else:
            assert a == b, name
