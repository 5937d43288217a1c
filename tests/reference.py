"""Reference bodies for what qre now computes another way.

Per-problem bodies of the stacked solvers: one CARE and one estimator at a
time, as qre solved them before the Riccati solver and the synthesis ran on
stacks.  A CARE whose A, R and Q have no imaginary part is solved in real
arithmetic and its X returned as complex, as the stacked solver does.  A
problem that carries a quadrature map T has its output-injection equation
solved in x = T x~, its data's real parts taken, and Y mapped back.  The
stacked kernels must give the same outcome class and, where they solve,
equal matrices and diagnostics.

Per-point bodies of the stacked assembly and of the grid search: one
scaled problem at a time, as qre assembled them before ``assemble`` built a
block of (eps1, eps2) points as one stack, and the search over the points
of a grid in turn.

The series interconnection's own block formula, as qre built the series
topology before it became the zero-port case of the coherent-feedback
formula.  ``augment`` and ``lift_uncertainty`` must give the same matrices,
up to the sign of a zero.

The structure checks of the doubled-up formalism, which the package builds
its models in but never tests for itself.

The per-builder realizability rule qre applied before the matrix condition
A J + J A^dag + B J B^dag = 0: a squeezer's loss equals the sum of its
couplings.

The resolvent's elimination as qre ran it before it screened the poles once
per system and swapped rows only where a pivot moves: the pole check on
every eigenvalue of every block, and the next row and both row swaps built
at every step.  ``analysis._responses`` must return the same bits and raise
the same error for the same (system, frequency) pair."""

from dataclasses import replace

import numpy as np

from qre.errors import (
    CareFailure,
    CouplingSingular,
    DomainError,
    ImaginaryAxisEigenvalue,
    QreError,
    ResidualTooLarge,
    ScalingTooLarge,
    ShapeMismatch,
    SingularAtFrequency,
    SingularE2,
    SingularU1,
    UnstableEstimator,
    UnstableSystem,
)
from qre.linalg import (
    CARE_RESIDUAL_TOL,
    IMAG_AXIS_GAP,
    CareInstance,
    CareSolution,
    _check_hermitian,
    as_cmatrix,
)
from qre.analysis import BLOCK, _at, _system_matrices
from qre.augmentation import AugmentedSystem
from qre.synthesis import Estimator, ScaledProblem


def solve_care(inst, residual_tol=CARE_RESIDUAL_TOL):
    A, R, Q = inst.A, inst.R, inst.Q
    n = inst.n
    real = not (A.imag.any() or R.imag.any() or Q.imag.any())
    if real:
        A, R, Q = (m.real.copy() for m in (A, R, Q))
    H = np.vstack([np.hstack([A, R]), np.hstack([-Q, -A.conj().T])])
    lam, V = np.linalg.eig(H)
    if real:
        # a real basis: Re v, and Im v for the conjugate with Im lam < 0
        V = np.where(lam.imag < 0, V.imag, V.real)
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
    return CareSolution(X=X.astype(complex), residual=res,
                        closed_loop_abscissa=abscissa)


def riccati_residual_x(p, X):
    g2 = p.gamma**2
    E1 = p.D12bar.conj().T @ p.D12bar
    P = np.eye(p.C1bar.shape[0]) - p.D12bar @ np.linalg.solve(E1, p.D12bar.conj().T)
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
    D12, D21, S = p.D12bar, p.D21bar, p.Sbar

    E1 = D12.conj().T @ D12
    P = np.eye(C1.shape[0]) - D12 @ np.linalg.solve(E1, D12.conj().T)
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
    Ay, T = Ap.conj().T, p._quadrature
    if T is not None:
        Ay, Rp, Qp = ((T.conj().T @ m @ T).real for m in (Ay, Rp, Qp))
    try:
        soly = solve_care(
            CareInstance(
                A=Ay,
                R=(Rp + Rp.conj().T) / 2,
                Q=(Qp + Qp.conj().T) / 2,
            )
        )
    except QreError as exc:
        raise CareFailure("Y", exc) from exc
    if T is not None:
        Y = T @ soly.X @ T.conj().T
        soly = replace(soly, X=(Y + Y.conj().T) / 2)
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
    CK = -np.linalg.solve(E1, D12.conj().T) @ C1

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


class NotPositiveDefinite(QreError):
    """A matrix required to be Hermitian positive definite is not."""


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


def scaling_inv_sqrt(G, eps2):
    """(I - eps2^2 G^dag G)^(-1/2), failing when the scaling saturates."""
    G = as_cmatrix(G)
    M = np.eye(G.shape[1]) - eps2**2 * G.conj().T @ G
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise ScalingTooLarge(
            f"I - eps2^2 G^dag G has minimum eigenvalue {w[0]:.3e}"
        )
    return hermitian_inv_sqrt(M)


def swapped(m, rows, cols):
    """m with the a and a# halves of each block of its rows and of its
    columns swapped; ``rows`` and ``cols`` list the block sizes."""
    def order(blocks):
        out, start = [], 0
        for k in blocks:
            out += [*range(start + k // 2, start + k), *range(start, start + k // 2)]
            start += k
        return out
    return m[np.ix_(order(rows), order(cols))]


def quadrature(system, u, S):
    """The unitary T to real quadrature coordinates of a channel whose
    system declares its layout: doubled-up subsystems, each laid out
    [a1 .. ak, a1# .. ak#], and doubled-up input blocks.  T is
    [[I, iI], [I, -iI]] / sqrt(2) per subsystem.  None unless, to the bit,
    the conjugate of the system's A, B, C, D, of S, and of each Gram of the
    estimand and of the uncertainty factors, is itself with every a, y and
    input swapped for its conjugate (the measured output [y; y#] is one
    block)."""
    layout = getattr(system, "_layout", None)
    p = S.shape[1]
    if layout is None or p % 2 or any(k % 2 for k in layout[0] + layout[1]):
        return None
    x, i = layout
    G = np.hstack([u.G, np.zeros((u.G.shape[0], sum(i) - u.G.shape[1]))])
    A, B, C, D, L = (as_cmatrix(getattr(system, m)) for m in "ABCDL")
    H1, H2, H3, E = u.H1, u.H2, u.H3, u.E
    if not np.array_equal(S.conj(), np.hstack([S[:, p // 2:], S[:, :p // 2]])):
        return None
    for m, rows, cols in [(A, x, x), (B, x, i), (C, (p,), x), (D, (p,), i),
                          (L.conj().T @ L, x, x), (E.conj().T @ E, x, x),
                          (H1 @ H1.conj().T, x, x), (H2 @ H2.conj().T, x, x),
                          (H1 @ H3.conj().T, x, (p,)), (H3 @ H3.conj().T, (p,), (p,)),
                          (G.conj().T @ G, i, i)]:
        if m.shape != (sum(rows), sum(cols)):
            return None
        if not np.array_equal(m.conj(), swapped(m, rows, cols)):
            return None
    n = sum(x)
    T = np.zeros((n, n), dtype=complex)
    for start, k in zip(np.cumsum((0,) + tuple(x))[:-1], x):
        for j in range(k // 2):
            a, a_conj = start + j, start + k // 2 + j
            T[a, a], T[a, a_conj] = 1 / np.sqrt(2), 1j / np.sqrt(2)
            T[a_conj, a], T[a_conj, a_conj] = 1 / np.sqrt(2), -1j / np.sqrt(2)
    return T


def assemble(system, u, S, gamma, eps1, eps2):
    if not all(np.isfinite(x) and x > 0 for x in (gamma, eps1, eps2)):
        raise DomainError("gamma, eps1, eps2 must all be positive and finite")
    A, B, C, D, L = system.A, system.B, system.C, system.D, system.L
    H1, H2, H3, E, G = u.H1, u.H2, u.H3, u.E, u.G
    S = as_cmatrix(S)
    if G.shape[1] < B.shape[1]:
        G = np.hstack([G, np.zeros((G.shape[0], B.shape[1] - G.shape[1]))])
    Mis = scaling_inv_sqrt(G, eps2)
    r2p = G.shape[0]
    B1bar = np.hstack([B @ Mis, gamma / eps1 * H1, gamma / eps2 * H2])
    C1bar = np.vstack([eps1 * E, np.zeros((r2p, A.shape[0])), L])
    D12bar = np.vstack(
        [
            np.zeros((E.shape[0], L.shape[0])),
            np.zeros((r2p, L.shape[0])),
            -np.eye(L.shape[0]),
        ]
    )
    D21bar = np.hstack(
        [D @ Mis, gamma / eps1 * H3, np.zeros((D.shape[0], H2.shape[1]))]
    )
    Minv = Mis @ Mis
    E2bar = (
        S @ D @ Minv @ D.conj().T @ S.conj().T
        + (gamma / eps1) ** 2 * S @ H3 @ H3.conj().T @ S.conj().T
    )
    E2bar = (E2bar + E2bar.conj().T) / 2
    w = np.linalg.eigvalsh(E2bar)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise SingularE2(f"measurement weighting has eigenvalue {w[0]:.3e}")
    matrices = dict(
        Abar=A, C2bar=C, Sbar=S, B1bar=B1bar, C1bar=C1bar, D12bar=D12bar,
        D21bar=D21bar, E2bar=E2bar,
    )
    return ScaledProblem(
        **{name: as_cmatrix(m) for name, m in matrices.items()},
        gamma=float(gamma),
        eps1=float(eps1),
        eps2=float(eps2),
        _quadrature=quadrature(system, u, S),
    )


def eps_grid_search(assemble_at, objective, eps1_grid, eps2_grid, **kwargs):
    """The grid search one point at a time, in row-major order:
    assemble_at(eps1, eps2) returns a problem or raises, and each problem is
    synthesized alone."""
    best = None
    for e1 in eps1_grid:
        for e2 in eps2_grid:
            try:
                est = synthesize(assemble_at(float(e1), float(e2)), **kwargs)
                val = float(objective(est))
            except QreError:
                continue
            if np.isfinite(val) and (best is None or val < best[2]):
                best = (float(e1), float(e2), val, est)
    if best is None:
        raise QreError("no feasible scaling point on the grid")
    return best


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


def series_augment(plant, ctrl):
    """The plant output field drives the controller, whose output is
    measured: A_a = [[A, 0], [B_c C, A_c]], B_a = [B; B_c D],
    C_a = [D_c C, C_c], D_a = D_c D, L_a = [L, 0], where the series
    controller's B_c, C_c, D_c are the zero-port controller's B_c2, Ct_c,
    Dt_c2 and B, D the plant's disturbance blocks B1, D1."""
    A, B, C, D, L = plant.A, plant.B1, plant.C, plant.D1, plant.L
    Ac, Bc, Cc, Dc = ctrl.A_c, ctrl.B_c2, ctrl.Ct_c, ctrl.Dt_c2
    n, k = A.shape[0], Ac.shape[0]
    return AugmentedSystem(
        A=np.block([[A, np.zeros((n, k))], [Bc @ C, Ac]]),
        B=np.vstack([B, Bc @ D]),
        C=np.hstack([Dc @ C, Cc]),
        D=Dc @ D,
        L=np.hstack([L, np.zeros((L.shape[0], k))]),
        _layout=((n, k), (B.shape[1], 0)),
    )


def series_lift(u, ctrl):
    """The uncertainty factors in the coordinates of ``series_augment``:
    H1 -> [H1; B_c H3], H2 -> [H2; 0], H3 -> D_c H3, E -> [E, 0], G
    unchanged."""
    k = ctrl.A_c.shape[0]
    return replace(
        u,
        H1=np.vstack([u.H1, ctrl.B_c2 @ u.H3]),
        H2=np.vstack([u.H2, np.zeros((k, u.H2.shape[1]))]),
        H3=ctrl.Dt_c2 @ u.H3,
        E=np.hstack([u.E, np.zeros((u.E.shape[0], k))]),
    )


def scalar_realizable(loss, couplings, tol=1e-12):
    """beta = kappa (series) or beta = kappa1 + kappa2 (feedback), to
    ``tol`` relative to max(1, |beta|, |sum|), as each builder checked it."""
    total = sum(couplings)
    return abs(loss - total) <= tol * max(1.0, abs(loss), abs(total))


def deinterleave(m):
    """Reorder from mode-interleaved doubled coordinates (a1, a1#, a2,
    a2#, ...) to block coordinates (a1, a2, ..., a1#, a2#, ...).

    Composite systems built from per-mode doubled blocks carry the
    conjugate-block structure in the interleaved ordering; this permutation
    exposes it to :func:`is_doubled`.
    """
    m = as_cmatrix(m)
    if m.shape[0] % 2 or m.shape[1] % 2:
        raise ShapeMismatch(f"dimensions must be even: {m.shape}")
    rows = np.r_[np.arange(0, m.shape[0], 2), np.arange(1, m.shape[0], 2)]
    cols = np.r_[np.arange(0, m.shape[1], 2), np.arange(1, m.shape[1], 2)]
    return m[np.ix_(rows, cols)]


def is_doubled(m, tol=1e-10):
    """True when m has the conjugate-block structure to tolerance."""
    m = as_cmatrix(m)
    if m.shape[0] % 2 or m.shape[1] % 2:
        return False
    p, q = m.shape[0] // 2, m.shape[1] // 2
    scale = max(np.linalg.norm(m), 1.0)
    err = max(
        np.linalg.norm(m[p:, q:] - m[:p, :q].conj()),
        np.linalg.norm(m[p:, :q] - m[:p, q:].conj()),
    )
    return bool(err <= tol * scale)


def pole_offsets(eigA, W):
    offsets = np.repeat(1j * W[..., None], eigA.shape[-1], axis=2)
    offsets -= eigA[:, None]
    near = (np.abs(offsets) <= 1e-12 * np.abs(eigA)[:, None]).any(axis=2)
    if near.any():
        k, j = np.argwhere(near)[0]
        raise _at(k, SingularAtFrequency(f"i*omega = {1j * W[k, j]} is a system pole"))
    return offsets


def schur_complements(S, n, w):
    N = w.shape[1]
    s = 1j * w
    row = np.repeat(S[:, 0, :, None], N, axis=2)
    row[:, 0] += s
    low = np.repeat(S[:, n:, :, None], N, axis=3)
    for i in range(n):
        u = row
        if i + 1 < n:
            below = np.repeat(S[:, i + 1, i:, None], N, axis=2)
            below[:, 1] += s
            swap = (np.abs(row[:, 0]) < np.abs(S[:, i + 1, i, None]))[:, None]
            u, row = np.where(swap, below, row), np.where(swap, row, below)
        if not u[:, 0].all():
            k, j = np.argwhere(u[:, 0] == 0)[0]
            raise _at(k, SingularAtFrequency(f"i*omega I - A is singular at {s[k, j]}"))
        if i + 1 < n:
            row = row[:, 1:] - row[:, :1] / u[:, :1] * u[:, 1:]
        low = low[:, :, 1:] - low[:, :, :1] / u[:, None, :1] * u[:, None, 1:]
    return low


def responses(A, B, C, D, eigA, W):
    K, n = eigA.shape
    if n == 0:
        return np.repeat(D[:, None], W.shape[1], axis=1)
    S = _system_matrices(A, B, C, D)
    out = np.empty(W.shape + D.shape[1:], dtype=complex)
    step = max(BLOCK // K, 1)
    for start in range(0, W.shape[1], step):
        w = W[:, start : start + step]
        pole_offsets(eigA, w)
        g = schur_complements(S, n, w)
        out[:, start : start + w.shape[1]] = np.moveaxis(g, 3, 1)
    return out
