"""Closed-loop analysis: error-system construction, frequency responses,
H-infinity norms and uncertainty sweeps.

A filter's closed loop is a polynomial in delta (``LoopPolynomial``), built
once per channel by ``loop_polynomial``; ``LoopPolynomial.at`` is its value
at one delta.

The peak gain is computed by the level-set iteration on the bounded-real
Hamiltonian: its imaginary-axis eigenvalues at a candidate level are the
frequencies where the gain crosses that level.  The same characterization
also yields the peak gain over the imaginary axis for a system with
unstable dynamics (the L-infinity norm); pass ``allow_unstable=True`` to
request that instead of an error.

One eigendecomposition A V = V Lambda of each system serves the stability
check, every pole check and the search for the peak.  For a system with
cond(V) <= MODAL_COND, every gain the iteration takes comes from the modal
form D + C V (i w - Lambda)^(-1) V^+ B, one batched product per evaluation:
the pick on a coarse frequency grid, three rounds of a zoom about it, the
start and each midpoint.  The start then lies so close to the peak that one
Hamiltonian eigen-solve per system certifies it.  A system with an
ill-conditioned or defective V, whose modal gains drift from the true ones,
only picks its start point by modal gains; every gain after that is a
resolvent solve.  The choice is made per system, so a system's norm does
not depend on the other systems of its stack.  frequency_response and
grid_peak_gain stay on the resolvent, the independent cross-check of the
kernel: one Hessenberg reduction H = Q^H A Q and one pole screen per system
serve all its frequencies, each an O(n^2) elimination run across a block of
frequencies that swaps rows only where a pivot moves (Laub, IEEE TAC 26, 1981).

The kernel works on a stack of K systems of one shape: hinf_norm and
frequency_response are its K = 1 case, and delta_sweep runs the stack of
its K loops, formed in one ``einsum`` over the powers of delta, in lockstep.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    QreError,
    ShapeMismatch,
    SingularAtFrequency,
    UnstableSystem,
)
from .linalg import _hamiltonian, as_cmatrix
from .uncertainty import delta_powers

__all__ = [
    "StateSpace",
    "SweepResult",
    "LoopPolynomial",
    "loop_polynomial",
    "frequency_response",
    "hinf_norm",
    "grid_peak_gain",
    "delta_sweep",
]


@dataclass(frozen=True)
class StateSpace:
    """Plain state-space quadruple with complex entries."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A, B, C, D = map(as_cmatrix, (self.A, self.B, self.C, self.D))
        if A.shape[0] != A.shape[1]:
            raise ShapeMismatch("A must be square")
        if B.shape[0] != A.shape[0] or C.shape[1] != A.shape[0]:
            raise ShapeMismatch("B and C must conform with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ShapeMismatch("D must conform with B and C")
        for name, m in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, name, m)

    @property
    def spectral_abscissa(self):
        if self.A.size == 0:
            return -np.inf
        return float(np.max(np.linalg.eigvals(self.A).real))


@dataclass(frozen=True)
class SweepResult:
    """Peak gains across an uncertainty grid, labelled per estimator, with
    the spectral abscissa of each loop (a peak gain is an H-infinity norm
    only where that abscissa is negative)."""

    deltas: tuple
    norms: tuple
    label: str
    abscissa: tuple

    def __post_init__(self):
        if not len(self.deltas) == len(self.norms) == len(self.abscissa):
            raise ShapeMismatch("deltas, norms and abscissa must have equal length")
        if not all(np.isfinite(self.norms)):
            raise QreError("sweep produced a non-finite norm")


@dataclass(frozen=True)
class LoopPolynomial:
    """A(delta) = sum_p delta**powers[p] A[p] and B(delta) likewise, from
    (P, n, n) and (P, n, m) stacks, with C fixed and no feedthrough.  Called
    on K deltas it returns the (A, B, C, D) stacks of the K loops."""

    powers: tuple
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __call__(self, deltas):
        x = delta_powers(self.powers, deltas)
        A, B = (np.einsum("kp,pij->kij", x, c) for c in (self.A, self.B))
        C = np.broadcast_to(self.C, (len(x),) + self.C.shape)
        return A, B, C, np.zeros((len(x), C.shape[1], B.shape[2]), dtype=complex)

    def at(self, delta):
        return StateSpace(*(m[0] for m in self([delta])))


def loop_polynomial(A, B, C, D, L, S, est, perturbation):
    """Disturbance-to-estimation-error loop of a filter driven by the
    homodyne measurement of a perturbed plant, as a LoopPolynomial.

    A_cl = [[A+dA, 0], [B_K S (C+dC), A_K]], B_cl = [[B+dB], [B_K S D]]
    restricted to its first S.shape[0] columns, C_cl = [-L, C_K], D_cl = 0.
    ``perturbation`` is ``(powers, dA, dB, dC)`` as from
    ``UncertaintyModel.coefficients``; the nominal plant joins the power-0
    term, and dB fills the leading input columns.  The loop's input is the
    first half of the leading doubled input block: the disturbance-field
    quadratures, not their conjugates.
    """
    A, B, C, D, L, S = map(as_cmatrix, (A, B, C, D, L, S))
    powers, dA, dB, dC = perturbation
    P, n, k = len(powers), A.shape[0], est.A_K.shape[0]
    one = (np.array(powers) == 0)[:, None, None]  # selects the power-0 term
    Bp = np.zeros((P, n, B.shape[1]), dtype=complex)
    Bp[..., : dB.shape[2]] = dB
    Acl = np.block([[dA + one * A, np.zeros((P, n, k))],
                    [est.B_K @ S @ (dC + one * C), one * est.A_K]])
    Bcl = np.concatenate([Bp + one * B, one * (est.B_K @ S @ D)], axis=1)
    Ccl = np.hstack([-L, est.C_K])
    return LoopPolynomial(tuple(powers), Acl, Bcl[..., : S.shape[0]], Ccl)


# kept for the benchmark's span tracer (benchmarks/spans.py), which wraps it
def closed_loop_error_system(A, B, C, D, L, S, est, deltas=None):
    """The loop_polynomial error system at one perturbation ``deltas``, a
    (dA, dB, dC) tuple (by default none), as a StateSpace."""
    if deltas is None:
        deltas = (np.zeros(np.shape(A)), np.zeros((len(A), 0)), np.zeros(np.shape(C)))
    dA, dB, dC = (np.asarray(m)[None] for m in deltas)
    return loop_polynomial(A, B, C, D, L, S, est, ((0,), dA, dB, dC)).at(0.0)


# Frequency columns per block of the Hessenberg elimination: a stack of K
# systems takes BLOCK // K at a time, so memory stays flat in the number of
# frequencies and of systems.  512 run about as fast as 1024 on the oracle
# benchmark, with a smaller peak RSS.
BLOCK = 512
# Level-set steps before the iteration gives up; it typically needs one to
# three.
MAX_LEVELS = 100


def _at(k, error):
    """Tag a failure of the stacked kernel with the index of its system."""
    error.system = k
    return error


def _near_axis(eigA):
    """|Re lambda| <= 2e-12 |lambda|: twice the pole check's bound, for rounding."""
    return np.abs(eigA.real) <= 2e-12 * np.abs(eigA)


def _pole_offsets(eigA, W):
    """i w - lambda for each system k, frequency w in W[k] and eigenvalue
    lambda in eigA[k], as (K, N, n).  The first (system, frequency) pair
    within 1e-12 |lambda| of a pole raises SingularAtFrequency, an exact
    hit included at any scale.  (Within 1e-12 of the larger of |w| and
    |lambda| is the same test, up to a factor 1 + 1e-12.)  As |i w - lambda|
    >= |Re lambda|, the test runs on the eigenvalues _near_axis alone."""
    offsets = np.repeat(1j * W[..., None], eigA.shape[-1], axis=2)
    offsets -= eigA[:, None]
    c = _near_axis(eigA).any(axis=0)  # the eigenvalue columns that can be hit
    near = (np.abs(offsets[..., c]) <= 1e-12 * np.abs(eigA[:, None, c])).any(axis=2)
    if near.any():
        k, j = np.argwhere(near)[0]
        raise _at(k, SingularAtFrequency(f"i*omega = {1j * W[k, j]} is a system pole"))
    return offsets


def _system_matrices(A, B, C, D):
    """[[-H, Q^H B], [-C Q, D]] for each system of a stack, with
    H = Q^H A Q upper Hessenberg, as (K, n + p, n + m): the system matrix
    [[-A, B], [-C, D]] after n - 2 Householder reflections, each applied to
    the whole stack from both sides; a zero column takes the identity."""
    n = A.shape[1]
    S = np.block([[-A, B], [-C, D]]).astype(complex)
    for j in range(n - 2):
        v = S[:, j + 1 : n, j].copy()
        norm, top = np.linalg.norm(v, axis=1), np.abs(v[:, 0])
        v[:, 0] += np.exp(1j * np.angle(v[:, 0])) * norm
        # I - tau v v^H, with tau = 2 / |v|^2
        tau = np.divide(1, norm * (norm + top), out=np.zeros_like(norm), where=norm > 0)
        vh = tau[:, None, None] * v.conj()[:, None]
        v = v[..., None]
        S[:, j + 1 : n] -= v @ (vh @ S[:, j + 1 : n])
        S[:, :, j + 1 : n] -= (S[:, :, j + 1 : n] @ v) @ vh
    return S


def _schur_complements(S, n, w):
    """D + C Q (i w I - H)^(-1) Q^H B, the Schur complement of i w I - H in
    a system matrix S of _system_matrices, for each system k and frequency w
    in w[k], as (K, p, m, N).  Gaussian elimination with partial pivoting
    runs over the first n columns, frequencies last: row i + 1 meets column
    i only at the subdiagonal of H, the same for every w, so each step
    pivots on the larger of it and the carried row's leading entry (rows
    swap only where the latter is smaller), eliminates column i from the other row
    and the p rows below H, and raises SingularAtFrequency at a zero pivot."""
    N = w.shape[1]
    s = 1j * w
    row = np.repeat(S[:, 0, :, None], N, axis=2)  # carried row, columns i..
    row[:, 0] += s
    low = S[:, n:, :, None]  # the p rows below H, the same for every w until step 0
    for i in range(n):
        u = row
        if i + 1 < n:
            below = S[:, i + 1, i:, None]  # row i + 1, less the i w on its diagonal
            diag = below[:, 1] + s
            swap = (np.abs(row[:, 0]) < np.abs(below[:, 0]))[:, None]
            if swap.any():
                below = np.repeat(below, N, axis=2)
                below[:, 1] = diag
                u, below = np.where(swap, below, row), np.where(swap, row, below)
                diag = below[:, 1]
        if not u[:, 0].all():
            k, j = np.argwhere(u[:, 0] == 0)[0]
            raise _at(k, SingularAtFrequency(f"i*omega I - A is singular at {s[k, j]}"))
        if i + 1 < n:
            row = below[:, :1] / u[:, :1] * u[:, 1:]
            np.subtract(diag, row[:, 0], out=row[:, 0])
            np.subtract(below[:, 2:], row[:, 1:], out=row[:, 1:])
        t = low[:, :, :1] / u[:, None, :1] * u[:, None, 1:]
        low = np.subtract(low[:, :, 1:], t, out=t)
    return low


def _responses(S, eigA, W):
    """G_k(i w) = C_k (i w I - A_k)^(-1) B_k + D_k for each system k of a
    stack and each of its frequencies w in W[k], as a (K, N, p, m) array.

    S is a (K, n + p, n + m) stack of _system_matrices, eigA (K, n) the
    eigenvalues of A and W (K, N), taken BLOCK // K columns at a time; each
    block's pole check tests the eigenvalues _near_axis alone, if any.
    """
    K, n = eigA.shape
    if n == 0:
        return np.repeat(S[:, None], W.shape[1], axis=1)
    poles = eigA[:, _near_axis(eigA).any(axis=0)]  # no other can be hit
    out = np.empty(W.shape + (S.shape[1] - n, S.shape[2] - n), dtype=complex)
    step = max(BLOCK // K, 1)
    for start in range(0, W.shape[1], step):
        w = W[:, start : start + step]
        if poles.size:
            _pole_offsets(poles, w)
        g = _schur_complements(S, n, w)
        out[:, start : start + w.shape[1]] = np.moveaxis(g, 3, 1)
    return out


def _sigma_max(g):
    """Largest singular value of each matrix of a (..., p, m) stack.  A
    single row or column has one nonzero singular value, its Euclidean
    norm, so no SVD is taken there."""
    if min(g.shape[-2:]) <= 1:
        return np.linalg.norm(g, axis=(-2, -1))
    return np.linalg.svd(g, compute_uv=False)[..., 0]


def frequency_response(ss, omegas):
    """G(i w) = C (i w I - A)^(-1) B + D at each listed frequency (a
    non-finite one raises ValueError), as an (N, p, m) complex array, from
    one Hessenberg reduction of A and eliminations on BLOCK at a time."""
    A, B, C, D = (m[None] for m in (ss.A, ss.B, ss.C, ss.D))
    W = np.asarray(omegas, dtype=float).reshape(1, -1)
    if not np.isfinite(W).all():
        raise ValueError(f"frequencies must be finite, got {W[~np.isfinite(W)][0]}")
    return _responses(_system_matrices(A, B, C, D), np.linalg.eigvals(A), W)[0]


def _level_eigenvalues(A, B, C, D, gamma):
    """Eigenvalues of the bounded-real Hamiltonians of a stack, system k at
    level gamma[k] (above the largest singular value of D_k), as (K, 2n).
    The imaginary-axis eigenvalues i w mark the frequencies w where some
    singular value of G_k(i w) equals gamma[k]."""
    p, m = D.shape[1:]
    Bh, Ch, Dh = (x.conj().swapaxes(1, 2) for x in (B, C, D))
    R = gamma[:, None, None] ** 2 * np.eye(m) - Dh @ D
    Rinv = np.linalg.inv(R)
    Am = A + B @ Rinv @ Dh @ C
    Q = Ch @ (np.eye(p) + D @ Rinv @ Dh) @ C
    return np.linalg.eigvals(_hamiltonian(Am, B @ Rinv @ Bh, Q))


def _residues(B, C, V):
    """The residue (C V)_i (V^+ B)_i of each mode i of each system of a
    stack (A V = V Lambda), as (K, n, p, m), and cond(V) of each system, as
    (K,).  One SVD of each V gives both: V^+ is formed as np.linalg.pinv
    forms it (the same SVD, cutoff and products), and cond(V) is the ratio
    of the extreme singular values.  With the pseudo-inverse, a defective V
    gives poor modal gains, no error."""
    u, s, vh = np.linalg.svd(V.conj(), full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    large = s > 1e-15 * s.max(axis=1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = vh.swapaxes(1, 2) @ (s[..., None] * u.swapaxes(1, 2))
    return (C @ V).swapaxes(1, 2)[..., None] * (pinv @ B)[:, :, None], cond


def _modal_gains(R, D, eigA, W):
    """sigma_max of D + C V (i w - Lambda)^(-1) V^+ B, the modal form of each
    system k of a stack, at each frequency w in W[k], as (K, N): one batched
    product of the (K, N, n) reciprocal pole offsets with the residues R of
    _residues."""
    K, n, p, m = R.shape
    r = _pole_offsets(eigA, W)
    np.reciprocal(r, out=r)
    g = (r @ R.reshape(K, n, p * m)).reshape(W.shape + (p, m))
    g += D[:, None]
    return _sigma_max(g)


# The start's coarse grid, of both signs: a selected channel of a
# doubled-up system need not be symmetric in frequency.
GRID = np.logspace(-3, 3, 50)
GRID = np.concatenate([-GRID[::-1], GRID])
# The zoom about a coarse pick, as factors on its frequency: three rounds of
# 21 points, log-spaced over one step of the previous grid on either side,
# so each round is 10x finer than the last; the last steps by 1.2e-4
# decades.
ZOOMS = [(GRID[-1] / GRID[-2]) ** (np.linspace(-1.0, 1.0, 21) / 10**z)
         for z in range(3)]
# Largest condition number of an eigenvector matrix V for which the modal
# form stands in for the resolvent.  Over 8400 seeded systems (spread
# singular values, raw Gaussian bases, perturbed Jordan blocks), the modal
# gains deviated from the resolvent's by at most 2.3e-13 of the peak gain
# for cond(V) < 10, 2.5e-12 below 1e2 and 1.6e-10 below 1e3; the deviation
# grows about as cond(V)**2, to 1.1e-8 below 1e4 and 1.8e-6 below 1e5.
# (Against an LU solve per frequency; on 8400 more such systems, 2.0e-10
# below 1e3 against it and 1.8e-10 against the Hessenberg resolvent.)
MODAL_COND = 1e3


def _grid_gains(R, D, eigA):
    """The modal gains of each system of a stack on the coarse GRID, (K, N):
    the start is picked where they peak."""
    return _modal_gains(R, D, eigA, np.broadcast_to(GRID, (len(eigA), GRID.size)))


def _level_set(A, B, C, D, rel_tol, allow_unstable):
    """Peak gains over the imaginary axis of the K systems of the stacks A
    (K, n, n), B (K, n, m), C (K, p, n) and D (K, p, m), their peak
    frequencies and their spectral abscissas, as three (K,) arrays.

    Each system runs the level-set iteration of hinf_norm; the iterations
    go in lockstep, one stacked Hamiltonian eigen-solve and one stacked
    gain evaluation per step, and a system leaves the active set once it
    has converged.  One eigendecomposition A V = V Lambda of each A serves
    the stability check, every pole check and the gains: for a system with
    cond(V) <= MODAL_COND every gain is taken from the modal form, for any
    other every gain after the coarse pick is a resolvent solve.  A
    QreError raised for one system carries its index as ``system``.
    """
    eigA, V = np.linalg.eig(A)
    abscissa = eigA.real.max(axis=1, initial=-np.inf)
    if not allow_unstable and (abscissa >= 0).any():
        k = np.argmax(abscissa >= 0)
        raise _at(k, UnstableSystem(
            f"spectral abscissa {abscissa[k]:.4g} is not negative"
        ))
    norms = _sigma_max(D)
    if A.shape[1] == 0 or not B.shape[2] or not C.shape[1]:
        return norms, np.full(A.shape[0], np.inf), abscissa
    R, cond = _residues(B, C, V)
    modal = cond <= MODAL_COND
    S = np.empty((len(A), A.shape[1] + C.shape[1], A.shape[1] + B.shape[2]), complex)
    if not modal.all():  # the resolvent's systems, reduced once for every step
        S[~modal] = _system_matrices(*(x[~modal] for x in (A, B, C, D)))

    def modal_gains(k, W):
        return _modal_gains(R[k], D[k], eigA[k], W)

    def resolvent_gains(k, W):
        return _sigma_max(_responses(S[k], eigA[k], W))

    def gains(k, W):
        """Gains of the systems k at their frequencies W, (len(k), N): modal
        gains for the systems of ``modal``, resolvent gains for the rest.
        A failure names its system's index in the whole stack."""
        g = np.empty(W.shape)
        for on, gain in ((modal[k], modal_gains), (~modal[k], resolvent_gains)):
            if on.any():
                try:
                    g[on] = gain(k[on], W[on])
                except QreError as exc:
                    exc.system = k[on][exc.system]
                    raise
        return g

    # start: the best point of the coarse grid by modal gains, zoomed in on
    # by modal gains for the systems where they stand in for the resolvent;
    # its gain is a lower bound on the peak
    every = np.arange(len(A))
    w = GRID[np.argmax(_grid_gains(R, D, eigA), axis=1)]
    zoomed = np.flatnonzero(modal)
    for zoom in ZOOMS if zoomed.size else ():
        W = w[zoomed, None] * zoom
        w[zoomed] = W[np.arange(zoomed.size), np.argmax(gains(zoomed, W), axis=1)]
    lo = gains(every, w[:, None])[:, 0]
    peaks = np.where(lo > norms, w, np.inf)
    lo = np.where(lo > norms, lo, norms)
    peaks[lo == 0.0] = 0.0
    active = np.flatnonzero(lo != 0.0)
    for _ in range(MAX_LEVELS):
        if not active.size:
            break
        a, b, c, d = (x[active] for x in (A, B, C, D))
        gamma = lo[active] * (1 + rel_tol)
        eigs = _level_eigenvalues(a, b, c, d, gamma)
        # Between consecutive crossings of gamma the gain stays on one side
        # of it.  Midpoints between the frequencies of all eigenvalues put a
        # point inside every interval where the gain exceeds gamma, even
        # where rounding has moved its crossings slightly off the axis.
        freqs = np.sort(eigs.imag, axis=1)
        mids = 0.5 * (freqs[:, :-1] + freqs[:, 1:])
        mid_gains = gains(active, mids)
        best = np.argmax(mid_gains, axis=1)
        top = mid_gains[np.arange(active.size), best]
        done = top <= gamma
        scale = np.abs(eigs).max(axis=1, keepdims=True)
        crossed = (np.abs(eigs.real) < 1e-8 * scale).sum(axis=1)
        stuck = np.flatnonzero(done & (crossed > 0) & (top <= lo[active]))
        if stuck.size:
            i = stuck[0]
            raise _at(active[i], QreError(
                f"level {gamma[i]:.6g} is crossed at {crossed[i]} "
                f"frequencies but no midpoint gain exceeds {lo[active[i]]:.6g}"
            ))
        norms[active[done]] = lo[active[done]] * (1 + rel_tol / 2)
        rising = active[~done]
        lo[rising] = top[~done]
        peaks[rising] = mids[~done, best[~done]]
        active = rising
    if active.size:
        k = active[0]
        raise _at(k, QreError(
            f"level-set iteration did not converge in {MAX_LEVELS} steps "
            f"(level {lo[k] * (1 + rel_tol):.6g})"
        ))
    return norms, peaks, abscissa


def hinf_norm(ss, rel_tol=1e-6, allow_unstable=False, return_frequency=False):
    """Peak gain over the imaginary axis, by the level-set iteration on the
    bounded-real Hamiltonian (Boyd & Balakrishnan 1990; Bruinsma &
    Steinbuch 1990).

    From a lower bound lo (the gain of D, or the gain where the modal form
    of the response peaks on a coarse grid, refined by a zoom about that
    point), each step takes the Hamiltonian's eigenvalues at the level
    lo * (1 + rel_tol), the crossings of that level among them, and raises
    lo to the best gain at the midpoints between consecutive eigenvalue
    frequencies.  Once no midpoint gain exceeds the level,
    lo * (1 + rel_tol / 2) is within rel_tol / 2 of the peak.  Any point's
    gain is a lower bound, so the search only sets the start; from the
    zoomed start, one Hamiltonian eigen-solve typically certifies the peak.

    The gains come from the modal form D + C V (i w - Lambda)^(-1) V^+ B of
    A V = V Lambda where cond(V) <= MODAL_COND: there they lie within
    1.6e-10 of the peak gain of the resolvent's (measured; see MODAL_COND).
    A worse-conditioned or defective A skips the zoom and takes every gain
    after the coarse pick from the resolvent.  grid_peak_gain evaluates the
    resolvent alone (Hessenberg form, Laub 1981), with no Hamiltonian and
    no eigenvectors, so it stays an independent check of this search.

    For a stable system this is the H-infinity norm.  With
    ``allow_unstable=True`` the same computation is performed for unstable
    dynamics, returning the supremum of the largest singular value of
    G(i w) over real w (the L-infinity norm); otherwise an unstable system
    raises UnstableSystem.  With ``return_frequency=True`` the result is a
    (norm, peak_frequency) pair, the frequency being that of the best point
    found (infinite where the gain of D was never exceeded).
    """
    stack = (m[None] for m in (ss.A, ss.B, ss.C, ss.D))
    norms, peaks, _ = _level_set(*stack, rel_tol, allow_unstable)
    norm, peak = float(norms[0]), float(peaks[0])
    return (norm, peak) if return_frequency else norm


# The oracle's dense grid: 2000 log-spaced points per sign over
# 1e-3 ... 1e3 rad/s.  With complex state-space data, a selected
# input/output channel of a doubled-up model generally peaks on one side of
# the frequency axis only.
ORACLE_GRID = np.logspace(-3, 3, 2000)
ORACLE_GRID = np.concatenate([-ORACLE_GRID[::-1], ORACLE_GRID])


def grid_peak_gain(ss):
    """Brute-force peak gain on the dense ORACLE_GRID; used as an
    independent, Hamiltonian-free cross-check of the level-set iteration in
    hinf_norm."""
    return float(_sigma_max(frequency_response(ss, ORACLE_GRID)).max())


def delta_sweep(builder, deltas, label="", rel_tol=1e-6):
    """Peak gains and spectral abscissas of the loops builder(deltas), in
    one run of the level-set kernel.  ``builder`` maps the array of K deltas
    to the (A, B, C, D) stacks of their K loops, as a LoopPolynomial does.
    An unstable loop's peak gain is its L-infinity norm, as its abscissa shows.
    The builder's failures propagate as raised; the kernel's keep their
    class and name the delta of the loop at fault.
    """
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        return SweepResult((), (), label, ())
    stacks = builder(np.array(deltas))
    try:
        norms, _, abscissa = _level_set(*stacks, rel_tol, allow_unstable=True)
    except QreError as exc:
        raise type(exc)(f"sweep failed at delta={deltas[exc.system]}: {exc}") from exc
    return SweepResult(deltas, tuple(norms.tolist()), label, tuple(abscissa.tolist()))
