"""Closed-loop analysis: error-system construction, frequency responses,
H-infinity norms and uncertainty sweeps.

The peak gain is computed by the level-set iteration on the bounded-real
Hamiltonian: its imaginary-axis eigenvalues at a candidate level are the
frequencies where the gain crosses that level.  The same characterization
also yields the peak gain over the imaginary axis for a system with
unstable dynamics (the L-infinity norm); pass ``allow_unstable=True`` to
request that instead of an error.  Frequency responses are evaluated in
stacked blocks, one batched linear solve per block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelOutOfRange,
    QreError,
    ShapeMismatch,
    SingularAtFrequency,
    UnstableSystem,
)
from .linalg import as_cmatrix, max_singular_value

__all__ = [
    "StateSpace",
    "SweepResult",
    "closed_loop_error_system",
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
        A = as_cmatrix(self.A)
        B = as_cmatrix(self.B)
        C = as_cmatrix(self.C)
        D = as_cmatrix(self.D)
        if A.shape[0] != A.shape[1]:
            raise ShapeMismatch("A must be square")
        if B.shape[0] != A.shape[0] or C.shape[1] != A.shape[0]:
            raise ShapeMismatch("B and C must conform with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ShapeMismatch("D must conform with B and C")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def spectral_abscissa(self):
        if self.A.size == 0:
            return -np.inf
        return float(np.max(np.linalg.eigvals(self.A).real))

    @property
    def is_stable(self):
        return self.spectral_abscissa < 0


@dataclass(frozen=True)
class SweepResult:
    """Peak gains across an uncertainty grid, labelled per estimator."""

    deltas: tuple
    norms: tuple
    label: str

    def __post_init__(self):
        if len(self.deltas) != len(self.norms):
            raise ShapeMismatch("deltas and norms must have equal length")
        if not all(np.isfinite(self.norms)):
            raise QreError("sweep produced a non-finite norm")


def closed_loop_error_system(A, B, C, D, L, S, est, deltas=None, channel=None):
    """Disturbance-to-estimation-error system for a filter driven by the
    homodyne measurement of a (possibly perturbed) plant.

    A_cl = [[A+dA, 0], [B_K S (C+dC), A_K]], B_cl = [[B+dB], [B_K S D]]
    restricted to the selected input columns, C_cl = [-L, C_K], D_cl = 0.
    ``channel`` lists input-column indices; the default keeps the first
    half of the leading doubled input block (the disturbance-field
    quadratures, not their conjugates).
    """
    A, B, C, D, L, S = map(as_cmatrix, (A, B, C, D, L, S))
    dA = np.zeros_like(A) if deltas is None else deltas.dA
    dB = np.zeros_like(B) if deltas is None else deltas.dB
    dC = np.zeros_like(C) if deltas is None else deltas.dC
    if dB.shape[1] != B.shape[1]:
        # perturbation touches only the leading input block; pad with zeros
        pad = np.zeros((dB.shape[0], B.shape[1] - dB.shape[1]))
        dB = np.hstack([dB, pad])
    n, k = A.shape[0], est.A_K.shape[0]
    Acl = np.block(
        [[A + dA, np.zeros((n, k))], [est.B_K @ S @ (C + dC), est.A_K]]
    )
    Bcl = np.vstack([B + dB, est.B_K @ S @ D])
    if channel is None:
        channel = list(range(S.shape[0]))
    channel = list(channel)
    if any(c < 0 or c >= Bcl.shape[1] for c in channel):
        raise ChannelOutOfRange(
            f"channel {channel} outside input width {Bcl.shape[1]}"
        )
    Bcl = Bcl[:, channel]
    Ccl = np.hstack([-L, est.C_K])
    return StateSpace(Acl, Bcl, Ccl, np.zeros((Ccl.shape[0], Bcl.shape[1])))


# Frequencies per stacked solve: bounded blocks keep memory flat in N.
BLOCK = 256
# Level-set steps before hinf_norm gives up; it typically needs one to three.
MAX_LEVELS = 100


def frequency_response(ss, omegas):
    """G(i w) = C (i w I - A)^(-1) B + D at each listed frequency, as an
    (N, p, m) complex array; the resolvent is solved in stacked blocks of
    BLOCK frequencies."""
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    n = A.shape[0]
    out = np.empty((omegas.size,) + D.shape, dtype=complex)
    out[:] = D
    if n == 0:
        return out
    eigs = np.linalg.eigvals(A)
    for start in range(0, omegas.size, BLOCK):
        w = omegas[start : start + BLOCK]
        near = np.min(np.abs(1j * w[:, None] - eigs), axis=1) < 1e-12
        if near.any():
            pole = 1j * w[np.argmax(near)]
            raise SingularAtFrequency(f"i*omega = {pole} is a system pole")
        # i w I - A, with i w added along each diagonal in place
        resolvent = np.repeat(-A[None], w.size, axis=0)
        resolvent.reshape(w.size, -1)[:, :: n + 1] += 1j * w[:, None]
        X = np.linalg.solve(resolvent, np.broadcast_to(B, (w.size,) + B.shape))
        out[start : start + w.size] += C @ X
    return out


def _peak_gains(ss, omegas):
    """Largest singular value of G(i w) at each listed frequency."""
    g = frequency_response(ss, omegas)
    if g.size == 0:
        return np.zeros(len(g))
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def _level_eigenvalues(ss, gamma):
    """Eigenvalues of the bounded-real Hamiltonian at level gamma (above the
    largest singular value of D).  Its imaginary-axis eigenvalues i w mark
    the frequencies w where some singular value of G(i w) equals gamma."""
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    R = gamma**2 * np.eye(D.shape[1]) - D.conj().T @ D
    Rinv = np.linalg.inv(R)
    Am = A + B @ Rinv @ D.conj().T @ C
    H = np.block(
        [
            [Am, B @ Rinv @ B.conj().T],
            [
                -C.conj().T @ (np.eye(D.shape[0]) + D @ Rinv @ D.conj().T) @ C,
                -Am.conj().T,
            ],
        ]
    )
    return np.linalg.eigvals(H)


def hinf_norm(ss, rel_tol=1e-6, allow_unstable=False, return_frequency=False):
    """Peak gain over the imaginary axis, by the level-set iteration on the
    bounded-real Hamiltonian (Boyd & Balakrishnan 1990; Bruinsma &
    Steinbuch 1990).

    From a lower bound lo (coarse-grid peak or gain of D), each step takes
    the Hamiltonian's eigenvalues at the level lo * (1 + rel_tol), the
    crossings of that level among them, and raises lo to the best gain at
    the midpoints between consecutive eigenvalue frequencies.  Once no
    midpoint gain exceeds the level, lo * (1 + rel_tol / 2) is within
    rel_tol / 2 of the peak.

    For a stable system this is the H-infinity norm.  With
    ``allow_unstable=True`` the same computation is performed for unstable
    dynamics, returning the supremum of the largest singular value of
    G(i w) over real w (the L-infinity norm); otherwise an unstable system
    raises UnstableSystem.  With ``return_frequency=True`` the result is a
    (norm, peak_frequency) pair, the frequency being that of the best point
    found (infinite where the gain of D was never exceeded).
    """
    if not ss.is_stable and not allow_unstable:
        raise UnstableSystem(
            f"spectral abscissa {ss.spectral_abscissa:.4g} is not negative"
        )
    dnorm = max_singular_value(ss.D)
    if ss.A.size == 0 or not ss.B.size or not ss.C.size:
        return (dnorm, np.inf) if return_frequency else dnorm
    # starting bound from a coarse frequency grid (both signs: a single
    # selected channel of a doubled-up system need not be conjugate-symmetric)
    grid = np.logspace(-3, 3, 50)
    grid = np.concatenate([-grid[::-1], grid])
    gains = _peak_gains(ss, grid)
    best = int(np.argmax(gains))
    lo, peak = float(gains[best]), float(grid[best])
    if dnorm >= lo:
        lo, peak = dnorm, np.inf
    if lo == 0.0:
        return (0.0, 0.0) if return_frequency else 0.0
    for _ in range(MAX_LEVELS):
        gamma = lo * (1 + rel_tol)
        eigs = _level_eigenvalues(ss, gamma)
        # Between consecutive crossings of gamma the gain stays on one side
        # of it.  Midpoints between the frequencies of all eigenvalues put a
        # point inside every interval where the gain exceeds gamma, even
        # where rounding has moved its crossings slightly off the axis.
        freqs = np.sort(eigs.imag)
        mids = 0.5 * (freqs[:-1] + freqs[1:])
        gains = _peak_gains(ss, mids)
        best = int(np.argmax(gains))
        if gains[best] <= gamma:
            on_axis = np.abs(eigs.real) < 1e-8 * max(1.0, np.max(np.abs(eigs)))
            if on_axis.any() and gains[best] <= lo:
                raise QreError(
                    f"level {gamma:.6g} is crossed at {on_axis.sum()} "
                    f"frequencies but no midpoint gain exceeds {lo:.6g}"
                )
            norm = lo * (1 + rel_tol / 2)
            return (norm, peak) if return_frequency else norm
        lo, peak = float(gains[best]), float(mids[best])
    raise QreError(
        f"level-set iteration did not converge in {MAX_LEVELS} steps "
        f"(level {lo * (1 + rel_tol):.6g})"
    )


def grid_peak_gain(ss, n_points=2000, omega_min=1e-3, omega_max=1e3):
    """Brute-force peak gain on a dense logarithmic frequency grid; used as
    an independent, Hamiltonian-free cross-check of the level-set
    iteration in hinf_norm.

    The grid covers both signs of the frequency axis (n_points per sign):
    with complex state-space data, a selected input/output channel of a
    doubled-up model generally peaks on one side only.
    """
    grid = np.logspace(np.log10(omega_min), np.log10(omega_max), n_points)
    grid = np.concatenate([-grid[::-1], grid])
    return float(_peak_gains(ss, grid).max())


def delta_sweep(builder, deltas, label="", rel_tol=1e-6, allow_unstable=True):
    """Evaluate the peak gain of builder(delta) across an uncertainty grid.

    The estimator inside the builder stays fixed (synthesized once at its
    design point); only the plant perturbation varies.  Per-point failures
    are re-raised with the offending delta attached.
    """
    norms = []
    for d in deltas:
        try:
            norms.append(hinf_norm(builder(d), rel_tol, allow_unstable))
        except QreError as exc:
            raise QreError(f"sweep failed at delta={d}: {exc}") from exc
    return SweepResult(tuple(float(d) for d in deltas), tuple(norms), label)
