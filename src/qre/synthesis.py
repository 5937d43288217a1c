"""Robust H-infinity estimator synthesis.

``assemble`` builds the scaled estimation problem of one measured channel:
a system with fields A, B, C, D, L (the plant for the classical filter, the
plant/controller augmented system for the coherent-classical one), its
uncertainty model and the homodyne map.  ``synthesize`` solves the two
algebraic Riccati equations and builds the estimator matrices.

The synthesis works on a stack of K problems of one shape, each Riccati
equation being one stacked solve (``linalg``): ``eps_grid_search``
synthesizes its grid as one such stack, and ``synthesize`` is its K = 1
case.  A problem that fails a gate carries its own error out of the stack.

Two gain conventions are supported for the measurement-injection gain B_K.
The "reproduction" convention uses a gamma^-2 prefactor on the coupling term
and reproduces the published reference estimator matrices used as regression
targets; the "theorem" convention uses the gamma^2 prefactor of the
underlying central-estimator formula and yields a stable filter meeting the
nominal attenuation bound.  Both solve identical Riccati equations.
"""

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .errors import (
    CareFailure,
    CouplingSingular,
    QreError,
    ScalingTooLarge,
    SingularE2,
    UnstableEstimator,
)
from .linalg import (
    CareSolution,
    _conj_t,
    _frobenius,
    _residual,
    _solve_cares,
    as_cmatrix,
    hermitian_inv_sqrt,
    solve_care,  # noqa: F401 (the benchmark's span tracer wraps this binding)
)

__all__ = [
    "ScaledProblem",
    "Estimator",
    "assemble",
    "synthesize",
    "eps_grid_search",
]


@dataclass(frozen=True)
class ScaledProblem:
    """The scaled H-infinity estimation data.

    Abar/C2bar/Sbar are the state, measurement and homodyne maps; B1bar,
    C1bar, D12bar, D21bar the scaled disturbance/penalty maps; E1bar and
    E2bar the control- and measurement-weighting Gramians.
    """

    Abar: np.ndarray
    C2bar: np.ndarray
    Sbar: np.ndarray
    B1bar: np.ndarray
    C1bar: np.ndarray
    D12bar: np.ndarray
    D21bar: np.ndarray
    E1bar: np.ndarray
    E2bar: np.ndarray
    gamma: float
    eps1: float
    eps2: float

    def __post_init__(self):
        for f in fields(self):
            if f.type is np.ndarray:
                object.__setattr__(self, f.name, as_cmatrix(getattr(self, f.name)))

    @property
    def n(self):
        return self.Abar.shape[0]


@dataclass(frozen=True)
class Estimator:
    """Classical state-space filter with synthesis diagnostics."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray
    X: CareSolution
    Y: CareSolution
    gamma: float
    eps1: float
    eps2: float
    spectral_abscissa: float
    stable: bool
    coupling_condition: float
    residual_x: float
    residual_y: float
    gain_convention: str = "reproduction"
    params: dict = field(default_factory=dict)


def _scaling_inv_sqrt(G, eps2):
    """(I - eps2^2 G^dag G)^(-1/2), failing when the scaling saturates."""
    G = as_cmatrix(G)
    M = np.eye(G.shape[1]) - eps2**2 * G.conj().T @ G
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise ScalingTooLarge(
            f"I - eps2^2 G^dag G has minimum eigenvalue {w[0]:.3e}"
        )
    return hermitian_inv_sqrt(M)


def assemble(system, u, S, gamma, eps1, eps2):
    """Scaled problem for a filter on the homodyne measurement of a channel.

    ``system`` is the measured system (fields A, B, C, D, L): a plant, or a
    plant/controller augmented system.  ``u`` is its uncertainty model.  The
    scaling (I - eps2^2 G^dag G)^(-1/2) acts on all columns of B and D; the
    uncertain block drives the leading inputs, so a G narrower than B gets
    zero columns for the rest (a plant's control input, a controller's field).
    """
    if not all(np.isfinite(x) and x > 0 for x in (gamma, eps1, eps2)):
        raise QreError("gamma, eps1, eps2 must all be positive and finite")
    A, B, C, D, L = system.A, system.B, system.C, system.D, system.L
    H1, H2, H3, E, G = u.H1, u.H2, u.H3, u.E, u.G
    S = as_cmatrix(S)
    if G.shape[1] < B.shape[1]:
        G = np.hstack([G, np.zeros((G.shape[0], B.shape[1] - G.shape[1]))])
    Mis = _scaling_inv_sqrt(G, eps2)
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
    E1bar = D12bar.conj().T @ D12bar
    Minv = Mis @ Mis
    E2bar = (
        S @ D @ Minv @ D.conj().T @ S.conj().T
        + (gamma / eps1) ** 2 * S @ H3 @ H3.conj().T @ S.conj().T
    )
    E2bar = (E2bar + E2bar.conj().T) / 2
    w = np.linalg.eigvalsh(E2bar)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise SingularE2(f"measurement weighting has eigenvalue {w[0]:.3e}")
    return ScaledProblem(
        Abar=A,
        C2bar=C,
        Sbar=S,
        B1bar=B1bar,
        C1bar=C1bar,
        D12bar=D12bar,
        D21bar=D21bar,
        E1bar=E1bar,
        E2bar=E2bar,
        gamma=float(gamma),
        eps1=float(eps1),
        eps2=float(eps2),
    )


# the benchmark's design workload (benchmarks/workloads.py) calls these names
assemble_classical = assemble_feedback_classical = assemble_augmented = assemble


# Grid points per stacked synthesis, so memory stays flat in the grid size;
# the default 9 x 9 grid is one stack.
GRID_BLOCK = 81


def _solve(a, b):
    """a^-1 b for matrices or stacks of them; b is never read as a stack of
    vectors, which numpy before 2.0 does where b has one axis fewer than a."""
    return np.linalg.solve(a, b[None] if b.ndim < a.ndim else b)


def riccati_residual_x(p, X):
    """Relative residual of the state Riccati equation
    Abar^dag X + X Abar + X (gamma^-2 B1bar B1bar^dag) X
    + C1bar^dag (I - D12bar E1bar^-1 D12bar^dag) C1bar = 0.

    ``p`` may also be a stack of problems, as synthesized over a grid, and
    X the stack of their solutions; the residuals are then an array."""
    P = np.eye(p.C1bar.shape[-2]) - p.D12bar @ _solve(p.E1bar, _conj_t(p.D12bar))
    R = p.B1bar @ _conj_t(p.B1bar) / p.gamma**2
    return _residual(p.Abar, R, _conj_t(p.C1bar) @ P @ p.C1bar, X)


def riccati_residual_y(p, Y):
    """Relative residual of the output-injection Riccati equation
    Abar Y + Y Abar^dag + Y C1bar^dag C1bar Y + gamma^-2 B1bar B1bar^dag
    - (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag) Sbar^dag E2bar^-1
      Sbar (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag)^dag = 0.

    Takes stacks as ``riccati_residual_x`` does."""
    g = p.gamma
    T = p.B1bar @ _conj_t(p.D21bar) / g + g * Y @ _conj_t(p.C2bar)
    W = _conj_t(p.Sbar) @ _solve(p.E2bar, p.Sbar)
    const = p.B1bar @ _conj_t(p.B1bar) / g**2
    res = (
        p.Abar @ Y
        + Y @ _conj_t(p.Abar)
        + Y @ _conj_t(p.C1bar) @ p.C1bar @ Y
        + const
        - T @ W @ _conj_t(T)
    )
    return _frobenius(res) / (1 + _frobenius(const))


def _stack(problems):
    """The problems' matrices as (K, ...) stacks, with a matrix that is the
    same in every problem kept as one matrix, which broadcasts against the
    stacks, and gamma as a (K, 1, 1) stack."""
    s = SimpleNamespace(gamma=np.array([p.gamma for p in problems])[:, None, None])
    for f in fields(ScaledProblem):
        if f.type is np.ndarray:
            ms = [getattr(p, f.name) for p in problems]
            m = ms[0]
            if any(x is not m for x in ms):
                stack = np.stack(ms)
                if not (stack == m).all():
                    m = stack
            setattr(s, f.name, m)
    return s


def _take(s, ok):
    """The stack ``s`` restricted to the problems flagged in ``ok``."""
    return SimpleNamespace(
        **{k: v[ok] if v.ndim == 3 else v for k, v in vars(s).items()}
    )


def _synthesize(problems, gain_convention="reproduction", require_stable=False):
    """Estimators of problems of one shape, synthesized as one stack: per
    problem, the Estimator ``synthesize`` returns or the error it raises.

    Each Riccati equation is one stacked solve; the output-injection
    equation is solved only where the state equation was, and the estimator
    built only where both were.
    """
    if gain_convention not in ("reproduction", "theorem"):
        raise QreError(f"unknown gain convention {gain_convention!r}")
    if not problems:
        return []
    out = [None] * len(problems)
    rows = np.arange(len(problems))
    s = _stack(problems)
    sols = {"X": {}, "Y": {}}

    def solve(which, A, R, Q):
        """One CARE per live problem; a failure is the problem's outcome."""
        nonlocal rows, s
        got = _solve_cares(A, (R + _conj_t(R)) / 2, (Q + _conj_t(Q)) / 2)
        for r, sol in zip(rows, got):
            if isinstance(sol, CareSolution):
                sols[which][r] = sol
            elif isinstance(sol, QreError):
                out[r] = CareFailure(which, sol)
                out[r].__cause__ = sol
            else:
                out[r] = sol
        ok = np.array([r in sols[which] for r in rows], dtype=bool)
        if not ok.all():
            rows, s = rows[ok], _take(s, ok)

    # state equation in canonical form
    P = np.eye(s.C1bar.shape[-2]) - s.D12bar @ _solve(s.E1bar, _conj_t(s.D12bar))
    solve(
        "X",
        s.Abar,
        s.B1bar @ _conj_t(s.B1bar) / s.gamma**2,
        _conj_t(s.C1bar) @ P @ s.C1bar,
    )
    if not rows.size:
        return out

    # output-injection equation regrouped into the same canonical form:
    # with M = Sbar^dag E2bar^-1 Sbar,
    #   Ap = Abar - B1 D21^dag M C2,
    #   Rp = C1^dag C1 - gamma^2 C2^dag M C2,
    #   Qp = gamma^-2 B1 (I - D21^dag M D21) B1^dag,
    # the equation reads Ap Y + Y Ap^dag + Y Rp Y + Qp = 0, i.e. the
    # canonical form with state matrix Ap^dag.
    B1, C1, C2, D21, g2 = s.B1bar, s.C1bar, s.C2bar, s.D21bar, s.gamma**2
    M = _conj_t(s.Sbar) @ _solve(s.E2bar, s.Sbar)
    Ap = s.Abar - B1 @ _conj_t(D21) @ M @ C2
    Rp = _conj_t(C1) @ C1 - g2 * _conj_t(C2) @ M @ C2
    Qp = (B1 @ (np.eye(B1.shape[-1]) - _conj_t(D21) @ M @ D21) @ _conj_t(B1)) / g2
    solve("Y", _conj_t(Ap), Rp, Qp)
    if not rows.size:
        return out

    X, Y = (np.stack([sols[w][r].X for r in rows]) for w in "XY")
    coupling = np.eye(X.shape[-1]) - Y @ X
    cond = np.linalg.cond(coupling)
    ok = np.isfinite(cond) & (cond <= 1e12)
    for j in np.flatnonzero(~ok):
        out[rows[j]] = CouplingSingular(f"I - YX has condition number {cond[j]:.3e}")
    if not ok.all():
        rows, s, X, Y, coupling, cond = (
            rows[ok], _take(s, ok), X[ok], Y[ok], coupling[ok], cond[ok]
        )

    B1, C2, D21, S, g2 = s.B1bar, s.C2bar, s.D21bar, s.Sbar, s.gamma**2
    prefactor = 1 / g2 if gain_convention == "reproduction" else g2
    BK = prefactor * _solve(coupling, (
        Y @ _conj_t(C2) @ _conj_t(S) + B1 @ _conj_t(D21) @ _conj_t(S) / g2
    )) @ np.linalg.inv(s.E2bar)
    AK = s.Abar - BK @ S @ C2 + (B1 - BK @ S @ D21) @ _conj_t(B1) @ X / g2
    CK = -_solve(s.E1bar, _conj_t(s.D12bar)) @ s.C1bar
    abscissa = np.linalg.eigvals(AK).real.max(axis=-1)
    res_x, res_y = riccati_residual_x(s, X), riccati_residual_y(s, Y)
    for j, r in enumerate(rows):
        if require_stable and not abscissa[j] < 0:
            out[r] = UnstableEstimator(
                f"estimator spectral abscissa {abscissa[j]:.4f} is not negative"
            )
            continue
        p = problems[r]
        out[r] = Estimator(
            A_K=AK[j],
            B_K=BK[j],
            C_K=CK[j] if CK.ndim == 3 else CK,
            X=sols["X"][r],
            Y=sols["Y"][r],
            gamma=p.gamma,
            eps1=p.eps1,
            eps2=p.eps2,
            spectral_abscissa=float(abscissa[j]),
            stable=bool(abscissa[j] < 0),
            coupling_condition=float(cond[j]),
            residual_x=float(res_x[j]),
            residual_y=float(res_y[j]),
            gain_convention=gain_convention,
        )
    return out


def synthesize(p, gain_convention="reproduction", require_stable=False):
    """Solve the two Riccati equations and build the estimator.

    gain_convention selects the B_K prefactor: "reproduction" (gamma^-2,
    matching the benchmark reference matrices) or "theorem" (gamma^2, the
    central-estimator form, yielding a stable filter with nominal
    attenuation below gamma).  This is the one-problem case of the stacked
    synthesis that ``eps_grid_search`` runs over its grid.
    """
    (est,) = _synthesize([p], gain_convention, require_stable)
    if isinstance(est, Exception):
        raise est
    return est


def _grid_estimators(assemble, grid, **kwargs):
    """(eps1, eps2, Estimator) at each (eps1, eps2) of the grid, in order,
    where assembly and synthesis succeed.  Each block of GRID_BLOCK points
    is synthesized as one stack; an error that is no QreError is raised."""
    for start in range(0, len(grid), GRID_BLOCK):
        points, problems = [], []
        for e1, e2 in grid[start : start + GRID_BLOCK]:
            try:
                problems.append(assemble(e1, e2))
            except QreError:
                continue
            points.append((e1, e2))
        for (e1, e2), est in zip(points, _synthesize(problems, **kwargs)):
            if not isinstance(est, Exception):
                yield e1, e2, est
            elif not isinstance(est, QreError):
                raise est


def eps_grid_search(assemble, objective, eps1_grid=None, eps2_grid=None, **kwargs):
    """Coarse search over the scaling parameters.

    assemble(eps1, eps2) must return a ScaledProblem; objective(Estimator)
    a scalar to minimize.  Returns (eps1, eps2, value, estimator) for the
    best feasible point, the first in row-major order among equals; grid
    points where assembly or synthesis fails, or where the objective is not
    finite, are skipped.  The assembled points are synthesized as a stack.
    """
    if eps1_grid is None:
        eps1_grid = np.logspace(-2, 0, 9)
    if eps2_grid is None:
        eps2_grid = np.logspace(-2, 0, 9)
    grid = [(float(e1), float(e2)) for e1 in eps1_grid for e2 in eps2_grid]
    best = None
    for e1, e2, est in _grid_estimators(assemble, grid, **kwargs):
        try:
            val = float(objective(est))
        except QreError:
            continue
        if np.isfinite(val) and (best is None or val < best[2]):
            best = (e1, e2, val, est)
    if best is None:
        raise QreError("no feasible scaling point on the grid")
    return best
