"""Robust H-infinity estimator synthesis.

``assemble`` builds the scaled estimation problem of one measured channel:
a system with fields A, B, C, D, L (the plant augmented with the classical
filter's pass-through controller or with the coherent controller), its
uncertainty model and the homodyne map.  ``synthesize`` solves the two
algebraic Riccati equations and builds the estimator.

Both work on stacks of problems of one shape: ``assemble`` given arrays of
eps1 and eps2 builds their problems as one ``ScaledProblem`` stack, with
one stacked eigen-solve of I - eps2^2 G^dag G per point, as
``eps_grid_search`` asks for each block of its grid, and each Riccati
equation of a stack is one stacked solve (``linalg``), whose R and Q are
symmetrized here.  On qre's doubled-up models both run real: the state
equation's data are real, and the output-injection equation is solved in
real quadrature coordinates.  A stack of K problems has (K, p, q) matrices
and (K,) scalars, and ``s[j]`` is its problem j.  Every stage drops a
point that fails a gate the same way (``linalg._drop``): the point's error
becomes its outcome and the stack goes on without it.  Scalar eps1, eps2
and ``synthesize`` are the K = 1 case.

Two gain conventions are supported for the measurement-injection gain B_K.
The "reproduction" convention uses a gamma^-2 prefactor on the coupling term
and reproduces the published reference estimator matrices used as regression
targets; the "theorem" convention uses the gamma^2 prefactor of the
underlying central-estimator formula and yields a stable filter meeting the
nominal attenuation bound.  Both solve identical Riccati equations.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    CareFailure,
    CouplingSingular,
    DomainError,
    QreError,
    ScalingTooLarge,
    ShapeMismatch,
    SingularE2,
    UnstableEstimator,
)
from .linalg import (
    CareSolution,
    _conj_t,
    _drop,
    _frobenius,
    _residual,
    _solve_cares,
    as_cmatrix,
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
    """The scaled H-infinity estimation data of one problem, or of a stack.

    Abar/C2bar/Sbar are the state, measurement and homodyne maps; B1bar,
    C1bar, D12bar, D21bar the scaled disturbance/penalty maps; E2bar the
    measurement-weighting Gramian.  D12bar = [0; -I], so the
    control-weighting Gramian D12bar^dag D12bar is I and is not stored.

    One problem has (p, q) matrices and float gamma, eps1, eps2; a stack of
    K problems has (K, p, q) matrices and (K,) arrays, and ``s[index]`` (a
    position, a mask or positions) is its problem or sub-stack there, with
    no failures.  ``failures`` maps the position of each point ``assemble``
    was given that failed a gate to its error.  ``_quadrature`` is the
    channel's ``_quadrature_map``: T where the layout the measured system
    declares fits all of the channel's data, else None.
    """

    Abar: np.ndarray
    C2bar: np.ndarray
    Sbar: np.ndarray
    B1bar: np.ndarray
    C1bar: np.ndarray
    D12bar: np.ndarray
    D21bar: np.ndarray
    E2bar: np.ndarray
    gamma: float
    eps1: float
    eps2: float
    failures: dict = field(default_factory=dict)
    _quadrature: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return self.Abar.shape[-1]

    def __getitem__(self, index):
        return replace(self, failures={}, **{
            f.name: getattr(self, f.name)[index] for f in fields(self)
            if f.name != "failures" and getattr(self, f.name) is not None
        })


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


def _swap(blocks):
    """The permutation that swaps each a for its a# in blocks [a; a#] of
    the given sizes, laid end to end."""
    out = []
    for k in blocks:
        out += [len(out) + j for j in (*range(k // 2, k), *range(k // 2))]
    return out


def _quadrature_map(layout, A, B, C, D, S, L, H1, H2, H3, E, G):
    """T = blockdiag([[I, iI], [I, -iI]] / sqrt(2)) over the doubled-up
    subsystems [a1 .. ak, a1# .. ak#] that the measured system's layout
    declares, or None.  The layout gives the state count of each subsystem
    and the width of each input block; the output [y; y#] is one block.
    The channel's data are real in x = T x~ exactly when they are
    doubled-up: to the bit, the conjugate of A, B, C, D and S, and of each
    Gram of the estimand L and of the uncertainty factors, is itself with
    each a, y or input swapped for its conjugate."""
    if (layout is None or sum(layout[0]) != E.shape[1] or sum(layout[1]) != G.shape[1]
            or any(k % 2 for k in (*layout[0], *layout[1], S.shape[1]))):
        return None
    x, i, y = _swap(layout[0]), _swap(layout[1]), _swap((S.shape[1],))
    xy, H = x + [len(x) + j for j in y], np.vstack([H1, H3])
    blocks = ((A, x, x), (B, x, i), (C, y, x), (D, y, i), (S, slice(None), y),
              (H @ _conj_t(H), xy, xy), (_conj_t(G) @ G, i, i),
              (np.stack([_conj_t(L) @ L, _conj_t(E) @ E, H2 @ _conj_t(H2)]), x, x))
    if not all((m.conj() == m[..., r, :][..., c]).all() for m, r, c in blocks):
        return None
    # column c of T is e_c + e_c# for an a and i (e_c# - e_c) for an a#
    d = np.where(np.array(x) < np.arange(len(x)), 1j, 1)
    return (np.eye(len(x))[x] * d + np.diag(d.conj())) / np.sqrt(2)


def assemble(system, u, S, gamma, eps1, eps2):
    """Scaled problem for a filter on the homodyne measurement of a channel.

    ``system`` is the measured system (fields A, B, C, D, L), a study's
    ``AugmentedSystem`` or a bare plant.  ``u`` is its uncertainty model.
    The scaling (I - eps2^2 G^dag G)^(-1/2) acts on all columns of B and D; the
    uncertain block drives the leading inputs, so a G narrower than B gets
    zero columns for the rest (a plant's control input, a controller's field).

    eps1 and eps2 are scalars, or equal-length 1-D arrays of points.  The
    gates run per point, in order: gamma, eps1, eps2 positive and finite
    (DomainError), the scaling not saturated (ScalingTooLarge), E2bar
    nonsingular (SingularE2).  Arrays give the ScaledProblem stack of the
    points that pass, with the others' errors in its ``failures``; scalars
    give the one problem, or raise its error.  S or an uncertainty factor
    that does not conform with the system raises ShapeMismatch first.
    """
    A, B, C, D, L = (
        np.asarray(m, dtype=complex)
        for m in (system.A, system.B, system.C, system.D, system.L)
    )
    S = as_cmatrix(S)
    H1, H2, H3, E, G = u.H1, u.H2, u.H3, u.E, u.G
    n, p, m = A.shape[0], C.shape[0], B.shape[1]
    for name, block, conforms in (
        ("S", S, S.shape[1] == p), ("H1", H1, H1.shape[0] == n),
        ("H2", H2, H2.shape[0] == n), ("H3", H3, H3.shape[0] == p),
        ("E", E, E.shape[1] == n), ("G", G, G.shape[1] <= m),
    ):
        if not conforms:
            raise ShapeMismatch(
                f"{name} has shape {block.shape}; the system has {n} states, "
                f"{p} outputs and {m} inputs"
            )
    if G.shape[1] < m:
        G = np.hstack([G, np.zeros((G.shape[0], m - G.shape[1]))])

    e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    one_point = e1.ndim == e2.ndim == 0
    e1, e2 = np.atleast_1d(e1, e2)
    failures = {}
    ok = np.isfinite(e1) & (e1 > 0) & np.isfinite(e2) & (e2 > 0)
    ok &= bool(np.isfinite(gamma) and gamma > 0)
    live, e1, e2 = _drop(failures, np.arange(e1.size), ok, lambda j: DomainError(
        "gamma, eps1, eps2 must all be positive and finite"
    ), e1, e2)

    # I - eps2^2 G^dag G and its inverse root from one eigh per point;
    # float_power is C pow, as a float's ** is, so each point's matrices are
    # the one-point formula's to the bit
    w, v = np.linalg.eigh(
        np.eye(m) - np.float_power(e2, 2)[:, None, None] * _conj_t(G) @ G
    )
    ok = ~(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 1.0))
    live, e1, e2, w, v = _drop(failures, live, ok, lambda j: ScalingTooLarge(
        f"I - eps2^2 G^dag G has minimum eigenvalue {w[j, 0]:.3e}"
    ), e1, e2, w, v)
    Mis = (v / np.sqrt(w)[:, None, :]) @ _conj_t(v)
    Mis = (Mis + _conj_t(Mis)) / 2

    c1 = np.float_power(gamma / e1, 2)[:, None, None]
    E2bar = S @ D @ (Mis @ Mis) @ _conj_t(D) @ _conj_t(S) + (
        c1 * S @ H3 @ _conj_t(H3) @ _conj_t(S)
    )
    E2bar = (E2bar + _conj_t(E2bar)) / 2
    w = np.linalg.eigvalsh(E2bar)
    ok = ~(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 1.0))
    live, e1, e2, Mis, E2bar = _drop(failures, live, ok, lambda j: SingularE2(
        f"measurement weighting has eigenvalue {w[j, 0]:.3e}"
    ), e1, e2, Mis, E2bar)

    k, r2p, l = e1.size, G.shape[0], L.shape[0]
    g1, g2 = (gamma / e[:, None, None] for e in (e1, e2))
    point = dict(
        B1bar=np.concatenate([B @ Mis, g1 * H1, g2 * H2], axis=-1),
        C1bar=np.concatenate([e1[:, None, None] * E, np.zeros((k, r2p, n)),
                              np.repeat(L[None], k, axis=0)], axis=-2),
        D21bar=np.concatenate([D @ Mis, g1 * H3,
                               np.zeros((k, D.shape[0], H2.shape[1]))], axis=-1),
        E2bar=E2bar,
    )
    if not all(np.isfinite(x).all() for x in point.values()):
        raise ValueError("matrix contains NaN or Inf entries")
    # the matrices every point shares, given the stack's K axis
    D12bar = np.vstack([np.zeros((E.shape[0] + r2p, l)), -np.eye(l)])
    shared = dict(Abar=A, C2bar=C, Sbar=S, D12bar=D12bar)
    T = _quadrature_map(getattr(system, "_layout", None), A, B, C, D, S, L,
                        H1, H2, H3, E, G)
    if T is not None:
        shared["_quadrature"] = T
    s = ScaledProblem(
        **{key: np.broadcast_to(np.asarray(x, dtype=complex), (k,) + x.shape)
           for key, x in shared.items()},
        **point, gamma=np.full(k, float(gamma)), eps1=e1, eps2=e2, failures=failures,
    )
    if not one_point:
        return s
    if failures:
        raise failures.pop(0)
    return s[0]


# the benchmark's design workload (benchmarks/workloads.py) calls these names
assemble_classical = assemble_feedback_classical = assemble_augmented = assemble


# Grid points per stacked synthesis, so memory stays flat in the grid size;
# the default 9 x 9 grid is one stack.
GRID_BLOCK = 81


def _gamma(p):
    """gamma, per problem of a stack, shaped to broadcast against matrices."""
    return np.asarray(p.gamma)[..., None, None]


def _state_equation(p):
    """A, R, Q of the state Riccati equation in canonical form."""
    P = np.eye(p.C1bar.shape[-2]) - p.D12bar @ _conj_t(p.D12bar)
    R = p.B1bar @ _conj_t(p.B1bar) / _gamma(p) ** 2
    return p.Abar, R, _conj_t(p.C1bar) @ P @ p.C1bar


def _output_injection(p):
    """A, R, Q of the output-injection Riccati equation in canonical form.

    With M = Sbar^dag E2bar^-1 Sbar,
      Ap = Abar - B1 D21^dag M C2,
      Rp = C1^dag C1 - gamma^2 C2^dag M C2,
      Qp = gamma^-2 B1 (I - D21^dag M D21) B1^dag,
    the equation reads Ap Y + Y Ap^dag + Y Rp Y + Qp = 0, i.e. the
    canonical form with state matrix Ap^dag."""
    B1, C1, C2, D21, g2 = p.B1bar, p.C1bar, p.C2bar, p.D21bar, _gamma(p) ** 2
    M = _conj_t(p.Sbar) @ np.linalg.solve(p.E2bar, p.Sbar)
    Ap = p.Abar - B1 @ _conj_t(D21) @ M @ C2
    Rp = _conj_t(C1) @ C1 - g2 * _conj_t(C2) @ M @ C2
    Qp = (B1 @ (np.eye(B1.shape[-1]) - _conj_t(D21) @ M @ D21) @ _conj_t(B1)) / g2
    return _conj_t(Ap), Rp, Qp


def riccati_residual_x(p, X):
    """Relative residual of the state Riccati equation
    Abar^dag X + X Abar + X (gamma^-2 B1bar B1bar^dag) X
    + C1bar^dag (I - D12bar D12bar^dag) C1bar = 0.

    ``p`` may also be a stack of problems, as synthesized over a grid, and
    X the stack of their solutions; the residuals are then an array."""
    return _residual(*_state_equation(p), X)


def riccati_residual_y(p, Y):
    """Relative residual of the output-injection Riccati equation
    Abar Y + Y Abar^dag + Y C1bar^dag C1bar Y + gamma^-2 B1bar B1bar^dag
    - (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag) Sbar^dag E2bar^-1
      Sbar (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag)^dag = 0.

    Takes stacks as ``riccati_residual_x`` does."""
    g = _gamma(p)
    T = p.B1bar @ _conj_t(p.D21bar) / g + g * Y @ _conj_t(p.C2bar)
    W = _conj_t(p.Sbar) @ np.linalg.solve(p.E2bar, p.Sbar)
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
    """The problems ``problems``, each one problem of one channel, as one
    stack with no failures."""
    return ScaledProblem(**{
        f.name: np.stack([getattr(p, f.name) for p in problems])
        for f in fields(ScaledProblem)
        if f.name != "failures" and getattr(problems[0], f.name) is not None
    })


def _riccati(out, live, which, A, R, Q, *arrays):
    """One CARE per live problem, R and Q taken Hermitian; a failure is its
    problem's outcome, as the CareFailure of the equation ``which``.
    Returns ``live``, the solutions and ``arrays`` without the failed
    problems."""
    got = _solve_cares(A, (R + _conj_t(R)) / 2, (Q + _conj_t(Q)) / 2)
    ok = np.array([isinstance(x, CareSolution) for x in got], dtype=bool)
    return _drop(out, live, ok, lambda j: CareFailure(which, got[j]), got, *arrays)


def _synthesize(s, gain_convention="reproduction", require_stable=False):
    """Estimators of the K problems of the stack ``s``, synthesized as one
    stack: per problem, the Estimator ``synthesize`` returns or the error it
    raises.

    Each Riccati equation is one stacked solve; the output-injection
    equation is solved only where the state equation was, and the estimator
    built only where both were.  Where the stack carries a quadrature map
    T, the output-injection data are real in x = T x~ up to rounding: that
    equation is solved there in real arithmetic, for Y~ = T^dag Y T, and
    each Y mapped back.
    """
    if gain_convention not in ("reproduction", "theorem"):
        raise QreError(f"unknown gain convention {gain_convention!r}")
    out = [None] * len(s.gamma)
    live, xs, s = _riccati(out, np.arange(len(out)), "X", *_state_equation(s), s)
    if not live.size:
        return out

    A, R, Q = _output_injection(s)
    if s._quadrature is not None:
        T = s._quadrature
        A, R, Q = ((_conj_t(T) @ m @ T).real for m in (A, R, Q))
    live, ys, s, xs = _riccati(out, live, "Y", A, R, Q, s, xs)
    if not live.size:
        return out

    X, Y = (np.stack([sol.X for sol in sols]) for sols in (xs, ys))
    if s._quadrature is not None:
        T = s._quadrature
        Y = T @ Y @ _conj_t(T)
        Y = (Y + _conj_t(Y)) / 2
    coupling = np.eye(X.shape[-1]) - Y @ X
    cond = np.linalg.cond(coupling)
    live, s, xs, ys, X, Y, coupling, cond = _drop(
        out, live, np.isfinite(cond) & (cond <= 1e12), lambda j: CouplingSingular(
            f"I - YX has condition number {cond[j]:.3e}"
        ), s, xs, ys, X, Y, coupling, cond)

    B1, C2, D21, S, g2 = s.B1bar, s.C2bar, s.D21bar, s.Sbar, _gamma(s) ** 2
    prefactor = 1 / g2 if gain_convention == "reproduction" else g2
    BK = prefactor * np.linalg.solve(coupling, (
        Y @ _conj_t(C2) @ _conj_t(S) + B1 @ _conj_t(D21) @ _conj_t(S) / g2
    )) @ np.linalg.inv(s.E2bar)
    AK = s.Abar - BK @ S @ C2 + (B1 - BK @ S @ D21) @ _conj_t(B1) @ X / g2
    CK = -_conj_t(s.D12bar) @ s.C1bar
    abscissa = np.linalg.eigvals(AK).real.max(axis=-1)
    res_x, res_y = riccati_residual_x(s, X), riccati_residual_y(s, Y)
    live, s, xs, ys, Y, AK, BK, CK, abscissa, cond, res_x, res_y = _drop(
        out, live, (abscissa < 0) | (not require_stable), lambda j: UnstableEstimator(
            f"estimator spectral abscissa {abscissa[j]:.4f} is not negative"
        ), s, xs, ys, Y, AK, BK, CK, abscissa, cond, res_x, res_y)
    for j, r in enumerate(live):
        out[r] = Estimator(
            A_K=AK[j],
            B_K=BK[j],
            C_K=CK[j],
            X=xs[j],
            Y=CareSolution(Y[j], ys[j].residual, ys[j].closed_loop_abscissa),
            gamma=float(s.gamma[j]),
            eps1=float(s.eps1[j]),
            eps2=float(s.eps2[j]),
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
    (est,) = _synthesize(_stack([p]), gain_convention, require_stable)
    if isinstance(est, Exception):
        raise est
    return est


def eps_grid_search(assemble, objective, eps1_grid=None, eps2_grid=None, **kwargs):
    """Coarse search over the scaling parameters.

    assemble(eps1, eps2) is called once per block of GRID_BLOCK grid points
    in row-major order, with equal-length 1-D float arrays, and returns
    their stack as ``assemble`` given arrays does; each stack is synthesized
    as one.  objective(Estimator) is a scalar to minimize.  Returns (eps1,
    eps2, value, estimator) at the best feasible point, the first in
    row-major order among equals.  Points that fail a gate, or whose
    objective is not finite, are skipped; an error that an assemble call
    raises, or that is no QreError, propagates.
    """
    if eps1_grid is None:
        eps1_grid = np.logspace(-2, 0, 9)
    if eps2_grid is None:
        eps2_grid = np.logspace(-2, 0, 9)
    e1, e2 = np.array(
        [(a, b) for a in eps1_grid for b in eps2_grid], dtype=float
    ).reshape(-1, 2).T
    best = None
    for start in range(0, e1.size, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        for est in _synthesize(assemble(e1[block], e2[block]), **kwargs):
            if isinstance(est, QreError):
                continue
            if isinstance(est, Exception):
                raise est
            try:
                val = float(objective(est))
            except QreError:
                continue
            if np.isfinite(val) and (best is None or val < best[2]):
                best = (est.eps1, est.eps2, val, est)
    if best is None:
        raise QreError("no feasible scaling point on the grid")
    return best
