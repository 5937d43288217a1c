"""Robust H-infinity estimator synthesis.

``assemble`` builds the scaled estimation problem of one measured channel:
a system with fields A, B, C, D, L (the plant for the classical filter, the
plant/controller augmented system for the coherent-classical one), its
uncertainty model and the homodyne map.  ``synthesize`` solves the two
algebraic Riccati equations and builds the estimator matrices.

Two gain conventions are supported for the measurement-injection gain B_K.
The "reproduction" convention uses a gamma^-2 prefactor on the coupling term
and reproduces the published reference estimator matrices used as regression
targets; the "theorem" convention uses the gamma^2 prefactor of the
underlying central-estimator formula and yields a stable filter meeting the
nominal attenuation bound.  Both solve identical Riccati equations.
"""

from dataclasses import dataclass, field, fields

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
    CareInstance,
    CareSolution,
    as_cmatrix,
    hermitian_inv_sqrt,
    solve_care,
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
    zero columns for the rest (the control input of a two-port plant).
    """
    if gamma <= 0 or eps1 <= 0 or eps2 <= 0:
        raise QreError("gamma, eps1, eps2 must all be positive")
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


def riccati_residual_x(p, X):
    """Relative residual of the state Riccati equation
    Abar^dag X + X Abar + X (gamma^-2 B1bar B1bar^dag) X
    + C1bar^dag (I - D12bar E1bar^-1 D12bar^dag) C1bar = 0."""
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
    """Relative residual of the output-injection Riccati equation
    Abar Y + Y Abar^dag + Y C1bar^dag C1bar Y + gamma^-2 B1bar B1bar^dag
    - (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag) Sbar^dag E2bar^-1
      Sbar (gamma^-1 B1bar D21bar^dag + gamma Y C2bar^dag)^dag = 0."""
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
    """Solve the two Riccati equations and build the estimator.

    gain_convention selects the B_K prefactor: "reproduction" (gamma^-2,
    matching the benchmark reference matrices) or "theorem" (gamma^2, the
    central-estimator form, yielding a stable filter with nominal
    attenuation below gamma).
    """
    if gain_convention not in ("reproduction", "theorem"):
        raise QreError(f"unknown gain convention {gain_convention!r}")
    g = p.gamma
    g2 = g * g
    n = p.n
    B1, C1, C2 = p.B1bar, p.C1bar, p.C2bar
    D21, S = p.D21bar, p.Sbar

    # state equation in canonical form
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

    # output-injection equation regrouped into the same canonical form:
    # with M = Sbar^dag E2bar^-1 Sbar,
    #   Ap = Abar - B1 D21^dag M C2,
    #   Rp = C1^dag C1 - gamma^2 C2^dag M C2,
    #   Qp = gamma^-2 B1 (I - D21^dag M D21) B1^dag,
    # the equation reads Ap Y + Y Ap^dag + Y Rp Y + Qp = 0, i.e. the
    # canonical form with state matrix Ap^dag.
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


def eps_grid_search(assemble, objective, eps1_grid=None, eps2_grid=None, **kwargs):
    """Coarse search over the scaling parameters.

    assemble(eps1, eps2) must return a ScaledProblem; objective(Estimator)
    a scalar to minimize.  Returns (eps1, eps2, value, estimator) for the
    best feasible point; grid points where assembly or synthesis fails are
    skipped.
    """
    if eps1_grid is None:
        eps1_grid = np.logspace(-2, 0, 9)
    if eps2_grid is None:
        eps2_grid = np.logspace(-2, 0, 9)
    best = None
    for e1 in eps1_grid:
        for e2 in eps2_grid:
            try:
                est = synthesize(assemble(float(e1), float(e2)), **kwargs)
                val = float(objective(est))
            except QreError:
                continue
            if best is None or val < best[2]:
                best = (float(e1), float(e2), val, est)
    if best is None:
        raise QreError("no feasible scaling point on the grid")
    return best
