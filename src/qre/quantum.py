"""Doubled-up quantum state-space models.

Builders for annihilation/creation doubled-up systems: the conjugate-block
operator, homodyne measurement matrices, and the dynamic-squeezer
plant/controller realizations.  The builders check their parameters' signs,
not realizability, which a model's ``physically_realizable`` reports.

Every plant has a control input B2 and every controller the two inputs and
two outputs of a coherent-feedback controller.  A port that a topology does
not use has zero width: the series squeezer plant has an n x 0 B2, and the
series squeezer controller has no field input of its own and no control
output, so B_c1, C_c, Dt_c1, D_c1 and D_c2 have a zero dimension.  The
classical filter's controller, ``pass_through_controller``, has no states.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch
from .linalg import as_cmatrix

__all__ = [
    "omega",
    "homodyne_matrix",
    "QuantumPlant",
    "CoherentController",
    "squeezer_plant",
    "squeezer_controller",
    "feedback_squeezer_plant",
    "feedback_squeezer_controller",
    "pass_through_controller",
]

#: relative tolerance of the physical-realizability condition
REALIZABILITY_TOL = 1e-12


def omega(m1, m2):
    """The doubled operator [[m1, m2], [m2#, m1#]], a 2p x 2q matrix built
    from two p x q blocks."""
    m1, m2 = as_cmatrix(m1), as_cmatrix(m2)
    if m1.shape != m2.shape:
        raise ShapeMismatch(
            f"blocks must share a shape; got {m1.shape} and {m2.shape}"
        )
    return np.block([[m1, m2], [m2.conj(), m1.conj()]])


def homodyne_matrix(angles):
    """Measurement map S = [S1 S2] with S1 = diag(e^{-i theta}/sqrt(2)),
    S2 = diag(e^{i theta}/sqrt(2)); rows are orthonormal (S S^dag = I).
    The quadrature angles are in radians and must be finite."""
    th = np.atleast_1d(np.asarray(angles, dtype=float))
    if not np.all(np.isfinite(th)):
        raise DomainError("homodyne angles must be finite")
    s1 = np.diag(np.exp(-1j * th) / np.sqrt(2))
    s2 = np.diag(np.exp(1j * th) / np.sqrt(2))
    return np.hstack([s1, s2])


@dataclass(frozen=True)
class QuantumPlant:
    """Doubled-up plant realization.

    B1 drives the disturbance field; B2 is the control input fed by a
    coherent-feedback controller (n x 0 on a plant without one).  D1 is the
    feedthrough from the first input block (the second block has no
    feedthrough).
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D1: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for name in ("A", "B1", "B2", "C", "D1", "L"):
            object.__setattr__(self, name, as_cmatrix(getattr(self, name)))
        n2 = self.A.shape[0]
        if self.A.shape != (n2, n2) or {self.B1.shape[0], self.B2.shape[0]} != {n2}:
            raise ShapeMismatch("A must be square and conform with B1 and B2")
        if self.C.shape[1] != n2 or self.L.shape[1] != n2:
            raise ShapeMismatch("C and L must have a column per state")
        want = (self.C.shape[0], self.B1.shape[1])
        if self.D1.shape != want:
            raise ShapeMismatch(f"D1 has shape {self.D1.shape}, expected {want}")

    @property
    def _layout(self):
        """The layout ``assemble`` and the realizability condition read: one
        subsystem, its states [a; a#], and the input blocks B1 and B2."""
        return (self.A.shape[0],), (self.B1.shape[1], self.B2.shape[1])

    @property
    def physically_realizable(self):
        """Whether A and B meet the realizability condition."""
        return _realizable(self.A, self.B, self._layout)

    @property
    def B(self):
        """Full input matrix: disturbance block, then control block."""
        return np.hstack([self.B1, self.B2])

    @property
    def D(self):
        """Full feedthrough matching the columns of B."""
        return np.hstack([self.D1, np.zeros((self.D1.shape[0], self.B2.shape[1]))])


@dataclass(frozen=True)
class CoherentController:
    """Doubled-up coherent controller realization.

    Two input blocks, its own vacuum field (B_c1) and the plant output
    (B_c2), and two outputs: a monitored field (Ct_c, Dt_c1, Dt_c2) routed
    to homodyne detection and a control field (C_c, D_c1, D_c2) routed back
    to the plant.  A port the topology does not use has zero width.
    """

    A_c: np.ndarray
    B_c1: np.ndarray
    B_c2: np.ndarray
    Ct_c: np.ndarray
    C_c: np.ndarray
    Dt_c1: np.ndarray
    Dt_c2: np.ndarray
    D_c1: np.ndarray
    D_c2: np.ndarray

    _blocks = "A_c B_c1 B_c2 Ct_c C_c Dt_c1 Dt_c2 D_c1 D_c2".split()

    def __post_init__(self):
        for name in self._blocks:
            object.__setattr__(self, name, as_cmatrix(getattr(self, name)))
        # each block's rows come from its output port, its columns from
        # its input port
        k, m1, p = self.A_c.shape[0], self.B_c1.shape[1], self.B_c2.shape[1]
        q, r = self.Ct_c.shape[0], self.C_c.shape[0]
        shapes = ((k, k), (k, m1), (k, p), (q, k), (r, k),
                  (q, m1), (q, p), (r, m1), (r, p))
        for name, shape in zip(self._blocks, shapes):
            if getattr(self, name).shape != shape:
                raise ShapeMismatch(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )

    @property
    def physically_realizable(self):
        """Whether A_c and [B_c1, B_c2] meet the realizability condition."""
        layout = (self.A_c.shape[0],), (self.B_c1.shape[1], self.B_c2.shape[1])
        return _realizable(self.A_c, np.hstack([self.B_c1, self.B_c2]), layout)


def _realizable(A, B, layout):
    """Whether A J + J A^dag + B J B^dag = 0, with J = diag(I, -I) over each
    doubled-up block of the layout's states and inputs (the physical
    realizability of James, Nurdin & Petersen, IEEE TAC 53, 2008), to
    REALIZABILITY_TOL relative to |A| + |B|^2 (Frobenius norms).  A layout
    with an odd-sized block has no doubled-up form, so fails it."""
    if any(n % 2 for sizes in layout for n in sizes):
        return False
    jx, ju = (np.concatenate([np.repeat([1.0, -1.0], n // 2) for n in sizes])
              for sizes in layout)
    R = A * jx + jx[:, None] * A.conj().T + (B * ju) @ B.conj().T
    scale = np.linalg.norm(A) + np.linalg.norm(B) ** 2
    return bool(np.linalg.norm(R) <= REALIZABILITY_TOL * scale)


def _signs(positive, nonnegative={}):
    """Raise a DomainError naming the first of ``positive`` (name: value) that
    is not positive, or else of ``nonnegative`` that is negative or NaN."""
    for name, v in {**positive, **nonnegative}.items():
        if not (v > 0 if name in positive else v >= 0):
            sign = "positive" if name in positive else "nonnegative"
            raise DomainError(f"{name} must be {sign}, got {v}")


def _squeezer_plant(beta, kappa, chi, L, B2):
    """The squeezer of both plant builders, given its control input B2."""
    rk = np.sqrt(kappa)
    return QuantumPlant(
        A=omega(-beta / 2 * np.eye(1), -chi * np.eye(1)),
        B1=-rk * np.eye(2), B2=B2, C=rk * np.eye(2), D1=np.eye(2),
        L=np.atleast_2d(np.asarray(L, dtype=complex)),
    )


def squeezer_plant(beta, kappa, chi, L):
    """Single-input dynamic squeezer: A = omega(-beta/2, -chi),
    B1 = -sqrt(kappa) I, C = sqrt(kappa) I, D1 = I, and no control input
    (B2 is 2 x 0); beta and kappa must be positive.  Realizable iff
    beta = kappa."""
    _signs({"beta": beta, "kappa": kappa})
    return _squeezer_plant(beta, kappa, chi, L, np.zeros((2, 0)))


def feedback_squeezer_plant(beta, kappa1, kappa2, chi, L):
    """Two-input dynamic squeezer with a control port:
    B = [-sqrt(kappa1) I, -sqrt(kappa2) I], C = sqrt(kappa1) I,
    D = [I, 0]; beta and kappa1 must be positive, kappa2 nonnegative.
    Realizable iff beta = kappa1 + kappa2."""
    _signs({"beta": beta, "kappa1": kappa1}, {"kappa2": kappa2})
    return _squeezer_plant(beta, kappa1, chi, L, -np.sqrt(kappa2) * np.eye(2))


def _squeezer_controller(beta_c, chi_c, *kappas):
    """The squeezer of both controller builders, a field per coupling of
    ``kappas``: inputs B = -[sqrt(k) I ...], outputs C = -B^T and D = I,
    split into ports.  The plant output drives the last field and the
    monitored output reads the first; another field is the controller's own
    input and its control output."""
    r = [np.sqrt(k) * np.eye(2) for k in kappas]
    B, C, D = -np.hstack(r), np.vstack(r), np.eye(2 * len(r))
    m = len(D) - 2  # the width of the own input and of the control output
    return CoherentController(
        A_c=omega(-beta_c / 2 * np.eye(1), -chi_c * np.eye(1)),
        B_c1=B[:, :m], B_c2=B[:, m:], Ct_c=C[:2], C_c=C[2:],
        Dt_c1=D[:2, :m], Dt_c2=D[:2, m:], D_c1=D[2:, :m], D_c2=D[2:, m:],
    )


def squeezer_controller(beta_c, kappa_c, chi_c):
    """Series dynamic-squeezer coherent controller, driven by the plant
    output alone and with a monitored output alone:
    A_c = omega(-beta_c/2, -chi_c), B_c2 = -sqrt(kappa_c) I,
    Ct_c = sqrt(kappa_c) I, Dt_c2 = I; its own field input and its control
    output have zero width.  beta_c and kappa_c must be positive; realizable
    iff beta_c = kappa_c."""
    _signs({"beta_c": beta_c, "kappa_c": kappa_c})
    return _squeezer_controller(beta_c, chi_c, kappa_c)


def feedback_squeezer_controller(beta_c, kappa_c1, kappa_c2, chi_c):
    """Dynamic-squeezer controller with a feedback output: the monitored
    output carries its own field and vacuum input (Ct_c = sqrt(kappa_c1) I,
    Dt_c1 = I), the feedback output its field and the plant output passed
    through (C_c = sqrt(kappa_c2) I, D_c2 = I).  beta_c must be positive,
    the couplings nonnegative.  Realizable iff beta_c = kappa_c1 + kappa_c2.
    """
    _signs({"beta_c": beta_c}, {"kappa_c1": kappa_c1, "kappa_c2": kappa_c2})
    return _squeezer_controller(beta_c, chi_c, kappa_c1, kappa_c2)


def pass_through_controller(plant):
    """The classical filter's controller for ``plant``: no states, the plant
    output passed to the detector (Dt_c2 = I) and its own field to the
    plant's control input (D_c1 = I), so augmenting gives the plant back."""
    p, r, z = plant.C.shape[0], plant.B2.shape[1], np.zeros
    return CoherentController(
        A_c=z((0, 0)), B_c1=z((0, r)), B_c2=z((0, p)), Ct_c=z((p, 0)), C_c=z((r, 0)),
        Dt_c1=z((p, r)), Dt_c2=np.eye(p), D_c1=np.eye(r), D_c2=z((r, p)))
