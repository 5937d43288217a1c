"""Plant/controller augmentation.

Interconnects a doubled-up plant with a coherent controller into a single
augmented system, and lifts the plant uncertainty factors into the augmented
state coordinates.  The controller picks the interconnection: a controller
without a feedback output is driven in series by the plant output, a
feedback-capable one closes a coherent-feedback loop around a two-port
plant.  The augmented system and its lifted ``UncertaintyModel`` form the
channel measured by the coherent-classical filter.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch, WrongTopology
from .linalg import as_cmatrix

__all__ = [
    "AugmentedSystem",
    "augment",
    "augment_feedback",
    "lift_uncertainty",
]


@dataclass(frozen=True)
class AugmentedSystem:
    """State-space realization of the plant driving (or interconnected
    with) a coherent controller, with the estimand row padded by zeros on
    the controller states.  Its fields are named as a plant's, so either
    serves as a channel's measured system."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "L"):
            object.__setattr__(self, name, as_cmatrix(getattr(self, name)))


def augment(plant, ctrl):
    """Series interconnection: the plant output field drives the controller,
    whose output is measured.

    A_a = [[A, 0], [B_c C, A_c]], B_a = [B; B_c D], C_a = [D_c C, C_c],
    D_a = D_c D, L_a = [L, 0].
    """
    if getattr(ctrl, "feedback_capable", False):
        raise WrongTopology("controller has a feedback output; use augment_feedback")
    A, B, C, D, L = plant.A, plant.B1, plant.C, plant.D1, plant.L
    Ac, Bc, Cc, Dc = ctrl.A_c, ctrl.B_c1, ctrl.C_c, ctrl.D_c
    n, k = A.shape[0], Ac.shape[0]
    if Bc.shape[1] != C.shape[0]:
        raise ShapeMismatch("controller input width must match plant output width")
    return AugmentedSystem(
        A=np.block([[A, np.zeros((n, k))], [Bc @ C, Ac]]),
        B=np.vstack([B, Bc @ D]),
        C=np.hstack([Dc @ C, Cc]),
        D=Dc @ D,
        L=np.hstack([L, np.zeros((L.shape[0], k))]),
    )


def augment_feedback(plant, ctrl):
    """Coherent-feedback interconnection: the plant output drives the
    controller, whose control output feeds the plant's second input and
    whose monitored output is measured.

    The augmented input stacks the plant disturbance block and the
    controller's own field, in that order.
    """
    if not plant.has_control_input:
        raise WrongTopology("plant has no control input block")
    if not getattr(ctrl, "feedback_capable", False):
        raise WrongTopology("controller lacks a feedback output; use augment")
    A, B1, B2, C, D, L = plant.A, plant.B1, plant.B2, plant.C, plant.D1, plant.L
    Ac, Bc1, Bc2 = ctrl.A_c, ctrl.B_c1, ctrl.B_c2
    Ctc, Cc = ctrl.Ct_c, ctrl.C_c
    Dtc1, Dtc2 = ctrl.Dt_c1, ctrl.Dt_c2
    Dc1, Dc2 = ctrl.D_c1, ctrl.D_c2
    k = Ac.shape[0]
    if Bc2.shape[1] != C.shape[0]:
        raise ShapeMismatch("controller feedback input must match plant output")
    return AugmentedSystem(
        A=np.block([[A + B2 @ Dc2 @ C, B2 @ Cc], [Bc2 @ C, Ac]]),
        B=np.block([[B1 + B2 @ Dc2 @ D, B2 @ Dc1], [Bc2 @ D, Bc1]]),
        C=np.hstack([Dtc2 @ C, Ctc]),
        D=np.hstack([Dtc2 @ D, Dtc1]),
        L=np.hstack([L, np.zeros((L.shape[0], k))]),
    )


def lift_uncertainty(u, ctrl, plant=None):
    """Lift plant uncertainty factors into augmented coordinates.

    Returns an ``UncertaintyModel`` with the same F1/F2 patterns.  Series
    controller: H1 -> [H1; B_c H3], H2 -> [H2; 0], H3 -> D_c H3,
    E -> [E, 0], G unchanged.  Feedback-capable controller: H1 -> [H1 + B2
    D_c2 H3; B_c2 H3], H2 -> [H2; 0], H3 -> Dt_c2 H3, E -> [E, 0],
    G -> [G, 0]; the plant supplies B2.
    """
    k = ctrl.A_c.shape[0]
    if getattr(ctrl, "feedback_capable", False):
        if plant is None or not plant.has_control_input:
            raise WrongTopology("feedback lift needs a plant with a control input")
        H1 = np.vstack([u.H1 + plant.B2 @ ctrl.D_c2 @ u.H3, ctrl.B_c2 @ u.H3])
        H3 = ctrl.Dt_c2 @ u.H3
        G = np.hstack([u.G, np.zeros((u.G.shape[0], ctrl.B_c1.shape[1]))])
    else:
        H1 = np.vstack([u.H1, ctrl.B_c1 @ u.H3])
        H3 = ctrl.D_c @ u.H3
        G = u.G
    return replace(
        u,
        H1=H1,
        H2=np.vstack([u.H2, np.zeros((k, u.H2.shape[1]))]),
        H3=H3,
        E=np.hstack([u.E, np.zeros((u.E.shape[0], k))]),
        G=G,
    )
