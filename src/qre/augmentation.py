"""Plant/controller augmentation.

Interconnects a doubled-up plant with a coherent controller into a single
augmented system, and lifts the plant uncertainty factors into the augmented
state coordinates.  There is one interconnection, the coherent-feedback
network: the plant output drives the controller, whose control output
feeds the plant's control input B2 and whose monitored output is measured.
A series cascade is its case with zero-width ports (a plant with an n x 0
B2, a controller with no control output and no field input of its own),
which leaves the feedback connection out.  The augmented system and its
lifted ``UncertaintyModel`` form a channel: the classical filter's behind
``pass_through_controller``, the coherent-classical one's behind its own.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import WrongTopology
from .linalg import as_cmatrix

__all__ = [
    "AugmentedSystem",
    "augment",
    "lift_uncertainty",
]


@dataclass(frozen=True)
class AugmentedSystem:
    """State-space realization of the plant interconnected with a coherent
    controller, with the estimand row padded by zeros on the controller
    states.  Its fields are named as a plant's, so either serves as a
    channel's measured system.  ``augment`` declares its layout from the
    port sizes: two subsystems, the plant's states [a; a#] and then the
    controller's, and two input blocks, the plant's disturbance field and
    then the controller's own.  ``assemble`` checks the channel's matrices
    against it.  A system built by hand declares none."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    L: np.ndarray
    _layout: tuple = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "L"):
            object.__setattr__(self, name, as_cmatrix(getattr(self, name)))


def _check_ports(plant, ctrl):
    """The controller's input must take the plant output, and its control
    output must fit the plant's control input."""
    ports = (ctrl.B_c2.shape[1], ctrl.C_c.shape[0])
    plant_ports = (plant.C.shape[0], plant.B2.shape[1])
    if ports != plant_ports:
        raise WrongTopology(
            f"controller input/control output widths {ports} do not match the "
            f"plant output/control input widths {plant_ports}"
        )


def augment(plant, ctrl):
    """Coherent-feedback interconnection of a plant and a controller.

    A_a = [[A + B2 D_c2 C, B2 C_c], [B_c2 C, A_c]],
    B_a = [[B1 + B2 D_c2 D1, B2 D_c1], [B_c2 D1, B_c1]],
    C_a = [Dt_c2 C, Ct_c], D_a = [Dt_c2 D1, Dt_c1], L_a = [L, 0].
    The augmented input stacks the plant disturbance block and the
    controller's own field, in that order; the layout ``AugmentedSystem``
    describes is read from these port sizes alone.
    """
    _check_ports(plant, ctrl)
    A, B1, B2, C, D, L = plant.A, plant.B1, plant.B2, plant.C, plant.D1, plant.L
    Ac, Bc1, Bc2, Ctc, Cc = ctrl.A_c, ctrl.B_c1, ctrl.B_c2, ctrl.Ct_c, ctrl.C_c
    Dtc1, Dtc2, Dc1, Dc2 = ctrl.Dt_c1, ctrl.Dt_c2, ctrl.D_c1, ctrl.D_c2
    return AugmentedSystem(
        A=np.block([[A + B2 @ Dc2 @ C, B2 @ Cc], [Bc2 @ C, Ac]]),
        B=np.block([[B1 + B2 @ Dc2 @ D, B2 @ Dc1], [Bc2 @ D, Bc1]]),
        C=np.hstack([Dtc2 @ C, Ctc]),
        D=np.hstack([Dtc2 @ D, Dtc1]),
        L=np.hstack([L, np.zeros((L.shape[0], Ac.shape[0]))]),
        _layout=((A.shape[0], Ac.shape[0]), (B1.shape[1], Bc1.shape[1])),
    )


def lift_uncertainty(u, ctrl, plant):
    """Lift plant uncertainty factors into the coordinates of
    ``augment(plant, ctrl)``.

    Returns an ``UncertaintyModel`` with the same F1/F2 patterns:
    H1 -> [H1 + B2 D_c2 H3; B_c2 H3], H2 -> [H2; 0], H3 -> Dt_c2 H3,
    E -> [E, 0], G unchanged.  dB acts on the plant disturbance block, the
    leading columns of the augmented input.
    """
    _check_ports(plant, ctrl)
    k = ctrl.A_c.shape[0]
    return replace(
        u,
        H1=np.vstack([u.H1 + plant.B2 @ ctrl.D_c2 @ u.H3, ctrl.B_c2 @ u.H3]),
        H2=np.vstack([u.H2, np.zeros((k, u.H2.shape[1]))]),
        H3=ctrl.Dt_c2 @ u.H3,
        E=np.hstack([u.E, np.zeros((u.E.shape[0], k))]),
    )
