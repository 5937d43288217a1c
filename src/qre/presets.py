"""End-to-end study pipelines.

A *study* bundles an uncertain squeezer plant, a coherent controller, the
homodyne map and the scaling parameters, and exposes the two competing
filters as named *channels*.  A channel is a measured system (fields A, B,
C, D, L) paired with its ``UncertaintyModel``: ``"classical"`` measures the
plant itself, ``"coherent"`` the plant/controller augmented system with the
uncertainty lifted onto it.  Every channel goes through the same
``assemble``, ``Study.estimator`` and ``Study.loop_polynomial``: the
filter's closed loop as a polynomial in delta, built once per channel.
``Study.closed_loop`` is its value at one delta and ``Study.sweep`` its
stack over a grid.  Two benchmark parameter sets are provided, one for the
series topology and one for the coherent-feedback topology.
"""

from dataclasses import dataclass, field
from functools import partialmethod

import numpy as np

from .analysis import closed_loop_error_system, delta_sweep, loop_polynomial
from .augmentation import augment, augment_feedback, lift_uncertainty
from .quantum import (
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    homodyne_matrix,
    squeezer_controller,
    squeezer_plant,
)
from .synthesis import assemble, synthesize
from .uncertainty import evaluate_deltas, squeezer_uncertainty

# bindings of this module that the benchmark's span tracer
# (benchmarks/spans.py) wraps by name, imported ones included
assemble_classical = assemble_feedback_classical = assemble_augmented = assemble
lifted_deltas = evaluate_deltas

__all__ = [
    "Study",
    "series_benchmark_config",
    "feedback_benchmark_config",
    "build_study",
]


def series_benchmark_config():
    """Series-topology benchmark: single-input squeezer plant monitored
    through a squeezer controller, homodyne angle 10 degrees."""
    return {
        "topology": "coherent_classical",
        "plant": {"beta": 4.0, "kappa": 4.0, "chi": 0.5, "L": [0.1, -0.1]},
        "controller": {"beta_c": 4.0, "kappa_c": 4.0, "chi_c": -1.0},
        "homodyne_angles_deg": [10.0],
        "mu": 0.1,
        "delta_design": -1.0,
        "gamma": 0.65,
        "eps1": 0.19,
        "eps2": 0.81,
        "frequency_grid": {"min": 1e-2, "max": 1e2, "points": 400},
        "delta_grid": {"min": -1.0, "max": 1.0, "points": 21},
    }


def feedback_benchmark_config():
    """Feedback-topology benchmark: two-input squeezer plant with a
    coherent-feedback squeezer controller, homodyne angle 80 degrees."""
    return {
        "topology": "coherent_classical_fb",
        "plant": {
            "beta": 4.0,
            "kappa1": 2.0,
            "kappa2": 2.0,
            "chi": -1.0,
            "L": [0.1, -0.1],
        },
        "controller": {
            "beta_c": 4.0,
            "kappa_c1": 2.0,
            "kappa_c2": 2.0,
            "chi_c": 0.5,
        },
        "homodyne_angles_deg": [80.0],
        "mu": 0.1,
        "delta_design": -1.0,
        "gamma": 0.65,
        "eps1": 0.2,
        "eps2": 0.6,
        "frequency_grid": {"min": 1e-2, "max": 1e2, "points": 400},
        "delta_grid": {"min": -1.0, "max": 1.0, "points": 21},
    }


@dataclass
class Study:
    """A fully assembled estimation study.

    ``problems`` maps each channel name to its scaled problem; the
    estimators and their loops are built on first use and kept.
    """

    config: dict
    topology: str
    plant: object
    controller: object
    uncertainty: object
    S: np.ndarray
    gamma: float
    eps1: float
    eps2: float
    delta_design: float
    augmented: object = None
    lifted: object = None
    problems: dict = field(default_factory=dict)
    _estimators: dict = field(default_factory=dict, repr=False)
    _loops: dict = field(default_factory=dict, repr=False)

    @property
    def has_controller(self):
        return self.controller is not None

    @property
    def channels(self):
        """Measured system and its uncertainty model, per channel name."""
        channels = {"classical": (self.plant, self.uncertainty)}
        if self.augmented is not None:
            channels["coherent"] = (self.augmented, self.lifted)
        return channels

    def estimator(self, name):
        """The channel's filter at the design point."""
        if name not in self._estimators:
            self._estimators[name] = synthesize(self.problems[name])
        return self._estimators[name]

    def loop_polynomial(self, name, estimator=None):
        """Disturbance-to-error loop of the channel's filter, polynomial in
        delta; the loop of the design-point filter is built once and kept."""
        if estimator is None and name in self._loops:
            return self._loops[name]
        est = estimator if estimator is not None else self.estimator(name)
        system, u = self.channels[name]
        A, B, C, D, L = (getattr(system, m) for m in "ABCDL")
        loop = loop_polynomial(A, B, C, D, L, self.S, est, u.coefficients())
        if estimator is None:
            self._loops[name] = loop
        return loop

    def closed_loop(self, name, delta, estimator=None):
        """Disturbance-to-error system of the channel's filter at one delta."""
        return self.loop_polynomial(name, estimator).at(delta)

    # read by the benchmark's oracle workload (benchmarks/workloads.py)
    classical_closed_loop = partialmethod(closed_loop, "classical")
    coherent_closed_loop = partialmethod(closed_loop, "coherent")

    def sweep(self, deltas, rel_tol=1e-6):
        """Peak gains of every channel's filter over a delta grid; each
        filter is synthesized before its loops are built."""
        return tuple(
            delta_sweep(self.loop_polynomial(name), deltas, label=name, rel_tol=rel_tol)
            for name in self.channels
        )


def build_study(config):
    """Assemble a Study from a configuration mapping.

    The configuration uses the same schema as the CLI: a ``topology``
    discriminator (``classical``, ``coherent_classical``, ``classical_fb``
    or ``coherent_classical_fb``) plus plant/controller parameter groups,
    homodyne angles in degrees, and the scaling parameters gamma, eps1,
    eps2.  A true ``strict_pr`` entry rejects physically unrealizable
    plant/controller parameters.
    """
    topology = config["topology"]
    if topology not in (
        "classical",
        "coherent_classical",
        "classical_fb",
        "coherent_classical_fb",
    ):
        raise ValueError(f"unknown topology {topology!r}")
    strict_pr = bool(config.get("strict_pr", False))
    pc = config["plant"]
    angles = np.deg2rad(np.atleast_1d(config["homodyne_angles_deg"]))
    S = homodyne_matrix(angles)
    mu = float(config["mu"])
    gamma = float(config["gamma"])
    eps1 = float(config["eps1"])
    eps2 = float(config["eps2"])

    feedback = topology.endswith("_fb")
    if feedback:
        plant = feedback_squeezer_plant(
            pc["beta"], pc["kappa1"], pc["kappa2"], pc["chi"], pc["L"],
            strict=strict_pr,
        )
        alpha = np.sqrt(pc["kappa1"])
    else:
        plant = squeezer_plant(
            pc["beta"], pc["kappa"], pc["chi"], pc["L"], strict=strict_pr
        )
        alpha = np.sqrt(pc["kappa"])
    u = squeezer_uncertainty(alpha, mu)

    controller = augmented = lifted = None
    if topology.startswith("coherent"):
        cc = config["controller"]
        if feedback:
            controller = feedback_squeezer_controller(
                cc["beta_c"], cc["kappa_c1"], cc["kappa_c2"], cc["chi_c"],
                strict=strict_pr,
            )
            augmented = augment_feedback(plant, controller)
        else:
            controller = squeezer_controller(
                cc["beta_c"], cc["kappa_c"], cc["chi_c"], strict=strict_pr
            )
            augmented = augment(plant, controller)
        lifted = lift_uncertainty(u, controller, plant=plant)

    study = Study(
        config=dict(config),
        topology=topology,
        plant=plant,
        controller=controller,
        uncertainty=u,
        S=S,
        gamma=gamma,
        eps1=eps1,
        eps2=eps2,
        delta_design=float(config.get("delta_design", -1.0)),
        augmented=augmented,
        lifted=lifted,
    )
    study.problems = {
        name: assemble(system, model, S, gamma, eps1, eps2)
        for name, (system, model) in study.channels.items()
    }
    return study
