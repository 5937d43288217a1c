"""End-to-end study pipelines.

A *study* bundles an uncertain squeezer plant, a coherent controller, the
homodyne map and the scaling parameters, and exposes the two competing
filters as named *channels*.  A channel is the plant augmented with a
controller, and the uncertainty lifted onto it: ``"classical"`` takes the
``pass_through_controller``, ``"coherent"`` the study's own.  Every channel
goes through the same ``assemble``, ``Study.estimator`` and
``Study.loop_polynomial``: the filter's closed loop as a polynomial in
delta, built once per channel.
``Study.closed_loop`` is its value at one delta and ``Study.sweep`` its
stack over a grid.  Two benchmark parameter sets are provided, one for the
series topology and one for the coherent-feedback topology.
"""

from dataclasses import dataclass, field
from functools import cached_property, partialmethod

import numpy as np

from .analysis import closed_loop_error_system, delta_sweep, loop_polynomial
from .augmentation import augment, lift_uncertainty
from .errors import DomainError, NotPhysicallyRealizable
from .quantum import (
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    homodyne_matrix,
    pass_through_controller,
    squeezer_controller,
    squeezer_plant,
)
from .synthesis import assemble, synthesize
from .uncertainty import evaluate_deltas, squeezer_uncertainty

# bindings of this module that the benchmark's span tracer
# (benchmarks/spans.py) wraps by name, imported ones included
assemble_classical = assemble_feedback_classical = assemble_augmented = assemble
augment_feedback = augment
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


@dataclass(frozen=True)
class Study:
    """An estimation study's inputs, frozen; ``frequencies`` and ``deltas``
    are the configuration's grids.  Everything else (``channels``,
    ``problems``, the estimators and their loops) is derived from them on
    first use and kept; ``dataclasses.replace`` gives a study of its own."""

    plant: object
    controller: object
    uncertainty: object
    S: np.ndarray
    gamma: float
    eps1: float
    eps2: float
    delta_design: float
    frequencies: np.ndarray
    deltas: np.ndarray
    _estimators: dict = field(default_factory=dict, init=False, repr=False)
    _loops: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def channels(self):
        """Measured system and its uncertainty model, per channel name: the
        plant augmented with the pass-through or the study's controller."""
        p, u = self.plant, self.uncertainty
        ctrls = {"classical": pass_through_controller(p), "coherent": self.controller}
        return {name: (augment(p, c), lift_uncertainty(u, c, p))
                for name, c in ctrls.items() if c is not None}

    @cached_property
    def problems(self):
        """Each channel's scaled problem."""
        return {name: assemble(system, u, self.S, self.gamma, self.eps1, self.eps2)
                for name, (system, u) in self.channels.items()}

    # read by the benchmark's design workload (benchmarks/workloads.py)
    augmented = property(lambda self: self.channels["coherent"][0])
    lifted = property(lambda self: self.channels["coherent"][1])

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


def _numeric(value, key, ndim=0, kinds="iuf", finite=False):
    """A config value as a float (ndim 0) or an array of at most ``ndim``
    axes of numbers of the numpy ``kinds``; anything else raises a
    ValueError that names ``key``, and with ``finite`` a value that is not
    finite a DomainError."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    if a.dtype.kind not in kinds or a.ndim > ndim:
        what = "a number" if ndim == 0 else "a list of numbers"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    if finite and not np.isfinite(a).all():
        raise DomainError(f"{key} must be finite, got {value!r}")
    return float(a) if ndim == 0 else a


def _known(mapping, names, kind, at=""):
    """``mapping``, checked to hold every key of ``names`` and no other: the
    first key outside them, or else the first missing, raises a ValueError."""
    unknown = sorted(set(mapping) - set(names))
    if unknown:
        raise ValueError(f"{at}{unknown[0]} is not a {kind} key ({', '.join(names)})")
    missing = [k for k in names if k not in mapping]
    if missing:
        raise ValueError(f"{at}{missing[0]} is missing")
    return mapping


def _group(config, key, names, kind, defaults=(), matrix=None, finite=False):
    """The config group ``key``, a mapping over ``names`` (the last ones
    optional with ``defaults``), as a dict of _numeric values (``finite``
    passed on); ``matrix`` names an array entry.  Any other group raises a
    ValueError naming it."""
    g = config[key]
    if not isinstance(g, dict):
        raise ValueError(f"{key} must map {', '.join(names[:-1])} and {names[-1]}")
    g = _known({**dict(zip(names, defaults)), **g}, names, kind, f"{key}.")
    return {k: _numeric(g[k], f"{key}.{k}", *((2, "iufc") if k == matrix else ()),
                        finite=finite) for k in names}


def _grid(config, key, defaults):
    """min, max and points of the config grid ``key``, defaults filled in."""
    lo, hi, n = _group(config, key, ("min", "max", "points"), "grid", defaults).values()
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(
            f"{key}.points must be a whole number >= 1, got {config[key]['points']!r}"
        )
    return lo, hi, int(n)


def _model(key, factory, params, strict_pr):
    """``factory(**params)``, its range errors named by the config group
    ``key``; under ``strict_pr`` an unrealizable model raises too."""
    try:
        model = factory(**params)
    except DomainError as exc:
        raise DomainError(f"{key}.{exc}") from None
    if strict_pr and not model.physically_realizable:
        raise NotPhysicallyRealizable(
            f"{key} is not physically realizable: A J + J A^dag + B J B^dag != 0"
        )
    return model


# the optional top-level keys; a classical topology does not read the controller
_DEFAULTS = {"controller": {}, "delta_design": -1.0, "strict_pr": False,
             "frequency_grid": {}, "delta_grid": {}}
_KEYS = ("topology", "plant", "homodyne_angles_deg", "mu", "gamma", "eps1", "eps2",
         *_DEFAULTS)


def build_study(config):
    """Assemble a Study from a configuration mapping.

    The schema is the CLI's (README has its table): a ``topology``
    (``classical``, ``coherent_classical``, ``classical_fb`` or
    ``coherent_classical_fb``), plant/controller parameter groups, homodyne
    angles in degrees, the scaling parameters gamma, eps1, eps2, and the
    optional ``delta_design``, ``strict_pr`` and grids.  A key that is
    missing or outside the schema, or a value of the wrong type, shape or
    range, raises a ValueError or DomainError naming its key.  With
    ``strict_pr`` true, an unrealizable plant or controller raises too.
    """
    config = _known({**_DEFAULTS, **config}, _KEYS, "config")
    topology = config["topology"]
    if topology not in (
        "classical",
        "coherent_classical",
        "classical_fb",
        "coherent_classical_fb",
    ):
        raise ValueError(f"unknown topology {topology!r}")
    strict_pr = config["strict_pr"]
    if not isinstance(strict_pr, bool):
        raise ValueError(f"strict_pr must be true or false, got {strict_pr!r}")
    angles = _numeric(config["homodyne_angles_deg"], "homodyne_angles_deg", ndim=1)
    S = homodyne_matrix(np.deg2rad(np.atleast_1d(angles)))
    mu, gamma, eps1, eps2 = (
        _numeric(config[k], k) for k in ("mu", "gamma", "eps1", "eps2")
    )
    delta_design = _numeric(config["delta_design"], "delta_design")
    if not abs(delta_design) <= 1:
        raise ValueError(f"delta_design must lie in [-1, 1], got {delta_design}")
    lo, hi, points = _grid(config, "frequency_grid", (1e-2, 1e2, 400))
    if not (0 < lo < np.inf and 0 < hi < np.inf):
        raise ValueError(
            f"frequency_grid.min and .max must be positive and finite, got {lo}, {hi}"
        )
    with np.errstate(over="ignore"):  # 10**log10(max) may round past the largest float
        frequencies = np.logspace(np.log10(lo), np.log10(hi), points)
    if not np.isfinite(frequencies).all():
        raise ValueError(f"frequency_grid.{'max' if hi >= lo else 'min'} "
                         f"{max(lo, hi)} overflows the log-spaced grid")
    lo, hi, points = _grid(config, "delta_grid", (-1.0, 1.0, 21))
    for key, bound in (("min", lo), ("max", hi)):
        if not abs(bound) <= 1:
            raise DomainError(f"delta_grid.{key} must lie in [-1, 1], got {bound}")
    deltas = np.linspace(lo, hi, points)

    feedback = topology.endswith("_fb")
    pc = _group(config, "plant", (
        ("beta", "kappa1", "kappa2", "chi", "L") if feedback
        else ("beta", "kappa", "chi", "L")
    ), "plant", matrix="L", finite=True)
    if np.atleast_2d(pc["L"]).shape[1] != 2:
        raise ValueError(f"plant.L must have a column per plant state (2), "
                         f"got {config['plant']['L']!r}")
    factory = feedback_squeezer_plant if feedback else squeezer_plant
    plant = _model("plant", factory, pc, strict_pr)
    # the uncertainty scales the measured coupling, checked positive
    u = squeezer_uncertainty(np.sqrt(pc["kappa1" if feedback else "kappa"]), mu)

    controller = None
    if topology.startswith("coherent"):
        cc = _group(config, "controller", (
            ("beta_c", "kappa_c1", "kappa_c2", "chi_c") if feedback
            else ("beta_c", "kappa_c", "chi_c")
        ), "controller", finite=True)
        factory = feedback_squeezer_controller if feedback else squeezer_controller
        controller = _model("controller", factory, cc, strict_pr)

    study = Study(
        plant=plant,
        controller=controller,
        uncertainty=u,
        S=S,
        gamma=gamma,
        eps1=eps1,
        eps2=eps2,
        delta_design=delta_design,
        frequencies=frequencies,
        deltas=deltas,
    )
    for system, _ in study.channels.values():
        if S.shape[1] != system.C.shape[0]:
            raise ValueError(
                f"homodyne_angles_deg gives {S.shape[0]} angles for a measured "
                f"output of {system.C.shape[0] // 2} mode(s)"
            )
    study.problems  # assembled here, so that an assembly error raises here
    return study
