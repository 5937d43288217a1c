import dataclasses
import importlib
import importlib.util
import re
import sys
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qre import presets
from qre.augmentation import AugmentedSystem
from qre.errors import NotPhysicallyRealizable
from qre.presets import (
    build_study,
    feedback_benchmark_config,
    series_benchmark_config,
)
from qre.synthesis import synthesize
from qre.uncertainty import squeezer_uncertainty

CHANNELS = {
    "classical": ["classical"],
    "coherent_classical": ["classical", "coherent"],
    "classical_fb": ["classical"],
    "coherent_classical_fb": ["classical", "coherent"],
}


def config_for(topology):
    cfg = (
        feedback_benchmark_config()
        if topology.endswith("_fb")
        else series_benchmark_config()
    )
    cfg["topology"] = topology
    return cfg


class TestBuildStudy:
    @pytest.mark.parametrize("topology", sorted(CHANNELS))
    def test_one_problem_per_channel(self, topology):
        study = build_study(config_for(topology))
        assert list(study.channels) == CHANNELS[topology]
        assert list(study.problems) == CHANNELS[topology]

    @pytest.mark.parametrize("topology", ["coherent_clasical", "sideways", ""])
    def test_unknown_topology_raises(self, topology):
        with pytest.raises(ValueError, match=f"unknown topology {topology!r}"):
            build_study(config_for(topology))

    @pytest.mark.parametrize("topology", sorted(CHANNELS))
    def test_every_channel_is_an_augmented_system(self, topology):
        # the classical channel is the plant behind the pass-through
        # controller: the plant's own matrices and uncertainty, and, as the
        # coherent channel, real output-injection equations (a quadrature map)
        study = build_study(config_for(topology))
        for name, (system, _) in study.channels.items():
            assert isinstance(system, AugmentedSystem)
            assert study.problems[name]._quadrature is not None
        system, u = study.channels["classical"]
        for m in "ABCDL":
            np.testing.assert_array_equal(getattr(system, m), getattr(study.plant, m))
        for m in ("H1", "H2", "H3", "E", "G"):
            np.testing.assert_array_equal(getattr(u, m), getattr(study.uncertainty, m))

    def test_default_frequency_grid(self):
        np.testing.assert_array_equal(
            build_study(series_benchmark_config()).frequencies,
            np.logspace(-2, 2, 400),
        )

    def test_a_frequency_grid_that_overflows_at_min_names_min(self):
        # a descending grid from the largest float: its first point rounds
        # up to inf (the CLI test covers max), and no overflow warning
        cfg = series_benchmark_config()
        cfg["frequency_grid"] = {"min": sys.float_info.max, "max": 1.0, "points": 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                f"frequency_grid.min {sys.float_info.max} overflows"
            )):
                build_study(cfg)

    def test_strict_pr_is_read_from_the_config(self):
        cfg = series_benchmark_config()
        cfg["plant"]["beta"] = 5.0  # beta != kappa
        assert not build_study(cfg).plant.physically_realizable
        cfg["strict_pr"] = True
        with pytest.raises(NotPhysicallyRealizable):
            build_study(cfg)


class TestStudyChannels:
    def test_a_replaced_study_derives_its_own_state(self):
        # a copy with another uncertainty sweeps as a study built with it,
        # and leaves the original's channels, filters and loops alone; an
        # input cannot be assigned under the state derived from it
        def at_one(s):
            return [r.norms[0] for r in s.sweep([1.0])]

        study = build_study(series_benchmark_config())
        copy = dataclasses.replace(study, uncertainty=squeezer_uncertainty(2.0, 0.05))
        got = at_one(copy)
        assert got == at_one(build_study({**series_benchmark_config(), "mu": 0.05}))
        assert got == pytest.approx([0.237625, 0.123172], abs=1e-6)
        own = at_one(study)
        assert own == at_one(build_study(series_benchmark_config()))
        assert own == pytest.approx([0.651786, 0.114750], abs=1e-6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            study.uncertainty = copy.uncertainty

    def test_estimator_is_synthesized_once(self, series_study):
        for name in series_study.channels:
            assert series_study.estimator(name) is series_study.estimator(name)

    def test_loop_is_built_once_per_channel(self):
        study = build_study(series_benchmark_config())
        with mock.patch.object(
            presets, "loop_polynomial", wraps=presets.loop_polynomial
        ) as build:
            for name in study.channels:
                loop = study.loop_polynomial(name)
                for delta in (-1.0, 0.0, 0.5):
                    study.closed_loop(name, delta)
                study.sweep([0.0, 1.0])
                assert study.loop_polynomial(name) is loop
            assert build.call_count == 2
            # a caller's filter gets a loop of its own, not kept
            est = synthesize(study.problems["coherent"], gain_convention="theorem")
            other = study.loop_polynomial("coherent", est)
            assert other is not study.loop_polynomial("coherent")
            study.closed_loop("coherent", 0.5, estimator=est)
            assert build.call_count == 4

    def test_sweep_labels_follow_the_channels(self, feedback_study):
        results = feedback_study.sweep([0.0])
        assert [r.label for r in results] == list(feedback_study.channels)

    def test_sweep_abscissa(self, series_study, feedback_study, delta_grid_21):
        # default gain convention: the classical loops are unstable at
        # every delta, the coherent ones stable
        for study, classical, coherent in (
            (series_study, (0.7371, 0.7371), (-1.0, -1.0)),
            (feedback_study, (3.6047, 3.6047), (-0.6018, -0.5876)),
        ):
            for res, (lo, hi) in zip(study.sweep(delta_grid_21),
                                     (classical, coherent)):
                assert min(res.abscissa) == pytest.approx(lo, abs=1e-4)
                assert max(res.abscissa) == pytest.approx(hi, abs=1e-4)

    def test_closed_loop_takes_an_explicit_estimator(self, series_study):
        # the route to a filter of another gain convention
        problem = series_study.problems["coherent"]
        est = synthesize(problem, gain_convention="theorem")
        loop = series_study.closed_loop("coherent", 0.5, estimator=est)
        k = est.A_K.shape[0]
        np.testing.assert_array_equal(loop.A[-k:, -k:], est.A_K)
        assert not np.array_equal(
            loop.A, series_study.closed_loop("coherent", 0.5).A
        )

    @pytest.mark.parametrize("name", ["classical", "coherent"])
    def test_named_closed_loops_are_closed_loop(self, series_study, name):
        named = getattr(series_study, f"{name}_closed_loop")
        for make in (named, partial(series_study.closed_loop, name)):
            loop = make(-0.3)
            ref = series_study.closed_loop(name, -0.3)
            for m in ("A", "B", "C", "D"):
                np.testing.assert_array_equal(getattr(loop, m), getattr(ref, m))


def benchmark_spans():
    """benchmarks/spans.py, loaded from its file (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkBindings:
    def test_every_binding_resolves(self):
        # the benchmark's tracer reads each binding from its owner's
        # __dict__; a name missing there fails every traced run
        spans = benchmark_spans()
        assert spans.BINDINGS
        missing = []
        for owner_path, attr, _ in spans.BINDINGS:
            importlib.import_module(owner_path.partition(":")[0])
            bound = spans._resolve(owner_path).__dict__.get(attr)
            if not callable(bound):
                missing.append(f"{owner_path}.{attr}")
        assert missing == []
