"""The benchmark's hold on the package: every name its span tracer wraps
still resolves, and each design and oracle op still runs through the
wrapped names to its reference answer.  A name the package drops while
``benchmarks/`` still binds it fails here, on every interpreter the suite
runs on.  The names the package keeps for the benchmark alone are tested
here and nowhere else."""

import json
from pathlib import Path

import numpy as np
import pytest
from test_uncertainty import perturbations

from qre import presets, synthesis
from qre.augmentation import augment
from qre.uncertainty import evaluate_deltas

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_binding_resolves(bench):
    # the tracer reads each binding from its owner's __dict__; a name
    # missing there fails every traced run
    spans, _ = bench
    assert spans.BINDINGS
    missing = [f"{path}.{attr}" for path, attr, _ in spans.BINDINGS
               if not callable(spans._resolve(path).__dict__.get(attr))]
    assert missing == []


def test_tracer_installs_and_uninstalls(bench):
    spans, _ = bench
    bound = [(spans._resolve(path), attr) for path, attr, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    try:
        tracer.install()  # a KeyError names a binding the package dropped
        wrapped = [hasattr(o.__dict__[a], "__wrapped__") for o, a in bound]
    finally:
        tracer.uninstall()
    assert all(wrapped)
    assert not any(hasattr(o.__dict__[a], "__wrapped__") for o, a in bound)


@pytest.mark.parametrize("name, span", [
    ("design", "synthesis.eps_grid_search"),
    ("oracle", "analysis.grid_peak_gain"),
])
def test_every_item_runs_traced_to_its_reference(bench, tmp_path, name, span):
    spans, workloads = bench
    reference = json.loads((BENCH / "reference.json").read_text()).get(name, {})
    tracer = spans.Tracer()
    try:
        tracer.install()
        wl = workloads.build(name, 0, tmp_path)
        for op, item in enumerate(wl.items):
            tracer.op = op
            value = wl.observe(item, wl.run(item))
            assert wl.check(item, value, reference.get(item)) is None, item
    finally:
        tracer.uninstall()
    ops = {s[4] for s in tracer.spans if s[0] == span}
    assert ops == set(range(len(wl.items)))
    assert not any(s[5] for s in tracer.spans if s[0] == span)


def test_sweep_workload_builds(bench, tmp_path):
    _, workloads = bench
    assert sorted(workloads.build("sweep", 0, tmp_path).items) == ["fig4", "fig7"]


# One consistency test per name that the package keeps only because
# ``benchmarks/`` still binds it; a refresh of the benchmark deletes each name
# and its test together.

STUDIES = ["series_study", "feedback_study"]
GRID = np.linspace(-1.0, 1.0, 21)


def test_aliases_are_the_functions_they_name():
    assert (presets.assemble_classical is presets.assemble_feedback_classical
            is presets.assemble_augmented is synthesis.assemble_classical
            is synthesis.assemble_feedback_classical
            is synthesis.assemble_augmented is synthesis.assemble)
    assert presets.augment_feedback is augment
    assert presets.lifted_deltas is presets.evaluate_deltas is evaluate_deltas


@pytest.mark.parametrize("study", STUDIES)
def test_channel_views_are_the_coherent_channel(study, request):
    s = request.getfixturevalue(study)
    system, u = s.channels["coherent"]
    assert s.augmented is system and s.lifted is u


@pytest.mark.parametrize("study", STUDIES)
def test_evaluate_deltas_is_the_stacked_perturbation(study, request):
    s = request.getfixturevalue(study)
    for _, u in s.channels.values():
        stacks = perturbations(u, GRID)
        for k, d in enumerate(GRID):
            got = presets.evaluate_deltas(u, d)
            assert all(np.array_equal(m, stack[k]) for m, stack in zip(got, stacks))


@pytest.mark.parametrize("study", STUDIES)
def test_closed_loop_error_system_is_the_loop_at_one_delta(study, request):
    # bitwise at the nominal plant; elsewhere the loop polynomial adds its
    # terms in another order
    s = request.getfixturevalue(study)
    for name, (system, u) in s.channels.items():
        args = (*(getattr(system, m) for m in "ABCDL"), s.S, s.estimator(name))
        nominal = presets.closed_loop_error_system(*args)
        assert all(np.array_equal(getattr(nominal, m),
                                  getattr(s.closed_loop(name, 0.0), m)) for m in "ABCD")
        for d in GRID:
            got = presets.closed_loop_error_system(*args, presets.evaluate_deltas(u, d))
            want = s.closed_loop(name, d)
            for m in "ABCD":
                np.testing.assert_allclose(getattr(got, m), getattr(want, m),
                                           rtol=0, atol=1e-14)


@pytest.mark.parametrize("study", STUDIES)
def test_named_closed_loops_are_closed_loop(study, request):
    s = request.getfixturevalue(study)
    for d in (-0.3, *GRID):
        for name in s.channels:
            got = getattr(s, f"{name}_closed_loop")(d)
            want = s.closed_loop(name, d)
            assert all(np.array_equal(getattr(got, m), getattr(want, m))
                       for m in "ABCD")
