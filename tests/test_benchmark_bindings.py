"""The benchmark's hold on the package: every name its span tracer wraps
still resolves, and each design and oracle op still runs through the
wrapped names to its reference answer.  A name the package drops while
``benchmarks/`` still binds it fails here, on every interpreter the suite
runs on."""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


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
