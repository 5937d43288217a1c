"""Tests of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest benchmarks/selftest.py

Each test runs run.py in a fresh interpreter with short timed phases.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".points", ".failures", "feasible_ratio")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {k: m["unit"] for k, m in metrics.items()}


def _spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def _traced(workload, seed):
    proc, result = _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", "1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert _units(result["metrics"]) == _spec_units("per_layer")
    return {k: m["value"] for k, m in result["metrics"].items()}


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["sweep", "oracle", "design"])
def test_cycle_counts_repeat_across_traced_runs(workload):
    first = _counts(_traced(workload, 1))
    second = _counts(_traced(workload, 2))
    assert first == second


def test_sweep_op_counts():
    _traced("sweep", 3)
    hinf, points = Counter(), Counter()
    with open(HERE / "_out" / "spans-sweep-seed3.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "analysis.hinf_norm":
                hinf[span["op"]] += 1
            if span["name"] == "analysis.frequency_response":
                points[span["op"]] += span["points"]
    assert hinf and set(hinf.values()) == {42}
    assert set(points.values()) == {4200}


def test_design_cycle_counts():
    m = _traced("design", 4)
    assert m["synthesis.assemble.calls"] == 324
    assert m["synthesis.synthesize.calls"] == 288
    assert m["linalg.solve_care.calls"] == 497
    assert m["linalg.solve_care.failures"] == 160
    assert m["synthesis.feasible_ratio"] == 128 / 324


@pytest.mark.parametrize(
    "workload, item, field",
    [("sweep", "fig4", "coherent"), ("design", "feedback/coherent", "objective")],
)
def test_corrupted_reference_counts_as_errors(tmp_path, workload, item, field):
    reference = json.loads((HERE / "reference.json").read_text())
    entry = reference[workload][item]
    if isinstance(entry[field], list):
        entry[field][7] *= 1.001
    else:
        entry[field] *= 1.001
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc, result = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--reference", str(corrupted),
    )
    assert proc.returncode == 1
    assert _units(result["metrics"]) == _spec_units("end_to_end")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_out"))
    proc, result = _run(
        "--workload", "sweep", "--seed", "1", "--seconds", "1",
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )
    assert proc.returncode != 0
    assert result is None


def test_parse_importtime():
    import spans

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.linalg",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.testing",
        "import time:        70 |        120 |     scipy.linalg",
        "import time:        30 |        150 |   scipy",
        "import time:        40 |        490 | qre",
    ])
    assert spans.parse_importtime(text) == {
        "import.numpy_ms": 0.3,
        "import.scipy_ms": 0.15,
        "import.qre_self_ms": 0.04,
    }
