"""Span tracing for the benchmark's traced runs.

The tracer wraps qre's public functions at the module bindings through
which qre itself calls them (``qre.presets.synthesize``,
``qre.analysis.hinf_norm``, ...), so no file of the package changes.  Each
call made while the wrappers are installed records one span: its name,
start, end, parent span, the op it belongs to and whether it raised.  Spans
stay in memory and are written out when the run ends.
"""

import functools
import json
import re
import subprocess
import sys
from time import perf_counter

# (owner, attribute, span name); the owner is a module or ``module:Class``.
# A function reached through two bindings is wrapped at both under one name;
# ``lifted_deltas`` is an alias of ``evaluate_deltas`` and is counted as it.
BINDINGS = [
    ("qre.cli", "cmd_reproduce", "cli.reproduce"),
    ("qre.cli", "build_study", "presets.build_study"),
    ("qre.cli", "hinf_norm", "analysis.hinf_norm"),
    ("qre.cli", "frequency_response", "analysis.frequency_response"),
    ("qre.presets", "build_study", "presets.build_study"),
    ("qre.presets", "squeezer_plant", "quantum.squeezer_plant"),
    ("qre.presets", "feedback_squeezer_plant", "quantum.feedback_squeezer_plant"),
    ("qre.presets", "squeezer_controller", "quantum.squeezer_controller"),
    (
        "qre.presets",
        "feedback_squeezer_controller",
        "quantum.feedback_squeezer_controller",
    ),
    ("qre.presets", "augment", "augmentation.augment"),
    ("qre.presets", "augment_feedback", "augmentation.augment_feedback"),
    ("qre.presets", "lift_uncertainty", "augmentation.lift_uncertainty"),
    ("qre.presets", "assemble_classical", "synthesis.assemble_classical"),
    (
        "qre.presets",
        "assemble_feedback_classical",
        "synthesis.assemble_feedback_classical",
    ),
    ("qre.presets", "assemble_augmented", "synthesis.assemble_augmented"),
    ("qre.presets", "synthesize", "synthesis.synthesize"),
    ("qre.presets", "evaluate_deltas", "uncertainty.evaluate_deltas"),
    ("qre.presets", "lifted_deltas", "uncertainty.evaluate_deltas"),
    ("qre.presets", "closed_loop_error_system", "analysis.closed_loop_error_system"),
    ("qre.presets", "delta_sweep", "analysis.delta_sweep"),
    ("qre.presets:Study", "sweep", "presets.Study.sweep"),
    ("qre.analysis", "hinf_norm", "analysis.hinf_norm"),
    ("qre.analysis", "frequency_response", "analysis.frequency_response"),
    ("qre.analysis", "grid_peak_gain", "analysis.grid_peak_gain"),
    ("qre.synthesis", "assemble_classical", "synthesis.assemble_classical"),
    (
        "qre.synthesis",
        "assemble_feedback_classical",
        "synthesis.assemble_feedback_classical",
    ),
    ("qre.synthesis", "assemble_augmented", "synthesis.assemble_augmented"),
    ("qre.synthesis", "synthesize", "synthesis.synthesize"),
    ("qre.synthesis", "eps_grid_search", "synthesis.eps_grid_search"),
    ("qre.synthesis", "solve_care", "linalg.solve_care"),
]

# frequency points handled by a frequency_response call: its second argument
POINTS = {"analysis.frequency_response": lambda args, kwargs: len(
    kwargs["omegas"] if "omegas" in kwargs else args[1]
)}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        # each span: [name, start, end, parent index, op, failed, points]
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        points = POINTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [
                name,
                perf_counter(),
                None,
                stack[-1] if stack else None,
                self.op,
                False,
                points(args, kwargs) if points else 0,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        for owner_path, attr, name in BINDINGS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path, t0):
        """Write the spans as JSON lines, times in seconds from t0."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, failed, points) in enumerate(
                self.spans
            ):
                rec = {
                    "id": i,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "op": op,
                    "failed": failed,
                }
                if points:
                    rec["points"] = points
                fh.write(json.dumps(rec) + "\n")


def _resolve(path):
    """``module`` or ``module:Class`` to the object holding the binding."""
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


# per-layer metrics: (metric prefix, span-name prefix, reported fields).  A
# layer's spans are counted only where no enclosing span is in the same layer.
LAYERS = [
    ("presets.build_study", "presets.build_study", ("calls", "ms")),
    ("presets.Study.sweep", "presets.Study.sweep", ("ms",)),
    ("quantum", "quantum.", ("ms",)),
    ("augmentation", "augmentation.", ("ms",)),
    ("uncertainty.evaluate_deltas", "uncertainty.evaluate_deltas", ("calls", "ms")),
    (
        "analysis.closed_loop_error_system",
        "analysis.closed_loop_error_system",
        ("calls", "ms"),
    ),
    ("analysis.delta_sweep", "analysis.delta_sweep", ("ms",)),
    ("analysis.hinf_norm", "analysis.hinf_norm", ("calls", "ms", "self_ms")),
    (
        "analysis.frequency_response",
        "analysis.frequency_response",
        ("calls", "points", "ms"),
    ),
    ("analysis.grid_peak_gain", "analysis.grid_peak_gain", ("calls", "ms")),
    (
        "synthesis.synthesize",
        "synthesis.synthesize",
        ("calls", "ms", "self_ms", "failures"),
    ),
    ("synthesis.assemble", "synthesis.assemble", ("calls", "ms", "failures")),
    ("linalg.solve_care", "linalg.solve_care", ("calls", "ms", "failures")),
    ("cli.reproduce", "cli.reproduce", ("ms", "self_ms")),
]

UNITS = {
    "calls": "calls/cycle",
    "points": "points/cycle",
    "failures": "failures/cycle",
    "ms": "ms/op",
    "self_ms": "ms/op",
}


def layer_metrics(spans, ops, cycles):
    """Per-layer metrics over the spans of whole op cycles.

    Counts are per op cycle, so they repeat exactly between runs; times are
    per op.  Self time is a span's duration minus that of its child spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield spans[p][0]
            p = spans[p][3]

    def outermost_in(i, prefix):
        return spans[i][0].startswith(prefix) and not any(
            a.startswith(prefix) for a in ancestors(i)
        )

    metrics = {}
    for key, prefix, fields in LAYERS:
        idx = [i for i in range(len(spans)) if outermost_in(i, prefix)]
        total = {
            "calls": len(idx),
            "failures": sum(1 for i in idx if spans[i][5]),
            "points": sum(spans[i][6] for i in idx),
            "ms": sum(spans[i][2] - spans[i][1] for i in idx) * 1e3,
            "self_ms": sum(
                spans[i][2] - spans[i][1] - child_time[i] for i in idx
            ) * 1e3,
        }
        for field in fields:
            per = ops if field in ("ms", "self_ms") else cycles
            metrics[f"{key}.{field}"] = (total[field] / per, UNITS[field])
        if key == "analysis.frequency_response":
            us = total["ms"] * 1e3 / total["points"] if total["points"] else 0.0
            metrics[f"{key}.us_per_point"] = (us, "us")

    # useful outcomes of the eps grid search: successful syntheses per grid
    # point tried (each grid point makes one assemble call)
    searched = [
        s for i, s in enumerate(spans)
        if "synthesis.eps_grid_search" in ancestors(i)
    ]
    grid = sum(1 for s in searched if s[0].startswith("synthesis.assemble"))
    ok = sum(1 for s in searched if s[0] == "synthesis.synthesize" and not s[5])
    metrics["synthesis.feasible_ratio"] = (ok / grid if grid else 0.0, "fraction")
    return metrics


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def import_breakdown(env, samples=3):
    """Median import.numpy_ms, import.scipy_ms and import.qre_self_ms over
    fresh interpreters run with ``-X importtime``.

    numpy and scipy are the cumulative times of their outermost imports (a
    numpy module that scipy imports counts for scipy); qre_self_ms sums the
    self time of qre's own modules.
    """
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qre"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {
        key: (sorted(r[key] for r in runs)[len(runs) // 2], "ms")
        for key in runs[0]
    }


def parse_importtime(text):
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            rows.append((int(m.group(1)), int(m.group(2)), depth, m.group(4)))
    totals = {"numpy": 0, "scipy": 0}
    qre_self = 0
    # lines come children first; walking backwards, the stack holds the
    # ancestors of the current line
    stack = []
    for self_us, cum_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] in totals for _, a in stack):
            totals[top] += cum_us
        if top == "qre":
            qre_self += self_us
        stack.append((depth, name))
    return {
        "import.numpy_ms": totals["numpy"] / 1e3,
        "import.scipy_ms": totals["scipy"] / 1e3,
        "import.qre_self_ms": qre_self / 1e3,
    }
