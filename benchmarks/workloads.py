"""The benchmark's three workloads.

Each workload has a fixed cycle of items, permuted once by the seed, and
three steps per op: ``run`` (timed), ``observe`` (turns the op's output into
a checkable value, untimed) and ``check`` (compares that value with the
reference, after the timed phase; returns an error message or None).

- ``sweep``: one in-process ``qre reproduce --preset P`` per op, P in
  {fig4, fig7}.
- ``oracle``: one ``grid_peak_gain(loop)`` per op, over classical and
  coherent closed loops of both benchmarks at seed-drawn deltas.
- ``design``: one ``eps_grid_search`` per op over the 9 x 9 default grid,
  on {series, feedback} x {classical, coherent}.

qre functions are looked up on their modules at call time, so the traced
run's wrappers see every call.
"""

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

from qre import analysis, cli, presets, synthesis

# Two correct peak-gain computations agree to the bisection's relative
# tolerance (1e-6), each lying within half of it of the true peak.
NORM_RTOL = 2e-6
# grid oracle against the Hamiltonian norm: criterion 8's bound
ORACLE_RTOL = 1e-4
# design scans: the chosen grid point is exact, the abscissa an eigenvalue
EPS_RTOL = 1e-12
OBJECTIVE_RTOL = 1e-8


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _studies():
    return {
        "series": presets.build_study(presets.series_benchmark_config()),
        "feedback": presets.build_study(presets.feedback_benchmark_config()),
    }


class Sweep:
    def __init__(self, rng, scratch):
        self.items = [str(p) for p in rng.permutation(["fig4", "fig7"])]
        self.out = Path(scratch)

    def run(self, preset):
        # the CLI's own output is kept, not interleaved with the report
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["reproduce", "--preset", preset, "--out", str(self.out)])
        return code, buf.getvalue()

    def observe(self, preset, raw):
        code, text = raw
        value = {"code": code, "output": text}
        path = self.out / "sweep.csv"
        if code == 0:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:-3]  # header; max, min, spread
            path.unlink()
            value["deltas"] = [float(r[0]) for r in rows]
            value["classical"] = [float(r[1]) for r in rows]
            value["coherent"] = [float(r[2]) for r in rows]
        return value

    def check(self, preset, value, ref):
        if ref is None:
            return f"no reference value for {preset}"
        if value["code"] != 0:
            return f"exit code {value['code']}: {value['output'].strip()}"
        if value["deltas"] != ref["deltas"]:
            return "delta grid differs from the reference"
        for col in ("classical", "coherent"):
            for d, got, want in zip(value["deltas"], value[col], ref[col]):
                if _rel(got, want) > NORM_RTOL:
                    return f"{col} norm {got!r} at delta={d} != reference {want!r}"
        return None


class Oracle:
    def __init__(self, rng, scratch):
        self.loops = {}
        for bench, study in _studies().items():
            for kind in ("classical", "coherent"):
                closed_loop = getattr(study, f"{kind}_closed_loop")
                for _ in range(2):
                    delta = float(rng.uniform(-1.0, 1.0))
                    self.loops[f"{bench}/{kind}@{delta:+.6f}"] = closed_loop(delta)
        self.items = [str(k) for k in rng.permutation(list(self.loops))]
        self._norms = {}

    def run(self, key):
        return analysis.grid_peak_gain(self.loops[key])

    def observe(self, key, raw):
        return raw

    def check(self, key, peak, ref):
        if key not in self._norms:
            self._norms[key] = analysis.hinf_norm(self.loops[key], allow_unstable=True)
        norm = self._norms[key]
        if _rel(peak, norm) > ORACLE_RTOL:
            return f"grid peak {peak!r} differs from hinf_norm {norm!r}"
        return None


def _abscissa(est):
    return est.spectral_abscissa


class Design:
    def __init__(self, rng, scratch):
        st = _studies()
        s, f = st["series"], st["feedback"]
        self.assemble = {
            "series/classical": lambda e1, e2: synthesis.assemble_classical(
                s.plant, s.uncertainty, s.S, s.gamma, e1, e2
            ),
            "series/coherent": lambda e1, e2: synthesis.assemble_augmented(
                s.augmented, s.lifted, s.S, s.gamma, e1, e2
            ),
            "feedback/classical": lambda e1, e2: synthesis.assemble_feedback_classical(
                f.plant, f.uncertainty, f.S, f.gamma, e1, e2
            ),
            "feedback/coherent": lambda e1, e2: synthesis.assemble_augmented(
                f.augmented, f.lifted, f.S, f.gamma, e1, e2
            ),
        }
        self.items = [str(k) for k in rng.permutation(sorted(self.assemble))]

    def run(self, key):
        return synthesis.eps_grid_search(
            self.assemble[key],
            _abscissa,
            gain_convention="theorem",
            require_stable=True,
        )

    def observe(self, key, raw):
        eps1, eps2, objective, _ = raw
        return {"eps1": eps1, "eps2": eps2, "objective": objective}

    def check(self, key, value, ref):
        if ref is None:
            return f"no reference value for {key}"
        for name, tol in (
            ("eps1", EPS_RTOL),
            ("eps2", EPS_RTOL),
            ("objective", OBJECTIVE_RTOL),
        ):
            if _rel(value[name], ref[name]) > tol:
                return f"{name} {value[name]!r} != reference {ref[name]!r}"
        return None


WORKLOADS = {"sweep": Sweep, "oracle": Oracle, "design": Design}


def build(name, seed, scratch):
    """Set up a workload: its studies, filters and loops, from the seed."""
    return WORKLOADS[name](np.random.default_rng(seed), scratch)
