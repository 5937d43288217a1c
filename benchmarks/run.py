"""qre benchmark: the pipeline timed end to end, and per module when traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 38 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 38 --trace 0

Workloads (see workloads.py): ``sweep`` runs ``qre reproduce`` on fig4/fig7,
``oracle`` runs the dense-grid ``grid_peak_gain`` on fixed closed loops,
``design`` runs ``eps_grid_search`` on four synthesis problems.  One process,
one caller, closed loop: the next op starts when the previous one returns.
The timed phase runs whole op cycles until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_ms_p90,
setup_s (median over fresh interpreters, from before ``import qre`` to the
first op), peak_rss_mb.  op_ms_p50 and error_rate are printed with them; the
result line carries error_rate as failed / attempted.  ``--trace 1`` spends half of the
time untraced and half traced, and reports per-module metrics from spans
(see spans.py), the ``-X importtime`` breakdown and the tracing overhead.

Every op's output is checked: sweep and design against reference.json
(regenerate with capture_reference.py), oracle against ``hinf_norm`` of the
same loop.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with provenance, and in
traced runs the spans, is written under benchmarks/_out/.  Self-tests:
``python3 -m pytest benchmarks/selftest.py``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SCRIPT = Path(__file__).resolve()
HERE = SCRIPT.parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("sweep", "oracle", "design")
# fresh interpreters whose set-up time is sampled, this process included
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed and recorded but left out of the result line, so not gated: where
# the machine's speed swings between two levels every few seconds (as on a
# shared 2-vCPU host), the median op time jumps between them from run to run.
UNGATED = ("op_ms_p50",)


def timed_phase(wl, seconds, tracer=None):
    """Run whole op cycles until ``seconds`` have passed.

    Returns the op times, (item, value, error) per op, and the wall time.
    An op that raises is recorded as failed; the loop keeps going.
    """
    times, results = [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        for item in wl.items:
            if tracer is not None:
                tracer.op = len(times)
            t = perf_counter()
            try:
                raw = wl.run(item)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t)
            value = None
            if error is None:
                try:
                    value = wl.observe(item, raw)
                except Exception as exc:
                    error = f"output unreadable: {type(exc).__name__}: {exc}"
            results.append((item, value, error))
        if perf_counter() >= deadline:
            return times, results, perf_counter() - start


def check_all(wl, results, reference):
    failures = []
    for i, (item, value, error) in enumerate(results):
        if error is None:
            try:
                error = wl.check(item, value, reference.get(item))
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": i, "item": item, "error": error})
    return failures


def setup_samples(args, first):
    """Median set-up time over fresh interpreters (this one is ``first``)."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [
                sys.executable,
                str(SCRIPT),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-sample",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def end_to_end(times, wall):
    return {
        "ops_per_s": (len(times) / wall, "op/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
    }


def traced(args, wl, reference):
    """Half the time untraced, half traced; per-module metrics."""
    import spans

    times_a, results_a, wall_a = timed_phase(wl, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        times_b, results_b, wall_b = timed_phase(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    cycles = len(times_b) // len(wl.items)
    metrics = spans.layer_metrics(tracer.spans, len(times_b), cycles)
    metrics["trace.overhead_ratio"] = (
        (len(times_b) / wall_b) / (len(times_a) / wall_a),
        "ratio",
    )
    metrics.update(spans.import_breakdown(_child_env()))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", t0)
    failures = check_all(wl, results_a + results_b, reference)
    return metrics, len(times_a) + len(times_b), failures


def untraced(args, wl, reference, t0):
    first_op = perf_counter()
    times, results, wall = timed_phase(wl, args.seconds)
    metrics = end_to_end(times, wall)
    failures = check_all(wl, results, reference)
    median, samples = setup_samples(args, first_op - t0)
    metrics["setup_s"] = (median, "s")
    return metrics, len(times), failures, samples


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def provenance(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qre").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def report(args, metrics, attempted, failures, extra):
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"# qre benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("provenance " + json.dumps(record["provenance"]))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {len(failures) / attempted:>14.6g} fraction "
          f"({len(failures)} of {attempted} ops)")
    for failure in failures[:5]:
        print(f"  FAILED op {failure['op']} ({failure['item']}): {failure['error']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            k: v for k, v in record["metrics"].items() if k not in UNGATED
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args):
    """Every workload in turn, each in its own interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(SCRIPT),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--reference", str(args.reference),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=HERE / "reference.json",
        help="reference outputs to check against",
    )
    parser.add_argument(
        "--setup-sample", action="store_true",
        help="only set up, print the set-up time and exit (used internally)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "qre" / "__init__.py").is_file():
        print(f"error: no qre sources at {SRC}; run from a qre checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        # set-up time: importing qre (through workloads) and building the
        # workload's studies, filters and loops
        t0 = perf_counter()
        import workloads

        wl = workloads.build(args.workload, args.seed, scratch)
        if args.setup_sample:
            print(json.dumps({"setup_s": perf_counter() - t0}))
            return 0
        import qre

        if Path(qre.__file__).resolve().parent != SRC / "qre":
            print(f"error: imported qre from {qre.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        reference = json.loads(args.reference.read_text()).get(args.workload, {})
        if args.trace:
            metrics, attempted, failures = traced(args, wl, reference)
            extra = {}
        else:
            metrics, attempted, failures, samples = untraced(
                args, wl, reference, t0
            )
            extra = {"setup_s_samples": samples}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report(args, metrics, attempted, failures, extra)


if __name__ == "__main__":
    sys.exit(main())
