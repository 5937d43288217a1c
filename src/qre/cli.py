"""Command-line interface.

Subcommands: ``synthesize`` (every channel's estimator matrices: the
``classical`` filter's, and the ``coherent`` one's on the ``coherent_*``
topologies), ``bode`` (their frequency responses), ``sweep`` (their peak
gains across the uncertainty window), ``reproduce`` (run a named benchmark
preset and check its assertions).  Exit codes: 0 success, 2 configuration
error, 3 synthesis failure, 4 analysis failure, 5 failed acceptance assertion.
"""

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _sigma_max, frequency_response, hinf_norm
from .errors import (
    CareFailure,
    DomainError,
    NotPhysicallyRealizable,
    QreError,
    ScalingTooLarge,
)
from .presets import build_study, feedback_benchmark_config, series_benchmark_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_ANALYSIS = 4
EXIT_ACCEPTANCE = 5

PRESETS = {
    "fig3": ("series", "bode"),
    "fig4": ("series", "sweep"),
    "fig6": ("feedback", "bode"),
    "fig7": ("feedback", "sweep"),
}


def matrix_to_json(m):
    """Nested arrays of [re, im] pairs."""
    m = np.atleast_2d(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("the config file must hold a JSON object")
    return cfg


def _write_meta(outdir, command, config, extra=None):
    meta = {
        "tool": "qre",
        "version": __version__,
        "command": command,
        "config": config,
    }
    if extra:
        meta.update(extra)
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _estimator_record(est):
    """Every field of the estimator but the Riccati solutions."""
    record = {f.name: getattr(est, f.name) for f in fields(est)}
    del record["X"], record["Y"]
    record.update((m, matrix_to_json(record[m])) for m in ("A_K", "B_K", "C_K"))
    return record


def cmd_synthesize(study, config, outdir):
    """Every channel's filter at the design point: write estimator.json, a
    record per channel name, and meta.json."""
    ests = {name: study.estimator(name) for name in study.channels}
    records = {name: _estimator_record(est) for name, est in ests.items()}
    (outdir / "estimator.json").write_text(json.dumps(records, indent=2, sort_keys=True))
    _write_meta(outdir, "synthesize", config)
    for name, est in ests.items():
        print(f"{name}: residual_x={est.residual_x:.3e} residual_y={est.residual_y:.3e} "
              f"spectral_abscissa={est.spectral_abscissa:.6f} stable={est.stable}")
    print(f"wrote {outdir / 'estimator.json'}")


def cmd_bode(study, config, outdir, command="bode"):
    """Every channel's filter gain over the frequency grid at the design
    delta: write bode.csv, its rows labelled by channel, and meta.json."""
    omegas = study.frequencies
    delta = study.delta_design
    rows = []
    for label in study.channels:
        mags = _sigma_max(frequency_response(study.closed_loop(label, delta), omegas))
        if not np.isfinite(mags).all():
            raise QreError(f"non-finite gain at omega={omegas[~np.isfinite(mags)][0]}")
        for w, mag in zip(omegas, mags.tolist()):
            rows.append((w, mag, 20 * np.log10(mag) if mag > 0 else -np.inf, label))
    with open(outdir / "bode.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega_rad_s", "mag_abs", "mag_db", "label"])
        for w, mag, db, label in rows:
            writer.writerow([f"{w:.12g}", f"{mag:.12g}", f"{db:.12g}", label])
    _write_meta(outdir, command, config, {"delta": delta, "n_frequencies": len(omegas)})
    print(f"wrote {outdir / 'bode.csv'}")


def cmd_sweep(study, config, outdir, command="sweep", rel_tol=1e-6):
    """Sweep every channel's filter, write sweep.csv (a hinf_<channel>
    column per channel) and meta.json, and return the norms by channel.
    The meta counts each channel's unstable loops and gives its largest
    spectral abscissa: where that is not negative, the peak gain is an
    L-infinity number, not an H-infinity norm."""
    results = study.sweep(study.deltas, rel_tol=rel_tol)
    norms = {r.label: np.asarray(r.norms) for r in results}
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", *(f"hinf_{name}" for name in norms)])
        for row in zip(study.deltas, *norms.values()):
            writer.writerow([f"{v:.12g}" for v in row])
        for name, reduce in (("max", np.max), ("min", np.min), ("spread", np.ptp)):
            writer.writerow([name, *(f"{reduce(n):.12g}" for n in norms.values())])
    stability = {
        r.label: {
            "unstable_deltas": sum(a >= 0 for a in r.abscissa),
            "max_abscissa": max(r.abscissa),
        }
        for r in results
    }
    _write_meta(
        outdir, command, config, {"n_deltas": len(study.deltas), "stability": stability}
    )
    return norms


def _outdir(out):
    """The --out directory, created with its parents once the study is
    built, so that a command that fails before that leaves none behind."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create --out {out}: {exc.strerror}") from exc
    return Path(out)


def cmd_reproduce(preset, out):
    which, kind = PRESETS[preset]
    config = (
        series_benchmark_config() if which == "series" else feedback_benchmark_config()
    )
    study = build_study(config)
    outdir = _outdir(out)
    delta = study.delta_design
    if kind == "bode":
        cmd_bode(study, config, outdir, f"reproduce:{preset}")
        norms = {
            name: hinf_norm(study.closed_loop(name, delta), allow_unstable=True)
            for name in study.channels
        }
    else:
        norms = cmd_sweep(study, config, outdir, f"reproduce:{preset}")
    cls, coh = norms["classical"], norms["coherent"]
    failures = []
    if kind == "bode" and not coh < cls:
        failures.append(
            f"coherent peak gain {coh:.4g} not below classical {cls:.4g} "
            f"at delta={delta}"
        )
    if kind == "sweep" and not np.all(coh < cls):
        failures.append("coherent peak gain not below classical at every delta")
    if kind == "sweep" and which == "feedback" and not np.ptp(coh) < np.ptp(cls):
        failures.append("coherent norm spread not below classical spread")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    print(f"{preset}: all assertions passed")
    return EXIT_OK


def _tolerance(text):
    """The sweep's relative norm tolerance: a number strictly in (0, 1)."""
    if not 0 < float(text) < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly in (0, 1), got {text!r}")
    return float(text)


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qre",
        description="Robust estimator synthesis and analysis for uncertain "
        "linear quantum systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "bode", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--strict-pr",
            action="store_true",
            help="reject physically unrealizable plant/controller parameters",
        )
        if name == "sweep":
            sp.add_argument(
                "--tol", type=_tolerance, default=1e-6,
                help="relative norm tolerance, in (0, 1)",
            )
    rp = sub.add_parser("reproduce")
    rp.add_argument("--preset", required=True, help="fig3|fig4|fig6|fig7")
    rp.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.preset not in PRESETS:
                print(f"unknown preset {args.preset!r}", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_reproduce(args.preset, args.out)
        config = _load_config(args.config)
        if args.strict_pr:
            config["strict_pr"] = True
        study = build_study(config)
        outdir = _outdir(args.out)
        if args.command == "synthesize":
            cmd_synthesize(study, config, outdir)
        elif args.command == "bode":
            cmd_bode(study, config, outdir)
        else:
            cmd_sweep(study, config, outdir, rel_tol=args.tol)
            print(f"wrote {outdir / 'sweep.csv'}")
        return EXIT_OK
    except ScalingTooLarge as exc:
        print(f"config error: scaling not positive definite: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, NotPhysicallyRealizable, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CareFailure as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except QreError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
