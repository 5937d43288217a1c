import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qre
from qre import analysis, cli
from qre.analysis import SweepResult
from qre.cli import main
from qre.presets import (
    Study,
    build_study,
    feedback_benchmark_config,
    series_benchmark_config,
)


def decode(pairs):
    """Nested [re, im] arrays back to a complex matrix."""
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


MISSING = object()  # a value that deletes its key


def edited(cfg, key, value):
    """``cfg`` with its entry ``key`` (dotted for a group's entry) set to
    ``value``, or deleted if that is MISSING."""
    *group, name = key.split(".")
    target = cfg[group[0]] if group else cfg
    if value is MISSING:
        del target[name]
    else:
        target[name] = value
    return cfg


class TestSynthesizeCommand:
    def test_classical_benchmark_matches_reference(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["topology"] = "classical"
        cfg.pop("controller")
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        records = json.loads((tmp_path / "estimator.json").read_text())
        assert list(records) == ["classical"]
        data = records["classical"]
        assert capsys.readouterr().out.startswith("classical: residual_x=")
        ak = decode(data["A_K"])
        expected = np.array(
            [
                [-0.0274 - 2.3799j, 1.8584 - 1.6718j],
                [1.8584 + 1.6718j, -0.0274 + 2.3799j],
            ]
        )
        assert np.abs(ak - expected).max() <= 5e-4
        assert data["residual_x"] <= 1e-8
        assert (tmp_path / "meta.json").exists()
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["command"] == "synthesize"
        assert meta["config"]["gamma"] == 0.65

    def test_scaling_error_exits_2(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["eps2"] = 1.2
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "scaling not positive definite" in capsys.readouterr().err

    def test_zero_mu_nominal_filter(self, tmp_path):
        cfg = series_benchmark_config()
        cfg["mu"] = 0.0
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_unreachable_attenuation_exits_3(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["gamma"] = 0.01
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "ARE" in capsys.readouterr().err

    def test_every_channel_is_written(self, tmp_path, capsys):
        rc = main(["synthesize", "--config",
                   write_config(tmp_path, series_benchmark_config()),
                   "--out", str(tmp_path)])
        assert rc == 0
        records = json.loads((tmp_path / "estimator.json").read_text())
        assert list(records) == ["classical", "coherent"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["classical", "coherent"]
        for name, line in zip(records, lines):
            assert f"residual_x={records[name]['residual_x']:.3e}" in line

    @pytest.mark.parametrize("command", ["synthesize", "bode"])
    def test_classical_failure_on_a_coherent_topology_exits_3(self, tmp_path,
                                                               capsys, command):
        # at gamma = 0.3 the feedback benchmark's coherent filter solves and
        # its classical one does not
        cfg = feedback_benchmark_config()
        cfg["gamma"] = 0.3
        rc = main([command, "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("synthesis error: ARE for X failed")
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    def test_unknown_topology_exits_2(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["topology"] = "coherent_clasical"
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown topology 'coherent_clasical'" in capsys.readouterr().err

    def test_strict_pr_rejects_unrealizable_plant(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["plant"]["beta"] = 5.0  # beta != kappa
        path = write_config(tmp_path, cfg)
        assert main(["synthesize", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["synthesize", "--config", path, "--out", str(tmp_path),
                   "--strict-pr"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["synthesize", "--config", str(p), "--out", str(tmp_path)]) == 2


class TestBodeCommand:
    def test_two_labelled_curves(self, tmp_path):
        cfg = series_benchmark_config()
        cfg["frequency_grid"] = {"min": 0.01, "max": 100.0, "points": 25}
        rc = main(["bode", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "bode.csv")
        assert rows[0] == ["omega_rad_s", "mag_abs", "mag_db", "label"]
        labels = {r[3] for r in rows[1:]}
        assert labels == {"classical", "coherent"}
        assert len(rows) == 1 + 2 * 25

    def test_single_frequency(self, tmp_path):
        cfg = series_benchmark_config()
        cfg["frequency_grid"] = {"min": 1.0, "max": 1.0, "points": 1}
        rc = main(["bode", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "bode.csv")
        assert len(rows) == 3  # header + one row per label


class TestSweepCommand:
    def test_single_point_with_summary(self, tmp_path):
        cfg = series_benchmark_config()
        cfg["mu"] = 0.0
        cfg["delta_grid"] = {"min": 0.0, "max": 0.0, "points": 1}
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["delta", "hinf_classical", "hinf_coherent"]
        assert len(rows) == 1 + 1 + 3  # header, one point, max/min/spread
        assert [r[0] for r in rows[2:]] == ["max", "min", "spread"]
        # a single point has zero spread
        assert float(rows[4][1]) == 0.0

    def test_synthesis_failure_exits_3(self, tmp_path, capsys):
        # the filters are synthesized before any loop is built, so the
        # failure is a synthesis error and names no delta
        cfg = series_benchmark_config()
        cfg["gamma"] = 0.2
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("synthesis error: ARE for X failed")
        assert "delta" not in err

    def test_delta_grid_outside_the_window_exits_2(self, tmp_path, capsys):
        cfg = series_benchmark_config()
        cfg["delta_grid"] = {"min": -1.5, "max": 1.5, "points": 7}
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "config error: delta=-1.5 outside [-1, 1]\n"

    def test_deterministic_output(self, tmp_path):
        cfg = series_benchmark_config()
        cfg["delta_grid"] = {"min": -1.0, "max": 1.0, "points": 3}
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


@pytest.fixture(
    scope="module",
    params=[("classical", series_benchmark_config),
            ("classical_fb", feedback_benchmark_config)],
    ids=["classical", "classical_fb"],
)
def classical_runs(request, tmp_path_factory):
    """``synthesize``, ``bode`` and ``sweep`` on a classical topology and on
    the coherent topology of the same benchmark plant: (exit code, output
    directory) by (``"classical"`` or ``"coherent"``, command)."""
    topology, benchmark = request.param
    tmp = tmp_path_factory.mktemp(topology)
    configs = {"classical": {**benchmark(), "topology": topology},
               "coherent": benchmark()}
    runs = {}
    for kind, cfg in configs.items():
        path = write_config(tmp, cfg, f"{kind}.json")
        for command in ("synthesize", "bode", "sweep"):
            out = tmp / f"{kind}-{command}"
            rc = main([command, "--config", path, "--out", str(out)])
            runs[kind, command] = rc, out
    return runs


class TestClassicalTopologies:
    """The classical-only estimator, the paper's baseline, is the classical
    channel of any study: on its own topologies ``synthesize``, ``bode`` and
    ``sweep`` write that one channel, with the numbers a coherent study of
    the same plant gives for its classical channel."""

    @pytest.mark.parametrize("command", ["synthesize", "bode", "sweep"])
    def test_exits_0(self, classical_runs, command):
        assert classical_runs["classical", command][0] == 0

    def test_synthesize_writes_the_classical_record(self, classical_runs):
        records = {
            kind: json.loads((classical_runs[kind, "synthesize"][1]
                              / "estimator.json").read_text())
            for kind in ("classical", "coherent")
        }
        assert list(records["coherent"]) == ["classical", "coherent"]
        assert records["classical"] == {"classical": records["coherent"]["classical"]}

    def test_sweep_writes_the_classical_column(self, classical_runs):
        rows = read_csv(classical_runs["classical", "sweep"][1] / "sweep.csv")
        assert rows[0] == ["delta", "hinf_classical"]
        assert len(rows) == 1 + 21 + 3
        assert [r[0] for r in rows[-3:]] == ["max", "min", "spread"]
        coherent = read_csv(classical_runs["coherent", "sweep"][1] / "sweep.csv")
        assert rows == [r[:2] for r in coherent]

    def test_sweep_meta_reports_the_one_channel(self, classical_runs):
        # under the default gain convention every classical loop is unstable
        out = classical_runs["classical", "sweep"][1]
        stability = json.loads((out / "meta.json").read_text())["stability"]
        assert list(stability) == ["classical"]
        assert stability["classical"]["unstable_deltas"] == 21

    def test_bode_writes_the_classical_curve(self, classical_runs):
        rows = read_csv(classical_runs["classical", "bode"][1] / "bode.csv")
        assert len(rows) == 1 + 400
        assert {r[3] for r in rows[1:]} == {"classical"}
        coherent = read_csv(classical_runs["coherent", "bode"][1] / "bode.csv")
        assert rows == [r for r in coherent if r[3] != "coherent"]


class TestConfigErrors:
    """A bad grid, angle list, parameter, group or estimand, and a missing
    or unknown key, is a configuration error that names its key, whatever
    the command, not a numpy error, an analysis error or an empty output.
    A dotted key names an entry of a group, a MISSING value deletes the
    key, and no key gives the whole file."""

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("sweep", "homodyne_angles_deg", [10.0, 20.0],
             "homodyne_angles_deg gives 2 angles for a measured output of 1 mode(s)"),
            ("sweep", "delta_grid", {"min": -1.0, "max": 1.0, "points": 0},
             "delta_grid.points must be a whole number >= 1, got 0"),
            ("bode", "frequency_grid", {"min": -1.0, "max": 100.0, "points": 25},
             "frequency_grid.min and .max must be positive and finite, "
             "got -1.0, 100.0"),
            ("bode", "frequency_grid", {"min": 0.01, "max": 100.0, "points": 0},
             "frequency_grid.points must be a whole number >= 1, got 0"),
            ("bode", "frequency_grid", [0.01, 100.0, 25],
             "frequency_grid must map min, max and points"),
            ("synthesize", "homodyne_angles_deg", ["ten"],
             "homodyne_angles_deg must be a list of numbers, got ['ten']"),
            ("synthesize", "plant.beta", "four",
             "plant.beta must be a number, got 'four'"),
            ("synthesize", "plant.chi", "x", "plant.chi must be a number, got 'x'"),
            ("synthesize", "controller.kappa_c", [1, 2],
             "controller.kappa_c must be a number, got [1, 2]"),
            ("synthesize", "mu", [0.1], "mu must be a number, got [0.1]"),
            ("synthesize", "plant.L", [0.1, -0.1, 3],
             "plant.L must have a column per plant state (2), got [0.1, -0.1, 3]"),
            ("bode", "frequency_grid.min", [0.01],
             "frequency_grid.min must be a number, got [0.01]"),
            ("sweep", "delta_grid.min", None,
             "delta_grid.min must be a number, got None"),
            ("bode", "frequency_grid.max", "x",
             "frequency_grid.max must be a number, got 'x'"),
            ("bode", "frequency_grid.points", True,
             "frequency_grid.points must be a number, got True"),
            ("bode", "frequency_grid", {"mn": 1.0, "max": 10.0, "points": 5},
             "frequency_grid.mn is not a grid key (min, max, points)"),
            ("sweep", "delta_grid", {"point": 3},
             "delta_grid.point is not a grid key (min, max, points)"),
            ("synthesize", "gamma", -0.65,
             "gamma, eps1, eps2 must all be positive and finite"),
            ("bode", "eps1", 0, "gamma, eps1, eps2 must all be positive and finite"),
            ("sweep", "gamma", 1e400,
             "gamma, eps1, eps2 must all be positive and finite"),
            ("synthesize", None, 4.0, "the config file must hold a JSON object"),
            ("synthesize", "plant", 4.0, "plant must map beta, kappa, chi and L"),
            ("bode", "plant", [4.0, 4.0, 0.5],
             "plant must map beta, kappa, chi and L"),
            ("sweep", "controller", "squeezer",
             "controller must map beta_c, kappa_c and chi_c"),
            ("synthesize", "plant.kapa", 4.0,
             "plant.kapa is not a plant key (beta, kappa, chi, L)"),
            ("synthesize", "plant.kappa2", 2.0,
             "plant.kappa2 is not a plant key (beta, kappa, chi, L)"),
            ("bode", "controller.kappa_c2", 2.0,
             "controller.kappa_c2 is not a controller key (beta_c, kappa_c, chi_c)"),
            ("synthesize", "gamma", MISSING, "gamma is missing"),
            ("bode", "plant.beta", MISSING, "plant.beta is missing"),
            ("sweep", None, edited(feedback_benchmark_config(), "mu", MISSING),
             "mu is missing"),
            ("synthesize", None,
             edited(feedback_benchmark_config(), "controller.kappa_c2", MISSING),
             "controller.kappa_c2 is missing"),
            ("synthesize", "topology", MISSING, "topology is missing"),
            ("synthesize", "gama", 1.0,
             "gama is not a config key (topology, plant, homodyne_angles_deg, mu, "
             "gamma, eps1, eps2, controller, delta_design, strict_pr, "
             "frequency_grid, delta_grid)"),
            ("synthesize", "strict_pr", "false",
             "strict_pr must be true or false, got 'false'"),
            ("synthesize", "delta_design", 1.5,
             "delta_design must lie in [-1, 1], got 1.5"),
            ("sweep", "delta_design", -1.01,
             "delta_design must lie in [-1, 1], got -1.01"),
            ("synthesize", "delta_grid", {"points": 0},
             "delta_grid.points must be a whole number >= 1, got 0"),
            ("bode", "delta_grid", {"min": -1.5},
             "delta=-1.5 outside [-1, 1]"),
            ("synthesize", None, edited(edited(feedback_benchmark_config(),
                                               "plant.kappa1", 0), "plant.beta", 2.0),
             "plant.kappa1 must be positive, got 0.0"),
            ("synthesize", "plant.beta", float("nan"),
             "plant.beta must be finite, got nan"),
            ("bode", "plant.chi", float("nan"), "plant.chi must be finite, got nan"),
            ("sweep", "controller.beta_c", float("nan"),
             "controller.beta_c must be finite, got nan"),
            ("synthesize", "plant.kappa", float("inf"),
             "plant.kappa must be finite, got inf"),
            ("synthesize", "plant.L", [0.1, float("nan")],
             "plant.L must be finite, got [0.1, nan]"),
            ("bode", "plant.kappa", -4.0, "plant.kappa must be positive, got -4.0"),
        ],
        ids=["two-angles", "no-deltas", "negative-frequency", "no-frequencies",
             "grid-not-a-mapping", "angle-not-a-number", "beta-not-a-number",
             "chi-not-a-number", "kappa_c-a-list", "mu-a-list", "L-three-entries",
             "grid-min-a-list", "grid-min-null", "grid-max-a-string",
             "grid-points-a-bool", "frequency-grid-unknown-key",
             "delta-grid-unknown-key", "gamma-negative", "eps1-zero",
             "gamma-1e400", "file-a-number", "plant-a-number", "plant-a-list",
             "controller-a-string", "plant-misspelt-key", "plant-feedback-key",
             "controller-feedback-key", "gamma-missing", "plant-beta-missing",
             "feedback-mu-missing", "feedback-kappa_c2-missing", "topology-missing",
             "misspelt-top-level-key", "strict_pr-a-string",
             "delta_design-above-the-window", "delta_design-below-the-window",
             "bad-grid-on-synthesize", "delta-grid-outside-on-bode",
             "feedback-kappa1-zero", "beta-nan", "chi-nan", "beta_c-nan",
             "kappa-infinite", "L-nan", "kappa-negative"],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value,
                                     message):
        cfg = value if key is None else edited(series_benchmark_config(), key, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            rc = main([command, "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / f"{command}.csv").exists()

    def test_frequency_grid_that_overflows_exits_2(self, tmp_path, capsys):
        # the largest float as max: the log-spaced grid's last point rounds
        # up to inf, and the grid is rejected, with no overflow warning
        cfg = edited(series_benchmark_config(), "frequency_grid",
                     {"min": 1e-3, "max": sys.float_info.max, "points": 3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bode", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: frequency_grid.max {sys.float_info.max} "
            "overflows the log-spaced grid\n"
        )
        assert not (tmp_path / "bode.csv").exists()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["reproduce", "--preset", "fig3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot create --out {out}: File exists\n"


class TestReproduceCommand:
    def test_unknown_preset_exits_2(self, tmp_path):
        assert main(["reproduce", "--preset", "fig99", "--out", str(tmp_path)]) == 2

    def test_series_bode_preset(self, tmp_path, capsys):
        rc = main(["reproduce", "--preset", "fig3", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bode.csv").exists()
        assert "all assertions passed" in capsys.readouterr().out

    def test_feedback_sweep_preset(self, tmp_path, capsys):
        rc = main(["reproduce", "--preset", "fig7", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "sweep.csv")
        spread = rows[-1]
        assert float(spread[2]) < float(spread[1])

    @pytest.mark.parametrize("preset", ["fig3", "fig6"])
    def test_bode_preset_meta_names_the_preset(self, tmp_path, preset):
        assert main(["reproduce", "--preset", preset, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["command"] == f"reproduce:{preset}"

    @pytest.mark.parametrize(
        "preset, classical, coherent",
        [("fig4", 0.7371, -1.0), ("fig7", 3.6047, -0.5876)],
    )
    def test_sweep_meta_reports_stability(self, tmp_path, preset, classical,
                                          coherent):
        # under the default gain convention every classical loop is
        # unstable: its peak gain is an L-infinity number
        assert main(["reproduce", "--preset", preset, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        stability = meta["stability"]
        assert stability["classical"]["unstable_deltas"] == 21
        assert stability["coherent"]["unstable_deltas"] == 0
        assert stability["classical"]["max_abscissa"] == pytest.approx(
            classical, abs=1e-4
        )
        assert stability["coherent"]["max_abscissa"] == pytest.approx(
            coherent, abs=1e-4
        )

    def test_bode_preset_builds_the_study_once(self, tmp_path, monkeypatch):
        built = []

        def counting_build_study(config, *args, **kwargs):
            built.append(config["topology"])
            return build_study(config, *args, **kwargs)

        monkeypatch.setattr(cli, "build_study", counting_build_study)
        assert main(["reproduce", "--preset", "fig3", "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_every_failed_assertion_is_reported(self, tmp_path, monkeypatch, capsys):
        # a coherent filter worse at every delta and with the wider spread
        # fails both feedback assertions
        def losing_sweep(self, deltas, rel_tol=1e-6):
            return (
                SweepResult((0.0, 1.0), (1.0, 1.0), "classical", (-1.0, -1.0)),
                SweepResult((0.0, 1.0), (2.0, 3.0), "coherent", (-1.0, -1.0)),
            )

        monkeypatch.setattr(Study, "sweep", losing_sweep)
        rc = main(["reproduce", "--preset", "fig7", "--out", str(tmp_path)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "FAIL: coherent peak gain not below classical at every delta" in err
        assert "FAIL: coherent norm spread not below classical spread" in err


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this qre."""
    env = dict(os.environ)
    src = str(Path(qre.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRuntimeDependencies:
    """scipy is a test dependency: the package runs on numpy alone."""

    def test_import_leaves_scipy_out(self):
        proc = run_python(
            "import sys, qre\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_reproduce_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail
        proc = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qre import cli\n"
            "sys.exit(cli.main(['reproduce', '--preset', 'fig4',"
            " '--out', sys.argv[1]]))",
            str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sweep.csv").exists()


class TestTolerance:
    def test_sweep_tol_reaches_hinf_norm(self, tmp_path, monkeypatch):
        # the tolerance is recorded where it is used: at the stacked
        # level-set kernel, which a sweep runs once per filter
        seen = []
        original = analysis._level_set

        def recording_level_set(A, B, C, D, rel_tol, allow_unstable):
            seen.append(rel_tol)
            return original(A, B, C, D, rel_tol, allow_unstable)

        monkeypatch.setattr(analysis, "_level_set", recording_level_set)
        cfg = series_benchmark_config()
        cfg["delta_grid"] = {"min": 0.0, "max": 0.0, "points": 1}
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path), "--tol", "1e-3"])
        assert rc == 0
        assert seen == [1e-3, 1e-3]  # one classical, one coherent

    @pytest.mark.parametrize("tol", ["0", "-0.5", "inf", "nan"])
    def test_tol_outside_the_unit_interval_exits_2(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, series_benchmark_config())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--out", str(tmp_path), "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tol: must lie strictly in (0, 1), got {tol!r}" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["synthesize", "bode"])
    def test_commands_without_a_norm_take_no_tol(self, tmp_path, command):
        path = write_config(tmp_path, series_benchmark_config())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path), "--tol", "1e-3"])
        assert exc.value.code == 2
