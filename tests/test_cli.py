"""Command-line contract: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from driftform import drift as dr
from driftform import markov as mk
from driftform import resistance
from driftform import spectral
from driftform import tower as tw
from driftform.cli import _parse_levels, main
from driftform.drift import Bracket


def run(args):
    return main(args)


def load_report_json(path) -> dict:
    """A JSON report without its timestamp header line."""
    with open(path, "r", encoding="utf-8") as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    return json.loads(body)


def body_bytes(path):
    """File content with the single timestamp header line stripped."""
    lines = path.read_bytes().split(b"\n")
    assert lines[0].startswith(b"# generated "), path
    return b"\n".join(lines[1:])


@pytest.fixture()
def oversized_drift(tmp_path):
    path = tmp_path / "big_drift.json"
    path.write_text(json.dumps({"b": [{"constant": 10.0}],
                                "h": [{"base_level": 0, "values": [1.0, 0.0, 0.0]}]}))
    return path


class TestExitCodes:
    def test_check_without_drift_succeeds(self, tmp_path):
        assert run(["check", "--drift", "none", "--level", "2",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "check_report.json")
        assert report["admissible"] is True
        assert report["smallness"]["drift_energy"] == 0.0
        # zero drift: the margin equals the full threshold
        c1 = report["smallness"]["condition_I"]
        assert c1["margin"] == pytest.approx(c1["threshold"])

    def test_constant_reference_function_gives_a_finite_sector_bound(self, tmp_path):
        # E(h) of a constant h is round-off, here below 0
        drift_file = tmp_path / "drift.json"
        drift_file.write_text(json.dumps({"b": [{"constant": 0.3}],
                                          "h": [{"base_level": 0, "values": [1, 1, 1]}]}))
        assert run(["check", "--level", "2", "--drift", str(drift_file),
                    "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "check_report.json").read_text().split("\n", 1)[1]
        report = json.loads(text, parse_constant=reject)
        assert report["sd_axioms"]["sd3_passed"] is True

    def test_check_default_admissible(self, tmp_path):
        assert run(["check", "--level", "2", "--reference-level", "4",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "check_report.json")
        assert report["admissible"] is True
        assert report["sd_axioms"]["passed"] is True
        assert report["sandwich"]["passed"] is True
        # every form margin is a bracket around its value
        certified = [report["sandwich"]["lower_margin"], report["sandwich"]["upper_margin"],
                     report["drift_bound"]["margin"], report["sd_axioms"]["sd1_min"]]
        for entry in certified:
            lo, hi = entry["bracket"]
            assert 0.0 < lo <= entry["value"] <= hi and entry["residual"] >= 0.0
        lo, hi = report["sd_axioms"]["sector_constant"]["bracket"]
        assert 1.0 <= lo <= hi <= report["sd_axioms"]["sector_bound"]
        assert report["rate_validation"]["ok"] is True
        assert report["detailed_balance_gap"] > 0

    def test_oversized_drift_fails_naming_condition(self, tmp_path, capsys, oversized_drift):
        code = run(["check", "--drift", str(oversized_drift), "--level", "2",
                    "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Condition (I)" in err
        assert "margin" in err
        report = load_report_json(tmp_path / "check_report.json")
        assert report["admissible"] is False

    def test_malformed_structure_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["check", "--structure", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("edit, message", [
        ({"scalings": ["a", "b"]}, "malformed"),
        ({"weights": ["a", "b"]}, "malformed"),
        ({"boundary_addresses": [["a", 0], [1, 1]]}, "malformed"),
        ({"boundary_addresses": [[0.9, 0], [1, 1]]}, "malformed"),
        ({"embedding": {"boundary_coords": [[0.0, 0.0], [1.0, 0.0]],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0, 0.0]},
                                 {"matrix": [[0.5, 0.0], [0.0, 0.5]],
                                  "offset": [0.5, 0.0]}]}},
         "2x2 matrix"),
        ({"embedding": {"boundary_coords": [[0.0], [1.0]],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0, 1.0]},
                                 {"matrix": [[0.5]], "offset": [0.5]}]}},
         "length-1 offset"),
        ({"embedding": {"boundary_coords": [0.0, 1.0],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                                 {"matrix": [[0.5]], "offset": [0.5]}]}},
         "boundary_coords must have shape"),
        ({"embedding": {"boundary_coords": [[float("nan")], [1.0]],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                                 {"matrix": [[0.5]], "offset": [0.5]}]}},
         "must be finite"),
        ({"base_conductances": [[0, 5, 1.0]]}, "edge (0, 5, 1.0) names unknown vertex 5"),
        ({"symbol_count": 3, "scalings": [0.5, 0.5, 0.5], "weights": [0.25, 0.25, 0.5],
          "identifications": [[[0, 1], [2, 0]]], "boundary_addresses": [[0, 0], [2, 1]],
          "embedding": {"boundary_coords": [[0.0], [1.0]],
                        "maps": [{"matrix": [[0.5]], "offset": [o]} for o in (0.0, 0.25, 0.5)]}},
         "at one point"),
        # JSON true is not the number 1
        ({"base_conductances": [[0, True, 1.0]]}, "expected a number, got True"),
        ({"base_conductances": [[0, 1, True]]}, "expected a number, got True"),
        ({"symbol_count": True}, "expected a number, got True"),
        ({"embedding": {"boundary_coords": [[0.0], [True]],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                                 {"matrix": [[0.5]], "offset": [0.5]}]}},
         "expected a number, got True"),
        ({"embedding": {"boundary_coords": [[0.0], [1.0]],
                        "maps": [{"matrix": [[True]], "offset": [0.0]},
                                 {"matrix": [[0.5]], "offset": [0.5]}]}},
         "expected a number, got True"),
        ({"embedding": {"boundary_coords": [[0.0], [1.0]],
                        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                                 {"matrix": [[0.5]], "offset": [True]}]}},
         "expected a number, got True"),
    ])
    def test_malformed_structure_fields_exit_2(self, tmp_path, capsys, interval_config,
                                               edit, message):
        with open(interval_config, encoding="utf-8") as fh:
            config = json.load(fh)
        bad = tmp_path / "structure.json"
        bad.write_text(json.dumps({**config, **edit}))
        assert run(["check", "--structure", str(bad), "--level", "2", "--drift", "none",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), lines
        assert message in lines[0]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("term", [
        {"samples": ["a"]}, {"constant": "abc"}, {"constant": None}, {"constant": [1, 2]}, 5,
        {"constant": True}, {"samples": [0.1] * 5 + [True]},
        {"samples": {str(k): 0.1 for k in range(-1, 6)}}, {"expression": ["x"]},
    ], ids=["samples_text", "constant_text", "constant_null", "constant_list", "term_number",
            "constant_bool", "samples_bool", "samples_negative_id", "expression_list"])
    def test_non_numeric_drift_samples_exit_2(self, tmp_path, capsys, term):
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps({"b": [term],
                                   "h": [{"base_level": 0, "values": [1.0, 0.0, 0.0]}]}))
        assert run(["check", "--level", "1", "--drift", str(bad),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("entry", [
        {"base_level": 0.5, "values": [1.0, 0.0, 0.0]},
        {"base_level": 1.9, "values": [1.0, 0.0, 0.0]},
        {"base_level": True, "values": [1.0, 0.0, 0.0]},
        {"base_level": 0, "values": [True, 0.0, 0.0]},
    ], ids=["base_level_half", "base_level_fraction", "base_level_bool", "values_bool"])
    def test_malformed_drift_h_exit_2(self, tmp_path, capsys, entry):
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps({"b": [{"constant": 0.1}], "h": [entry]}))
        assert run(["check", "--level", "1", "--drift", str(bad),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed drift config:"), err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_conductance_exits_2(self, tmp_path, capfd, bad):
        path = Path(__file__).resolve().parents[1] / "docs" / "configs" / "sg_combinatorial.json"
        config = json.loads(path.read_text())
        config["base_conductances"][0][2] = bad
        structure = tmp_path / "structure.json"
        structure.write_text(json.dumps(config))
        assert run(["check", "--level", "2", "--structure", str(structure),
                    "--out", str(tmp_path / "out")]) == 2
        err = capfd.readouterr().err.splitlines()
        assert err == [f"config error: conductance between vertices 0 and 1 is {bad}; "
                       "conductances must be finite"], err

    def test_empty_drift_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps({"b": [], "h": []}))
        assert run(["check", "--level", "1", "--drift", str(bad),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: at least one drift term is required"], err

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_key": 1}))
        assert run(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_converge_alpha_below_lambda_exits_2(self, tmp_path, capsys):
        assert run(["converge", "--levels", "1", "--reference-level", "2",
                    "--alpha", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("mode, t, flags, level", [
        ("simulate", "1e30", ["--level", "1", "--paths", "3"], 1),
        ("semigroup", "1e30", ["--level", "1"], 1),
        ("semigroup", "1e308", ["--level", "1"], 1),
        ("converge", "1e308", ["--levels", "1", "--reference-level", "2"], 1),
        # Lambda t is about 3.4e6 at level 1 and 1.7e7 at the reference level
        ("converge", "1e5", ["--levels", "1", "--reference-level", "2"], 2),
    ])
    def test_time_past_the_ceiling_exits_2(self, tmp_path, capsys, mode, t, flags, level):
        out = tmp_path / "out"
        assert run([mode, *flags, "--t", t, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"config error: --t {float(t):g} gives Lambda t = "), err
        assert err[0].endswith(f" at level {level}, past the ceiling 1e+07"), err
        assert not out.exists()

    def test_time_past_the_ceiling_exits_2_before_the_diameter(self, tmp_path, capsys,
                                                               monkeypatch):
        # the drift-free holding rates off V_0 bound Lambda t = 1.2e8 below
        def refuse(*args):
            raise AssertionError("a refused run must not compute a diameter")

        monkeypatch.setattr(tw.LevelTower, "diameter", refuse)
        out = tmp_path / "out"
        assert run(["semigroup", "--level", "9", "--t", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("config error: --t 10 gives Lambda t = "), err
        assert err[0].endswith(" or more at level 9, past the ceiling 1e+07"), err
        assert not out.exists()

    @pytest.mark.parametrize("paths, t", [
        ("3", "2.9e5"),  # Lambda t about 1e7, under its own ceiling
        ("4", "2e5"),
        ("2000", "1000"),
        ("9000000", "0.001"),  # the samplers' per-path arrays and grid rows alone
    ])
    def test_simulate_log_past_the_ceiling_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   paths, t):
        def refuse(*args):
            raise AssertionError("a refused run must not sample")

        monkeypatch.setattr(mk, "sample_paths", refuse)
        out = tmp_path / "out"
        assert run(["simulate", "--level", "1", "--paths", paths, "--t", t,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"config error: --paths {paths} and --t {float(t):g} "), err
        assert err[0].endswith(" GiB of jumps, past the ceiling 1 GiB"), err
        assert not out.exists()

    def test_converge_samples_past_the_ceiling_exit_2(self, tmp_path, capsys, monkeypatch):
        # the path law's states at 144 B a path: 1e8 paths need 13 GiB
        def refuse(*args):
            raise AssertionError("a refused run must not sample")

        monkeypatch.setattr(mk, "ensemble_states", refuse)
        out = tmp_path / "out"
        assert run(["converge", "--levels", "1:2", "--reference-level", "3",
                    "--paths", "100000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("config error: --paths 100000000 needs about 13.4 GiB"), err
        assert not out.exists()

    def test_converge_without_path_law_levels_samples_nothing(self, tmp_path, monkeypatch):
        # no path-law level: no states, so no ceiling on --paths
        monkeypatch.setattr(mk, "ensemble_states", None)
        assert run(["converge", "--levels", "1:2", "--reference-level", "3", "--paths",
                    "100000000", "--path-law-max-level", "0", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("args", [
        ["check", "--level", "40"],
        ["semigroup", "--level", "14", "--t", "0.1"],
        ["check", "--level", "12", "--reference-level", "3"],
        ["check", "--level", "3", "--reference-level", "11"],
        ["converge", "--levels", "1:2", "--reference-level", "11"],
        ["check", "--level", "17", "--structure", "docs/configs/interval.json"],
        ["check", "--level", "1000000000"],
    ])
    def test_level_past_the_vertex_ceiling_exits_2_unbuilt(self, tmp_path, capsys, monkeypatch,
                                                           args):
        def refuse(*a, **k):
            raise AssertionError("a refused level must not be built")

        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        monkeypatch.setattr(tw, "build_level", refuse)
        start = time.monotonic()
        assert run([*args, "--out", str(tmp_path / "out")]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("config error: level ") and err[0].endswith(
            " has more than 100000 vertices, the ceiling"), err
        assert not (tmp_path / "out").exists()

    def test_simulate_one_long_path_passes_the_ceiling(self, tmp_path, monkeypatch):
        # Lambda t about 2e6 at 48 B a step, past the old per-round estimate
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(mk, "sample_paths", sampled)
        with pytest.raises(Sampled):
            run(["simulate", "--level", "1", "--paths", "1", "--t", "60000",
                 "--out", str(tmp_path / "out")])

    def test_config_values_take_the_flag_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": "1", "reference-level": 2,
                                   "paths": "50", "t": 0.1, "assumption": "B"}))
        out = tmp_path / "out"
        assert run(["check", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_report_json(out / "check_report.json")
        assert report["level"] == 1
        assert report["assumption"] == "B"

    @pytest.mark.parametrize("overrides", [
        {"level": "three"},
        {"level": 1.5},
        {"level": True},
        {"seed": [1]},
        {"assumption": "C"},
        {"paired": "yes"},
        {"mode": "check"},
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        assert run(["simulate", "--config", str(cfg), "--level", "1",
                    "--paths", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_retired_draws_option_exits_2(self, tmp_path, capsys):
        # the form checks are exact eigen-certificates; no draw count is taken
        with pytest.raises(SystemExit) as exc:
            run(["check", "--draws", "50", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --draws" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": 50}))
        assert run(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: unknown config key 'draws'"], err

    @pytest.mark.parametrize("failure", ["no_convergence", "nan_vectors"])
    def test_certificate_failure_exits_1(self, tmp_path, capsys, monkeypatch, failure):
        def broken_lanczos(apply, v, steps, **kwargs):
            return np.full((3, len(v)), np.nan), np.full((3, 2), np.nan)

        if failure == "no_convergence":  # the sandwich needs two Ritz values
            monkeypatch.setattr("driftform.drift.LANCZOS_STEPS", 1)
        else:
            monkeypatch.setattr("driftform.drift._arnoldi", broken_lanczos)
        assert run(["check", "--level", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:"), lines
        assert not (tmp_path / "check_report.json").exists()

    @pytest.mark.parametrize("mode, flags", [("simulate", []), ("semigroup", ["--f", "one"])])
    def test_negative_rate_exits_1_with_one_line(self, tmp_path, capsys, mode, flags):
        # admissible under assumption B, but the drift at vertex 2 along the
        # weak level-1 edge (2, 5) of the 0.9-scaled cell (c = 5/9) makes
        # 1 + eta = 1 - 2.2 / 2 negative
        drift_file = tmp_path / "drift.json"
        drift_file.write_text(json.dumps({
            "b": [{"samples": [0, 0, 2.2, 0, 0, 0]}],
            "h": [{"base_level": 1, "values": [0, 0, 0, 0, 0, 1]}]}))
        structure = Path(__file__).resolve().parents[1] / "docs" / "configs" / "sg_weighted.json"
        out = tmp_path / "out"
        assert run([mode, *flags, "--level", "1", "--assumption", "B",
                    "--structure", str(structure), "--drift", str(drift_file),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(
            "rate validation failure: 1 edges have negative rates; first: (2, 5, -0.1"), err
        assert not out.exists() or not any(out.iterdir())

    def test_check_refuses_a_drift_without_a_chain(self, tmp_path, capsys):
        # the drift of test_negative_rate_exits_1_with_one_line meets
        # assumption B's smallness, but it has a negative rate and fails SD4
        drift_file = tmp_path / "drift.json"
        drift_file.write_text(json.dumps({
            "b": [{"samples": [0, 0, 2.2, 0, 0, 0]}],
            "h": [{"base_level": 1, "values": [0, 0, 0, 0, 0, 1]}]}))
        structure = Path(__file__).resolve().parents[1] / "docs" / "configs" / "sg_weighted.json"
        out = tmp_path / "out"
        assert run(["check", "--level", "1", "--assumption", "B", "--structure", str(structure),
                    "--drift", str(drift_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["admissibility failure: rate validation violated (margin -0.1)",
                       "admissibility failure: SD4 (Markov property) violated (margin -1.2)"], err
        report = load_report_json(out / "check_report.json")
        assert report["admissible"] is False
        assert report["smallness"]["condition_I_satisfied"]
        assert not report["rate_validation"]["ok"] and not report["sd_axioms"]["sd4_passed"]

    def test_check_refuses_a_failing_sandwich(self, tmp_path, capsys, monkeypatch):
        # a sandwich certificate whose lower margin is -0.1 fails the
        # sandwich and, read off it, the drift bound; smallness still holds
        real = dr.certify_sandwich

        def failing(gen, s, lam):
            sw = real(gen, s, lam)
            low = Bracket(-s - 0.1, -s - 0.1, -s - 0.1, 0.0)
            return dr.SandwichReport(sw.level, s, lam, low, sw.theta_max)

        monkeypatch.setattr(dr, "certify_sandwich", failing)
        assert run(["check", "--level", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" violated")[0] for line in err] == [
            "admissibility failure: sandwich", "admissibility failure: drift bound"], err
        assert err[0].endswith("(margin -0.1)")
        report = load_report_json(tmp_path / "check_report.json")
        assert report["admissible"] is False and not report["sandwich"]["passed"]
        assert report["smallness"]["condition_I_satisfied"]

    def test_resolvent_singular_pivot_fails_closed(self, tmp_path, capsys, monkeypatch):
        # the finest vertex's row of the system zeroed with its entries kept:
        # the pivot block of its cell is exactly singular, so the solution is
        # NaN and its residual certificate fails
        real = spectral._eliminate

        def singular(a, bounds):
            a = a.copy()
            a.data[a.indptr[-2]:] = 0.0
            return real(a, bounds)

        monkeypatch.setattr(spectral, "_eliminate", singular)
        assert run(["resolvent", "--level", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines == ["numerical failure: resolvent solve residual nan exceeds tolerance"]

    def test_resolvent_residual_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a negative tolerance makes every solve fail its residual certificate
        monkeypatch.setattr("driftform.spectral.RESIDUAL_TOL", -1.0)
        assert run(["resolvent", "--level", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:"), err

    @pytest.mark.parametrize("mode_args", [
        ["semigroup", "--t", "-0.1"],
        ["semigroup", "--t", "nan"],
        ["simulate", "--t", "0.05,inf"],
        ["converge", "--levels", "1", "--reference-level", "2", "--t", "-1"],
        ["semigroup", "--t", "0.1x"],
        ["resolvent", "--alpha", "nan"],
        ["resolvent", "--alpha", "inf"],
        ["semigroup", "--f", "indicator:999"],
        ["semigroup", "--f", "indicator:-1"],
        ["semigroup", "--f", "indicator:abc"],
        ["semigroup", "--f", "harmonic:1,a,0"],
        ["converge", "--levels", "a", "--reference-level", "2"],
        ["converge", "--levels", "1:2:3", "--reference-level", "4"],
        ["simulate", "--paths", "-3"],
        ["simulate", "--paired", "--paths", "0"],
        ["simulate", "--paired", "--paths", "1"],
        ["converge", "--levels", "1", "--reference-level", "2", "--paths", "0"],
        ["converge", "--levels", "1", "--reference-level", "2", "--paths", "1"],
        ["semigroup", "--seed", "-1"],
        ["simulate", "--seed", str(2**64)],
        ["semigroup", "--f", "harmonic:nan,0,0"],
        ["resolvent", "--f", "harmonic:1,inf,0"],
        # a repeated value would solve twice into one file
        ["semigroup", "--t", "0.1,0.1"],
        ["resolvent", "--alpha", "30,30"],
    ])
    def test_bad_numeric_grid_exits_2(self, tmp_path, capsys, mode_args):
        assert run(mode_args + ["--level", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("mode_args", [
        ["check", "--level", "2"],
        ["converge", "--levels", "1", "--reference-level", "2", "--paths", "100"],
    ], ids=["check", "converge"])
    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.5", "0"])
    def test_bad_delta_exits_2(self, tmp_path, capsys, mode_args, delta):
        assert run(mode_args + ["--delta", delta, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "delta must be positive and finite" in err[0], err
        assert not (tmp_path / "check_report.json").exists()
        assert not (tmp_path / "converge_report.json").exists()

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_bad_delta_in_config_file_exits_2(self, tmp_path, capsys, delta):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"delta": delta}))
        assert run(["check", "--level", "2", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "delta must be positive and finite" in err[0], err

    @pytest.mark.parametrize("levels", ["2,1,1", "2,1", "1,1", "1,3,2", "2:1"])
    def test_levels_not_strictly_increasing_exit_2(self, tmp_path, capsys, levels):
        assert run(["converge", "--levels", levels, "--reference-level", "3",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0] == (
            f"config error: levels must be strictly increasing, got {levels!r}"
        ), err

    def test_level_range_and_list_parse(self):
        assert _parse_levels("1:3") == [1, 2, 3]
        assert _parse_levels("2:2") == [2]
        assert _parse_levels("1,3,5") == [1, 3, 5]

    @pytest.mark.parametrize("content, names", [
        ("0 0.5\n1 abc\n2 0.25\n", "line 2"),
        ("# vertex value\n0 0.5\n1 0.5 7\n2 0.25\n", "line 3"),
        ("0 0.5\n2 0.25\n", "vertex 1"),
        ("0 nan\n1 0\n2 0\n", "line 1"),
        ("0 0.5\n# inf\n1 -inf\n2 0.25\n", "line 3"),
        ("-1 5\n0 1\n1 0\n2 0\n", "line 1: vertex id -1 is negative"),
    ], ids=["non_numeric_value", "three_fields", "missing_id", "nan_value", "inf_value",
            "negative_id"])
    def test_malformed_vertex_function_file_exits_2(self, tmp_path, capsys, content, names):
        path = tmp_path / "f.txt"
        path.write_text(content)
        assert run(["semigroup", "--level", "0", "--f", str(path),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert str(path) in err[0] and names in err[0], err

    def test_repeated_vertex_id_exits_2(self, tmp_path, capsys):
        # the later value used to replace the earlier one without a word
        path = tmp_path / "f.txt"
        path.write_text("0 1\n0 5\n1 0\n2 0\n")
        assert run(["resolvent", "--level", "0", "--f", str(path),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {path} line 2: vertex 0 is listed twice"], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["check", "resolvent"])
    def test_non_finite_h_base_values_exit_2(self, tmp_path, capfd, mode):
        path = tmp_path / "drift.json"
        path.write_text(json.dumps({"b": [{"constant": 1e-3}],
                                    "h": [{"base_level": 0, "values": [1, "nan", 0]}]}))
        assert run([mode, "--level", "2", "--drift", str(path),
                    "--out", str(tmp_path / "out")]) == 2
        # capfd also sees what LAPACK would print straight to the descriptor
        err = capfd.readouterr().err.splitlines()
        assert err == ["config error: h base values must be finite"], err

    @pytest.mark.parametrize("flag", ["--f", "--drift", "--structure", "--config"])
    def test_undecodable_input_file_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00")
        assert run(["semigroup", "--level", "1", flag, str(path),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err


class TestDeterminism:
    @pytest.mark.parametrize("mode_args", [
        ["check", "--level", "2", "--reference-level", "3"],
        ["check", "--level", "6"],  # eigsh certificates from a fixed start vector
        ["converge", "--levels", "1:2", "--reference-level", "3",
         "--paths", "500", "--t", "0.05"],
        ["simulate", "--level", "1", "--paths", "40", "--t", "0.02,0.05"],
    ])
    def test_reports_identical_after_header(self, tmp_path, mode_args):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(mode_args + ["--seed", "3", "--out", str(out1)]) == 0
        assert run(mode_args + ["--seed", "3", "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            a, b = out1 / name, out2 / name
            if name.endswith(".jsonl"):
                assert a.read_bytes() == b.read_bytes(), name
            else:
                assert body_bytes(a) == body_bytes(b), name


class TestConverge:
    def test_emits_four_reports(self, tmp_path):
        assert run(["converge", "--levels", "1:3", "--reference-level", "4",
                    "--paths", "400", "--seed", "1", "--out", str(tmp_path)]) == 0
        for name in ("ks_norm.csv", "resolvent.csv", "semigroup.csv", "path_law.csv"):
            assert (tmp_path / name).exists(), name
        report = load_report_json(tmp_path / "converge_report.json")
        errs = report["reports"]["resolvent_sup"]["errors"]
        assert errs[-1] < errs[0]
        assert report["smallest_passing_level"] == 1
        assert report["sandwich_passed_by_level"] == {"1": True, "2": True, "3": True}
        margins = report["per_level_sandwich_margins"]
        assert sorted(margins) == ["1", "2", "3"]
        for level in margins.values():
            for entry in level.values():
                lo, hi = entry["bracket"]
                assert 0.0 < lo <= entry["value"] <= hi
        assert "lambda" in report["constants"]
        semigroup, path_law = report["reports"]["semigroup_sup"], report["reports"]["path_law"]
        assert semigroup["methods"] == {str(n): "chebyshev" for n in (1, 2, 3, 4)}
        assert path_law["methods"] == {str(n): "chebyshev" for n in (1, 2, 3, 4)}
        # both reports read each level's one block, so they share its bound
        assert path_law["bounds"] == semigroup["bounds"]
        assert sorted(semigroup["bounds"]) == ["1", "2", "3", "4"]

    def test_one_semigroup_block_per_level(self, tmp_path, monkeypatch):
        # the distinct columns of [f | x, y] at the path-law levels and the
        # reference, [f] elsewhere: f = x is solved once, f = one is not
        solve = spectral.semigroup_solve
        for f, width in (("x", 2), ("one", 3)):
            calls = []
            monkeypatch.setattr(spectral, "semigroup_solve",
                                lambda gen, t, f: calls.append((gen.level, f.shape[1]))
                                or solve(gen, t, f))
            assert run(["converge", "--levels", "1:3", "--reference-level", "4", "--paths",
                        "200", "--path-law-max-level", "2", "--f", f,
                        "--out", str(tmp_path / f)]) == 0
            assert sorted(calls) == [(1, width), (2, width), (3, 1), (4, width)], f

    def test_time_zero_semigroup_errors_vanish(self, tmp_path):
        assert run(["converge", "--levels", "1:2", "--reference-level", "3",
                    "--paths", "100", "--t", "0", "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "converge_report.json")
        assert report["reports"]["semigroup_sup"]["errors"] == [0.0, 0.0]

    def test_reference_must_exceed_levels(self, tmp_path):
        assert run(["converge", "--levels", "1:4", "--reference-level", "3",
                    "--out", str(tmp_path)]) == 2

    def test_negative_path_law_cap_refused(self, tmp_path, capsys):
        assert run(["converge", "--levels", "1:2", "--reference-level", "3", "--paths", "200",
                    "--path-law-max-level", "-5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: --path-law-max-level must be >= 0, got -5"], err
        assert not (tmp_path / "converge_report.json").exists()

    def test_path_law_cap_below_every_level_samples_nothing(self, tmp_path):
        # no level sampled: an empty path-law report, and no reference law
        assert run(["converge", "--levels", "1:2", "--reference-level", "3", "--paths", "200",
                    "--path-law-max-level", "0", "--out", str(tmp_path)]) == 0
        path_law = load_report_json(tmp_path / "converge_report.json")["reports"]["path_law"]
        assert path_law["errors"] == [] and path_law["mc"] == {}
        assert path_law["methods"] == {} and path_law["bounds"] == {}

    @pytest.mark.parametrize("flag, values, dropped", [
        ("--t", "0.1,0.2,0.5", "0.2, 0.5"),
        ("--alpha", "50,60", "60"),
    ])
    def test_list_of_times_or_shifts_refused(self, tmp_path, capsys, flag, values, dropped):
        # one time and one shift per report: the tail of a list is not dropped
        assert run(["converge", "--levels", "1:2", "--reference-level", "3",
                    flag, values, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert err[0].endswith(f"it would drop {dropped}") and flag in err[0]
        assert not (tmp_path / "converge_report.json").exists()


class TestSimulate:
    def test_zero_paths_writes_summary_only(self, tmp_path):
        assert run(["simulate", "--level", "1", "--paths", "0",
                    "--t", "0.05", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trajectories.jsonl").read_bytes() == b""
        body = body_bytes(tmp_path / "law_summary.csv").decode()
        assert body.splitlines()[0] == "time,state,frequency"
        assert len(body.splitlines()) == 1

    def test_paired_summary(self, tmp_path):
        assert run(["simulate", "--level", "1", "--paths", "300", "--t", "0.05",
                    "--paired", "--seed", "2", "--out", str(tmp_path)]) == 0
        lines = body_bytes(tmp_path / "paired_summary.csv").decode().splitlines()
        assert lines[0] == "time,function,mean_drift,mean_plain,difference,se_difference"
        assert len(lines) > 1

    def test_paired_without_drift_samples_each_time_once(self, tmp_path, monkeypatch):
        # the drift chain's states come from its paths and the drift-free
        # chain's from one ensemble over all times; the empty drift's chain
        # is the drift-free one, so it draws no ensemble and the two columns
        # agree exactly
        calls = []
        sample = mk.ensemble_states
        monkeypatch.setattr(mk, "ensemble_states",
                            lambda *a, **k: calls.append(a[0]) or sample(*a, **k))
        assert run(["simulate", "--drift", "none", "--level", "2", "--paths", "50",
                    "--t", "0.01,0.1", "--paired", "--out", str(tmp_path)]) == 0
        assert len(calls) == 0
        rows = body_bytes(tmp_path / "paired_summary.csv").decode().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            _, _, drift, plain, difference, se = row.split(",")
            assert (drift, difference, se) == (plain, "0.0", "0.0")

    def test_paired_drift_column_comes_from_the_paths(self, tmp_path, monkeypatch):
        # one drift-free ensemble over all times, and the drift column is
        # the mean over the written trajectory grid
        calls = []
        sample = mk.ensemble_states
        monkeypatch.setattr(mk, "ensemble_states",
                            lambda *a, **k: calls.append(a[2]) or sample(*a, **k))
        assert run(["simulate", "--level", "2", "--paths", "40", "--t", "0.1,0.01",
                    "--paired", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert calls == [[0.1, 0.01]]
        x = tw.sierpinski_tower().coordinates(2)[:, 0]
        grid = body_bytes(tmp_path / "trajectory_grid.csv").decode().splitlines()[1:]
        at = {}
        for line in grid:
            _, t, state = line.split(",")
            at.setdefault(t, []).append(x[int(state)])
        rows = body_bytes(tmp_path / "paired_summary.csv").decode().splitlines()[1:]
        means = {t: float(m) for t, name, m, *_ in (r.split(",") for r in rows) if name == "x"}
        assert means == {t: float(np.mean(v)) for t, v in at.items()}

    def test_law_summary_rows_parse(self, tmp_path):
        assert run(["simulate", "--level", "1", "--paths", "50", "--t", "0.02",
                    "--seed", "4", "--out", str(tmp_path)]) == 0
        lines = body_bytes(tmp_path / "law_summary.csv").decode().splitlines()
        total = 0.0
        for line in lines[1:]:
            t, s, freq = line.split(",")
            float(t), int(s)
            total += float(freq)
        assert total == pytest.approx(1.0)

    def test_oversized_drift_exits_1(self, tmp_path, oversized_drift):
        assert run(["simulate", "--level", "1", "--paths", "10",
                    "--drift", str(oversized_drift), "--out", str(tmp_path)]) == 1


class TestModes:
    @pytest.mark.parametrize("argv, count", [
        (["converge", "--levels", "1:3", "--reference-level", "4", "--paths", "200"], 12),
        (["check", "--level", "4"], 6),
    ])
    def test_each_matrix_is_eliminated_once_per_boundary(self, tmp_path, monkeypatch,
                                                         argv, count):
        # every elimination of the run, wherever it is made; a Laplacian's
        # traces, extensions and Green columns onto one boundary share one
        calls = []
        eliminate = resistance._eliminate

        def counted(a, bounds):
            calls.append((tuple(bounds), a.indptr.tobytes(), a.indices.tobytes(),
                          a.data.tobytes()))
            return eliminate(a, bounds)

        for module in (resistance, spectral, dr):
            monkeypatch.setattr(module, "_eliminate", counted)
        assert run([*argv, "--out", str(tmp_path)]) == 0
        assert len(calls) == count
        assert len(set(calls)) == count  # no matrix eliminated twice onto one set

    def test_resolvent_mode(self, tmp_path):
        assert run(["resolvent", "--level", "2", "--alpha", "8,12",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "resolvent_report.json")
        assert len(report["solves"]) == 2
        assert all(s["residual"] <= 1e-9 for s in report["solves"])
        assert (tmp_path / "resolvent_alpha_8.txt").exists()

    @pytest.mark.parametrize("argv, first, second", [
        (["semigroup", "--level", "2", "--t", "0.1000001,0.1000002"], "0.1000001", "0.1000002"),
        (["resolvent", "--level", "3", "--alpha", "13.60001,13.600012"],
         "13.60001", "13.600012"),
    ])
    def test_grid_values_sharing_a_file_name_rejected(self, tmp_path, capsys,
                                                      argv, first, second):
        # both would write one semigroup_t_0.1.txt or resolvent_alpha_13.6.txt
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert first in err[0] and second in err[0]
        assert not out.exists()

    def test_resolvent_alpha_below_lambda_rejected(self, tmp_path):
        assert run(["resolvent", "--level", "2", "--alpha", "0.5",
                    "--out", str(tmp_path)]) == 2

    def test_semigroup_mode(self, tmp_path):
        assert run(["semigroup", "--level", "2", "--t", "0.02,0.1",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "semigroup_report.json")
        assert all(a["markov_check"]["ok"] for a in report["applications"])
        for a in report["applications"]:
            assert a["method"] == a["markov_check"]["method"] == "chebyshev"
            assert a["truncation_order"] >= 1 and 1.0 <= a["growth"] <= 10.0
            assert a["tail_bound"] <= 1e-13 * a["growth"]
            assert "krylov" not in a

    def test_semigroup_mode_reports_krylov(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "KRYLOV_MIN_TAU", 1.0)
        assert run(["semigroup", "--level", "2", "--t", "0.1", "--out", str(tmp_path)]) == 0
        (a,) = load_report_json(tmp_path / "semigroup_report.json")["applications"]
        assert a["method"] == a["markov_check"]["method"] == "krylov"
        assert a["markov_check"]["ok"]
        k = a["krylov"]
        assert set(k) == {"dimension", "gamma", "s0", "bound", "start_degree"}
        assert a["truncation_order"] == k["start_degree"] + k["dimension"]
        assert k["bound"] <= a["tail_bound"] <= spectral.KRYLOV_TOL

    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 1, "drift": "none"}))
        out = tmp_path / "out"
        assert run(["check", "--level", "3", "--config", str(cfg),
                    "--out", str(out)]) == 0
        report = load_report_json(out / "check_report.json")
        assert report["level"] == 1
        assert report["smallness"]["drift_energy"] == 0.0

    def test_custom_structure(self, tmp_path, interval_config):
        assert run(["check", "--structure", interval_config,
                    "--drift", "none", "--level", "3", "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "check_report.json")
        assert report["structure"] == "interval"
        assert report["smallness"]["diam_proxy"] == pytest.approx(1.0)


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # scipy.stats costs most of a second to import and nothing in the
    # package needs it; the series coefficients come from numpy recurrences,
    # so no command loads scipy.special either.  The solves run through the
    # package's own elimination and the eigen-certificates through its own
    # Lanczos, so no command loads scipy.sparse.linalg (ARPACK) or
    # scipy.linalg (LAPACK), and csgraph never loads.  Each step runs in
    # the same interpreter, and a module once loaded stays, so the
    # certifying commands come last.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    watched = ["scipy.special", "scipy.stats", "scipy.sparse.csgraph",
               "scipy.sparse.linalg", "scipy.linalg"]
    steps = [[], ["semigroup", "--level", "2", "--t", "0.1"],
             ["simulate", "--level", "2", "--paths", "10", "--t", "0.1"],
             ["resolvent", "--level", "2"],
             ["converge", "--levels", "1:2", "--reference-level", "3", "--paths", "200"],
             ["check", "--level", "2"]]
    code = (
        "import json, sys\n"
        "import driftform.cli\n"
        "loaded = []\n"
        f"for argv in {steps!r}:\n"
        f"    if argv and driftform.cli.main(argv + ['--out', {str(tmp_path)!r}]):\n"
        "        sys.exit(f'{argv} failed')\n"
        f"    loaded.append([m for m in {watched!r} if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == [[]] * 6
