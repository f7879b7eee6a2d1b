"""Command-line contract: exit codes, file outputs, determinism."""

import json

import pytest

from driftform.cli import load_report_json, main
from driftform.tower import DriftConfig, save_drift_config


def run(args):
    return main(args)


def body_bytes(path):
    """File content with the single timestamp header line stripped."""
    lines = path.read_bytes().split(b"\n")
    assert lines[0].startswith(b"# generated "), path
    return b"\n".join(lines[1:])


@pytest.fixture()
def oversized_drift(tmp_path):
    path = tmp_path / "big_drift.json"
    save_drift_config(
        DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),)), path
    )
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

    def test_check_default_admissible(self, tmp_path):
        assert run(["check", "--level", "2", "--reference-level", "4",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "check_report.json")
        assert report["admissible"] is True
        assert report["sd_axioms"]["passed"] is True
        assert report["sandwich"]["passed"] is True
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

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--no-such-flag"])
        assert exc.value.code == 2

    def test_non_numeric_drift_samples_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps({"b": [{"samples": ["a"]}],
                                   "h": [{"base_level": 0, "values": [1.0, 0.0, 0.0]}]}))
        assert run(["check", "--level", "1", "--drift", str(bad),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_key": 1}))
        assert run(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_converge_alpha_below_lambda_exits_2(self, tmp_path, capsys):
        assert run(["converge", "--levels", "1", "--reference-level", "2",
                    "--alpha", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_config_values_take_the_flag_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": "1", "reference-level": 2,
                                   "draws": "50", "t": 0.1, "assumption": "B"}))
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
        ["check", "--draws", "0"],
        ["check", "--draws", "-5"],
        ["simulate", "--paths", "-3"],
        ["converge", "--levels", "1", "--reference-level", "2", "--paths", "0"],
        ["converge", "--levels", "1", "--reference-level", "2", "--paths", "1"],
    ])
    def test_bad_numeric_grid_exits_2(self, tmp_path, capsys, mode_args):
        assert run(mode_args + ["--level", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err


class TestDeterminism:
    @pytest.mark.parametrize("mode_args", [
        ["check", "--level", "2", "--reference-level", "3"],
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
        assert "lambda" in report["constants"]

    def test_time_zero_semigroup_errors_vanish(self, tmp_path):
        assert run(["converge", "--levels", "1:2", "--reference-level", "3",
                    "--paths", "100", "--t", "0", "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "converge_report.json")
        assert report["reports"]["semigroup_sup"]["errors"] == [0.0, 0.0]

    def test_reference_must_exceed_levels(self, tmp_path):
        assert run(["converge", "--levels", "1:4", "--reference-level", "3",
                    "--out", str(tmp_path)]) == 2


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
    def test_resolvent_mode(self, tmp_path):
        assert run(["resolvent", "--level", "2", "--alpha", "8,12",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "resolvent_report.json")
        assert len(report["solves"]) == 2
        assert all(s["residual"] <= 1e-9 for s in report["solves"])
        assert (tmp_path / "resolvent_alpha_8.txt").exists()

    def test_resolvent_alpha_below_lambda_rejected(self, tmp_path):
        assert run(["resolvent", "--level", "2", "--alpha", "0.5",
                    "--out", str(tmp_path)]) == 2

    def test_semigroup_mode(self, tmp_path):
        assert run(["semigroup", "--level", "2", "--t", "0.02,0.1",
                    "--out", str(tmp_path)]) == 0
        report = load_report_json(tmp_path / "semigroup_report.json")
        assert all(a["markov_check"]["ok"] for a in report["applications"])

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
