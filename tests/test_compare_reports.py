"""The report comparison script: what it counts as a difference."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_bodies_compared_after_the_header(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "check/check_report.json", "# generated 2026-01-01\n{}\n")
    write(head, "check/check_report.json", "# generated 2026-02-02\n{}\n")
    write(base, "sim/trajectories.jsonl", '{"x": 1}\n')
    write(head, "sim/trajectories.jsonl", '{"x": 1}\n')
    assert compare_reports.differences(base, head) == []


def test_changed_and_one_sided_files_listed(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "check/check_report.json", "# generated 2026-01-01\n{}\n")
    write(head, "check/check_report.json", "# generated 2026-01-01\n{\"a\": 1}\n")
    write(base, "sim/trajectories.jsonl", '{"x": 1}\n')
    write(head, "sim/trajectories.jsonl", '{"x": 2}\n')
    write(head, "sim/extra.txt", "")
    assert compare_reports.differences(base, head) == [
        "check/check_report.json: text differs", "sim/extra.txt (one side only)",
        "sim/trajectories.jsonl: largest change 1"]


def test_numbers_only_changes_give_the_largest(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "a.csv", "# generated 1\nlevel,gap\n6,0.6666666666665819\n7,-1.5e-3\n")
    write(head, "a.csv", "# generated 2\nlevel,gap\n6,0.6666666666666666\n7,-1.25e-3\n")
    assert compare_reports.differences(base, head) == ["a.csv: largest change 0.00025"]


def test_text_around_numbers_differs(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "a.json", '{"method": "chebyshev", "order": 724}\n')
    write(head, "a.json", '{"method": "uniformization", "order": 724}\n')
    write(base, "b.csv", "1,2\n")
    write(head, "b.csv", "1,2,3\n")
    assert compare_reports.differences(base, head) == [
        "a.json: text differs", "b.csv: text differs"]


def test_key_paths_and_columns_named(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    old = {"mode": "converge", "reports": {"path_law": {"mc": {"4": [
        {"mc_mean": 0.5, "exact": 0.4}, {"mc_mean": 0.25, "exact": 0.2}]}}}}
    new = json.loads(json.dumps(old))
    new["reports"]["path_law"]["mc"]["4"][1]["mc_mean"] = 0.3
    new["extra"] = [1]
    write(base, "c/converge_report.json", "# generated 1\n" + json.dumps(old) + "\n")
    write(head, "c/converge_report.json", "# generated 2\n" + json.dumps(new) + "\n")
    write(base, "c/path_law.csv", "# generated 1\nlevel,error,mc_mean\n1,0.1,0.5\n2,0.2,0.7\n")
    write(head, "c/path_law.csv", "# generated 2\nlevel,error,mc_mean\n1,0.1,0.5\n2,0.2,0.75\n")
    write(base, "c/law_summary.csv", "# generated 1\nstate,frequency\n0,1.0\n")
    write(head, "c/law_summary.csv", "# generated 2\nstate,frequency\n0,1.0\n1,0.0\n")
    assert [keys for _, keys in compare_reports._compare(base, head)] == [
        "keys: extra, reports.path_law.mc.4[1].mc_mean",
        "columns: (rows 1 -> 2)",
        "columns: mc_mean",
    ]
    assert compare_reports.changed_keys("a.json", b"[1, 2]", b"[1, 2, 3]") == "keys: (root)"
    assert compare_reports.changed_keys("t.jsonl", b"1", b"2") == ""
