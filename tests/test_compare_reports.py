"""The report comparison script: what it counts as a difference."""

import importlib.util
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
