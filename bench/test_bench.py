"""Self-tests of the benchmark on its smoke configuration (tiny inputs).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, group):
    proc = _bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    spec = run.load_spec()
    results = json.loads(lines[-1])
    assert list(results) == list(run.SMOKE_WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(results)
    units = {m["name"]: m["unit"] for m in spec[group]}
    for name, res in results.items():
        record = json.loads((run.OUT / "results" / f"{name}-seed0-trace{trace}.json").read_text())
        assert set(units) <= set(record["result"]["metrics"]), "metric never measured"
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] == (1 if trace else run.MIN_SAMPLES)
        assert {k: m["unit"] for k, m in res["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert f"  {name} " in table and f" {unit}" in table
    assert "failed_frac" in table


def test_single_workload_prints_one_result():
    proc = _bench("--workload", "semigroup_l6", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == {
        "correct", "attempted", "failed", "metrics"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "semigroup_l6", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_wrappers_catch_rebound_imports():
    sys.path.insert(0, str(run.SRC))
    import driftform.markov as mk
    import driftform.spectral as sp
    import driftform.tower as tw

    original = tw.build_level
    tr = tracer.Tracer("test")
    tr.install()
    try:
        # from-imported names share the wrapper of the defining module
        assert sp.validate_rates is mk.validate_rates
        assert sp.validate_rates.__wrapped__ is not None
        tower = tw.sierpinski_tower()
        sp.validate_rates(tower.generator(2, None))
    finally:
        tr.uninstall()
    assert tw.build_level is original and not hasattr(sp.validate_rates, "__wrapped__")
    spans = {s[0]: s for s in tr.spans}
    name, layer, _, _, parent = spans["pcf.build_level"]
    assert layer == "pcf" and tr.spans[parent][0] == "tower.complex"
    assert spans["markov.validate_rates"][1] == "markov"
    assert spans["markov.build_generator"][4] == tr.spans.index(spans["tower.generator"])
    assert tr.counters["pcf.vertices_built"] == run.sg_vertices(2)
    self_s = tr.layer_self_times()
    total = sum(s[3] - s[2] for s in tr.spans if s[4] == -1)
    assert sum(self_s.values()) == pytest.approx(total)


def _truncate_json(out_dir):
    path = out_dir / "semigroup_report.json"
    path.write_text(path.read_text()[:-30])


def _non_edge_jump(out_dir):
    path = out_dir / "trajectories.jsonl"
    lines = path.read_text().splitlines()
    first = json.loads(lines[0])
    first["states"] = [first["states"][0]] * len(first["states"])
    lines[0] = json.dumps(first)
    path.write_text("\n".join(lines) + "\n")


def _drop_header(out_dir):
    path = out_dir / "path_law.csv"
    path.write_text(path.read_text().split("\n", 1)[1])


@pytest.mark.parametrize("workload, corrupt", [
    ("semigroup_l6", _truncate_json),
    ("simulate_l4", _non_edge_jump),
    ("converge_ref7", _drop_header),
])
def test_corrupted_report_is_counted_as_failed(monkeypatch, tmp_path, workload, corrupt):
    real_check = run.check_invocation

    def corrupting_check(w, out_dir, adjacency=None):
        corrupt(out_dir)
        return real_check(w, out_dir, adjacency)

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "check_invocation", corrupting_check)
    record = run.run_workload(run.SMOKE_WORKLOADS[workload], 0, 0, False)
    assert record["result"]["attempted"] == run.MIN_SAMPLES
    assert record["result"]["failed"] == run.MIN_SAMPLES
    assert not record["result"]["correct"] and record["problems"]


def test_deadline_stops_the_loop_instead_of_cutting_an_invocation(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    # no second invocation can finish before the deadline
    monkeypatch.setattr(run, "DEADLINE_MARGIN", 1e6)
    record = run.run_workload(run.SMOKE_WORKLOADS["semigroup_l6"], 0, 0, False)
    assert record["result"]["attempted"] == 1
    assert record["result"]["correct"] and record["result"]["failed"] == 0


def test_no_invocation_starts_that_would_end_after_the_measuring_time(monkeypatch, tmp_path):
    clock = [0.0]

    def ten_second_invocation(*args, **kwargs):
        clock[0] += 10.0
        return {"problems": [], "digests": {}, "wall_s": 10.0, "run_s": 9.0,
                "import_s": 0.5, "peak_rss_mb": 100.0}

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(run, "invoke", ten_second_invocation)
    # a fifth invocation would end at 50 s
    record = run.run_workload(run.SMOKE_WORKLOADS["semigroup_l6"], 0, 45, False)
    assert record["result"]["attempted"] == 4 and record["result"]["correct"]
    # the minimum sample count overrides the measuring time
    record = run.run_workload(run.SMOKE_WORKLOADS["semigroup_l6"], 0, 5, False)
    assert record["result"]["attempted"] == run.MIN_SAMPLES


def test_coverage_leaves_out_the_root_span_and_overhead_is_positive():
    tr = tracer.Tracer("test")
    tr.spans[:] = [["cli.main", "cli", 0.0, 10.0, -1],
                   ["spectral.semigroup_solve", "spectral", 1.0, 4.0, 0],
                   ["markov.validate_rates", "markov", 2.0, 3.0, 1]]
    tr.hook_s = 0.5
    metrics = tr.layer_metrics(10.0, span_cost=0.01)
    assert metrics["cli.self_s"] == pytest.approx(7.0)
    assert metrics["spectral.self_s"] == pytest.approx(2.0)
    assert metrics["trace.coverage"] == pytest.approx(0.3)
    assert metrics["trace.overhead_s"] == pytest.approx(0.53)
    assert 0.0 < tracer.wrapper_cost(calls=2000, repeats=2) < 1e-3


def test_import_times_charge_third_party_imports_to_the_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |        110 |     driftform.pcf",
        "import time:       500 |        500 |       scipy.stats",
        "import time:        20 |        520 |     driftform.spectral",
        "import time:         5 |        635 |   driftform",
        "import time:         7 |        642 | driftform.cli",
    ])
    times = tracer.import_times(text)
    assert times["pcf.import_s"] == pytest.approx(110e-6)
    assert times["spectral.import_s"] == pytest.approx(520e-6)
    assert times["cli.import_s"] == pytest.approx(12e-6)
    assert sum(times.values()) == pytest.approx(642e-6)
