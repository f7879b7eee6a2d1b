"""The per-(level, drift) context of a LevelTower: the realized drift and
the chain generator, which carries the form matrices, are built once and
shared."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from driftform import drift, markov, pcf
from driftform import tower as tw
from driftform.cli import main
from driftform.drift import DriftError
from driftform.pcf import StructureError
from driftform.resistance import energy


def counting(monkeypatch, module, name, levels=None):
    """Replace ``module.name`` by a wrapper that records the level of every
    call (its ``level`` argument, else the level of its drift argument);
    returns the list of recorded levels, ``levels`` if given."""
    original = getattr(module, name)
    levels = [] if levels is None else levels

    def wrapper(*args, **kwargs):
        if "level" in kwargs:
            levels.append(kwargs["level"])
        else:
            levels.append(args[2] if len(args) > 2 else args[1].level)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return levels


class TestContext:
    def test_generator_and_assembly_built_once(self, sg_tower, admissible_cfg):
        gen = sg_tower.generator(2, admissible_cfg)
        assert sg_tower.generator(2, admissible_cfg) is gen
        # the form matrices are assembled on first use and kept
        assert gen.E_matrix is gen.E_matrix and gen.Q_matrix is gen.Q_matrix
        assert sg_tower.generator(2, None) is sg_tower.generator(2, None)

    def test_equal_configs_share_one_entry(self, tmp_path, monkeypatch, admissible_cfg):
        tower = tw.sierpinski_tower()
        realized = counting(monkeypatch, tw, "realize_drift")
        path = tmp_path / "drift.json"
        (kind, value), = admissible_cfg.b_specs
        (base_level, values), = admissible_cfg.h_specs
        path.write_text(json.dumps({"b": [{kind: value}],
                                    "h": [{"base_level": base_level, "values": values}]}))
        first, second = tw.load_drift_config(path), tw.load_drift_config(path)
        assert first is not second
        gen = tower.generator(2, first)
        assert tower.generator(2, second) is gen
        assert realized == [2]
        # the drift-free chain, another config and another level are other entries
        assert tower.generator(2, None) is not gen
        other = tw.DriftConfig((("constant", 0.1),), first.h_specs)
        assert tower.generator(2, other) is not gen
        assert tower.generator(3, first) is not gen
        assert realized == [2, 2, 3]

    def test_unhashable_samples_payload(self):
        tower = tw.sierpinski_tower()
        n = tower.vertex_count(2)
        cfg = tw.DriftConfig((("samples", [0.1] * n),), ((0, (1.0, 0.0, 0.0)),))
        again = tw.DriftConfig((("samples", {k: 0.1 for k in range(n)}),),
                               ((0, (1.0, 0.0, 0.0)),))
        assert tower.generator(2, cfg) is tower.generator(2, cfg)
        # a mapping is the tuple of its values at ids 0, 1, ...: one config
        assert again == cfg and hash(again) == hash(cfg)
        assert tower.generator(2, again) is tower.generator(2, cfg)

    def test_failed_realization_is_not_cached(self, monkeypatch, admissible_cfg):
        tower = tw.sierpinski_tower()
        original = tw.realize_drift
        calls = []

        def fails_once(tower_, config, level):
            calls.append(level)
            if len(calls) == 1:
                raise DriftError("transient failure")
            return original(tower_, config, level)

        monkeypatch.setattr(tw, "realize_drift", fails_once)
        with pytest.raises(DriftError):
            tower.generator(1, admissible_cfg)
        gen = tower.generator(1, admissible_cfg)
        assert tower.generator(1, admissible_cfg) is gen
        tw.constants_for(tower, admissible_cfg, 1)  # shares the realized drift
        assert calls == [1, 1]

    def test_converge_realizes_and_builds_each_level_once(self, tmp_path, monkeypatch):
        realized = counting(monkeypatch, tw, "realize_drift")
        built = counting(monkeypatch, markov, "build_generator")
        assert main(["converge", "--levels", "1:2", "--reference-level", "3",
                     "--paths", "200", "--out", str(tmp_path)]) == 0
        assert sorted(realized) == [1, 2, 3]
        assert sorted(built) == [1, 2, 3]

    @pytest.mark.parametrize("argv, levels", [
        (["check", "--level", "4"], [4]),
        (["check", "--level", "2", "--drift", "none"], [2]),
        (["converge", "--levels", "1:3", "--reference-level", "4", "--paths", "200"],
         [1, 2, 3, 4]),
    ], ids=["check", "check_no_drift", "converge"])
    def test_edge_weights_computed_once_per_level(self, tmp_path, monkeypatch, argv, levels):
        # every consumer of eta (rates, condition (I), the drift matrix, the
        # edge certificates) reads the generator's stored copy
        etas = []
        for module in (drift, markov):
            counting(monkeypatch, module, "eta_edge_values", etas)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert sorted(etas) == levels


class TestLevelRecursion:
    """Each level is refined once, from the cached level below it."""

    @staticmethod
    def refinements(monkeypatch) -> list:
        """Record the level each refinement step builds."""
        original, built = pcf._refine, []

        def step(structure, pattern, cx):
            built.append(cx.level + 1)
            return original(structure, pattern, cx)

        monkeypatch.setattr(pcf, "_refine", step)
        return built

    def test_each_level_refined_once(self, monkeypatch):
        built = self.refinements(monkeypatch)
        tower = tw.LevelTower(pcf.build_sierpinski_structure())
        levels = [tower.complex(n) for n in range(8)]  # ascending, as runs ask
        assert [cx.level for cx in levels] == list(range(8))
        assert built == list(range(1, 8))  # 28 when each level starts at 0
        assert tower.complex(3) is levels[3] and tower.complex(7) is levels[7]
        assert built == list(range(1, 8))
        assert levels[4].coarser_counts[:4] == levels[3].coarser_counts + (
            levels[3].vertex_count,)

    def test_single_level_is_one_build(self, monkeypatch):
        """A fresh tower asked for one level calls ``build_level`` once, so
        the per-call counters of a run keep their meaning."""
        built, original, calls = self.refinements(monkeypatch), tw.build_level, []

        def build(structure, n, coarser=None):
            calls.append((n, coarser))
            return original(structure, n, coarser)

        monkeypatch.setattr(tw, "build_level", build)
        tower = tw.LevelTower(pcf.build_sierpinski_structure())
        tower.complex(5)
        assert calls == [(5, None)] and built == list(range(1, 6))
        assert sorted(tower._complexes) == [5]

    def test_negative_level_raises_without_recursion(self, tmp_path, capsys, monkeypatch):
        built = self.refinements(monkeypatch)
        tower = tw.LevelTower(pcf.build_sierpinski_structure())
        with pytest.raises(StructureError, match="level must be >= 0"):
            tower.complex(-1)
        assert built == [] and not tower._complexes
        assert main(["check", "--level", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: level must be >= 0, got -1"]

    def test_edges_derived_on_first_use(self):
        cx = tw.LevelTower(pcf.build_sierpinski_structure()).complex(2)
        assert "edges" not in vars(cx)
        pairs = [(a, b) for a, b in cx.edges]  # as the benchmark reads them
        assert len(pairs) == 27 and all(a < b for a, b in pairs)
        assert cx.edges is cx.edges


class TestDefaultDrift:
    @pytest.mark.parametrize("proxy_level", [2, 6])
    def test_gasket_size_matches_the_base_energy(self, sg_tower, proxy_level):
        # on a compatible trace tower the traced energy of h0 is its base energy
        (kind, b), = tw.default_admissible_drift(sg_tower, proxy_level).b_specs
        base = energy(sg_tower.base_network, np.array([1.0, 0.0, 0.0]))
        assert kind == "constant"
        assert b == pytest.approx(0.5 / math.sqrt(base * sg_tower.diameter(proxy_level)),
                                  rel=1e-14)

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_weighted_gasket_default_is_admissible(self, tmp_path, level):
        # the level energy of h0 outgrows its base energy on this tower
        structure = Path(__file__).resolve().parents[1] / "docs" / "configs" / "sg_weighted.json"
        assert main(["check", "--level", str(level), "--structure", str(structure),
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "check_report.json").read_text().split("\n", 1)[1]
        report = json.loads(text)
        assert report["admissible"] is True
        assert report["sandwich"]["passed"] and report["drift_bound"]["passed"]
        assert report["sd_axioms"]["passed"]
