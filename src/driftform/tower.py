"""Cached hierarchy of complexes, networks and measures for one structure.

A :class:`LevelTower` owns everything that is shared between levels: the
base conductances, the per-symbol resistance scale factors and measure
weights, plus caches so each level is built once.  It also realizes drift
configurations consistently across levels (one base-level data set for the
reference functions, coefficients re-sampled per level), keeps the realized
drift, its form assembly and its chain generator once per (level, drift
configuration), and selects the derived constants against a fixed proxy
diameter so that all levels are compared with the same shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import drift as drift_mod
from . import markov as markov_mod
from .pcf import (
    LevelComplex,
    SelfSimilarStructure,
    StructureError,
    build_level,
    build_sierpinski_structure,
    measure_weights,
)
from .resistance import (
    ConductanceNetwork,
    assemble_self_similar,
    energy,
    resistance_diameter,
    trace,
)


class LevelTower:
    def __init__(
        self,
        structure: SelfSimilarStructure,
        scalings: Sequence[float] | None = None,
        theta: Sequence[float] | None = None,
        base_conductances: Sequence[tuple[int, int, float]] | None = None,
    ):
        structure.validate()
        self.structure = structure
        self.scalings = tuple(
            scalings if scalings is not None else (structure.scalings or ())
        )
        if not self.scalings:
            raise StructureError("no resistance scale factors configured")
        self.theta = tuple(theta) if theta is not None else structure.weights
        base = (
            base_conductances
            if base_conductances is not None
            else structure.base_conductances
        )
        if not base:
            nb = structure.boundary_size
            base = [(a, b, 1.0) for a in range(nb) for b in range(a + 1, nb)]
        self.base_network = ConductanceNetwork.from_edges(
            base, vertices=range(structure.boundary_size)
        )
        self._complexes: dict[int, LevelComplex] = {}
        self._networks: dict[int, ConductanceNetwork] = {}
        self._measures: dict[int, np.ndarray] = {}
        self._diameters: dict[int, float] = {}
        # keyed by (level, _config_key(config))
        self._drifts: dict[tuple, drift_mod.DriftSpec] = {}
        self._generators: dict[tuple, markov_mod.GeneratorMatrix] = {}
        self._assemblies: dict[tuple, drift_mod.FormAssembly] = {}

    def complex(self, n: int) -> LevelComplex:
        if n not in self._complexes:
            self._complexes[n] = build_level(self.structure, n)
        return self._complexes[n]

    def network(self, n: int) -> ConductanceNetwork:
        if n not in self._networks:
            self._networks[n] = assemble_self_similar(
                self.base_network, self.scalings, self.complex(n)
            )
        return self._networks[n]

    def measure(self, n: int) -> np.ndarray:
        if n not in self._measures:
            self._measures[n] = measure_weights(
                self.structure, self.complex(n), self.theta
            )
        return self._measures[n]

    def diameter(self, n: int) -> float:
        if n not in self._diameters:
            self._diameters[n] = resistance_diameter(self.network(n))
        return self._diameters[n]

    def vertex_count(self, n: int) -> int:
        return self.complex(n).vertex_count

    def coordinates(self, n: int) -> np.ndarray | None:
        return self.complex(n).coordinates

    def trace_compatibility_gap(self) -> float:
        """Entrywise gap between the level-1 trace onto the boundary and the
        base network.  Zero (up to round-off) means the hierarchy is a
        compatible trace tower."""
        traced = trace(self.network(1), range(self.structure.boundary_size))
        gap = abs(traced.c - self.base_network.c)
        return float(gap.max()) if gap.nnz else 0.0

    def _drift(self, n: int, config: DriftConfig | None) -> drift_mod.DriftSpec | None:
        """``config`` realized at level ``n`` once (``None`` for the drift-free
        chain); a realization that raises is not kept."""
        if config is None:
            return None
        key = (n, _config_key(config))
        if key not in self._drifts:
            self._drifts[key] = realize_drift(self, config, n)
        return self._drifts[key]

    def _built(self, cache: dict, build, n: int, config: DriftConfig | None):
        key = (n, _config_key(config))
        if key not in cache:
            cache[key] = build(
                self.network(n), self._drift(n, config), self.measure(n), level=n
            )
        return cache[key]

    def generator(self, n: int, config: DriftConfig | None) -> markov_mod.GeneratorMatrix:
        """Chain generator of level ``n`` under ``config``, built once."""
        return self._built(self._generators, markov_mod.build_generator, n, config)

    def assembly(self, n: int, config: DriftConfig | None) -> drift_mod.FormAssembly:
        """Form assembly of level ``n`` under ``config``, built once."""
        return self._built(self._assemblies, drift_mod.assemble_forms, n, config)


def sierpinski_tower() -> LevelTower:
    return LevelTower(build_sierpinski_structure())


# ---------------------------------------------------------------------------
# Drift configuration (documented in docs/drift_config.md)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftConfig:
    """Level-independent description of the drift data.

    ``b_specs`` entries follow :func:`driftform.drift.sample_field`;
    ``h_specs`` entries are ``(base_level, values on the base vertex set)``.
    """

    b_specs: tuple
    h_specs: tuple

    @property
    def N(self) -> int:
        return len(self.b_specs)

    def to_dict(self) -> dict:
        b_entries = []
        for kind, payload in self.b_specs:
            if kind == "samples":
                if isinstance(payload, Mapping):
                    payload = {str(k): float(v) for k, v in payload.items()}
                else:
                    payload = [float(v) for v in payload]
            b_entries.append({kind: payload})
        return {
            "b": b_entries,
            "h": [
                {"base_level": m, "values": list(vals)} for m, vals in self.h_specs
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DriftConfig":
        try:
            b_specs = []
            for entry in d["b"]:
                (kind, payload), = entry.items()
                if kind == "samples":
                    payload = ({int(k): float(v) for k, v in payload.items()}
                               if isinstance(payload, Mapping) else [float(v) for v in payload])
                b_specs.append((kind, payload))
            h_specs = [
                (int(entry["base_level"]), tuple(float(v) for v in entry["values"]))
                for entry in d["h"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise drift_mod.DriftError(f"malformed drift config: {exc}") from exc
        return cls(tuple(b_specs), tuple(h_specs))


def _config_key(config: DriftConfig | None) -> str | None:
    """Cache key of a drift configuration: equal for configurations with the
    same content (``samples`` payloads make the dataclass unhashable)."""
    return None if config is None else json.dumps(config.to_dict(), sort_keys=True)


def load_drift_config(path) -> DriftConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return DriftConfig.from_dict(json.load(fh))


def save_drift_config(config: DriftConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def zero_drift_config(boundary_size: int) -> DriftConfig:
    """Coefficient-free drift: one vanishing term over the base indicator."""
    h0 = tuple(1.0 if k == 0 else 0.0 for k in range(boundary_size))
    return DriftConfig((("constant", 0.0),), ((0, h0),))


def realize_drift(tower: LevelTower, config: DriftConfig, level: int) -> drift_mod.DriftSpec:
    """Realize a drift configuration at one level of the tower."""
    net = tower.network(level)
    for m, vals in config.h_specs:
        if len(vals) != tower.vertex_count(m):
            raise drift_mod.DriftError(
                f"h base data has {len(vals)} values but level {m} has "
                f"{tower.vertex_count(m)} vertices"
            )
        if m > level:
            raise drift_mod.DriftError(
                f"h base level {m} is finer than working level {level}"
            )
    return drift_mod.make_drift(
        net, level, config.b_specs, config.h_specs, tower.coordinates(level)
    )


def default_admissible_drift(
    tower: LevelTower,
    proxy_level: int = 6,
    fraction: float = 0.5,
) -> DriftConfig:
    """One constant-coefficient term at ``fraction`` of the pointwise
    smallness threshold, over the harmonic extension of the base indicator
    ``(1, 0, ..., 0)``.

    At ``fraction <= 1`` both smallness conditions hold (for a single
    constant-coefficient term they coincide), with margin for ``fraction < 1``.
    """
    h0 = tuple(1.0 if k == 0 else 0.0 for k in range(tower.structure.boundary_size))
    h_energy = energy(tower.base_network, np.array(h0))
    diam = tower.diameter(proxy_level)
    b_max = math.sqrt(1.0 / (h_energy * diam))
    return DriftConfig(
        (("constant", fraction * b_max),),
        ((0, h0),),
    )


def constants_for(
    tower: LevelTower,
    config: DriftConfig,
    level: int,
    proxy_level: int | None = None,
    delta: float | None = None,
    s: float | None = None,
) -> tuple[drift_mod.DriftSpec, drift_mod.SmallnessReport]:
    """Smallness report (and constants) for a drift at one working level.

    The proxy diameter defaults to the working level; multi-level studies
    pass their reference level so every level shares the same constants.
    """
    if proxy_level is None:
        proxy_level = level
    spec = tower._drift(level, config)
    report = drift_mod.smallness_report(
        tower.network(level),
        spec,
        tower.diameter(proxy_level),
        proxy_level,
        delta=delta,
        s=s,
    )
    return spec, report
