"""Cached hierarchy of complexes, networks and measures for one structure.

A :class:`LevelTower` owns everything that is shared between levels: the
base conductances, the per-symbol resistance scale factors and measure
weights, plus caches so each level is built once.  It also realizes drift
configurations consistently across levels (one base-level data set for the
reference functions, coefficients re-sampled per level), keeps the chain
generator of the realized drift (which carries the form matrices) once per
(level, drift configuration), and selects the derived constants against a
fixed proxy diameter so that all levels are compared with the same shift.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import drift as drift_mod
from . import markov as markov_mod
from .pcf import (
    LevelComplex,
    SelfSimilarStructure,
    StructureError,
    _number,
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
    def __init__(self, structure: SelfSimilarStructure):
        structure.validate()
        self.structure = structure
        self.scalings = tuple(structure.scalings or ())
        if not self.scalings:
            raise StructureError("no resistance scale factors configured")
        base = structure.base_conductances
        if not base:
            nb = structure.boundary_size
            base = [(a, b, 1.0) for a in range(nb) for b in range(a + 1, nb)]
        self.base_network = ConductanceNetwork.from_edges(base, structure.boundary_size)
        self._complexes: dict[int, LevelComplex] = {}
        self._networks: dict[int, ConductanceNetwork] = {}
        self._measures: dict[int, np.ndarray] = {}
        self._diameters: dict[int, float] = {}
        self._generators: dict[tuple, markov_mod.GeneratorMatrix] = {}  # (level, config)

    def complex(self, n: int) -> LevelComplex:
        """Level ``n``, refined from level ``n - 1`` if cached, else from 0."""
        if n not in self._complexes:
            self._complexes[n] = build_level(self.structure, n, self._complexes.get(n - 1))
        return self._complexes[n]

    def network(self, n: int) -> ConductanceNetwork:
        if n not in self._networks:
            self._networks[n] = assemble_self_similar(
                self.base_network, self.scalings, self.complex(n)
            )
        return self._networks[n]

    def measure(self, n: int) -> np.ndarray:
        if n not in self._measures:
            self._measures[n] = measure_weights(self.structure, self.complex(n))
        return self._measures[n]

    def diameter(self, n: int) -> float:
        """The resistance diameter of level ``n``, pruned by the cells of
        levels ``max(n // 2, 1) .. n``.  A level-``k`` cell ``w`` alone is the
        level-``n - k`` network scaled by ``r_w``, and the rest only lowers
        its resistances (Rayleigh), so ``r_w diam(V_{n-k})`` is its reach."""
        if n not in self._diameters:
            r, levels = np.asarray(self.scalings), range(max(n // 2, 1), n + 1)
            diameters = [self.diameter(n - k) for k in levels]  # refines levels in order
            cells = [(self.complex(k).cell_ids, self.complex(k).word_products(r) * d)
                     for k, d in zip(levels, diameters)]
            self._diameters[n] = resistance_diameter(self.network(n), cells)
        return self._diameters[n]

    def vertex_count(self, n: int) -> int:
        return self.complex(n).vertex_count

    def coordinates(self, n: int) -> np.ndarray | None:
        return self.complex(n).coordinates

    def trace_compatibility_gap(self) -> float:
        """Entrywise gap between the level-1 trace onto the boundary and the
        base network.  Zero (up to round-off) means the hierarchy is a
        compatible trace tower."""
        traced = trace(self.network(1), self.structure.boundary_size)
        gap = abs(traced.c - self.base_network.c)
        return float(gap.max()) if gap.nnz else 0.0

    def generator(self, n: int, config: DriftConfig | None) -> markov_mod.GeneratorMatrix:
        """Chain generator of level ``n`` under ``config`` (``None`` for the
        drift-free chain, whose realization has no terms), with its form
        matrices, built once; a realization that raises is not kept."""
        key = (n, config)
        if key not in self._generators:
            if config is None:
                empty = np.zeros((0, self.vertex_count(n)))
                drift = drift_mod.DriftSpec(n, empty, empty)
            else:
                drift = realize_drift(self, config, n)
            self._generators[key] = markov_mod.build_generator(
                self.network(n), drift, self.measure(n), level=n
            )
        return self._generators[key]


def sierpinski_tower() -> LevelTower:
    return LevelTower(build_sierpinski_structure())


# ---------------------------------------------------------------------------
# Drift configuration (documented in docs/drift_config.md)
# ---------------------------------------------------------------------------

def _payload(kind: str, payload):
    """A coefficient field's payload in its one hashable form: ``constant`` a
    float; ``samples`` the tuple of the values of the vertex ids ``0, 1,
    ...`` (a sequence as given, a mapping ``{id: value}`` up to the first id
    it lacks); any other kind a string."""
    if kind == "constant":
        return float(_number(payload))
    if kind != "samples":
        if not isinstance(payload, str):
            raise TypeError(f"{kind} must be a string, got {payload!r}")
        return payload
    if not isinstance(payload, Mapping):
        return tuple(float(_number(v)) for v in payload)
    given = {int(k): float(_number(v)) for k, v in payload.items()}
    if given and min(given) < 0:
        raise ValueError(f"samples id {min(given)} is negative")
    return tuple(given[k] for k in itertools.takewhile(given.__contains__, itertools.count()))


@dataclass(frozen=True)
class DriftConfig:
    """Level-independent description of the drift data, hashable.

    ``b_specs`` entries follow :func:`driftform.drift.sample_field`;
    ``h_specs`` entries are ``(base_level, values on the base vertex set)``.
    Construction brings every payload to one hashable form (see
    :func:`_payload`; booleans are refused as numbers) and ``base_level`` to
    an int, so equal data make equal configs and one generator-cache key.
    """

    b_specs: tuple
    h_specs: tuple

    def __post_init__(self):
        try:
            b_specs = tuple((kind, _payload(kind, payload)) for kind, payload in self.b_specs)
            h_specs = tuple(
                (operator.index(_number(m)), tuple(float(_number(v)) for v in vals))
                for m, vals in self.h_specs
            )
        except (TypeError, ValueError) as exc:
            raise drift_mod.DriftError(f"malformed drift config: {exc}") from exc
        object.__setattr__(self, "b_specs", b_specs)
        object.__setattr__(self, "h_specs", h_specs)

    @classmethod
    def from_dict(cls, d: Mapping) -> "DriftConfig":
        try:
            b_specs = []
            for entry in d["b"]:
                (kind, payload), = entry.items()
                b_specs.append((kind, payload))
            h_specs = [(entry["base_level"], entry["values"]) for entry in d["h"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise drift_mod.DriftError(f"malformed drift config: {exc}") from exc
        return cls(tuple(b_specs), tuple(h_specs))


def load_drift_config(path) -> DriftConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return DriftConfig.from_dict(json.load(fh))


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


def default_admissible_drift(tower: LevelTower, proxy_level: int) -> DriftConfig:
    """One constant-coefficient term at half the pointwise smallness
    threshold, over the harmonic extension of the base indicator
    ``(1, 0, ..., 0)``.

    The threshold takes the energy of that extension at the proxy level, the
    energy of ``h0`` on the proxy network traced onto ``V_0``; it equals the
    base energy only on a compatible trace tower.  Both smallness conditions
    hold with margin (for a single constant-coefficient term they coincide).
    """
    nb = tower.structure.boundary_size
    h0 = tuple(1.0 if k == 0 else 0.0 for k in range(nb))
    h_energy = energy(trace(tower.network(proxy_level), nb), np.array(h0))
    diam = tower.diameter(proxy_level)
    b_max = math.sqrt(1.0 / (h_energy * diam))
    return DriftConfig(
        (("constant", 0.5 * b_max),),
        ((0, h0),),
    )


def constants_for(
    tower: LevelTower,
    config: DriftConfig,
    level: int,
    proxy_level: int | None = None,
    delta: float | None = None,
) -> drift_mod.SmallnessReport:
    """Smallness report (and constants) for a drift at one working level.

    The proxy diameter defaults to the working level; multi-level studies
    pass their reference level so every level shares the same constants.
    """
    if proxy_level is None:
        proxy_level = level
    return drift_mod.smallness_report(
        tower.generator(level, config), tower.diameter(proxy_level), proxy_level, delta=delta
    )
