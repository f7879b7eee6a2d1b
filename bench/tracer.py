"""Span tracer that instruments driftform from outside the package.

:meth:`Tracer.install` replaces every public module-level function of the
eight driftform modules, and every public ``LevelTower`` method, with a
wrapper that records a span.  Names re-bound by ``from .x import y`` in other
modules (``tower.build_level``, ``spectral.validate_rates``, ...) are replaced
by the same wrapper as the original, so calls between layers are caught and
attributed to the layer that defines the function.  Spans stay in memory and
are written by :meth:`Tracer.write_spans` at the end.

A few wrapped functions also feed work counters from their arguments and
return values (Poisson truncation orders, jump events, vertices built, ...).

The tracer's own cost is estimated, not measured by difference: the number
of spans times the cost of one wrapped call (:func:`wrapper_cost`), plus the
time spent in the counter hooks, which the wrappers time themselves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("pcf", "resistance", "drift", "markov", "spectral", "tower",
          "convergence", "cli")
MODULES = tuple(f"driftform.{layer}" for layer in LAYERS)

# Work counters fed by the hooks below; every wrapped function also gets a
# ``<name>.calls`` counter.
WORK_COUNTERS = (
    "spectral.poisson_terms", "spectral.matvec_nnz",
    "markov.jump_events", "markov.ensemble_path_times",
    "resistance.diameter_vertices", "drift.verify_draws", "pcf.vertices_built",
)


def _semigroup_solve(tr, a, r):
    tr.counters["spectral.poisson_terms"] += r.truncation_order
    tr.counters["spectral.matvec_nnz"] += r.truncation_order * a["gen"].L.nnz


def _simulate(tr, a, r):
    tr.counters["markov.jump_events"] += len(r.states) - 1


def _ensemble_states(tr, a, r):
    tr.counters["markov.ensemble_path_times"] += a["n_paths"] * len(a["times"])


def _resistance_diameter(tr, a, r):
    tr.counters["resistance.diameter_vertices"] += a["net"].n


def _realize_drift(tr, a, r):
    tr.drift_levels.add(int(a["level"]))


def _verify(tr, a, r):
    tr.counters["drift.verify_draws"] += a["draws"] * a["assembly"].n


def _build_level(tr, a, r):
    tr.counters["pcf.vertices_built"] += r.vertex_count


# name -> hook(tracer, bound arguments, return value)
COUNTER_HOOKS = {
    "spectral.semigroup_solve": _semigroup_solve,
    "markov.simulate": _simulate,
    "markov.ensemble_states": _ensemble_states,
    "resistance.resistance_diameter": _resistance_diameter,
    "tower.realize_drift": _realize_drift,
    "drift.verify_sandwich": _verify,
    "drift.verify_drift_bound": _verify,
    "drift.verify_SD_axioms": _verify,
    "pcf.build_level": _build_level,
}


class Tracer:
    """Records one span per wrapped call: ``[name, layer, start, end, parent]``
    with ``parent`` the index of the enclosing span (``-1`` at top level).

    ``inclusive`` holds the summed wall time per function name,
    ``counters`` the call counts and work counters, ``hook_s`` the time
    spent feeding the work counters.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter(dict.fromkeys(WORK_COUNTERS, 0))
        self.inclusive: defaultdict = defaultdict(float)
        self.drift_levels: set[int] = set()
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, func, name: str, layer: str):
        hook = COUNTER_HOOKS.get(name)
        self.counters[name + ".calls"] = 0
        signature = inspect.signature(func)
        spans, stack = self.spans, self._stack
        counters, inclusive = self.counters, self.inclusive
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                inclusive[name] += span[3] - span[2]
                counters[name + ".calls"] += 1
            if hook is not None:
                hook_start = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                self.hook_s += clock() - hook_start
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every driftform module, in every
        namespace that binds them, and the public ``LevelTower`` methods."""
        modules = [importlib.import_module(m) for m in MODULES]
        modules.append(importlib.import_module("driftform"))
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in MODULES):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._patch(module, attr, wrappers[id(obj)])
        tower_cls = importlib.import_module("driftform.tower").LevelTower
        for attr, obj in list(vars(tower_cls).items()):
            if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                self._patch(tower_cls, attr, self._wrap(obj, f"tower.{attr}", "tower"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - covered[k]
                for k, (name, layer, start, end, parent) in enumerate(self.spans)]

    def layer_self_times(self) -> dict[str, float]:
        """Per-layer sum of the self times of its spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span, self_time in zip(self.spans, self.span_self_times()):
            out[span[1]] += self_time
        return out

    def layer_metrics(self, run_s: float, span_cost: float) -> dict[str, float]:
        """Per-layer metrics of one traced invocation whose ``cli.main``
        took ``run_s`` seconds measured around the call, with
        ``span_cost`` seconds per wrapped call: self times, every counter,
        the rates and ratios derived from them, and the tracer's cost."""
        c = self.counters
        self_s = self.layer_self_times()
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update(c)
        solve_s = self.inclusive["spectral.semigroup_solve"]
        out["spectral.nnz_per_s"] = c["spectral.matvec_nnz"] / solve_s if solve_s else 0.0
        simulate_s = self.inclusive["markov.simulate"]
        out["markov.jumps_per_s"] = c["markov.jump_events"] / simulate_s if simulate_s else 0.0
        out["resistance.diameter_s"] = self.inclusive["resistance.resistance_diameter"]
        realized = c["tower.realize_drift.calls"]
        out["tower.distinct_levels"] = len(self.drift_levels)
        out["tower.reuse_ratio"] = len(self.drift_levels) / realized if realized else 0.0
        # The top-level span is cli.main itself; its own self time is what
        # no wrapper below it accounts for (command handlers reached through
        # the COMMANDS table, private helpers of cli, argument parsing).
        below_root = sum(t for span, t in zip(self.spans, self.span_self_times())
                         if span[4] >= 0)
        out["trace.coverage"] = below_root / run_s if run_s else 0.0
        out["trace.overhead_s"] = len(self.spans) * span_cost + self.hook_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _noop():
    pass


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call costs beyond the call itself: the least, over
    ``repeats`` rounds, of the per-call time of a wrapped no-op minus that of
    the bare no-op."""
    tracer = Tracer("wrapper-cost")
    wrapped = tracer._wrap(_noop, "cli.noop", "cli")
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        start = clock()
        for _ in range(calls):
            _noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (clock() - start - bare) / calls)
    return max(best, 0.0)


def import_times(stderr_text: str) -> dict[str, float]:
    """Seconds spent importing each driftform module, from ``-X importtime``
    output.

    Each line's self time is charged to its nearest driftform-module
    ancestor (or itself), so third-party imports land on the module that
    first pulls them in (``scipy.stats`` on ``spectral``) and the values
    add up to the cost of importing the package.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        stripped = name.lstrip(" ")
        rows.append(((len(name) - len(stripped) - 1) // 2, stripped.strip(), int(self_us)))
    out = dict.fromkeys(MODULES, 0.0)
    stack: list[tuple[int, str | None]] = []
    # Lines come in post-order (children before parents); reversed, each
    # parent precedes its children.
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = name if name in out else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            out[owner] += self_us * 1e-6
    return {f"{m.split('.', 1)[1]}.import_s": v for m, v in out.items()}
