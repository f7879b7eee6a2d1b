"""Drift perturbations of network energies and their admissibility checks.

The perturbation data is a batch of scalar fields ``b_i`` sampled at the
working level together with piecewise-harmonic reference functions ``h_i``
(harmonic extensions of base-level data).  Adding the induced first-order
terms to the symmetric energy gives a non-symmetric bilinear form; this
module assembles the form matrices, evaluates the global and pointwise
smallness conditions with their derived constants ``(delta, s, t, lambda)``,
and verifies the closed-form and Markov axioms on seeded random batches.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .resistance import ConductanceNetwork, harmonic_extension

DEFAULT_DRAW_SEED = 1729
SD4_TOLERANCE = -1e-12

DIAMETER_CAVEAT = (
    "diameter proxy is the maximum resistance over the finite vertex set of "
    "the proxy level; the supremum over the full space may be larger"
)


class DriftError(ValueError):
    """Malformed drift data."""


class InadmissibleDriftError(ValueError):
    """No admissible constants exist; the drift must be shrunk.  ``s_lower``
    is the lower end of the comparison-slope interval ``(s_lower, 1)``."""

    def __init__(self, message: str, s_lower: float):
        super().__init__(message)
        self.s_lower = s_lower


@dataclass
class DriftSpec:
    """Perturbation data realized at one working level.

    ``b``/``h`` have one row per drift term, one column per vertex of the
    working level.  ``h`` rows are harmonic extensions of the base-level
    rows in ``h_base`` (base vertices are ids ``0..len-1`` of the base
    level, which are nested in every finer level).
    """

    level: int
    b: np.ndarray
    h: np.ndarray
    h_base_level: int
    h_base: np.ndarray
    b_labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        self.h_base = np.atleast_2d(np.asarray(self.h_base, dtype=float))
        if self.b.shape != self.h.shape:
            raise DriftError(f"b shape {self.b.shape} != h shape {self.h.shape}")
        if self.b.shape[0] != self.h_base.shape[0]:
            raise DriftError("need one base row per drift term")
        if self.b.shape[0] < 1:
            raise DriftError("at least one drift term is required")
        if not np.all(np.isfinite(self.b)):
            raise DriftError("b values must be finite")
        if not self.b_labels:
            self.b_labels = tuple(f"b_{i}" for i in range(self.N))

    @property
    def N(self) -> int:
        return self.b.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.b.shape[1]

    def is_zero(self) -> bool:
        return not np.any(self.b)


_EXPRESSION_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
}
_BINARY_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate_expression(text: str, names: Mapping[str, object]):
    """Evaluate an arithmetic expression over ``names``.

    Config data is never executed: the text is parsed, and only numeric
    literals, the given names, unary and binary ``+ - * / **`` and
    one-argument calls of ``sin cos exp sqrt abs`` are evaluated; anything
    else raises :class:`DriftError`.  Literals become floats, so ``**``
    cannot start an unbounded integer power.
    """
    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](ev(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPRESSION_FUNCTIONS
                and len(node.args) == 1 and not node.keywords):
            return _EXPRESSION_FUNCTIONS[node.func.id](ev(node.args[0]))
        raise DriftError(f"expression {text!r}: {ast.unparse(node)!r} is not allowed")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise DriftError(f"cannot parse expression {text!r}: {exc}") from exc
    try:
        return ev(tree.body)
    except (ArithmeticError, RecursionError) as exc:
        raise DriftError(f"cannot evaluate expression {text!r}: {exc}") from exc


def sample_field(spec, n: int, coordinates: np.ndarray | None) -> np.ndarray:
    """Sample one drift coefficient field at the working level.

    ``spec`` is ``("constant", v)``, ``("expression", text)`` (needs an
    embedding; variables ``x``/``y``/``z`` are the coordinates, see
    :func:`_evaluate_expression` for what else it may contain), or
    ``("samples", values)`` with values indexed by vertex id.
    """
    kind, payload = spec
    if kind == "constant":
        return np.full(n, float(payload))
    if kind == "expression":
        if coordinates is None:
            raise DriftError("expression fields need an embedded structure")
        if not isinstance(payload, str):
            raise DriftError(f"expression must be a string, got {payload!r}")
        names = {"pi": np.pi}
        names.update(zip("xyz", coordinates.T))
        vals = _evaluate_expression(payload, names)
        return np.broadcast_to(np.asarray(vals, dtype=float), (n,)).copy()
    if kind == "samples":
        if isinstance(payload, Mapping):
            vals = np.full(n, np.nan)
            for k, v in payload.items():
                k = int(k)
                if 0 <= k < n:
                    vals[k] = float(v)
            if np.any(np.isnan(vals)):
                raise DriftError("sampled field misses some working-level vertices")
            return vals
        arr = np.asarray(payload, dtype=float)
        if arr.shape[0] < n:
            raise DriftError(
                f"sampled field has {arr.shape[0]} values, needs >= {n}"
            )
        return arr[:n].copy()
    raise DriftError(f"unknown field spec kind {kind!r}")


def make_drift(
    net: ConductanceNetwork,
    level: int,
    b_specs: Sequence,
    h_specs: Sequence,
    coordinates: np.ndarray | None = None,
) -> DriftSpec:
    """Realize drift data on a working-level network.

    ``h_specs`` entries are ``(base_level, base_values)``; the base vertices
    are ids ``0..len(base_values)-1`` and each row is harmonically extended
    to the working level.
    """
    if len(b_specs) != len(h_specs):
        raise DriftError("need matching numbers of b and h entries")
    n = net.n
    b = np.stack([sample_field(s, n, coordinates) for s in b_specs])
    base_levels = {int(m) for m, _ in h_specs}
    if len(base_levels) != 1:
        raise DriftError("all h entries must share one base level")
    h_base = np.stack([np.asarray(vals, dtype=float) for _, vals in h_specs])
    h = np.stack(
        [harmonic_extension(net, dict(enumerate(row))) for row in h_base]
    )
    labels = tuple(f"{kind}:{val}" if kind != "samples" else "samples"
                   for kind, val in b_specs)
    return DriftSpec(level, b, h, base_levels.pop(), h_base, labels)


# ---------------------------------------------------------------------------
# Edge weights and form matrices
# ---------------------------------------------------------------------------

def eta_edge_values(net: ConductanceNetwork, drift: DriftSpec):
    """``(rows, cols, eta_vals)`` over the ordered conductance pattern."""
    coo = net.c.tocoo()
    rows, cols = coo.row, coo.col
    p = np.einsum("in,in->n", drift.b, drift.h)
    cross = np.einsum("ir,ir->r", drift.b[:, rows], drift.h[:, cols])
    return rows, cols, 0.5 * (p[rows] - cross)


def assemble_Q(net: ConductanceNetwork, drift: DriftSpec) -> sparse.csr_matrix:
    """Matrix of the drift form in the convention ``Q(f, g) = g @ Q @ f``.

    Row index is the test-function (``g``) vertex, column index the input
    (``f``) vertex.  The form vanishes for constant ``f`` by construction.
    """
    if drift.n_vertices != net.n:
        raise DriftError(
            f"drift realized on {drift.n_vertices} vertices, network has {net.n}"
        )
    rows, cols, ev = eta_edge_values(net, drift)
    coo = net.c.tocoo()
    weighted = coo.data * ev
    off = sparse.coo_matrix((-weighted, (rows, cols)), shape=(net.n, net.n))
    diag = np.bincount(rows, weights=weighted, minlength=net.n)
    return (off + sparse.diags(diag)).tocsr()


@dataclass
class FormAssembly:
    """Symmetric + drift form matrices with the level's reference weights."""

    level: int
    E_matrix: sparse.csr_matrix
    Q_matrix: sparse.csr_matrix
    A_matrix: sparse.csr_matrix
    mu: np.ndarray
    net: ConductanceNetwork | None = None
    drift: DriftSpec | None = None

    @property
    def n(self) -> int:
        return len(self.mu)

    def E(self, f, g=None) -> float:
        f = np.asarray(f, float)
        g = f if g is None else np.asarray(g, float)
        return float(g @ (self.E_matrix @ f))

    def Q(self, f, g=None) -> float:
        f = np.asarray(f, float)
        g = f if g is None else np.asarray(g, float)
        return float(g @ (self.Q_matrix @ f))

    def A(self, f, g=None) -> float:
        f = np.asarray(f, float)
        g = f if g is None else np.asarray(g, float)
        return float(g @ (self.A_matrix @ f))

    # Batched quadratic forms over rows of F, used by the random verifiers.
    def batch_quad(self, matrix, F: np.ndarray) -> np.ndarray:
        return np.einsum("kn,kn->k", F, (matrix @ F.T).T)

    def batch_l2_sq(self, F: np.ndarray) -> np.ndarray:
        return (F * F) @ self.mu


def assemble_forms(
    net: ConductanceNetwork,
    drift: DriftSpec | None,
    mu: np.ndarray,
    level: int | None = None,
) -> FormAssembly:
    """Bundle the energy matrix, drift matrix and measure of one level."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (net.n,):
        raise DriftError("measure must assign one weight per vertex")
    if np.any(mu <= 0):
        raise DriftError("measure weights must be positive")
    e_mat = sparse.csr_matrix(net.laplacian(dense=False))
    if drift is None or drift.is_zero():
        q_mat = sparse.csr_matrix((net.n, net.n))
        if drift is not None and drift.n_vertices != net.n:
            raise DriftError("drift level does not match network")
    else:
        q_mat = assemble_Q(net, drift)
    a_mat = (e_mat + q_mat).tocsr()
    lvl = level if level is not None else (drift.level if drift else -1)
    return FormAssembly(lvl, e_mat, q_mat, a_mat, mu, net=net, drift=drift)


# ---------------------------------------------------------------------------
# Smallness conditions and derived constants
# ---------------------------------------------------------------------------

@dataclass
class ConditionCheck:
    name: str
    value: float
    threshold: float
    satisfied: bool
    margin: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "satisfied": self.satisfied,
            "margin": self.margin,
        }
        d.update(self.detail)
        return d


def check_condition_I(
    net: ConductanceNetwork, drift: DriftSpec, diam_proxy: float
) -> ConditionCheck:
    """Global drift-energy smallness: the summed mutual energies
    ``sum_ij sum_{x != y} c_xy b_i(x) b_j(x) (h_i(x)-h_i(y)) (h_j(x)-h_j(y))``
    of the drift terms must stay strictly below ``2 / diam``.

    The coefficients sit at the left endpoint of every ordered pair, as in
    the drift form, so the sum is ``4 sum_{x != y} c_xy eta(x, y)^2`` over
    the edge weights of :func:`eta_edge_values`.
    """
    _, _, ev = eta_edge_values(net, drift)
    total = 4.0 * float(np.sum(net.c.tocoo().data * ev * ev))
    threshold = 2.0 / diam_proxy
    return ConditionCheck(
        "condition_I", total, threshold, total < threshold, threshold - total
    )


def check_condition_II(
    net: ConductanceNetwork, drift: DriftSpec, diam_proxy: float
) -> ConditionCheck:
    """Pointwise smallness: freezing the coefficients at any vertex, the
    energy of the combined reference function stays below ``1 / diam``."""
    lap = sparse.csr_matrix(net.laplacian(dense=False))
    gram = drift.h @ (lap @ drift.h.T)  # (N, N) energy pairings of the h rows
    vals = np.einsum("ix,ij,jx->x", drift.b, gram, drift.b)
    worst = int(np.argmax(vals))
    value = float(vals[worst])
    threshold = 1.0 / diam_proxy
    return ConditionCheck(
        "condition_II",
        value,
        threshold,
        value <= threshold,
        threshold - value,
        detail={"argmax_vertex": worst},
    )


@dataclass
class Constants:
    """Derived constants: shift ``lam``, comparison slope ``s`` and the
    zero-order coefficient ``t = lam * s``."""

    delta: float
    s: float
    t: float
    lam: float
    s_lower: float
    diam_proxy: float

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "s": self.s,
            "t": self.t,
            "lambda": self.lam,
            "s_admissible_above": self.s_lower,
            "diam_proxy": self.diam_proxy,
        }


def select_constants(
    drift_energy: float,
    diam_proxy: float,
    delta: float | None = None,
    s: float | None = None,
) -> Constants:
    """Pick ``(delta, s, t, lambda)`` from the drift energy and diameter.

    ``s`` defaults to the midpoint of its admissible interval
    ``(sqrt(drift_energy / 2) * (sqrt(diam) + delta), 1)``; ``delta``
    defaults to a tenth of ``sqrt(diam)``.  Raises
    :class:`InadmissibleDriftError` when the interval is empty.
    """
    if drift_energy < 0:
        raise DriftError(f"drift energy must be >= 0, got {drift_energy}")
    root_diam = math.sqrt(diam_proxy)
    if delta is None:
        delta = 0.1 * root_diam
    if not (math.isfinite(delta) and delta > 0):
        raise DriftError(f"delta must be positive and finite, got {delta}")
    s_lower = math.sqrt(drift_energy / 2.0) * (root_diam + delta)
    if s_lower >= 1.0:
        raise InadmissibleDriftError(
            f"no admissible comparison slope: lower bound {s_lower:.6g} >= 1; "
            "shrink the drift coefficients",
            s_lower,
        )
    if s is None:
        s = 0.5 * (s_lower + 1.0)
    elif not (s_lower < s < 1.0):
        raise InadmissibleDriftError(
            f"s={s} outside the admissible interval ({s_lower:.6g}, 1)", s_lower
        )
    lam = 1.0 / (4.0 * delta * (root_diam + delta))
    return Constants(delta, s, lam * s, lam, s_lower, diam_proxy)


@dataclass
class SmallnessReport:
    """Admissibility summary at one working level; ``s_lower`` is kept also
    when the comparison-slope interval is empty (``constants`` is ``None``)."""

    level: int
    diam_proxy: float
    diam_proxy_level: int
    drift_energy: float
    condition_I: ConditionCheck
    condition_II: ConditionCheck
    constants: Constants | None
    s_lower: float
    inadmissible_reason: str | None = None
    caveat: str = DIAMETER_CAVEAT

    def failed_conditions(self, assumption: str) -> list[tuple[str, float]]:
        """``(name, margin)`` of each failed condition of assumption ``"A"``
        ((I) and (II)) or ``"B"`` ((I) only); an empty comparison-slope
        interval fails with margin ``1 - s_lower``.  Empty means admissible."""
        checks = [("Condition (I)", self.condition_I)]
        if assumption == "A":
            checks.append(("Condition (II)", self.condition_II))
        failed = [(name, c.margin) for name, c in checks if not c.satisfied]
        if self.constants is None and self.condition_I.satisfied:
            failed.append(("comparison-slope interval", 1.0 - self.s_lower))
        return failed

    def to_dict(self) -> dict:
        d = {
            "level": self.level,
            "diam_proxy": self.diam_proxy,
            "diam_proxy_level": self.diam_proxy_level,
            "drift_energy": self.drift_energy,
            "condition_I_satisfied": self.condition_I.satisfied,
            "condition_I": self.condition_I.to_dict(),
            "condition_II_max": self.condition_II.value,
            "condition_II": self.condition_II.to_dict(),
            "caveat": self.caveat,
        }
        if self.constants is not None:
            d.update(self.constants.to_dict())
        if self.inadmissible_reason:
            d["inadmissible_reason"] = self.inadmissible_reason
        return d


def smallness_report(
    net: ConductanceNetwork,
    drift: DriftSpec,
    diam_proxy: float,
    diam_proxy_level: int,
    delta: float | None = None,
    s: float | None = None,
) -> SmallnessReport:
    cond1 = check_condition_I(net, drift, diam_proxy)
    cond2 = check_condition_II(net, drift, diam_proxy)
    constants, reason = None, None
    try:
        constants = select_constants(cond1.value, diam_proxy, delta=delta, s=s)
        s_lower = constants.s_lower
    except InadmissibleDriftError as exc:
        reason, s_lower = str(exc), exc.s_lower
    return SmallnessReport(
        level=drift.level,
        diam_proxy=diam_proxy,
        diam_proxy_level=diam_proxy_level,
        drift_energy=cond1.value,
        condition_I=cond1,
        condition_II=cond2,
        constants=constants,
        s_lower=s_lower,
        inadmissible_reason=reason,
    )


# ---------------------------------------------------------------------------
# Randomized verification of the form axioms
# ---------------------------------------------------------------------------

def _draw_batch(n: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.standard_normal((draws, n))


@dataclass
class SandwichReport:
    level: int
    s: float
    lam: float
    draws: int
    seed: int
    lower_margin: float  # min over draws of (A_lam - (1-s) E_lam) / E_lam
    upper_margin: float  # min over draws of ((1+s) E_lam - A_lam) / E_lam
    passed: bool

    def to_dict(self) -> dict:
        return self.__dict__ | {"lambda": self.lam}


def verify_sandwich(
    assembly: FormAssembly,
    s: float,
    lam: float,
    draws: int = 1000,
    seed: int = DEFAULT_DRAW_SEED,
    tol: float = 1e-10,
) -> SandwichReport:
    """Check ``(1-s) E_lam(f) <= A_lam(f) <= (1+s) E_lam(f)`` on a seeded
    random batch; the worst relative slack on each side is reported.
    Failures are recorded, not raised."""
    F = _draw_batch(assembly.n, draws, seed)
    e_lam = assembly.batch_quad(assembly.E_matrix, F) + lam * assembly.batch_l2_sq(F)
    a_lam = assembly.batch_quad(assembly.A_matrix, F) + lam * assembly.batch_l2_sq(F)
    lower = float(np.min((a_lam - (1.0 - s) * e_lam) / e_lam))
    upper = float(np.min(((1.0 + s) * e_lam - a_lam) / e_lam))
    return SandwichReport(
        assembly.level, s, lam, draws, seed,
        lower, upper, bool(lower >= -tol and upper >= -tol),
    )


@dataclass
class DriftBoundReport:
    level: int
    s: float
    t: float
    draws: int
    seed: int
    margin: float  # min over draws of (s E + t |f|^2 - |Q(f)|) / (s E + t |f|^2)
    passed: bool


def verify_drift_bound(
    assembly: FormAssembly,
    s: float,
    t: float,
    draws: int = 1000,
    seed: int = DEFAULT_DRAW_SEED,
    tol: float = 1e-10,
) -> DriftBoundReport:
    """Check ``|Q(f)| <= s E(f) + t |f|^2`` on a seeded random batch."""
    F = _draw_batch(assembly.n, draws, seed)
    q = np.abs(assembly.batch_quad(assembly.Q_matrix, F))
    bound = s * assembly.batch_quad(assembly.E_matrix, F) + t * assembly.batch_l2_sq(F)
    margin = float(np.min((bound - q) / bound))
    return DriftBoundReport(
        assembly.level, s, t, draws, seed, margin, bool(margin >= -tol)
    )


@dataclass
class SDAxiomReport:
    """Outcome of the closed-form and Markov axiom checks.

    ``sector_bound`` is the analytic sector constant
    ``(1-s)^-1 (1 + (sqrt(diam) + 2 delta) * sum_i |b_i|_inf E(h_i)^(1/2))``;
    the empirical value must stay below it.  ``edge_one_plus_eta_min`` is
    the rate certificate, ``edge_markov_min`` the certificate
    ``1 + sum_i b_i(x)(h_i(x)-h_i(y)) >= 0`` behind the Markov property.
    """

    level: int
    draws: int
    seed: int
    sd1_min: float
    sector_empirical: float
    sector_bound: float
    sd4_min: float
    sd4_tolerance: float
    edge_one_plus_eta_min: float
    edge_markov_min: float
    sd1_passed: bool
    sd3_passed: bool
    sd4_passed: bool
    edges_passed: bool

    @property
    def passed(self) -> bool:
        return self.sd1_passed and self.sd3_passed and self.sd4_passed and self.edges_passed

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["passed"] = self.passed
        return d


def verify_SD_axioms(
    assembly: FormAssembly,
    s: float,
    lam: float,
    delta: float,
    diam_proxy: float,
    draws: int = 1000,
    seed: int = DEFAULT_DRAW_SEED,
) -> SDAxiomReport:
    """Verify nonnegativity of the shifted form, the sector inequality and
    the Markov property on seeded random data, plus the edgewise
    certificates that guarantee them."""
    if assembly.net is None:
        raise DriftError("assembly must carry its network for the edge checks")
    F = _draw_batch(assembly.n, draws, seed)
    l2 = assembly.batch_l2_sq(F)
    a_lam = assembly.batch_quad(assembly.A_matrix, F) + lam * l2
    sd1_min = float(np.min(a_lam))

    # Sector constant on random pairs (consecutive draws are paired).
    G = np.roll(F, 1, axis=0)
    cross = np.einsum("kn,kn->k", G, (assembly.A_matrix @ F.T).T)
    g_lam = assembly.batch_quad(assembly.A_matrix, G) + lam * assembly.batch_l2_sq(G)
    sector_emp = float(np.max(np.abs(cross) / np.sqrt(a_lam * g_lam)))

    if assembly.drift is None or assembly.drift.is_zero():
        coeff = 0.0
    else:
        drift = assembly.drift
        h_energies = assembly.batch_quad(assembly.E_matrix, drift.h)
        coeff = float(
            np.sum(np.max(np.abs(drift.b), axis=1) * np.sqrt(h_energies))
        )
    sector_bound = (1.0 + (math.sqrt(diam_proxy) + 2.0 * delta) * coeff) / (1.0 - s)

    # Markov property: A(f ^ a, f - f ^ a) >= 0 for a >= 0 (a = 0 included).
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
    )
    a_cut = rng.uniform(0.0, np.maximum(np.max(np.abs(F), axis=1), 1e-6))
    a_cut[: max(1, draws // 10)] = 0.0
    g1 = np.minimum(F, a_cut[:, None])
    g2 = F - g1
    sd4_vals = np.einsum("kn,kn->k", g2, (assembly.A_matrix @ g1.T).T)
    sd4_min = float(np.min(sd4_vals))

    if assembly.drift is None or assembly.drift.is_zero():
        eta_min = markov_min = 1.0  # all edge factors are exactly 1
    else:
        _, _, ev = eta_edge_values(assembly.net, assembly.drift)
        eta_min = float(np.min(1.0 + ev)) if ev.size else 1.0
        markov_min = float(np.min(1.0 + 2.0 * ev)) if ev.size else 1.0

    return SDAxiomReport(
        level=assembly.level,
        draws=draws,
        seed=seed,
        sd1_min=sd1_min,
        sector_empirical=sector_emp,
        sector_bound=sector_bound,
        sd4_min=sd4_min,
        sd4_tolerance=SD4_TOLERANCE,
        edge_one_plus_eta_min=eta_min,
        edge_markov_min=markov_min,
        sd1_passed=bool(sd1_min >= SD4_TOLERANCE),
        sd3_passed=bool(sector_emp <= sector_bound),
        sd4_passed=bool(sd4_min >= SD4_TOLERANCE),
        edges_passed=bool(eta_min >= 0.0 and markov_min >= 0.0),
    )
