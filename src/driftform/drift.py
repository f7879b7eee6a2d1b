"""Drift perturbations of network energies and their admissibility checks.

The perturbation data is a batch of scalar fields ``b_i`` sampled at the
working level together with piecewise-harmonic reference functions ``h_i``
(harmonic extensions of base-level data).  Adding the induced first-order
terms to the symmetric energy gives a non-symmetric bilinear form; this
module computes its edge weights, evaluates the global and pointwise
smallness conditions with their derived constants ``(delta, s, t, lambda)``,
and certifies the form inequalities and axioms by extreme generalized
eigenvalues, each with its residual bound; the pencils' right-hand sides
``E_lam`` and ``S`` are factored by the level-by-level elimination of
:mod:`driftform.resistance`, and the eigenvalues found by Lanczos over that
solve.  The form matrices are those of
the chain generator (:class:`driftform.markov.GeneratorMatrix`), which every
check here takes.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy import sparse

from .resistance import ConductanceNetwork, _arnoldi, _eliminate, _solve, harmonic_extension

if TYPE_CHECKING:
    from .markov import GeneratorMatrix

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

    ``b``/``h`` have one row per drift term (none for the empty drift), one
    column per vertex of the working level.  ``h`` rows are harmonic extensions of base-level data
    (see :func:`make_drift`).
    """

    level: int
    b: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if self.b.shape != self.h.shape:
            raise DriftError(f"b shape {self.b.shape} != h shape {self.h.shape}")
        if not np.all(np.isfinite(self.b)):
            raise DriftError("b values must be finite")


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
    ``("samples", values)`` with the values of the vertex ids ``0, 1, ...``
    (at least ``n`` of them; a level reads its prefix).
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
    are ids ``0..len(base_values)-1`` and the rows are harmonically extended
    to the working level as one block.
    """
    if len(b_specs) != len(h_specs):
        raise DriftError("need matching numbers of b and h entries")
    if not b_specs:
        raise DriftError("at least one drift term is required")
    n = net.n
    b = np.stack([sample_field(s, n, coordinates) for s in b_specs])
    if len({int(m) for m, _ in h_specs}) != 1:
        raise DriftError("all h entries must share one base level")
    h_base = np.stack([np.asarray(vals, dtype=float) for _, vals in h_specs])
    if not np.all(np.isfinite(h_base)):
        raise DriftError("h base values must be finite")
    return DriftSpec(level, b, harmonic_extension(net, h_base))


# ---------------------------------------------------------------------------
# Edge weights
# ---------------------------------------------------------------------------

def eta_edge_values(net: ConductanceNetwork, drift: DriftSpec) -> np.ndarray:
    """The edge weights ``eta(x, y)`` over the ordered conductance pattern
    ``net.c.tocoo()``."""
    coo = net.c.tocoo()
    rows, cols = coo.row, coo.col
    p = np.einsum("in,in->n", drift.b, drift.h)
    cross = np.einsum("ir,ir->r", drift.b[:, rows], drift.h[:, cols])
    return 0.5 * (p[rows] - cross)


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


def check_condition_I(gen: GeneratorMatrix, diam_proxy: float) -> ConditionCheck:
    """Global drift-energy smallness: the summed mutual energies
    ``sum_ij sum_{x != y} c_xy b_i(x) b_j(x) (h_i(x)-h_i(y)) (h_j(x)-h_j(y))``
    of the drift terms must stay strictly below ``2 / diam``.

    The coefficients sit at the left endpoint of every ordered pair, as in
    the drift form, so the sum is ``4 sum_{x != y} c_xy eta(x, y)^2`` over
    the edge weights ``gen.edge_eta``.
    """
    ev = gen.edge_eta
    total = 4.0 * float(np.sum(gen.net.c.tocoo().data * ev * ev))
    threshold = 2.0 / diam_proxy
    return ConditionCheck(
        "condition_I", total, threshold, total < threshold, threshold - total
    )


def check_condition_II(gen: GeneratorMatrix, diam_proxy: float) -> ConditionCheck:
    """Pointwise smallness: freezing the coefficients at any vertex, the
    energy of the combined reference function stays below ``1 / diam``."""
    drift = gen.drift
    gram = drift.h @ (gen.E_matrix @ drift.h.T)  # (N, N) energy pairings of the h rows
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
    drift_energy: float, diam_proxy: float, delta: float | None = None
) -> Constants:
    """Pick ``(delta, s, t, lambda)`` from the drift energy and diameter.

    ``s`` is the midpoint of its admissible interval
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
    s = 0.5 * (s_lower + 1.0)
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
    gen: GeneratorMatrix,
    diam_proxy: float,
    diam_proxy_level: int,
    delta: float | None = None,
) -> SmallnessReport:
    cond1 = check_condition_I(gen, diam_proxy)
    cond2 = check_condition_II(gen, diam_proxy)
    constants, reason = None, None
    try:
        constants = select_constants(cond1.value, diam_proxy, delta=delta)
        s_lower = constants.s_lower
    except InadmissibleDriftError as exc:
        reason, s_lower = str(exc), exc.s_lower
    return SmallnessReport(
        level=gen.level,
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
# Exact certificates of the form inequalities
# ---------------------------------------------------------------------------

LANCZOS_TOL = 1e-13  # residual estimate per wanted Ritz pair, relative to the largest
LANCZOS_STEPS = 200  # Lanczos steps before an eigen-certificate gives up


class CertificateError(ArithmeticError):
    """No eigen-certificate: no convergence, a singular factor or a non-finite residual."""


@dataclass(frozen=True)
class Bracket:
    """A certified value: ``value`` and the interval ``[lo, hi]`` that the
    eigen-residual bound ``residual`` gives around it.  The interval holds
    (the image of) an eigenvalue of the pencil, and of the extreme one when
    Lanczos has found the extreme eigenpair, which nothing here checks (a
    Ritz pair converges to an interior eigenvalue only when the start
    vector nearly misses the extreme eigenvector)."""

    value: float
    lo: float
    hi: float
    residual: float

    def map(self, fn) -> "Bracket":
        """The bracket of ``fn(value)`` for a monotone ``fn``."""
        lo, hi = sorted((fn(self.lo), fn(self.hi)))
        return Bracket(fn(self.value), lo, hi, self.residual)

    def to_dict(self) -> dict:
        ends = [x if math.isfinite(x) else None for x in (self.lo, self.hi)]
        return {"value": self.value, "bracket": ends, "residual": self.residual}


_ZERO = Bracket(0.0, 0.0, 0.0, 0.0)  # the extreme eigenvalues of a zero pencil


def _factor(gen: GeneratorMatrix, b):
    """The solve of the SPD CSR matrix ``b`` by the elimination over the
    level's nested sets (:func:`driftform.resistance._eliminate`)."""
    try:
        steps, end = _eliminate(b, [*gen.net.counts, gen.n])
    except np.linalg.LinAlgError as exc:  # a singular pivot block
        raise CertificateError(f"cannot factor the pencil's right-hand side: {exc}") from exc
    return lambda x: _solve(steps, end, x)


def _extremes(a, b, solve_b, which: str) -> list[Bracket]:
    """Extreme eigenvalues of the symmetric pencil ``a v = θ b v``, ``b`` SPD
    with the factored solve ``solve_b`` and ``a`` a sparse matrix or the
    callable ``x -> a x``; ``which`` is ``"LA"`` (the top) or ``"BE"``
    (bottom, then top).

    Lanczos on ``b⁻¹ a``, which is self-adjoint in the ``b`` inner product
    (:func:`driftform.resistance._arnoldi`), from a fixed start vector, so
    the reports are deterministic.  It stops when the residual estimate of
    each wanted Ritz pair is at most ``LANCZOS_TOL`` times the largest Ritz
    value in modulus, and raises :class:`CertificateError` past
    ``LANCZOS_STEPS`` steps.  Each value is then the Rayleigh quotient ``θ``
    of its Ritz vector ``x`` with the explicit residual bound
    ``‖a x − θ b x‖_{b⁻¹} / ‖x‖_b``: an eigenvalue lies within it of ``θ``,
    and it is the extreme one when Lanczos has found the extreme pair
    (Parlett, *The Symmetric Eigenvalue Problem*, 1998, ch. 11 and 13).
    """
    k = 2 if which == "BE" else 1
    if sparse.issparse(a) and not a.count_nonzero():
        return [_ZERO] * k
    apply_a = a if callable(a) else a.__matmul__
    n = b.shape[0]
    wanted = [-1] if which == "LA" else [0, -1]
    def converged(_, h):
        theta, y = np.linalg.eigh(h[:-1])
        estimate = np.abs(h[-1, -1] * y[-1, wanted])
        scale = np.abs(theta).max()
        return len(theta) >= k and bool(np.all(estimate <= LANCZOS_TOL * scale))

    try:
        # a fixed start vector keeps the reports deterministic
        start = np.random.default_rng(0).standard_normal(n)
        basis, h = _arnoldi(lambda x: solve_b(apply_a(x)), start, min(LANCZOS_STEPS, n),
                            dual=b.__matmul__, stop=converged)
        theta, y = np.linalg.eigh(h[:-1])
        if not np.all(np.isfinite(theta)):
            raise CertificateError(f"no bracket: Ritz values {theta[wanted]}")
        if not (len(theta) == n or h[-1, -1] == 0.0 or converged(basis, h)):
            raise CertificateError(
                f"extreme eigenvalue not found: no convergence in {len(theta)} Lanczos steps")
        vecs = basis[:-1].T @ y[:, wanted]
    except np.linalg.LinAlgError as exc:
        raise CertificateError(f"extreme eigenvalue not found: {exc}") from exc
    out = []
    for x in vecs.T:
        ax, bx = apply_a(x), b @ x
        norm_sq = float(x @ bx)
        theta = float(x @ ax) / norm_sq
        r = ax - theta * bx
        residual = math.sqrt(max(float(r @ solve_b(r)), 0.0) / norm_sq)
        if not (math.isfinite(theta) and math.isfinite(residual)):
            raise CertificateError(f"no bracket: Ritz value {theta}, residual {residual}")
        out.append(Bracket(theta, theta - residual, theta + residual, residual))
    return out


@dataclass
class SandwichReport:
    """``(1-s) E_lam <= A_lam <= (1+s) E_lam``: with ``theta_min`` and
    ``theta_max`` the extreme eigenvalues of ``Q_sym v = θ E_lam v``, the
    margins ``s + θ_min`` and ``s - θ_max`` are the least relative slacks
    ``(A_lam - (1-s) E_lam) / E_lam`` and ``((1+s) E_lam - A_lam) / E_lam``."""

    level: int
    s: float
    lam: float
    theta_min: Bracket
    theta_max: Bracket

    @property
    def lower_margin(self) -> Bracket:
        return self.theta_min.map(lambda x: self.s + x)

    @property
    def upper_margin(self) -> Bracket:
        return self.theta_max.map(lambda x: self.s - x)

    def failures(self) -> list[tuple[str, float]]:
        """``("sandwich", margin)`` if the check fails on the pessimistic
        end of either bracket, with the lesser of the two ends; else empty."""
        lower, upper = self.lower_margin.lo, self.upper_margin.lo
        return [] if lower >= 0.0 and upper >= 0.0 else [("sandwich", min(lower, upper))]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {"level": self.level, "s": self.s, "lambda": self.lam,
                "lower_margin": self.lower_margin.to_dict(),
                "upper_margin": self.upper_margin.to_dict(), "passed": self.passed}


def certify_sandwich(gen: GeneratorMatrix, s: float, lam: float) -> SandwichReport:
    """The sandwich margins of one level as exact brackets; a check passes
    on the pessimistic end of its bracket."""
    q = gen.Q_matrix
    e_lam = (gen.E_matrix + lam * sparse.diags(gen.mu)).tocsr()
    bottom, top = _extremes((0.5 * (q + q.T)).tocsr(), e_lam, _factor(gen, e_lam), "BE")
    return SandwichReport(gen.level, s, lam, bottom, top)


@dataclass
class DriftBoundReport:
    """``|Q(f)| <= s E(f) + t |f|^2`` with ``t = lam s``: the margin
    ``1 - max |θ| / s`` of ``Q_sym v = θ E_lam v`` is the least relative slack."""

    level: int
    s: float
    t: float
    margin: Bracket

    def failures(self) -> list[tuple[str, float]]:
        """``("drift bound", margin)`` if the margin's pessimistic end is
        negative; else empty."""
        return [] if self.margin.lo >= 0.0 else [("drift bound", self.margin.lo)]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {"level": self.level, "s": self.s, "t": self.t,
                "margin": self.margin.to_dict(), "passed": self.passed}


def certify_drift_bound(sandwich: SandwichReport) -> DriftBoundReport:
    """The drift-bound margin of one level as an exact bracket, read off the
    sandwich certificate: with ``t = lam s`` the pencil is ``s`` times the
    sandwich pencil ``Q_sym v = θ E_lam v``, so ``max |θ| / s`` over its two
    extreme eigenvalues is the drift bound's ``max |θ|``, bracketed by the
    image of their two brackets."""
    s, brackets = sandwich.s, (sandwich.theta_min, sandwich.theta_max)
    value = max(abs(b.value) for b in brackets)
    # over a bracket [lo, hi], |θ| ranges from max(lo, -hi, 0) to max(-lo, hi)
    near = max(max(b.lo, -b.hi, 0.0) for b in brackets)
    far = max(max(-b.lo, b.hi) for b in brackets)
    residual = max(b.residual for b in brackets)
    margin = Bracket(1.0 - value / s, 1.0 - far / s, 1.0 - near / s, residual / s)
    return DriftBoundReport(sandwich.level, s, sandwich.lam * s, margin)


@dataclass
class SDAxiomReport:
    """Outcome of the closed-form and Markov axiom checks.

    ``sd1_min`` is ``min θ`` of ``S v = θ M v`` with ``S = E_lam + Q_sym``
    (bracketed through ``1 / max ν`` of ``M v = ν S v``).  ``sector_constant``
    is ``sqrt(1 + ρ²)``, ``ρ²`` the top eigenvalue of ``-K S⁻¹ K v = ρ² S v``
    with ``K`` the antisymmetric part of ``Q``: the least ``C`` with
    ``|A_lam(f, g)| <= C A_lam(f)^(1/2) A_lam(g)^(1/2)`` (Ma & Röckner,
    1992, ch. I).  Both are ``None``, and SD1 and SD3 fail, when ``S`` is
    not shown positive definite.  ``sector_bound`` is the analytic constant
    ``(1-s)^-1 (1 + (sqrt(diam) + 2 delta) sum_i |b_i|_inf E(h_i)^(1/2))``.
    ``edge_one_plus_eta_min`` is the rate certificate, ``edge_markov_min``
    the certificate ``1 + sum_i b_i(x)(h_i(x)-h_i(y)) >= 0`` behind the
    Markov property (SD4).  ``definite_margin`` is ``1 + min θ`` of the
    sandwich pencil at the pessimistic end, the margin by which SD1 and SD3
    fail when ``S`` is not shown positive definite; it is not reported.
    """

    level: int
    sd1_min: Bracket | None
    sector_constant: Bracket | None
    sector_bound: float
    edge_one_plus_eta_min: float
    edge_markov_min: float
    definite_margin: float

    @property
    def sd1_passed(self) -> bool:
        return self.sd1_min is not None and self.sd1_min.lo >= 0.0

    @property
    def sd3_passed(self) -> bool:
        return self.sector_constant is not None and self.sector_constant.hi <= self.sector_bound

    @property
    def sd4_passed(self) -> bool:
        return self.edge_markov_min >= 0.0

    @property
    def passed(self) -> bool:
        return self.sd1_passed and self.sd3_passed and self.sd4_passed

    def failures(self) -> list[tuple[str, float]]:
        """``(name, margin)`` of each failed axiom, the margin at the
        pessimistic end of its bracket."""
        sd1, sector = self.sd1_min, self.sector_constant
        checks = [
            ("SD1 (nonnegativity)", self.sd1_passed,
             self.definite_margin if sd1 is None else sd1.lo),
            ("SD3 (sector condition)", self.sd3_passed,
             self.definite_margin if sector is None else self.sector_bound - sector.hi),
            ("SD4 (Markov property)", self.sd4_passed, self.edge_markov_min),
        ]
        return [(name, margin) for name, ok, margin in checks if not ok]

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        del d["definite_margin"]
        for key in ("sd1_min", "sector_constant"):
            d[key] = None if d[key] is None else d[key].to_dict()
        for key in ("sd1_passed", "sd3_passed", "sd4_passed", "passed"):
            d[key] = getattr(self, key)
        return d


def certify_SD_axioms(
    gen: GeneratorMatrix, sandwich: SandwichReport, delta: float, diam_proxy: float
) -> SDAxiomReport:
    """Certify nonnegativity of the shifted form (SD1) and the sector
    condition (SD3) by extreme eigenvalues, and the Markov property (SD4) by
    its edgewise certificate, with ``s`` and ``lam`` of ``sandwich`` (the
    sandwich certificate of this generator).  As ``S v = (1 + θ) E_lam v`` on
    the sandwich pencil, ``S`` is factored, and the SD1 and sector values
    computed, only when the lower margin ``s + min θ`` exceeds ``s - 1``.
    """
    s, lam = sandwich.s, sandwich.lam
    drift = gen.drift
    h_energies = np.einsum("in,in->i", drift.h, (gen.E_matrix @ drift.h.T).T)
    # an energy is nonnegative; round-off can take a constant h's below 0
    root_energies = np.sqrt(np.maximum(h_energies, 0.0))
    coeff = float(np.sum(np.max(np.abs(drift.b), axis=1) * root_energies))
    ev = gen.edge_eta
    eta_min = float(np.min(1.0 + ev)) if ev.size else 1.0
    markov_min = float(np.min(1.0 + 2.0 * ev)) if ev.size else 1.0
    sector_bound = (1.0 + (math.sqrt(diam_proxy) + 2.0 * delta) * coeff) / (1.0 - s)

    sd1 = sector = None
    if sandwich.lower_margin.lo > s - 1.0:
        q = gen.Q_matrix
        big_s = (gen.E_matrix + lam * sparse.diags(gen.mu) + 0.5 * (q + q.T)).tocsr()
        solve_s = _factor(gen, big_s)
        (nu,) = _extremes(sparse.diags(gen.mu), big_s, solve_s, "LA")
        sd1 = nu.map(lambda x: 1.0 / x if x > 0.0 else math.inf)
        k = (0.5 * (q - q.T)).tocsr()
        def sector_operator(x):
            return -(k @ solve_s(k @ x))

        (rho_sq,) = (_extremes(sector_operator, big_s, solve_s, "LA") if k.count_nonzero()
                     else (_ZERO,))
        sector = rho_sq.map(lambda x: math.sqrt(1.0 + max(x, 0.0)))
    return SDAxiomReport(gen.level, sd1, sector, sector_bound, eta_min, markov_min,
                         1.0 + sandwich.theta_min.lo)
