"""Formal path monomials and the weight functional on them.

Monomials are reduced words S_mu S_nu* over a directed graph: two composable
edge paths with a common range, a complex coefficient, and the empty pair at
a vertex playing the role of the vertex projection.  Products reduce by the
usual prefix rules (a word is killed unless one inner path extends the
other), which is exactly the Cuntz-Krieger calculus on the dense span.

The functional induced by a graph weight is diagonal:

    psi(S_mu S_nu*) = delta(mu, nu) * lam(nu_1) ... lam(nu_n) * g(dst(nu))

and the modular flow scales a monomial by (lam(mu)/lam(nu))^(i t).  The flow
is evaluated only at imaginary integer times t = s*i, the t = +-i of the
equilibrium identity among them, where the factor is the exact real
(lam(mu)/lam(nu))^(-s).  The identity and the gauge condition are decided
exactly, on values read off reduced words: no float enters a pass or fail
decision unless the weights themselves are floats.

Rank 2 monomials are pairs of a skeleton monomial and a boundary-graph
monomial; their functional is the product of the two induced functionals,
with the boundary graph carrying (lam, eta o face) as its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Oriented2Complex, boundary_graph
from .cwweights import Rank2Weight
from .errors import InputError
from .exact import as_tolerance, scalar_abs_leq, scalar_sign
from .graphs import DirectedGraph
from .solver import DEFAULT_TOL, GraphWeight


@dataclass(frozen=True, slots=True)
class Path:
    """Composable edge sequence anchored at a source vertex; the anchor
    matters only for the empty path."""

    src: str
    edges: tuple[str, ...] = ()


def make_path(graph: DirectedGraph, edges, src: str | None = None) -> Path:
    edges = tuple(edges)
    if not edges:
        if src is None:
            raise InputError("empty path needs an anchor vertex")
        if not graph.has_vertex(src):
            raise InputError(f"unknown anchor vertex {src!r}")
        return Path(src, ())
    for eid in edges:
        if not graph.has_edge(eid):
            raise InputError(f"unknown edge {eid!r}")
    for e1, e2 in zip(edges, edges[1:]):
        if graph.dst(e1) != graph.src(e2):
            raise InputError(f"path breaks between {e1!r} and {e2!r}")
    start = graph.src(edges[0])
    if src is not None and src != start:
        raise InputError(f"anchor {src!r} does not match first edge source {start!r}")
    return Path(start, edges)


def path_range(graph: DirectedGraph, p: Path) -> str:
    return graph.dst(p.edges[-1]) if p.edges else p.src


def _meet(nu: Path, alpha: Path) -> int:
    """1 if alpha extends nu, -1 if nu strictly extends alpha, else 0: then
    (S_mu S_nu*)(S_alpha S_beta*) is zero."""
    if nu.src != alpha.src:
        return 0
    if alpha.edges[: len(nu.edges)] == nu.edges:
        return 1
    return -1 if nu.edges[: len(alpha.edges)] == alpha.edges else 0


@dataclass(frozen=True, slots=True)
class PathMonomial:
    graph: DirectedGraph
    mu: Path
    nu: Path
    coeff: complex = 1

    def __post_init__(self):
        if path_range(self.graph, self.mu) != path_range(self.graph, self.nu):
            raise InputError("mu and nu must share their range vertex")

    def star(self) -> "PathMonomial":
        return PathMonomial(self.graph, self.nu, self.mu, _conj(self.coeff))

    def balanced(self) -> bool:
        """Whether |mu| = |nu|, so that the gauge action fixes the monomial."""
        return len(self.mu.edges) == len(self.nu.edges)

    def scaled(self, c) -> "PathMonomial":
        return PathMonomial(self.graph, self.mu, self.nu, self.coeff * c)


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


def vertex_projection(graph: DirectedGraph, v: str) -> PathMonomial:
    p = make_path(graph, (), v)
    return PathMonomial(graph, p, p, 1)


def edge_isometry(graph: DirectedGraph, eid: str) -> PathMonomial:
    mu = make_path(graph, (eid,))
    nu = make_path(graph, (), graph.dst(eid))
    return PathMonomial(graph, mu, nu, 1)


def monomial(graph: DirectedGraph, mu_edges, nu_edges, src: str | None = None, coeff=1) -> PathMonomial:
    """Convenience constructor.  An empty path is anchored at the other
    path's range; ``src`` is required only when both are empty."""
    mu_edges, nu_edges = tuple(mu_edges), tuple(nu_edges)
    if not mu_edges and not nu_edges:
        mu = nu = make_path(graph, (), src)
        return PathMonomial(graph, mu, nu, coeff)
    if mu_edges and nu_edges:
        return PathMonomial(graph, make_path(graph, mu_edges), make_path(graph, nu_edges), coeff)
    full = make_path(graph, mu_edges or nu_edges)
    empty = make_path(graph, (), path_range(graph, full))
    if mu_edges:
        return PathMonomial(graph, full, empty, coeff)
    return PathMonomial(graph, empty, full, coeff)


def _reduce(a: PathMonomial, b: PathMonomial):
    """The reduced word of a b as (mu, nu, coeff), or None when it is zero:
    (S_mu S_nu*)(S_alpha S_beta*) survives only if alpha extends nu or nu
    extends alpha, collapsing to S_(mu alpha') S_beta* or S_mu S_(beta nu')*."""
    if a.graph is not b.graph and a.graph != b.graph:
        raise InputError("monomials over different graphs")
    nu, alpha = a.nu, b.mu
    meet = _meet(nu, alpha)
    if meet > 0:
        mu, nu = Path(a.mu.src, a.mu.edges + alpha.edges[len(nu.edges):]), b.nu
    elif meet < 0:
        mu, nu = a.mu, Path(b.nu.src, b.nu.edges + nu.edges[len(alpha.edges):])
    else:
        return None
    coeff = a.coeff * b.coeff
    return (mu, nu, coeff) if coeff != 0 else None


def monomial_product(a: PathMonomial, b: PathMonomial) -> list[PathMonomial]:
    """Reduced product; the result is the empty list (zero) or one monomial."""
    word = _reduce(a, b)
    return [PathMonomial(a.graph, *word)] if word else []


@dataclass(frozen=True, slots=True)
class Rank2Monomial:
    """Tensor monomial: a skeleton factor and a boundary-graph factor."""

    skeleton_part: PathMonomial
    boundary_part: PathMonomial

    @property
    def coeff(self):
        return self.skeleton_part.coeff * self.boundary_part.coeff

    def balanced(self) -> bool:
        return self.skeleton_part.balanced() and self.boundary_part.balanced()


def rank2_product(a: Rank2Monomial, b: Rank2Monomial) -> list[Rank2Monomial]:
    ps = monomial_product(a.skeleton_part, b.skeleton_part)
    pb = ps and monomial_product(a.boundary_part, b.boundary_part)
    return [Rank2Monomial(ps[0], pb[0])] if pb else []


# ---------------------------------------------------------------------------
# Weight functionals and the modular flow
# ---------------------------------------------------------------------------

@dataclass
class WeightFunctional:
    """Functional induced by a graph weight, together with the sign
    convention of the equilibrium identity.

    With the flow sigma_t(S_e) = lam(e)^(i t), the identity
    psi(x y) = psi(y sigma_(i * beta_sign)(x)) holds at beta_sign = -1 for
    weights satisfying the weight equation; the sign stays configurable
    because the opposite convention is also in circulation.
    """

    graph: DirectedGraph
    weight: GraphWeight
    beta_sign: int = -1
    # id -> graph found equal to ``graph``, held so that the id stays unique
    _equal_graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def lam_of_path(self, p: Path):
        acc = None
        for eid in p.edges:
            v = self.weight.lam[eid]
            acc = v if acc is None else acc * v
        return acc if acc is not None else Fraction(1)

    def eval(self, m: PathMonomial):
        return self._value(m, m.mu, m.nu, m.coeff)

    def product_value(self, a: PathMonomial, b: PathMonomial):
        """psi(a b), read off the reduced word without building a monomial."""
        word = _reduce(a, b)
        return self._value(a, *word) if word else 0

    def _value(self, m: PathMonomial, mu: Path, nu: Path, coeff):
        """psi(coeff S_mu S_nu*) for a word over the graph of ``m``: 0 off
        the diagonal, coeff lam(nu) g(r(nu)) on it."""
        self.check_graph(m)
        if mu != nu:
            return 0
        value = self.lam_of_path(nu) * self.weight.g[path_range(self.graph, nu)]
        return coeff * value if coeff != 1 else value

    def check_graph(self, m: PathMonomial) -> None:
        g = m.graph
        if g is self.graph or self._equal_graphs.get(id(g)) is g:
            return
        if g != self.graph:
            raise InputError("monomial over a different graph")
        self._equal_graphs[id(g)] = g

    def evolve(self, m: PathMonomial, t, checked: set | None = None) -> PathMonomial:
        """Apply sigma_t at t = 0 or t = s*1j with integer s, exactly; any
        other t is an InputError.  The edges in ``checked`` (see
        ``check_positive``) are not checked again."""
        self.check_positive(m, set() if checked is None else checked)
        return m.scaled(_power_it(self.lam_of_path(m.mu) / self.lam_of_path(m.nu), t))

    def check_positive(self, m: PathMonomial, checked: set) -> None:
        """Raise InputError unless lambda > 0 on the edges of ``m`` not in ``checked``."""
        for p in (m.mu, m.nu):
            for eid in p.edges:
                if (id(self), eid) not in checked and scalar_sign(self.weight.lam[eid]) <= 0:
                    raise InputError(f"lambda({eid}) must be positive for the flow")
                checked.add((id(self), eid))


def _power_it(ratio, t):
    """(ratio)^(i t) = ratio^(-s) for positive ratio and t = s*1j with
    integer s (t = 0 included)."""
    tc = complex(t)
    if tc.real != 0 or not tc.imag.is_integer():
        raise InputError(f"the flow is evaluated only at t = s*1j with integer s, got {t!r}")
    n = -int(tc.imag)
    out = 1
    for _ in range(abs(n)):
        out = out * ratio
    return out if n >= 0 else 1 / out


@dataclass
class Rank2Functional:
    """Product functional psi1 (x) psi2 on rank 2 monomials: psi1 from
    (g, lambda_tilde) on the skeleton, psi2 from (lam, eta o face) on the
    boundary graph."""

    skeleton: WeightFunctional
    boundary: WeightFunctional
    beta_sign: int = -1

    def eval(self, m: Rank2Monomial):
        v1 = self.skeleton.eval(m.skeleton_part)
        return 0 if v1 == 0 else v1 * self.boundary.eval(m.boundary_part)

    def product_value(self, a: Rank2Monomial, b: Rank2Monomial):
        """psi(a b) as the product of its two factor values."""
        ws = _reduce(a.skeleton_part, b.skeleton_part)
        wb = ws and _reduce(a.boundary_part, b.boundary_part)
        if not wb:
            return 0
        v1 = self.skeleton._value(a.skeleton_part, *ws)
        return 0 if v1 == 0 else v1 * self.boundary._value(a.boundary_part, *wb)

    def check_graph(self, m: Rank2Monomial) -> None:
        self.skeleton.check_graph(m.skeleton_part)
        self.boundary.check_graph(m.boundary_part)

    def check_positive(self, m: Rank2Monomial, checked: set) -> None:
        self.skeleton.check_positive(m.skeleton_part, checked)
        self.boundary.check_positive(m.boundary_part, checked)

    def evolve(self, m: Rank2Monomial, t, checked: set | None = None) -> Rank2Monomial:
        checked = set() if checked is None else checked
        return Rank2Monomial(
            self.skeleton.evolve(m.skeleton_part, t, checked), self.boundary.evolve(m.boundary_part, t, checked)
        )


def functional_from_graph_weight(graph: DirectedGraph, w: GraphWeight, beta_sign: int = -1) -> WeightFunctional:
    if not w.is_total_on(graph):
        raise InputError("weight is not total on the graph")
    return WeightFunctional(graph, w, beta_sign)


def functional_from_rank2(c: Oriented2Complex, w: Rank2Weight, beta_sign: int = -1) -> Rank2Functional:
    if not w.is_total_on(c):
        raise InputError("rank-2 weight is not total on the complex")
    bg = boundary_graph(c)
    eta_edges = {eid: w.eta_at(fid, pos) for eid, (fid, pos) in bg.labels.items()}
    psi1 = WeightFunctional(c.skeleton, GraphWeight(dict(w.g), dict(w.lambda_tilde)), beta_sign)
    psi2 = WeightFunctional(bg.graph, GraphWeight(dict(w.lam), eta_edges), beta_sign)
    return Rank2Functional(psi1, psi2, beta_sign)


# ---------------------------------------------------------------------------
# Identity checkers
# ---------------------------------------------------------------------------

@dataclass
class KMSReport:
    passed: bool
    pairs_checked: int
    max_discrepancy: float
    worst_pair: tuple | None
    tol: float

    def to_dict(self) -> dict:
        worst = None if self.worst_pair is None else [repr(m) for m in self.worst_pair]
        return {
            "passed": self.passed,
            "pairs_checked": self.pairs_checked,
            "max_discrepancy": self.max_discrepancy,
            "worst_pair": worst,
            "tol": self.tol,
        }


def _meets(a, b) -> bool:
    """Whether the reduced word of a b is non-zero, coefficients aside."""
    if isinstance(a, Rank2Monomial):
        return _meets(a.skeleton_part, b.skeleton_part) and _meets(a.boundary_part, b.boundary_part)
    return _meet(a.nu, b.mu) != 0


def kms_check(psi, sample, tol=DEFAULT_TOL) -> KMSReport:
    """Check psi(x y) = psi(y sigma_(i beta_sign)(x)) over monomial pairs,
    exactly: at t = +-i the flow scales by an integer power of a lambda
    ratio, so for exact weights each d = lhs - rhs is exact, and the sweep
    passes iff every |d| <= tol.  Only the reported figures are floats.

    ``sample`` is any iterable of pairs, a generator included.  Within one
    call sigma is applied at most once per distinct x, and only to an x
    with some y x non-zero: sigma(x) is a nonzero multiple of x, so y x and
    y sigma(x) vanish together.  The memo is keyed by ``id(x)`` and holds
    every x, so an id cannot be reused while the call runs.  The sign of
    lambda is checked once per edge of the x's, ``evolve`` included, so a
    non-positive lambda raises InputError as when each pair was evolved
    on its own.  The worst pair is the first with the largest |d| > 0.
    """
    tol = as_tolerance(tol)
    worst = None
    maxd = 0
    pairs = 0
    t = 1j * psi.beta_sign
    checked: set = set()
    seen: dict = {}  # id(x) -> [x, sigma(x) or None until a pair needs it]
    for x, y in sample:
        pairs += 1
        lhs = psi.product_value(x, y)
        memo = seen.get(id(x))
        if memo is None:
            psi.check_positive(x, checked)
            memo = seen[id(x)] = [x, None]
        rhs = 0
        if _meets(y, x):
            if memo[1] is None:
                memo[1] = psi.evolve(x, t, checked)
            rhs = psi.product_value(y, memo[1])
        if lhs == rhs:
            continue
        d = abs(lhs - rhs)
        if d > maxd:
            maxd, worst = d, (x, y)
    return KMSReport(scalar_abs_leq(maxd, tol), pairs, float(maxd), worst, float(tol))


@dataclass
class GaugeReport:
    passed: bool
    checked: int
    violations: list

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checked": self.checked, "violations": [repr(v) for v in self.violations]}


def gauge_check(psi, sample: list) -> GaugeReport:
    """Gauge invariance, decided exactly: gamma_z scales S_mu S_nu* by z^k,
    k = |mu| - |nu| per factor, so it holds iff psi(m) = 0 whenever some
    k != 0.  psi is evaluated only there; other m are checked to lie on
    psi's graphs."""
    violations: list = []
    for m in sample:
        if m.balanced():
            psi.check_graph(m)
        elif psi.eval(m) != 0:
            violations.append(m)
    return GaugeReport(passed=not violations, checked=len(sample), violations=violations)


# ---------------------------------------------------------------------------
# Enumeration helpers for property sweeps
# ---------------------------------------------------------------------------

def all_paths(graph: DirectedGraph, max_len: int) -> list[Path]:
    """Every composable path of length <= max_len, in deterministic order."""
    out = [Path(v, ()) for v in graph.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            tail = path_range(graph, p)
            for eid in graph.out_edges(tail):
                nxt.append(Path(p.src, p.edges + (eid,)))
        out.extend(nxt)
        frontier = nxt
    return out


def all_monomials(graph: DirectedGraph, max_len: int) -> list[PathMonomial]:
    """Every reduced monomial S_mu S_nu* with both path lengths <= max_len."""
    paths = all_paths(graph, max_len)
    by_range: dict[str, list[Path]] = {}
    for p in paths:
        by_range.setdefault(path_range(graph, p), []).append(p)
    return [PathMonomial(graph, mu, nu, 1) for group in by_range.values() for mu in group for nu in group]
