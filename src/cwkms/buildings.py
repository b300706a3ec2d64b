"""Desk-scale rank-2 building combinatorics: projective planes, triangle
presentations, their quotient complexes, sector graphs, and the shape-lattice
weight law.

The sector graphs live on the incident point-line pairs of the plane.  The
successor pair is determined through the join of the current triple's third
generator with the chosen new point, and dually through line meets in the
reverse direction (``_plus_targets``, ``_minus_targets``).  The cardinality
contract (out degree exactly q^2) is enforced, and its violation raises
AmbiguousSector rather than silently producing a defective graph.

The shape-lattice weights are exact: base values are read by
``parse_scalar`` and the decay law is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .complexes import Oriented2Complex, build_complex
from .errors import AmbiguousSector, InputError
from .exact import parse_scalar
from .graphs import DirectedGraph, build_graph, spec_fields, spec_ids, spec_int, spec_list, spec_object
from .solver import SpecialWeightFamily, solve_special_weights


@dataclass(frozen=True)
class IncidencePlane:
    """Finite projective plane of order q given by its point set and lines
    (as point sets)."""

    points: tuple[str, ...]
    lines: tuple[frozenset, ...]
    q: int

    def validate(self) -> None:
        n = self.q * self.q + self.q + 1
        if len(self.points) != n:
            raise InputError(f"expected {n} points, got {len(self.points)}")
        if len(set(self.lines)) != n:
            raise InputError(f"expected {n} distinct lines, got {len(set(self.lines))}")
        for line in self.lines:
            if len(line) != self.q + 1:
                raise InputError(f"line {sorted(line)} does not have q+1 points")
        for p in self.points:
            deg = sum(1 for line in self.lines if p in line)
            if deg != self.q + 1:
                raise InputError(f"point {p!r} lies on {deg} lines, expected {self.q + 1}")
        for p1, p2 in combinations(self.points, 2):
            common = [line for line in self.lines if p1 in line and p2 in line]
            if len(common) != 1:
                raise InputError(f"points {p1!r},{p2!r} lie on {len(common)} common lines")

    def join(self, p1: str, p2: str) -> frozenset:
        """The unique line through two distinct points."""
        for line in self.lines:
            if p1 in line and p2 in line:
                return line
        raise InputError(f"no line through {p1!r} and {p2!r}")

    def meet(self, l1: frozenset, l2: frozenset) -> str:
        """The unique intersection point of two distinct lines."""
        common = l1 & l2
        if len(common) != 1:
            raise InputError("lines do not meet in a single point")
        return next(iter(common))


def fano_plane() -> IncidencePlane:
    """The 7-point plane from the difference set {0, 1, 3} mod 7."""
    points = tuple(f"p{i}" for i in range(7))
    lines = tuple(
        frozenset({f"p{i % 7}", f"p{(i + 1) % 7}", f"p{(i + 3) % 7}"}) for i in range(7)
    )
    plane = IncidencePlane(points, lines, 2)
    plane.validate()
    return plane


@dataclass(frozen=True)
class TrianglePresentation:
    """Relation triples over a projective plane with a point-line bijection.

    Triples are read closed under cyclic rotation; every rotation (x, y, .)
    requires y on the line of x, and each incident pair extends to exactly
    one triple (so ``third`` is single valued)."""

    plane: IncidencePlane
    line_of: dict  # point -> frozenset of points (a line of the plane)
    triples: tuple[tuple[str, str, str], ...]

    def validate(self) -> None:
        for p in self.plane.points:
            if p not in self.line_of:
                raise InputError(f"point-line map is not total: no line for point {p!r}")
        for p in self.line_of:
            if p not in self.plane.points:
                raise InputError(f"point-line map names unknown point {p!r}")
        for t in self.triples:
            for p in t:
                if p not in self.plane.points:
                    raise InputError(f"triple {t!r} names unknown point {p!r}")
        images = {self.line_of[p] for p in self.plane.points}
        if len(images) != len(self.plane.points):
            raise InputError("point-line map is not a bijection")
        if not images <= set(self.plane.lines):
            raise InputError("point-line map does not land in the plane's lines")
        for (x, y), thirds in self._thirds.items():
            if y not in self.line_of[x]:
                raise InputError(f"triple ({x},{y},{min(thirds)}): {y!r} is not on the line of {x!r}")
            if len(thirds) > 1:
                raise InputError(f"pair ({x},{y}) extends to two different triples")

    @cached_property
    def _thirds(self) -> dict[tuple[str, str], set[str]]:
        """Each pair (x, y) of a rotated triple (x, y, z) -> its thirds z."""
        out: dict = {}
        for (x, y, z) in self.triples:
            for (p, q, r) in ((x, y, z), (y, z, x), (z, x, y)):
                out.setdefault((p, q), set()).add(r)
        return out

    def incident_pairs(self) -> list[tuple[str, str]]:
        """All (a, b) with b on the line of a, in stable point order."""
        order = {p: i for i, p in enumerate(self.plane.points)}
        out = []
        for a in self.plane.points:
            for b in sorted(self.line_of[a], key=order.get):
                out.append((a, b))
        return out

    def third(self, a: str, b: str) -> str:
        matches = self._thirds.get((a, b), set())
        if len(matches) != 1:
            raise AmbiguousSector(
                f"pair ({a},{b}) lies in {len(matches)} triples", vertex=(a, b)
            )
        return next(iter(matches))


def presentation_from_spec(spec: dict) -> TrianglePresentation:
    """Parse the JSON presentation format: q, points, lines (point lists),
    lambda (point -> line index), triples."""
    q, points, lines, lam, triples = spec_fields(
        spec, "presentation spec", "q", "points", "lines", "lambda", "triples"
    )
    points = tuple(spec_ids(points, "points"))
    lines = tuple(frozenset(spec_ids(line, "line")) for line in spec_list(lines, "lines"))
    plane = IncidencePlane(points, lines, spec_int(q, "q"))
    plane.validate()
    line_of = {}
    for p, idx in spec_object(lam, "lambda").items():
        if not 0 <= spec_int(idx, f"lambda({p})") < len(lines):
            raise InputError(f"lambda({p}) = {idx} is not a line index")
        line_of[p] = lines[idx]
    for t in spec_list(triples, "triples"):
        if len(spec_ids(t, "triple")) != 3:
            raise InputError(f"triple {t!r} does not have three points")
    tp = TrianglePresentation(plane, line_of, tuple(map(tuple, triples)))
    tp.validate()
    return tp


def presentation_complex(tp: TrianglePresentation) -> Oriented2Complex:
    """One-vertex quotient complex: a loop per generator, a triangular face
    per cyclic relation class (each class contributes once, with the stored
    starting generator)."""
    tp.validate()
    seen_classes: set[frozenset] = set()
    canonical: list[tuple[str, str, str]] = []
    for t in tp.triples:
        cls = frozenset({t, (t[1], t[2], t[0]), (t[2], t[0], t[1])})
        if cls not in seen_classes:
            seen_classes.add(cls)
            canonical.append(t)
    spec = {
        "vertices": ["v"],
        "edges": [{"id": p, "src": "v", "dst": "v"} for p in tp.plane.points],
        "faces": [
            {"id": f"sigma{i}", "boundary": list(t)} for i, t in enumerate(canonical)
        ],
    }
    return build_complex(spec)


# ---------------------------------------------------------------------------
# Sector graphs
# ---------------------------------------------------------------------------

def _pair_id(a: str, b: str) -> str:
    return f"{a}|{b}"


def _plus_targets(tp: TrianglePresentation, a: str, b: str) -> list[tuple[str, str]]:
    """Forward successors of (a, b): with x the third generator of the triple
    through (a, b), each admissible new point d (off the line of b) selects
    the unique c whose line joins x and d."""
    x = tp.third(a, b)
    plane = tp.plane
    line_to_point = {tp.line_of[p]: p for p in plane.points}
    out = []
    for d in plane.points:
        if d in tp.line_of[b]:
            continue
        if d == x:
            raise AmbiguousSector(f"degenerate choice d == x for pair ({a},{b})", vertex=(a, b))
        line = plane.join(x, d)
        c = line_to_point.get(line)
        if c is None:
            raise AmbiguousSector(f"no generator with line through {x!r} and {d!r}", vertex=(a, b))
        out.append((c, d))
    return out


def _minus_targets(tp: TrianglePresentation, a: str, b: str) -> list[tuple[str, str]]:
    """Reverse successors of (a, b), dually: each admissible new point c
    (with a off the line of c) selects d as the meet of the lines of c and
    of x, the third generator of the triple through (a, b)."""
    x = tp.third(a, b)
    plane = tp.plane
    out = []
    for c in plane.points:
        if a in tp.line_of[c]:
            continue
        if c == x:
            raise AmbiguousSector(f"degenerate choice c == x for pair ({a},{b})", vertex=(a, b))
        d = plane.meet(tp.line_of[c], tp.line_of[x])
        out.append((c, d))
    return out


def sector_graphs(tp: TrianglePresentation) -> tuple[DirectedGraph, DirectedGraph]:
    """Build the forward and reverse sector graphs on the incident pairs.

    Both graphs are validated against the cardinality contract: exactly q^2
    out-edges at every vertex, every target an incident pair.  Violations
    raise AmbiguousSector with the failing pair in the payload.
    """
    tp.validate()
    pairs = tp.incident_pairs()
    q2 = tp.plane.q ** 2
    pair_set = set(pairs)
    graphs = []
    for direction, targets_of in (("plus", _plus_targets), ("minus", _minus_targets)):
        edges = []
        for (a, b) in pairs:
            targets = targets_of(tp, a, b)
            if len(targets) != q2 or len(set(targets)) != q2:
                raise AmbiguousSector(
                    f"{direction} rule yields {len(targets)} targets at ({a},{b}), expected {q2}",
                    vertex=(a, b),
                )
            for (c, d) in targets:
                if (c, d) not in pair_set:
                    raise AmbiguousSector(
                        f"{direction} rule left the vertex set at ({a},{b}) -> ({c},{d})",
                        vertex=(a, b),
                    )
                edges.append({
                    "id": f"{_pair_id(a, b)}>{_pair_id(c, d)}",
                    "src": _pair_id(a, b),
                    "dst": _pair_id(c, d),
                })
        graphs.append(
            build_graph({"vertices": [_pair_id(a, b) for (a, b) in pairs], "edges": edges})
        )
    return graphs[0], graphs[1]


@dataclass
class MatchedPair:
    """Weights on the two sector graphs agreeing on the product lam*g at
    every vertex (after fixing the relative scale)."""

    plus: SpecialWeightFamily
    minus: SpecialWeightFamily
    scale: float
    psi_values: dict[str, float]


def matched_weight_search(gplus: DirectedGraph, gminus: DirectedGraph) -> list[MatchedPair]:
    """Search constant-edge-weight faithful weights on both sector graphs and
    keep the pairs whose vertexwise products lam*g agree up to one global
    rescaling of g- (weights are only defined up to scale)."""
    if set(gplus.vertices) != set(gminus.vertices):
        raise InputError("sector graphs must share their vertex set")
    rp = solve_special_weights(gplus)
    rm = solve_special_weights(gminus)
    out = []
    for fp in rp.faithful_families():
        vp = dict(zip(gplus.vertices, map(float, fp.kernel.positive)))
        lp = float(fp.eta)
        prod_p = {v: lp * vp[v] for v in gplus.vertices}
        for fm in rm.faithful_families():
            vm = dict(zip(gminus.vertices, map(float, fm.kernel.positive)))
            lm = float(fm.eta)
            prod_m = {v: lm * vm[v] for v in gminus.vertices}
            ratios = [prod_p[v] / prod_m[v] for v in gplus.vertices]
            t = ratios[0]
            if all(abs(r - t) <= 1e-10 * max(1.0, abs(t)) for r in ratios):
                out.append(
                    MatchedPair(plus=fp, minus=fm, scale=t, psi_values=dict(prod_p))
                )
    return out


# ---------------------------------------------------------------------------
# Shape-lattice weights
# ---------------------------------------------------------------------------

def decay_law(q: int):
    """The balanced solution law: each unit shape step divides the weight by
    the branching factor q^2, so a node equals the sum of its children."""
    ratio = Fraction(1, q * q)

    def law(m1: int, m2: int) -> Fraction:
        return ratio ** (m1 + m2)

    return law


@dataclass
class LatticeReport:
    passed: bool
    max_residual: float
    residuals: dict  # (letter, m1, m2, direction) -> exact residual
    weights: dict  # (letter, m1, m2) -> exact weight

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "residuals": {
                f"{k[0]},{k[1]},{k[2]},dir{k[3]}": str(v) for k, v in self.residuals.items()
            },
            "exact": True,
        }


def lattice_weight_check(q: int, bound: tuple[int, int], base: dict) -> LatticeReport:
    """Instantiate weights on the truncated grid of parallelogram shapes
    (m1, m2) <= bound under the balanced law and verify the branching
    equation g(u) = sum of g over the q^2 children of shape m + e_i, all
    sharing u's base letter, in both directions, at every node whose
    children stay inside the bound.

    ``base`` gives the positive value at each base letter, read by
    ``parse_scalar``, so every residual is exact.
    """
    if q < 1:
        raise InputError("q must be positive")
    if min(bound) < 0:
        raise InputError(f"bound must be non-negative, got {bound}")
    m1max, m2max = bound
    law = decay_law(q)
    base = {letter: parse_scalar(v) for letter, v in base.items()}
    for letter, v in base.items():
        if v <= 0:
            raise InputError(f"base value for {letter!r} must be positive")
    weights = {}
    for letter, v in base.items():
        for m1 in range(m1max + 1):
            for m2 in range(m2max + 1):
                weights[(letter, m1, m2)] = v * law(m1, m2)
    residuals = {}
    for (letter, m1, m2), val in weights.items():
        for direction, (c1, c2) in ((1, (m1 + 1, m2)), (2, (m1, m2 + 1))):
            if c1 > m1max or c2 > m2max:
                continue
            child = weights[(letter, c1, c2)]
            residuals[(letter, m1, m2, direction)] = val - q * q * child
    maxr = max((abs(float(r)) for r in residuals.values()), default=0.0)
    passed = all(r == 0 for r in residuals.values())
    return LatticeReport(
        passed=passed,
        max_residual=maxr,
        residuals=residuals,
        weights=weights,
    )
