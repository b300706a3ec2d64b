"""Rank 2 graph weights and 2D CW weights on oriented 2-complexes.

A rank 2 weight is a quadruple (g, lt, lam, eta): (g, lt) solves the weight
equation on the 1-skeleton while (lam, eta) solves it on the boundary graph,
where the boundary graph's vertex function is lam and its edge function is
eta composed with the face label.  The two coupling modes relate lam and lt:

    tight:     lam(e) = lt(e)
    standard:  lam(e) = lt(e) * g(dst(e))

Solvers run top down: classify special (constant eta) weights on the
boundary graph first, then lift each family to the skeleton.  The standard
lift is explicit, g(v) = sum of lam over the bundle at v; the tight lift
introduces a scale parameter on lam and classifies it through a second
determinant polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import Oriented2Complex, boundary_graph, predecessor_graph
from .errors import InputError, MissingValue, ModeError, NonTriangularFace
from .exact import (
    AlgebraicScalar,
    FieldElement,
    Poly,
    _as_fraction,
    det_bareiss_poly,
    isolate_positive_roots,
    scalar_sign,
    scalar_to_float,
)
from .graphs import DirectedGraph
from .solver import (
    DEFAULT_EPS,
    DEFAULT_TOL,
    GraphWeight,
    WeightReport,
    _abs_leq,
    _eq_scalar,
    evaluate_special_matrix,
    parse_scalar,
    positive_kernel,
    solve_special_weights,
    verify_graph_weight,
)

MODE_RANK2 = "rank2"
MODE_STANDARD = "standard"
MODE_TIGHT = "tight"


@dataclass
class Rank2Weight:
    """Weight bundle on a complex.  ``eta`` holds one value per face; spliced
    weights may instead carry per-instance values in ``eta_instances`` keyed
    by (face id, position), which refine ``eta`` wherever present."""

    g: dict
    lambda_tilde: dict
    lam: dict
    eta: dict
    mode: str = MODE_RANK2
    eta_instances: dict = field(default_factory=dict)

    def eta_at(self, fid: str, position: int):
        if (fid, position) in self.eta_instances:
            return self.eta_instances[(fid, position)]
        try:
            return self.eta[fid]
        except KeyError:
            raise MissingValue(f"no eta value for face {fid!r}") from None

    def is_total_on(self, c: Oriented2Complex) -> bool:
        sk = c.skeleton
        if not all(v in self.g for v in sk.vertices):
            return False
        if not all(e.id in self.lambda_tilde and e.id in self.lam for e in sk.edges):
            return False
        for f in c.faces:
            for k in range(len(f.boundary)):
                if (f.id, k) not in self.eta_instances and f.id not in self.eta:
                    return False
        return True

    def faithful_on(self, c: Oriented2Complex) -> bool:
        sk = c.skeleton
        vals = [self.g[v] for v in sk.vertices]
        vals += [self.lam[e.id] for e in sk.edges]
        vals += [self.lambda_tilde[e.id] for e in sk.edges]
        vals += [self.eta_at(f.id, k) for f in c.faces for k in range(len(f.boundary))]
        return all(scalar_sign(x) != 0 for x in vals)

    def special_on(self, c: Oriented2Complex) -> bool:
        vals = [self.eta_at(f.id, k) for f in c.faces for k in range(len(f.boundary))]
        return all(_eq_scalar(x, vals[0]) for x in vals[1:]) if vals else True


def boundary_weight_residuals(c: Oriented2Complex, lam: dict, eta_of, step: int = 1) -> dict[str, object]:
    """Exact residuals of lam(e) = sum over face instances of eta * lam(e')
    at every skeleton edge e that appears in at least one face, where e' is
    the follower of e in the boundary word for ``step`` = +1 and its
    predecessor for ``step`` = -1.  ``eta_of(face id, position)`` gives the
    face coefficient of each instance."""
    sums: dict[str, object] = {}
    for f in c.faces:
        n = len(f.boundary)
        for k in range(n):
            e_cur = f.boundary[k]
            term = eta_of(f.id, k) * lam[f.boundary[(k + step) % n]]
            sums[e_cur] = term if e_cur not in sums else sums[e_cur] + term
    return {e: lam[e] - s for e, s in sums.items()}


def _residual_summary(sk_report: WeightReport, residual_maps: list[dict], tol: Fraction):
    """Pass flag, absolute float residual maps and largest residual of a
    skeleton report together with exact residual maps."""
    within = [_abs_leq(r, tol) for m in residual_maps for r in m.values()]
    floats = [{k: abs(scalar_to_float(r)) for k, r in m.items()} for m in residual_maps]
    maxr = max([sk_report.max_residual] + [x for m in floats for x in m.values()])
    return sk_report.passed and all(within), floats, maxr


@dataclass
class Rank2Report:
    passed: bool
    skeleton: WeightReport
    boundary_residuals: dict[str, float]
    coupling_residuals: dict[str, float]
    max_residual: float
    faithful: bool
    special: bool
    mode: str

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "max_residual": self.max_residual,
            "skeleton": self.skeleton.to_dict(),
            "boundary_residuals": self.boundary_residuals,
            "coupling_residuals": self.coupling_residuals,
            "faithful": self.faithful,
            "special": self.special,
        }


def verify_rank2(c: Oriented2Complex, w: Rank2Weight, tol=DEFAULT_TOL) -> Rank2Report:
    """Check both weight equations plus the coupling demanded by the mode."""
    if not w.is_total_on(c):
        raise MissingValue("rank-2 weight is not total on the complex")
    tol = _as_fraction(tol)
    sk_report = verify_graph_weight(c.skeleton, GraphWeight(w.g, w.lambda_tilde), tol)
    bres = boundary_weight_residuals(c, w.lam, w.eta_at)
    coupling: dict[str, object] = {}
    if w.mode == MODE_TIGHT:
        for e in c.skeleton.edges:
            coupling[e.id] = w.lam[e.id] - w.lambda_tilde[e.id]
    elif w.mode == MODE_STANDARD:
        for e in c.skeleton.edges:
            coupling[e.id] = w.lam[e.id] - w.lambda_tilde[e.id] * w.g[e.dst]
    passed, (bfl, cfl), maxr = _residual_summary(sk_report, [bres, coupling], tol)
    return Rank2Report(
        passed=passed,
        skeleton=sk_report,
        boundary_residuals=bfl,
        coupling_residuals=cfl,
        max_residual=maxr,
        faithful=w.faithful_on(c),
        special=w.special_on(c),
        mode=w.mode,
    )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@dataclass
class Rank2Family:
    """A solution family of the top-down solve.  ``weight`` holds exact
    representative values (scale parameters fixed at 1 for standard mode and
    at the solved root for tight mode); ``free_parameters`` names the
    remaining positive scale freedoms."""

    mode: str
    eta: AlgebraicScalar
    weight: Rank2Weight
    free_parameters: list[str]
    scale_det: Poly | None = None
    scale_root: object | None = None
    diagnostics: dict = field(default_factory=dict)


def _vector_as_map(vertices, vec) -> dict:
    return dict(zip(vertices, vec))


def solve_2dcw(
    c: Oriented2Complex,
    mode: str = MODE_STANDARD,
    eps=DEFAULT_EPS,
) -> list[Rank2Family]:
    """Enumerate special (constant eta) 2D CW weight families on ``c``.

    Only constant-eta families are enumerated: non-special families form
    positive-dimensional varieties with no finite classification, so they
    are covered by the parametric verifier instead (pass a concrete
    quadruple to ``verify_rank2``).
    """
    if mode not in (MODE_STANDARD, MODE_TIGHT):
        raise ModeError(f"unknown solve mode {mode!r}")
    bg = boundary_graph(c)
    families: list[Rank2Family] = []
    if not bg.graph.edges:
        # no faces: the boundary equation is vacuous, only the skeleton
        # equation constrains anything, so there is no eta classification
        families = _solve_no_faces(c, mode, eps)
    else:
        for fam in solve_special_weights(bg.graph, eps).faithful_families():
            lam0 = _vector_as_map(bg.graph.vertices, fam.kernel.positive)
            if mode == MODE_STANDARD:
                families.append(_lift_standard(c, fam.eta, lam0))
            else:
                families.extend(_lift_tight(c, fam.eta, lam0, eps))
    return families


def _lift_standard(c: Oriented2Complex, eta: AlgebraicScalar, lam0: dict) -> Rank2Family:
    """Explicit standard-mode lift: substituting lt = lam / (g o dst) into
    the skeleton equation collapses it to g(v) = sum of lam over bundle(v)."""
    sk = c.skeleton
    g: dict = {}
    free = ["C"]
    for v in sk.vertices:
        out = sk.out_edges(v)
        if out:
            acc = None
            for eid in out:
                acc = lam0[eid] if acc is None else acc + lam0[eid]
            g[v] = acc
        else:
            g[v] = Fraction(1)  # sinks are unconstrained; fix a representative
            free.append(f"g[{v}]")
    lt = {eid: lam0[eid] / g[sk.dst(eid)] for eid in sk.edge_ids()}
    etaval = _eta_scalar(eta, lam0.values())
    eta_map = {f.id: etaval for f in c.faces}
    w = Rank2Weight(g=g, lambda_tilde=lt, lam=dict(lam0), eta=eta_map, mode=MODE_STANDARD)
    return Rank2Family(mode=MODE_STANDARD, eta=eta, weight=w, free_parameters=free)


def _eta_scalar(eta: AlgebraicScalar, companions=()):
    """Exact scalar for a root that can mix arithmetically with the given
    companion values.  Rationals mix with everything; an irrational root
    reuses a companion number field exactly when that field was built from
    the same root, and otherwise degrades to floats beside incompatible
    exact values."""
    if eta.is_rational:
        return eta.rational
    foreign_field = False
    for v in companions:
        if isinstance(v, FieldElement):
            if v.field.root is eta:
                return v.field.gen()
            foreign_field = True
        elif isinstance(v, float):
            return eta.to_float()
    if foreign_field:
        return eta.to_float()
    return eta.number_field().gen()


def scale_determinant(graph: DirectedGraph, lam0: dict) -> Poly:
    """Determinant of the skeleton system g = C * (weighted adjacency) g as a
    polynomial in the scale C; entries C*sum(lam0) - identity on non-sinks.

    Exact lambda values go through ``det_bareiss_poly``; float values
    (possible after a numeric kernel fallback) are handled by evaluating the
    determinant at sample points and interpolating."""
    if any(isinstance(v, float) for v in lam0.values()):
        return _scale_determinant_float(graph, lam0)
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    zero = None
    for v in lam0.values():
        zero = v * 0
        break
    if zero is None:
        zero = Fraction(0)
    acc = [[zero for _ in range(n)] for _ in range(n)]
    for e in graph.edges:
        i, j = index[e.src], index[e.dst]
        acc[i][j] = acc[i][j] + lam0[e.id]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            const = Fraction(-1) if (i == j and not graph.is_sink(graph.vertices[i])) else Fraction(0)
            row.append(Poly([zero + const, acc[i][j]]))
        entries.append(row)
    return det_bareiss_poly(entries)


def _scale_determinant_float(graph: DirectedGraph, lam0: dict) -> Poly:
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    a = np.zeros((n, n))
    for e in graph.edges:
        a[index[e.src], index[e.dst]] += scalar_to_float(lam0[e.id])
    d = np.diag([0.0 if graph.is_sink(v) else 1.0 for v in graph.vertices])
    pts = np.arange(n + 1, dtype=float)
    vals = np.array([np.linalg.det(c * a - d) for c in pts])
    coeffs = np.polynomial.polynomial.polyfit(pts, vals, n)
    cleaned = [float(cv) if abs(cv) > 1e-12 else 0.0 for cv in coeffs]
    return Poly(cleaned)


def _poly_positive_roots_numeric(p: Poly) -> list[float]:
    """Positive real roots of a polynomial with number-field or float
    coefficients, found numerically and polished by bisection on the float
    evaluation."""
    if p.degree < 1:
        return []
    coeffs = [scalar_to_float(cv, 1e-16) for cv in p.coeffs]
    roots = np.roots(list(reversed(coeffs)))
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 and r.real > 1e-12:
            out.append(_polish_root(coeffs, float(r.real)))
    out.sort()
    dedup: list[float] = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-9 * max(1.0, abs(r)):
            dedup.append(r)
    return dedup


def _polish_root(coeffs: list[float], x: float) -> float:
    def f(t: float) -> float:
        acc = 0.0
        for cv in reversed(coeffs):
            acc = acc * t + cv
        return acc

    # bracket around x, then bisect
    step = max(abs(x), 1.0) * 1e-6
    lo, hi = x - step, x + step
    tries = 0
    while f(lo) * f(hi) > 0 and tries < 60:
        step *= 2.0
        lo, hi = x - step, x + step
        tries += 1
    if f(lo) * f(hi) > 0:
        return x
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _solve_scale(sk: DirectedGraph, lam0: dict, eps) -> tuple[Poly, list[tuple]]:
    """Scale the boundary solution lam0 onto the skeleton: C*lam0 satisfies
    the skeleton weight equation for a positive g exactly at the positive
    roots C of the scale determinant with a positive kernel there.  Returns
    the determinant and one (root, C*lam0, g) per such root."""
    det = scale_determinant(sk, lam0)
    if det.is_zero():
        scale_roots: list = []
    elif all(isinstance(cv, (int, Fraction)) for cv in det.coeffs):
        scale_roots = isolate_positive_roots(det, _as_fraction(eps))
    else:
        scale_roots = _poly_positive_roots_numeric(det)
    solutions = []
    for root in scale_roots:
        cval = _eta_scalar(root, lam0.values()) if isinstance(root, AlgebraicScalar) else root
        lam_scaled = {eid: _mixed_mul(cval, lam0[eid]) for eid in lam0}
        kr = positive_kernel(_skeleton_matrix_at(sk, lam_scaled))
        if kr.status == "positive":
            solutions.append((root, lam_scaled, _vector_as_map(sk.vertices, kr.positive)))
    return det, solutions


def _lift_tight(c: Oriented2Complex, eta: AlgebraicScalar, lam0: dict, eps) -> list[Rank2Family]:
    """Tight-mode lift: lam = C*lam0 must itself satisfy the skeleton weight
    equation for some g, which happens exactly at positive roots C of the
    scale determinant."""
    det, solutions = _solve_scale(c.skeleton, lam0, eps)
    out: list[Rank2Family] = []
    for root, lam_scaled, g in solutions:
        etaval = _eta_scalar(eta, lam_scaled.values())
        w = Rank2Weight(
            g=g,
            lambda_tilde=dict(lam_scaled),
            lam=dict(lam_scaled),
            eta={f.id: etaval for f in c.faces},
            mode=MODE_TIGHT,
        )
        out.append(
            Rank2Family(
                mode=MODE_TIGHT,
                eta=eta,
                weight=w,
                free_parameters=["g"],
                scale_det=det,
                scale_root=root,
            )
        )
    return out


def _mixed_mul(cval, lam_val):
    """C times a lambda component; falls back to floats when the scale is
    only known numerically."""
    if isinstance(cval, float):
        return cval * scalar_to_float(lam_val)
    return cval * lam_val


def _skeleton_matrix_at(graph: DirectedGraph, lam: dict) -> list[list]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    float_mode = any(isinstance(v, float) for v in lam.values())
    zero: object = 0.0 if float_mode else Fraction(0)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for e in graph.edges:
        i, j = index[e.src], index[e.dst]
        val = scalar_to_float(lam[e.id]) if float_mode else lam[e.id]
        rows[i][j] = rows[i][j] + val
    for i, v in enumerate(graph.vertices):
        if not graph.is_sink(v):
            rows[i][i] = rows[i][i] - 1
    return rows


def _solve_no_faces(c: Oriented2Complex, mode: str, eps) -> list[Rank2Family]:
    """Complexes without faces: eta and lam are unconstrained by the boundary
    equation; report the skeleton classification only."""
    sk = c.skeleton
    report = solve_special_weights(sk, eps)
    fams = []
    for fam in report.faithful_families():
        gmap = _vector_as_map(sk.vertices, fam.kernel.positive)
        etaval = _eta_scalar(fam.eta, gmap.values())
        ltmap = {eid: etaval for eid in sk.edge_ids()}
        lam = dict(ltmap) if mode == MODE_TIGHT else {
            eid: ltmap[eid] * gmap[sk.dst(eid)] for eid in sk.edge_ids()
        }
        w = Rank2Weight(g=gmap, lambda_tilde=ltmap, lam=lam, eta={}, mode=mode)
        fams.append(
            Rank2Family(
                mode=mode,
                eta=fam.eta,
                weight=w,
                free_parameters=["C"],
                diagnostics={"note": "no faces; boundary equation vacuous"},
            )
        )
    return fams


# ---------------------------------------------------------------------------
# Triangular weights
# ---------------------------------------------------------------------------

@dataclass
class TriangularWeight:
    """Weight bundle for triangular complexes with separate follower (A) and
    predecessor (B) face coefficients."""

    g: dict
    lambda_tilde: dict
    lam: dict
    eta_a: dict
    eta_b: dict
    tight: bool = False


@dataclass
class TriangularReport:
    passed: bool
    skeleton: WeightReport
    residuals_a: dict[str, float]
    residuals_b: dict[str, float]
    tightness_residuals: dict[str, float]
    max_residual: float
    faithful: bool
    special: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "skeleton": self.skeleton.to_dict(),
            "residuals_a": self.residuals_a,
            "residuals_b": self.residuals_b,
            "tightness_residuals": self.tightness_residuals,
            "faithful": self.faithful,
            "special": self.special,
        }


def _require_triangular(c: Oriented2Complex) -> None:
    bad = [f.id for f in c.faces if len(f.boundary) != 3]
    if bad:
        raise NonTriangularFace(f"faces {bad} are not triangles")


def verify_triangular(c: Oriented2Complex, w: TriangularWeight, tol=DEFAULT_TOL) -> TriangularReport:
    """Residuals of the follower equation (eta_a), the predecessor equation
    (eta_b), the skeleton equation, and, when flagged tight, the matching
    conditions lt = lam and eta_a = eta_b."""
    _require_triangular(c)
    tol = _as_fraction(tol)
    sk_report = verify_graph_weight(c.skeleton, GraphWeight(w.g, w.lambda_tilde), tol)
    res_a = boundary_weight_residuals(c, w.lam, lambda fid, k: w.eta_a[fid], 1)
    res_b = boundary_weight_residuals(c, w.lam, lambda fid, k: w.eta_b[fid], -1)
    tight_res: dict[str, object] = {}
    if w.tight:
        for e in c.skeleton.edges:
            tight_res[f"lambda[{e.id}]"] = w.lam[e.id] - w.lambda_tilde[e.id]
        for f in c.faces:
            tight_res[f"eta[{f.id}]"] = w.eta_a[f.id] - w.eta_b[f.id]
    passed, (fa, fb, ft), maxr = _residual_summary(sk_report, [res_a, res_b, tight_res], tol)
    vals = [w.g[v] for v in c.skeleton.vertices]
    vals += [w.lam[e.id] for e in c.skeleton.edges]
    vals += [w.eta_a[f.id] for f in c.faces] + [w.eta_b[f.id] for f in c.faces]
    faithful = all(scalar_sign(x) != 0 for x in vals)
    etas = [w.eta_a[f.id] for f in c.faces] + [w.eta_b[f.id] for f in c.faces]
    special = all(_eq_scalar(x, etas[0]) for x in etas[1:]) if etas else True
    return TriangularReport(
        passed=passed,
        skeleton=sk_report,
        residuals_a=fa,
        residuals_b=fb,
        tightness_residuals=ft,
        max_residual=maxr,
        faithful=faithful,
        special=special,
    )


@dataclass
class TriangularFamily:
    eta: AlgebraicScalar
    lam: dict
    scale_root: object
    weight: TriangularWeight
    free_parameters: list[str]
    det: Poly
    scale_det: Poly


def solve_triangular_special(c: Oriented2Complex, eps=DEFAULT_EPS) -> list[TriangularFamily]:
    """Classify special faithful tight triangular weights.

    The follower system determinant (a polynomial in eta) picks the candidate
    eta values; at each positive root the follower and predecessor systems
    are solved jointly for lam, positivity is required, and the skeleton
    equation then classifies the lam scale through a second determinant.
    """
    _require_triangular(c)
    bg = boundary_graph(c)
    pg = predecessor_graph(c)
    report = solve_special_weights(bg.graph, eps)
    if report.status != "ok":
        return []
    families: list[TriangularFamily] = []
    for fam in report.families:
        eta = fam.eta
        rows_a = evaluate_special_matrix(bg.graph, eta)
        rows_b = evaluate_special_matrix(pg.graph, eta)
        stacked = rows_a + rows_b
        kr = positive_kernel(stacked)
        if kr.status != "positive":
            continue
        lam0 = _vector_as_map(bg.graph.vertices, kr.positive)
        det2, solutions = _solve_scale(c.skeleton, lam0, eps)
        for root, lam_scaled, gmap in solutions:
            etaval = _eta_scalar(eta, lam_scaled.values())
            w = TriangularWeight(
                g=gmap,
                lambda_tilde=dict(lam_scaled),
                lam=dict(lam_scaled),
                eta_a={f.id: etaval for f in c.faces},
                eta_b={f.id: etaval for f in c.faces},
                tight=True,
            )
            families.append(
                TriangularFamily(
                    eta=eta,
                    lam=lam_scaled,
                    scale_root=root,
                    weight=w,
                    free_parameters=["g"],
                    det=report.det,
                    scale_det=det2,
                )
            )
    return families


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def weight_from_dict(data, mode: str | None = None) -> TriangularWeight | Rank2Weight | GraphWeight:
    """Weight from its JSON record, chosen by key: ``eta_a`` makes a
    TriangularWeight, ``lambda_tilde`` a Rank2Weight and anything else a
    GraphWeight.  ``data`` is the decoded JSON object; values are parsed
    exactly, and ``mode`` overrides a rank-2 record's coupling mode."""

    def values(key: str, required: bool = True) -> dict:
        if key not in data:
            if required:
                raise MissingValue(f"weight file missing field {key!r}")
            return {}
        if not isinstance(data[key], dict):
            raise InputError(f"weight file field {key!r} must be a JSON object")
        return {k: parse_scalar(v) for k, v in data[key].items()}

    if "eta_a" in data:
        return TriangularWeight(
            g=values("g"),
            lambda_tilde=values("lambda_tilde"),
            lam=values("lambda"),
            eta_a=values("eta_a"),
            eta_b=values("eta_b"),
            tight=bool(data.get("tight", False)),
        )
    if "lambda_tilde" in data:
        mode = mode or data.get("mode", MODE_RANK2)
        if mode not in (MODE_RANK2, MODE_STANDARD, MODE_TIGHT):
            raise ModeError(f"unknown rank-2 coupling mode {mode!r}")
        eta_instances = {}
        for key, val in values("eta_instances", required=False).items():
            fid, pos = key.rsplit(":", 1)
            eta_instances[(fid, int(pos))] = val
        return Rank2Weight(
            g=values("g"),
            lambda_tilde=values("lambda_tilde"),
            lam=values("lambda"),
            eta=values("eta", required=False),
            mode=mode,
            eta_instances=eta_instances,
        )
    return GraphWeight(g=values("g"), lam=values("lambda"))
