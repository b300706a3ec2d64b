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
determinant polynomial.  Its roots are exact: a scale determinant over the
number field Q(eta) of the boundary root is solved through its norm, and
the family then lies in the field Q(C) of the scale root, eta included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Oriented2Complex, boundary_graph, predecessor_graph
from .errors import CWKMSError, InputError, ZeroDivisor
from .exact import (
    AlgebraicScalar,
    FieldElement,
    Poly,
    all_nonzero,
    as_tolerance,
    decimal,
    isolate_positive_roots,
    parse_scalar,
    regular_matrix,
    residual,
    scalar_abs_leq,
    scalar_eq,
    scalar_sign,
)
from .graphs import DirectedGraph
from .solver import (
    DEFAULT_TOL,
    GraphWeight,
    WeightReport,
    boundary_matrix,
    matrix_pencil,
    pencil_determinant,
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
            raise InputError(f"no eta value for face {fid!r}") from None

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

    def special_on(self, c: Oriented2Complex) -> bool:
        vals = [self.eta_at(f.id, k) for f in c.faces for k in range(len(f.boundary))]
        return all(scalar_eq(x, vals[0]) for x in vals[1:]) if vals else True


def boundary_weight_residuals(c: Oriented2Complex, lam: dict, eta_of, step: int = 1) -> dict[str, object]:
    """Exact residuals of lam(e) = sum over face instances of eta * lam(e')
    at every skeleton edge e that appears in at least one face, where e' is
    the follower of e in the boundary word for ``step`` = +1 and its
    predecessor for ``step`` = -1.  ``eta_of(face id, position)`` gives the
    face coefficient of each instance."""
    terms: dict[str, list] = {}
    for f in c.faces:
        n = len(f.boundary)
        for k in range(n):
            terms.setdefault(f.boundary[k], []).append((eta_of(f.id, k), lam[f.boundary[(k + step) % n]]))
    return {e: residual(lam[e], pairs) for e, pairs in terms.items()}


def _residual_summary(sk_report: WeightReport, residual_maps: list[dict], tol: Fraction):
    """Pass flag, absolute float residual maps and largest residual of a
    skeleton report together with exact residual maps."""
    within = [scalar_abs_leq(r, tol) for m in residual_maps for r in m.values()]
    floats = [{k: abs(float(r)) for k, r in m.items()} for m in residual_maps]
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


def verify_rank2(c: Oriented2Complex, w: Rank2Weight, tol=DEFAULT_TOL) -> Rank2Report:
    """Check both weight equations plus the coupling demanded by the mode."""
    if not w.is_total_on(c):
        raise InputError("rank-2 weight is not total on the complex")
    tol = as_tolerance(tol)
    sk_report = verify_graph_weight(c.skeleton, GraphWeight(w.g, w.lambda_tilde), tol)
    bres = boundary_weight_residuals(c, w.lam, w.eta_at)
    coupling: dict[str, object] = {}
    if w.mode == MODE_TIGHT:
        coupling = {e.id: w.lam[e.id] - w.lambda_tilde[e.id] for e in c.skeleton.edges}
    elif w.mode == MODE_STANDARD:
        coupling = {e.id: residual(w.lam[e.id], [(w.lambda_tilde[e.id], w.g[e.dst])]) for e in c.skeleton.edges}
    passed, (bfl, cfl), maxr = _residual_summary(sk_report, [bres, coupling], tol)
    edge_face_values = [w.lam[e.id] for e in c.skeleton.edges] + [w.lambda_tilde[e.id] for e in c.skeleton.edges]
    edge_face_values += [w.eta_at(f.id, k) for f in c.faces for k in range(len(f.boundary))]
    return Rank2Report(
        passed=passed,
        skeleton=sk_report,
        boundary_residuals=bfl,
        coupling_residuals=cfl,
        max_residual=maxr,
        faithful=sk_report.faithful and all_nonzero(edge_face_values),  # g decided there
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

    eta: AlgebraicScalar
    weight: Rank2Weight
    free_parameters: list[str]
    scale_det: Poly | None = None
    scale_root: object | None = None


def _vector_as_map(vertices, vec) -> dict:
    return dict(zip(vertices, vec))


def solve_2dcw(c: Oriented2Complex, mode: str = MODE_STANDARD) -> list[Rank2Family]:
    """Enumerate special (constant eta) 2D CW weight families on ``c``.

    Only constant-eta families are enumerated: non-special families form
    positive-dimensional varieties with no finite classification, so they
    are covered by the parametric verifier instead (pass a concrete
    quadruple to ``verify_rank2``).
    """
    if mode not in (MODE_STANDARD, MODE_TIGHT):
        raise InputError(f"unknown solve mode {mode!r}")
    bg = boundary_graph(c)
    families: list[Rank2Family] = []
    if not bg.graph.edges:
        # no faces: the boundary equation is vacuous, only the skeleton
        # equation constrains anything, so there is no eta classification
        families = _solve_no_faces(c, mode)
    else:
        for fam in solve_special_weights(bg.graph).faithful_families():
            lam0 = _vector_as_map(bg.graph.vertices, fam.kernel.positive)
            if mode == MODE_STANDARD:
                families.append(_lift_standard(c, fam.eta, lam0))
            else:
                families.extend(_lift_tight(c, fam.eta, lam0))
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
    return Rank2Family(eta=eta, weight=w, free_parameters=free)


def _eta_scalar(eta: AlgebraicScalar, companions=()):
    """The root's exact value, or its float beside a float companion."""
    if not eta.is_rational and any(isinstance(v, float) for v in companions):
        return float(eta)
    return eta.exact_value()


def scale_determinant(graph: DirectedGraph, lam0: dict) -> Poly:
    """Determinant of the skeleton system g = C * (lam0-weighted adjacency) g
    as a polynomial in the scale C (``pencil_determinant``); float values,
    left by the SVD kernel fallback, are read exactly."""
    return pencil_determinant(graph, {k: parse_scalar(v) if isinstance(v, float) else v for k, v in lam0.items()})


def _solve_scale(sk: DirectedGraph, lam0: dict) -> tuple[Poly, list[tuple]]:
    """Scale the boundary solution lam0 onto the skeleton: C*lam0 satisfies
    the skeleton weight equation for a positive g exactly at the positive
    roots C of the scale determinant with a positive kernel there.  Returns
    the determinant and one (root, C*lam0, g, lift) per such root; ``lift``
    maps lam0's scalars, the boundary root's included, into the root's field.

    Without sinks the matrix is C*L - I with L >= 0 the lam0-weighted
    adjacency, and by Perron-Frobenius only its smallest positive root
    C = 1/rho(L) can have a positive kernel vector; over the number field
    of lam0 that root is found through the norm (``_field_scale_root``).
    Float values (the SVD kernel fallback's) are read exactly, the boundary
    root as its float: the family is the exact lift of the rounded data."""
    rounded = any(isinstance(v, float) for v in lam0.values())
    lift = (lambda x: parse_scalar(float(x))) if rounded else (lambda x: x)
    det = scale_determinant(sk, lam0)
    if det.is_zero():
        return det, []
    if all(isinstance(cv, (int, Fraction)) for cv in det.coeffs):
        root = next(iter(isolate_positive_roots(det)), None)
    else:
        root, e = _field_scale_root(sk, lam0, det)
        lift = lambda x: x.rep(e)
    if root is None:
        return det, []
    cval = root.exact_value()
    lam_scaled = {eid: cval * lift(v) for eid, v in lam0.items()}
    kr = positive_kernel(boundary_matrix(sk, lam_scaled))
    if kr.status != "positive":
        return det, []
    return det, [(root, lam_scaled, _vector_as_map(sk.vertices, kr.positive), lift)]


def _field_scale_root(sk: DirectedGraph, lam0: dict, det: Poly) -> tuple:
    """The smallest positive root c of det under the real root eta of the
    number field K of its coefficients, and eta's image e in Q(c); (None,
    None) if there is none.  The roots of det are among those of its norm,
    the pencil of the skeleton rows' rational block matrix
    (``regular_matrix``), tried in increasing order.  A rational c must have
    det(c) = 0.  An irrational c is rejected when an interval enclosure of
    det over the intervals of c and eta excludes 0; otherwise eta is a root
    of g = gcd(m(y), det(c, y)) over Q(c), m the modulus of K, exactly when
    g changes sign across eta's isolating interval, and then g = y - e.  A g
    of higher degree and a zero divisor of Q(c) raise: they need a split."""
    field = next(cv.field for cv in det.coeffs if isinstance(cv, FieldElement))
    # det(C, y) = sum_i q[i](C) * y**i with rational q[i]
    reps = [list(cv.rep.coeffs) + [Fraction(0)] * (field.modulus.degree - len(cv.rep.coeffs)) for cv in det.coeffs]
    q = [Poly(col) for col in zip(*reps)]
    for c in isolate_positive_roots(matrix_pencil(regular_matrix(boundary_matrix(sk, lam0)))):
        if c.is_rational:
            if scalar_sign(det(c.rational)) == 0:
                return c, field.gen()
        elif not _excludes_zero(q, c, field.root):
            try:
                g, b = field.modulus, Poly([qi(c.exact_value()) for qi in q])
                while not b.is_zero():
                    g, b = b, g.divmod(b)[1]
                if scalar_sign(g(field.root.lo)) * scalar_sign(g(field.root.hi)) < 0:
                    if g.degree > 1:
                        raise CWKMSError(f"eta is a root of a gcd of degree {g.degree} over Q(C) at C = {decimal(c)}")
                    return c, -g.coeffs[0] / g.coeffs[1]
            except ZeroDivisor as exc:
                raise ZeroDivisor(f"zero divisor in Q(C) at C = {decimal(c)}: {exc}") from exc
    return None, None


def _excludes_zero(q: list[Poly], c: AlgebraicScalar, eta: AlgebraicScalar) -> bool:
    """Whether interval arithmetic on the intervals of c and eta keeps sum_i q[i](c) * eta**i off 0."""
    ylo, yhi = eta.bounds()
    lo = hi = Fraction(0)
    for qi in reversed(q):
        a, b = qi.interval_eval(*c.bounds())
        ends = (lo * ylo, lo * yhi, hi * ylo, hi * yhi)
        lo, hi = min(ends) + a, max(ends) + b
    return lo > 0 or hi < 0


def _lift_tight(c: Oriented2Complex, eta: AlgebraicScalar, lam0: dict) -> list[Rank2Family]:
    """Tight-mode lift: lam = C*lam0 must itself satisfy the skeleton weight
    equation for some g, which happens exactly at positive roots C of the
    scale determinant."""
    det, solutions = _solve_scale(c.skeleton, lam0)
    out: list[Rank2Family] = []
    for root, lam_scaled, g, lift in solutions:
        etaval = lift(eta.exact_value())
        w = Rank2Weight(
            g=g,
            lambda_tilde=dict(lam_scaled),
            lam=dict(lam_scaled),
            eta={f.id: etaval for f in c.faces},
            mode=MODE_TIGHT,
        )
        out.append(Rank2Family(eta=eta, weight=w, free_parameters=["g"], scale_det=det, scale_root=root))
    return out


def _solve_no_faces(c: Oriented2Complex, mode: str) -> list[Rank2Family]:
    """Complexes without faces: eta and lam are unconstrained by the boundary
    equation; report the skeleton classification only."""
    sk = c.skeleton
    report = solve_special_weights(sk)
    fams = []
    for fam in report.faithful_families():
        gmap = _vector_as_map(sk.vertices, fam.kernel.positive)
        etaval = _eta_scalar(fam.eta, gmap.values())
        ltmap = {eid: etaval for eid in sk.edge_ids()}
        lam = dict(ltmap) if mode == MODE_TIGHT else {
            eid: ltmap[eid] * gmap[sk.dst(eid)] for eid in sk.edge_ids()
        }
        w = Rank2Weight(g=gmap, lambda_tilde=ltmap, lam=lam, eta={}, mode=mode)
        fams.append(Rank2Family(eta=fam.eta, weight=w, free_parameters=["C"]))
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


def _require_triangular(c: Oriented2Complex) -> None:
    bad = [f.id for f in c.faces if len(f.boundary) != 3]
    if bad:
        raise InputError(f"faces {bad} are not triangles")


def verify_triangular(c: Oriented2Complex, w: TriangularWeight, tol=DEFAULT_TOL) -> TriangularReport:
    """Residuals of the follower equation (eta_a), the predecessor equation
    (eta_b), the skeleton equation, and, when flagged tight, the matching
    conditions lt = lam and eta_a = eta_b."""
    _require_triangular(c)
    tol = as_tolerance(tol)
    sk_report = verify_graph_weight(c.skeleton, GraphWeight(w.g, w.lambda_tilde), tol)
    res_a = boundary_weight_residuals(c, w.lam, lambda fid, k: w.eta_a[fid], 1)
    res_b = boundary_weight_residuals(c, w.lam, lambda fid, k: w.eta_b[fid], -1)
    tight_res: dict[str, object] = {}
    if w.tight:
        tight_res = {f"lambda[{e.id}]": w.lam[e.id] - w.lambda_tilde[e.id] for e in c.skeleton.edges}
        tight_res.update({f"eta[{f.id}]": w.eta_a[f.id] - w.eta_b[f.id] for f in c.faces})
    passed, (fa, fb, ft), maxr = _residual_summary(sk_report, [res_a, res_b, tight_res], tol)
    etas = [w.eta_a[f.id] for f in c.faces] + [w.eta_b[f.id] for f in c.faces]
    faithful = sk_report.faithful and all_nonzero([w.lam[e.id] for e in c.skeleton.edges] + etas)
    special = all(scalar_eq(x, etas[0]) for x in etas[1:]) if etas else True
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
    scale_root: object
    weight: TriangularWeight
    free_parameters: list[str]
    det: Poly
    scale_det: Poly


def solve_triangular_special(c: Oriented2Complex) -> list[TriangularFamily]:
    """Classify special faithful tight triangular weights.

    The follower system determinant (a polynomial in eta) picks the candidate
    eta values; at each positive root the follower and predecessor systems
    are solved jointly for lam, positivity is required, and the skeleton
    equation then classifies the lam scale through a second determinant.
    A positive common kernel vector is a positive kernel vector of the
    follower system, so only its faithful families are candidates.
    """
    _require_triangular(c)
    bg = boundary_graph(c)
    pg = predecessor_graph(c)
    report = solve_special_weights(bg.graph)
    families: list[TriangularFamily] = []
    for fam in report.faithful_families():
        eta = fam.eta
        # the family's kernel rows are the follower system at eta
        kr = positive_kernel(fam.kernel.rows + boundary_matrix(pg.graph, eta.exact_value()))
        if kr.status != "positive":
            continue
        lam0 = _vector_as_map(bg.graph.vertices, kr.positive)
        det2, solutions = _solve_scale(c.skeleton, lam0)
        for root, lam_scaled, gmap, lift in solutions:
            etaval = lift(eta.exact_value())
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
                raise InputError(f"weight file missing field {key!r}")
            return {}
        if not isinstance(data[key], dict):
            raise InputError(f"weight file field {key!r} must be a JSON object")
        return {k: parse_scalar(v) for k, v in data[key].items()}

    if "eta_a" in data:
        if not isinstance(data.get("tight", False), bool):
            raise InputError("weight file field 'tight' must be a JSON boolean")
        return TriangularWeight(
            g=values("g"),
            lambda_tilde=values("lambda_tilde"),
            lam=values("lambda"),
            eta_a=values("eta_a"),
            eta_b=values("eta_b"),
            tight=data.get("tight", False),
        )
    if "lambda_tilde" in data:
        mode = mode or data.get("mode", MODE_RANK2)
        if mode not in (MODE_RANK2, MODE_STANDARD, MODE_TIGHT):
            raise InputError(f"unknown rank-2 coupling mode {mode!r}")
        eta_instances = {}
        for key, val in values("eta_instances", required=False).items():
            fid, sep, pos = key.rpartition(":")
            if not (sep and pos.isdecimal()):
                raise InputError(f"weight file field 'eta_instances': key {key!r} is not <face>:<position>")
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
