"""Graph-weight verification and the determinant/kernel solver.

A graph weight is a pair of functions (g on vertices, lambda on edges) with

    g(v) = sum over edges e leaving v of lambda(e) * g(dst(e))

at every non-sink vertex.  For constant lambda the solvability question
reduces to a one-parameter determinant: build the matrix

    M = (lambda * m_ij) - (I_r (+) 0)

acting on vertex vectors (m_ij = edge multiplicities, identity block only on
non-sink rows), take its exact determinant as a polynomial in lambda, isolate
the positive roots, and extract a strictly positive kernel vector at each
root.  All of this is exact; floats appear only in reports and in the SVD
fallback for numeric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, MissingValue, ZeroDivisor, ZeroPolynomial
from .exact import (
    AlgebraicScalar,
    FieldElement,
    Poly,
    _as_fraction,
    det_bareiss_poly,
    isolate_positive_roots,
    kernel_basis_exact,
    scalar_sign,
    scalar_to_float,
)
from .graphs import DirectedGraph, adjacency_counts

DEFAULT_TOL = Fraction(1, 10**10)
DEFAULT_EPS = Fraction(1, 10**14)
POSITIVITY_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# Graph weights
# ---------------------------------------------------------------------------

@dataclass
class GraphWeight:
    """Vertex function g and edge function lam; values may be Fractions,
    floats or number-field elements."""

    g: dict
    lam: dict

    def is_total_on(self, graph: DirectedGraph) -> bool:
        return all(v in self.g for v in graph.vertices) and all(
            e.id in self.lam for e in graph.edges
        )

    def faithful_on(self, graph: DirectedGraph) -> bool:
        return all(scalar_sign(self.g[v]) != 0 for v in graph.vertices)

    def special_on(self, graph: DirectedGraph) -> bool:
        vals = [self.lam[e.id] for e in graph.edges]
        return all(_eq_scalar(v, vals[0]) for v in vals[1:]) if vals else True

    def strictly_positive_on(self, graph: DirectedGraph) -> bool:
        return all(scalar_sign(self.g[v]) > 0 for v in graph.vertices) and all(
            scalar_sign(self.lam[e.id]) > 0 for e in graph.edges
        )


def _eq_scalar(a, b) -> bool:
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return scalar_sign(a - b) == 0
    return a == b


def _abs_leq(x, tol: Fraction) -> bool:
    if isinstance(x, FieldElement):
        mag = -x if x.sign() < 0 else x
        return (mag - tol).sign() <= 0
    if isinstance(x, float):
        return abs(x) <= float(tol)
    return abs(x) <= tol


@dataclass
class WeightReport:
    passed: bool
    residuals: dict[str, float]
    max_residual: float
    faithful: bool
    special: bool
    exact: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "residuals": self.residuals,
            "faithful": self.faithful,
            "special": self.special,
            "exact": self.exact,
            "tol": self.tol,
        }


def verify_graph_weight(graph: DirectedGraph, w: GraphWeight, tol=DEFAULT_TOL) -> WeightReport:
    """Residual of the weight equation at every non-sink vertex."""
    if not w.is_total_on(graph):
        missing = [v for v in graph.vertices if v not in w.g] + [
            e.id for e in graph.edges if e.id not in w.lam
        ]
        raise MissingValue(f"weight not total on graph, missing {missing}")
    tol = _as_fraction(tol)
    residuals = {}
    passed = True
    exact = True
    for v in graph.non_sinks():
        acc = None
        for eid in graph.out_edges(v):
            term = w.lam[eid] * w.g[graph.dst(eid)]
            acc = term if acc is None else acc + term
        r = w.g[v] - acc
        if isinstance(r, float):
            exact = False
        if not _abs_leq(r, tol):
            passed = False
        residuals[v] = abs(scalar_to_float(r))
    maxr = max(residuals.values(), default=0.0)
    return WeightReport(
        passed=passed,
        residuals=residuals,
        max_residual=maxr,
        faithful=w.faithful_on(graph),
        special=w.special_on(graph),
        exact=exact,
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# Boundary matrix and determinant
# ---------------------------------------------------------------------------

@dataclass
class BoundaryMatrix:
    """Matrix of the weight equation in the stable vertex order.

    In special mode the entries are polynomials in the constant edge weight;
    in general mode they are scalars obtained from a total edge-weight map.
    Rows of sinks are identically zero.
    """

    vertices: tuple[str, ...]
    entries: list[list]
    sink_rows: frozenset[int]
    mode: str

    @property
    def size(self) -> int:
        return len(self.vertices)


def boundary_matrix(graph: DirectedGraph, mode: str = "special", lam: dict | None = None) -> BoundaryMatrix:
    """``special`` builds (lambda*m_ij) - (I_r (+) 0) over the polynomial
    ring; ``general`` sums a given lambda over parallel edges instead."""
    counts = adjacency_counts(graph)
    n = len(graph.vertices)
    sink_rows = frozenset(i for i, v in enumerate(graph.vertices) if graph.is_sink(v))
    if mode == "special":
        entries: list[list] = []
        for i in range(n):
            row = []
            for j in range(n):
                const = Fraction(-1) if (i == j and i not in sink_rows) else Fraction(0)
                row.append(Poly([const, Fraction(counts[i][j])]))
            entries.append(row)
        return BoundaryMatrix(graph.vertices, entries, sink_rows, "special")
    if mode == "general":
        if lam is None:
            raise MissingValue("general mode requires a lambda mapping")
        missing = [e.id for e in graph.edges if e.id not in lam]
        if missing:
            raise MissingValue(f"lambda not total, missing {missing}")
        index = {v: i for i, v in enumerate(graph.vertices)}
        acc: list[list] = [[None] * n for _ in range(n)]
        for e in graph.edges:
            i, j = index[e.src], index[e.dst]
            acc[i][j] = lam[e.id] if acc[i][j] is None else acc[i][j] + lam[e.id]
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                val = acc[i][j] if acc[i][j] is not None else Fraction(0)
                if i == j and i not in sink_rows:
                    val = val - 1
                row.append(val)
            entries.append(row)
        return BoundaryMatrix(graph.vertices, entries, sink_rows, "general")
    raise ValueError(f"unknown mode {mode!r}")


def det_polynomial(m: BoundaryMatrix) -> Poly:
    """Exact determinant of a special-mode matrix.  Its entries have
    integer coefficients, so ``det_bareiss_poly`` takes its modular path."""
    if m.mode != "special":
        raise ValueError("det_polynomial expects a special-mode matrix")
    return det_bareiss_poly(m.entries)


def positive_roots(p: Poly, eps=DEFAULT_EPS) -> list[AlgebraicScalar]:
    if p.is_zero():
        raise ZeroPolynomial("determinant polynomial is identically zero")
    return isolate_positive_roots(p, eps)


# ---------------------------------------------------------------------------
# Kernel extraction
# ---------------------------------------------------------------------------

@dataclass
class KernelResult:
    status: str  # "positive" | "none" | "empty" | "undetermined"
    positive: list | None
    basis: list[list]
    dim: int

    def positive_floats(self) -> list[float] | None:
        if self.positive is None:
            return None
        return [scalar_to_float(x) for x in self.positive]


def _is_float_matrix(rows) -> bool:
    return any(isinstance(x, float) for row in rows for x in row)


def _normalize_sup(vec):
    """Scale an exact vector so that its largest-magnitude invertible
    component becomes 1.

    Over a reducible modulus a nonzero component can be a zero divisor,
    which has no inverse; such components are passed over.  The vector is
    returned unscaled when it is zero or no component is invertible."""
    mags = [-x if scalar_sign(x) < 0 else x for x in vec]
    candidates = list(range(len(vec)))
    while candidates:
        best = candidates[0]
        for i in candidates[1:]:
            if scalar_sign(mags[i] - mags[best]) > 0:
                best = i
        if scalar_sign(mags[best]) == 0:
            return vec
        try:
            return [x / mags[best] for x in vec]
        except ZeroDivisor:
            candidates.remove(best)
    return vec


def positive_kernel(rows, tol: float = POSITIVITY_THRESHOLD) -> KernelResult:
    """Kernel basis of a square scalar matrix plus a strictly positive kernel
    vector when one exists.

    Exact matrices (Fractions, number-field elements) get an exact basis and
    exact sign decisions; float matrices go through an SVD.  When the kernel
    has dimension > 1, a small linear program searches the basis span for a
    vector with maximal smallest component; an optimum within ``tol`` of zero
    is reported as "undetermined".
    """
    n = len(rows)
    if n == 0:
        return KernelResult("none", None, [], 0)
    if _is_float_matrix(rows):
        basis = _kernel_basis_svd(rows)
    else:
        try:
            basis = kernel_basis_exact(rows)
        except ZeroDivisor:
            # reducible quotient ring: exact elimination can hit a zero
            # divisor, so fall back to the numeric kernel
            basis = _kernel_basis_svd(rows)
    dim = len(basis)
    if dim == 0:
        return KernelResult("none", None, [], 0)
    if dim == 1:
        vec = basis[0]
        signs = {scalar_sign(x) if not isinstance(x, float) else _float_sign(x, tol) for x in vec}
        if signs == {1}:
            return KernelResult("positive", _normalize_sup(vec), basis, 1)
        if signs == {-1}:
            return KernelResult("positive", _normalize_sup([-x for x in vec]), basis, 1)
        return KernelResult("none", None, basis, 1)
    return _positive_by_lp(basis, tol)


def _kernel_basis_svd(rows) -> list[list[float]]:
    """Numeric near-null-space basis; handles rectangular (stacked) systems."""
    a = np.array([[scalar_to_float(x) for x in row] for row in rows], dtype=float)
    ncols = a.shape[1]
    _, s, vt = np.linalg.svd(a)
    svals = list(s) + [0.0] * (ncols - len(s))
    smax = svals[0] if svals else 0.0
    cutoff = max(smax, 1.0) * 1e-9
    return [[float(v) for v in vt[i]] for i in range(ncols) if svals[i] <= cutoff]


def _float_sign(x: float, tol: float) -> int:
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def _positive_by_lp(basis, tol: float) -> KernelResult:
    """max-min-component linear program over the kernel span."""
    from scipy.optimize import linprog

    bmat = np.array([[scalar_to_float(x) for x in vec] for vec in basis], dtype=float).T
    n, k = bmat.shape
    # variables: k combination coefficients plus the slack t; maximize t
    # subject to (B c)_i >= t and |(B c)_i| <= 1.
    a_ub = np.vstack(
        [
            np.hstack([-bmat, np.ones((n, 1))]),
            np.hstack([bmat, np.zeros((n, 1))]),
            np.hstack([-bmat, np.zeros((n, 1))]),
        ]
    )
    b_ub = np.concatenate([np.zeros(n), np.ones(n), np.ones(n)])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + 1), method="highs")
    if not res.success:
        return KernelResult("undetermined", None, basis, len(basis))
    t = res.x[-1]
    if t > tol:
        vec = list(bmat @ res.x[:-1])
        m = max(abs(v) for v in vec)
        return KernelResult("positive", [v / m for v in vec], basis, len(basis))
    if t < -tol:
        return KernelResult("none", None, basis, len(basis))
    return KernelResult("undetermined", None, basis, len(basis))


def evaluate_special_matrix(graph: DirectedGraph, value) -> list[list]:
    """The special-mode matrix with the constant edge weight substituted.

    Rational values give Fraction entries; an algebraic value gives entries
    in the number field generated by its minimal polynomial.
    """
    counts = adjacency_counts(graph)
    n = len(graph.vertices)
    sink = set(i for i, v in enumerate(graph.vertices) if graph.is_sink(v))
    if isinstance(value, AlgebraicScalar) and not value.is_rational:
        lam = value.number_field().gen()
    elif isinstance(value, AlgebraicScalar):
        lam = value.rational
    else:
        lam = value
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = lam * counts[i][j]
            if i == j and i not in sink:
                x = x - 1
            row.append(x)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Full classification pipeline
# ---------------------------------------------------------------------------

@dataclass
class SpecialWeightFamily:
    """One solution family: constant edge weight ``eta`` and the kernel of
    the weight-equation matrix there.  ``positive`` is the strictly positive
    kernel direction when one exists (then the family is faithful)."""

    eta: AlgebraicScalar
    kernel: KernelResult
    faithful: bool


@dataclass
class SpecialWeightReport:
    status: str  # "ok" | "unconstrained" | "degenerate"
    graph_vertices: tuple[str, ...]
    det: Poly | None
    families: list[SpecialWeightFamily] = field(default_factory=list)

    def faithful_families(self) -> list[SpecialWeightFamily]:
        return [f for f in self.families if f.faithful]


def solve_special_weights(graph: DirectedGraph, eps=DEFAULT_EPS) -> SpecialWeightReport:
    """Classify constant-edge-weight solutions of the weight equation.

    Pipeline: boundary matrix in special mode, exact determinant, positive
    roots, positive kernel at each root.  A graph with no non-sink vertices
    imposes no equations at all ("unconstrained"); a determinant that
    vanishes identically (possible when sinks are present) is reported as
    "degenerate" since roots no longer classify anything.
    """
    if not graph.non_sinks():
        return SpecialWeightReport("unconstrained", graph.vertices, None, [])
    m = boundary_matrix(graph, "special")
    det = det_polynomial(m)
    if det.is_zero():
        return SpecialWeightReport("degenerate", graph.vertices, det, [])
    families = []
    for root in positive_roots(det, eps):
        rows = evaluate_special_matrix(graph, root)
        kr = positive_kernel(rows)
        families.append(SpecialWeightFamily(eta=root, kernel=kr, faithful=kr.status == "positive"))
    return SpecialWeightReport("ok", graph.vertices, det, families)


# ---------------------------------------------------------------------------
# Weight file parsing
# ---------------------------------------------------------------------------

def parse_scalar(text) -> Fraction:
    """Parse a number, a decimal string or a rational string "p/q" to an
    exact value."""
    try:
        return Fraction(text if isinstance(text, (int, float, Fraction)) else str(text))
    except (ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not a finite rational value: {text!r}") from None


def format_scalar(x, digits: int = 15) -> str:
    """Decimal string with fixed precision; exact rationals keep a "p/q"
    form so golden files stay platform independent."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return f"{scalar_to_float(x):.{digits}g}"
