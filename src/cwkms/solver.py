"""Graph-weight verification and the determinant/kernel solver.

A graph weight is a pair of functions (g on vertices, lambda on edges) with

    g(v) = sum over edges e leaving v of lambda(e) * g(dst(e))

at every non-sink vertex.  One builder, ``boundary_matrix``, writes every
such equation as the matrix

    M = W - I_r,    W_ij = sum of lambda over the edges v_i -> v_j,

acting on vertex vectors, with the identity only on non-sink rows.  For
constant lambda the solvability question reduces to a one-parameter
determinant: take det(lambda*A - I_r) exactly as a polynomial in lambda
(A = edge multiplicities), isolate the positive roots in increasing order,
and decide at each root whether the kernel of ``boundary_matrix`` at that
root holds a strictly positive vector.  Without sinks the determinant is
the reversed characteristic polynomial (-1)**n * lambda**n * chi_A(1/lambda),
whose roots are the reciprocals 1/mu of the non-zero eigenvalues mu of A;
``pencil_determinant`` reads it off ``exact.charpoly``, a Hessenberg
reduction, modulo one prime for a rational matrix.

A sink makes the determinant vanish identically, so otherwise M is
lambda*A - I with A >= 0 and a positive kernel vector is a positive
eigenvector of A for 1/lambda.  By Perron-Frobenius (Collatz-Wielandt) only
lambda = 1/rho(A), the smallest positive root, can have one; every other
root is "none".  There ``positive_kernel`` decides exactly, by signs for a
kernel line and by an exact simplex in dimension >= 2.  Kernel bases are
exact and lazy; floats appear only in reports and in the SVD fallback for
numeric matrices, whose bases of dimension >= 2 are "undetermined".  That
fallback imports numpy itself, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InputError, ZeroDivisor
from .exact import (
    AlgebraicScalar,
    FieldElement,
    Poly,
    all_nonzero,
    as_tolerance,
    charpoly,
    isolate_positive_roots,
    kernel_basis_exact,
    residual,
    scalar_abs_leq,
    scalar_eq,
    scalar_sign,
)
from .exact import format_scalar, parse_scalar  # noqa: F401  re-exported: the sweep workload's set-up calls them here
from .graphs import DirectedGraph

DEFAULT_TOL = Fraction(1, 10**10)
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
        return all_nonzero(self.g[v] for v in graph.vertices)

    def special_on(self, graph: DirectedGraph) -> bool:
        vals = [self.lam[e.id] for e in graph.edges]
        return all(scalar_eq(v, vals[0]) for v in vals[1:]) if vals else True


@dataclass
class WeightReport:
    passed: bool
    residuals: dict[str, float]
    max_residual: float
    faithful: bool
    special: bool
    exact: bool
    tol: float


def verify_graph_weight(graph: DirectedGraph, w: GraphWeight, tol=DEFAULT_TOL) -> WeightReport:
    """Residual of the weight equation at every non-sink vertex."""
    if not w.is_total_on(graph):
        missing = [v for v in graph.vertices if v not in w.g] + [
            e.id for e in graph.edges if e.id not in w.lam
        ]
        raise InputError(f"weight not total on graph, missing {missing}")
    tol = as_tolerance(tol)
    residuals, passed, exact = {}, True, True
    for v in graph.non_sinks():
        r = residual(w.g[v], [(w.lam[eid], w.g[graph.dst(eid)]) for eid in graph.out_edges(v)])
        exact = exact and not isinstance(r, float)
        passed = passed and scalar_abs_leq(r, tol)
        residuals[v] = abs(float(r))
    return WeightReport(
        passed=passed,
        residuals=residuals,
        max_residual=max(residuals.values(), default=0.0),
        faithful=w.faithful_on(graph),
        special=w.special_on(graph),
        exact=exact,
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# Boundary matrix and determinant
# ---------------------------------------------------------------------------

def boundary_matrix(graph: DirectedGraph, lam) -> list[list]:
    """Rows of the weight-equation matrix W - I_r in the stable vertex order.

    Entry (i, j) of W sums ``lam`` over the edges v_i -> v_j, and I_r is the
    identity on the non-sink rows, so sink rows are zero.  ``lam`` maps edge
    ids to values, or is one value for every edge.  Zero cells are 0 times
    the first edge value, so that every entry has the values' type."""
    if isinstance(lam, dict):
        missing = [e.id for e in graph.edges if e.id not in lam]
        if missing:
            raise InputError(f"lambda not total, missing {missing}")
        values = [lam[e.id] for e in graph.edges]
    else:
        values = [lam] * len(graph.edges)
    n = len(graph.vertices)
    zero = values[0] * 0 if values else Fraction(0)
    index = {v: i for i, v in enumerate(graph.vertices)}
    rows = [[zero] * n for _ in range(n)]
    for e, x in zip(graph.edges, values):
        row, j = rows[index[e.src]], index[e.dst]
        row[j] = row[j] + x
    for i, v in enumerate(graph.vertices):
        if not graph.is_sink(v):
            rows[i][i] = rows[i][i] - 1
    return rows


def pencil_determinant(graph: DirectedGraph, lam) -> Poly:
    """det(x*W - I_r) as a polynomial in x, for the rows W - I_r of
    ``boundary_matrix(graph, lam)``.  A sink row is zero, so any sink gives
    the zero polynomial; otherwise I_r = I (``matrix_pencil``)."""
    rows = boundary_matrix(graph, lam)
    if any(graph.is_sink(v) for v in graph.vertices):
        return Poly([])
    return matrix_pencil(rows)


def matrix_pencil(rows) -> Poly:
    """det(x*W - I) = (-1)**n * x**n * chi_W(1/x) as a polynomial in x, for
    the square rows W - I: the coefficient of x**k is (-1)**n * c_(n-k), for
    c_j that of t**j in chi_W(t) = det(t*I - W) (``charpoly``), in the
    scalar type of W."""
    n = len(rows)
    chi = charpoly([[x + 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)])
    return Poly([-chi[n - k] if n % 2 else chi[n - k] for k in range(n + 1)])


def det_polynomial(graph: DirectedGraph) -> Poly:
    """det(lambda*A - I_r) for the adjacency counts A: the reversed
    characteristic polynomial (-1)**n * lambda**n * chi_A(1/lambda) of A, or
    0 when a sink is present (``pencil_determinant`` of int rows)."""
    return pencil_determinant(graph, 1)


# ---------------------------------------------------------------------------
# Kernel extraction
# ---------------------------------------------------------------------------

@dataclass
class KernelResult:
    """Kernel of a scalar matrix: the positivity status, the strictly
    positive kernel vector when there is one, and a kernel basis computed
    from ``rows`` on first access."""

    status: str  # "positive" | "none" | "undetermined"
    positive: list | None
    rows: list[list] = field(repr=False)

    @cached_property
    def basis(self) -> list[list]:
        """Exact basis; numeric for float matrices, and when exact
        elimination meets a zero divisor of a reducible modulus."""
        if not _is_float_matrix(self.rows):
            try:
                return kernel_basis_exact(self.rows)
            except ZeroDivisor:
                pass
        return _kernel_basis_svd(self.rows)

    @property
    def dim(self) -> int:
        return len(self.basis)


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
            inv = Fraction(1) / mags[best]
        except ZeroDivisor:
            candidates.remove(best)
            continue
        return [x * inv for x in vec]
    return vec


def positive_kernel(rows) -> KernelResult:
    """Kernel basis of a square (or stacked) scalar matrix plus a strictly
    positive kernel vector when one exists.

    Exact matrices (Fractions, number-field elements) get an exact basis and
    exact decisions: a one-dimensional kernel by the signs of its basis
    vector, a larger one by an exact simplex (``_positive_in_span``).  A
    numeric basis (float input, or a zero divisor met in exact elimination)
    retains the sign test beyond ``POSITIVITY_THRESHOLD`` in dimension 1 and
    is "undetermined" in higher dimension, the only source of that status.
    """
    kernel = KernelResult("none", None, rows)
    basis = kernel.basis
    vec = None
    if len(basis) == 1:
        signs = {_sign(x) for x in basis[0]}
        if signs == {1}:
            vec = basis[0]
        elif signs == {-1}:
            vec = [-x for x in basis[0]]
    elif basis and _is_float_matrix(basis):
        kernel.status = "undetermined"
    elif basis:
        vec = _positive_in_span(basis)
    if vec is not None:
        kernel.status, kernel.positive = "positive", _normalize_sup(vec)
    return kernel


def _kernel_basis_svd(rows) -> list[list[float]]:
    """Numeric near-null-space basis; handles rectangular (stacked) systems."""
    import numpy as np  # local: numpy is most of the import cost, and only this fallback needs it

    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    ncols = a.shape[1]
    _, s, vt = np.linalg.svd(a)
    svals = list(s) + [0.0] * (ncols - len(s))
    smax = svals[0] if svals else 0.0
    cutoff = max(smax, 1.0) * 1e-9
    return [[float(v) for v in vt[i]] for i in range(ncols) if svals[i] <= cutoff]


def _sign(x) -> int:
    """Exact sign; a float counts as 0 within ``POSITIVITY_THRESHOLD``."""
    if isinstance(x, float):
        return (x > POSITIVITY_THRESHOLD) - (x < -POSITIVITY_THRESHOLD)
    return scalar_sign(x)


def _positive_in_span(basis: list[list]) -> list | None:
    """A strictly positive vector in the span of an exact basis, or None.

    Gordan's alternative: with B the matrix whose columns are the k basis
    vectors, some B c is > 0 iff no y >= 0 with sum(y) = 1 has B^T y = 0.
    Phase 1 of the simplex method minimises the sum of the artificial
    variables a in B^T y + a[:k] = 0, sum(y) + a[k] = 1, y, a >= 0.  A
    positive optimum t means infeasibility, and then the simplex multipliers
    (pi, t) satisfy B pi + t <= 0, so c = -pi gives B c >= t > 0.

    Bland's rule prevents cycling.  Pivots use ring operations and signs
    only, so a reducible modulus never raises ``ZeroDivisor``: every tableau
    row is known up to a positive factor, is replaced by p*row - q*pivot_row,
    and is divided by the positive rational content of its entries.  Row
    ``k + 1`` holds the reduced costs; its column ``n + k + 1`` is the
    constant cost 1, so it carries that row's positive factor.
    """
    n, k = len(basis[0]), len(basis)
    m = k + 1
    zero = basis[0][0] * 0
    one = zero + 1
    # columns: y (n), artificials (m), the cost row's factor, right-hand side
    unit = [[one if j == i else zero for j in range(m)] for i in range(m)]
    rows = [list(vec) + unit[i] + [zero, zero] for i, vec in enumerate(basis)]
    rows.append([one] * n + unit[k] + [zero, one])
    rows.append([-sum(r[j] for r in rows) for j in range(n)] + [zero] * m + [one, -one])
    basic = list(range(n, n + m))
    while True:
        s = next((j for j in range(n) if scalar_sign(rows[m][j]) < 0), None)
        if s is None:
            break
        # phase 1 is bounded below, so some entry of column s is > 0
        candidates = [i for i in range(m) if scalar_sign(rows[i][s]) > 0]
        r = candidates[0]
        for i in candidates[1:]:
            # ratio test rhs_i / a_is < rhs_r / a_rs, ties to the smaller basic index
            d = scalar_sign(rows[i][-1] * rows[r][s] - rows[r][-1] * rows[i][s])
            if d < 0 or (d == 0 and basic[i] < basic[r]):
                r = i
        pivot, p = rows[r], rows[r][s]
        for i, row in enumerate(rows):
            if i != r and scalar_sign(row[s]) != 0:
                rows[i] = _divide_content([p * a - row[s] * b for a, b in zip(row, pivot)])
        basic[r] = s
    cost = rows[m]
    if scalar_sign(cost[-1]) == 0:
        return None
    # cost[n + j] = f * (1 - pi_j) and cost[n + m] = f for the row's factor f > 0
    c = [cost[n + j] - cost[n + m] for j in range(k)]
    return [sum(c[j] * basis[j][i] for j in range(k)) for i in range(n)]


def _divide_content(row: list) -> list:
    """The row divided by the positive rational content of its entries'
    rational coefficients."""
    parts = [(x.nums, x.den) if isinstance(x, FieldElement) else ((x.numerator,), x.denominator) for x in row]
    num = gcd(*(v for nums, _ in parts for v in nums))
    if num == 0:
        return row
    scale = Fraction(lcm(*(den for _, den in parts)), num)
    return [x * scale for x in row]


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


def solve_special_weights(graph: DirectedGraph) -> SpecialWeightReport:
    """Classify constant-edge-weight solutions of the weight equation.

    Pipeline: exact determinant, positive roots, positive kernel at the
    smallest root; the other roots are "none" by Perron-Frobenius (module
    docstring).  A graph with no non-sink vertices imposes no equations at
    all ("unconstrained"); a determinant that vanishes identically (possible
    when sinks are present) is reported as "degenerate" since roots no
    longer classify anything.
    """
    if not graph.non_sinks():
        return SpecialWeightReport("unconstrained", graph.vertices, None, [])
    det = det_polynomial(graph)
    if det.is_zero():
        return SpecialWeightReport("degenerate", graph.vertices, det, [])
    families = []
    for k, root in enumerate(isolate_positive_roots(det)):
        rows = boundary_matrix(graph, root.exact_value())
        kr = positive_kernel(rows) if k == 0 else KernelResult("none", None, rows)
        families.append(SpecialWeightFamily(eta=root, kernel=kr, faithful=kr.status == "positive"))
    return SpecialWeightReport("ok", graph.vertices, det, families)
