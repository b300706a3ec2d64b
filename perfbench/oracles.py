"""Independent checks of the program's outputs.

The arithmetic here is written apart from cwkms: integer elimination for
determinants, polynomial arithmetic modulo a number field's modulus for
exact residuals, numpy eigenvalues for Perron roots and a prefix test for
non-zero monomial products.  Values produced by the program are read only
as data (a Fraction, a float, or a number-field element's coefficient list
and modulus).  Every check returns a list of problems; empty means passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def int_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination on Python integers; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_det(det_coeffs, adj: list[list[int]], points) -> list[str]:
    """The determinant of t*A - I (identity on rows with out-edges), as the
    program reports it, must equal the integer determinant at each point."""
    n = len(adj)
    sinks = {i for i in range(n) if not any(adj[i])}
    problems = []
    for t in points:
        m = [[t * adj[i][j] - (1 if i == j and i not in sinks else 0) for j in range(n)] for i in range(n)]
        want = int_det(m)
        got = horner([Fraction(c) for c in det_coeffs], Fraction(t))
        if got != want:
            problems.append(f"det at {t}: program {got}, elimination {want}")
    return problems


def perron_root(adj: list[list[int]]) -> float:
    """1/rho(A) from numpy's eigenvalues."""
    return 1.0 / max(abs(np.linalg.eigvals(np.array(adj, dtype=float))))


def bisect_root(coeffs, lo: Fraction, hi: Fraction, width=Fraction(1, 10**30)) -> float:
    """The root of an integer polynomial inside (lo, hi), by exact bisection."""
    slo = horner(coeffs, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (horner(coeffs, mid) > 0) == slo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


# The figB boundary graph's determinant is 1 - x^3 - x^4; its root in (0, 1).
FIG_B_ETA = bisect_root([1, 0, 0, -1, -1], Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Exact residuals in Q[x]/(m)
# ---------------------------------------------------------------------------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(a: list, b: list, sign: int = 1) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _trim(out)


def p_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def p_mod(a: list, m: list) -> list:
    a = list(a)
    dm, lead = len(m) - 1, m[-1]
    while len(a) - 1 >= dm and a:
        f = a[-1] / lead
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] -= f * c
        _trim(a)
    return a


class Generator:
    """The generator x of Q[x]/(p), where p is an irrational root's
    polynomial; the program's number-field values are polynomials in it."""

    def __init__(self, root):
        self.root = root


def _root_value(root) -> Fraction:
    if root.rational is not None:
        return root.rational
    return (root.lo + root.hi) / 2


def to_float(x) -> float:
    """Float value of any scalar the program returns."""
    if isinstance(x, Generator):
        return float(_root_value(x.root))
    if hasattr(x, "field"):
        return float(horner([Fraction(c) for c in x.rep.coeffs], _root_value(x.field.root)))
    return float(x)


class Residuals:
    """Collects equations lhs = sum of products and decides each one.

    Exact values (int, Fraction, number-field elements of one field) are
    compared exactly modulo the field's modulus; as soon as a float takes
    part, the equation is compared in floats to a relative tolerance."""

    def __init__(self):
        self.modulus: list | None = None
        self.problems: list[str] = []

    def _exact(self, x):
        if isinstance(x, (int, Fraction)):
            return [Fraction(x)] if x else []
        if isinstance(x, Generator):
            modulus, rep = x.root.poly.coeffs, [0, 1]
        elif hasattr(x, "field"):
            modulus, rep = x.field.modulus.coeffs, x.rep.coeffs
        else:
            return None
        mod = [Fraction(c) for c in modulus]
        if self.modulus is None:
            self.modulus = mod
        elif mod != self.modulus:
            self.problems.append("values from two different number fields")
        return [Fraction(c) for c in rep]

    def equation(self, name: str, lhs, terms) -> None:
        """lhs = sum over terms of the product of each term's factors."""
        acc = self._exact(lhs)
        exact_terms = [[self._exact(f) for f in t] for t in terms]
        if acc is not None and all(p is not None for t in exact_terms for p in t):
            for t in exact_terms:
                prod = [Fraction(1)]
                for p in t:
                    prod = p_mul(prod, p)
                acc = p_add(acc, prod, -1)
            if self.modulus is not None:
                acc = p_mod(acc, self.modulus)
            if acc:
                self.problems.append(f"{name}: exact residual {acc}")
            return
        left = to_float(lhs)
        right = 0.0
        for t in terms:
            prod = 1.0
            for f in t:
                prod *= to_float(f)
            right += prod
        if abs(left - right) > FLOAT_TOL * max(1.0, abs(left)):
            self.problems.append(f"{name}: residual {left - right:.3g}")

    def positive(self, name: str, x) -> None:
        if not to_float(x) > 0:
            self.problems.append(f"{name} = {to_float(x):.3g} is not positive")


# ---------------------------------------------------------------------------
# Weight equations
# ---------------------------------------------------------------------------

def graph_weight_problems(spec: dict, g: dict, lam: dict, res: Residuals | None = None) -> list[str]:
    """g(v) = sum over edges e leaving v of lam(e) g(dst e), g and lam > 0."""
    res = res or Residuals()
    out: dict[str, list] = {}
    for e in spec["edges"]:
        out.setdefault(e["src"], []).append(e)
    for v in spec["vertices"]:
        res.positive(f"g[{v}]", g[v])
        if v in out:
            res.equation(f"vertex {v}", g[v], [(lam[e["id"]], g[e["dst"]]) for e in out[v]])
    for e in spec["edges"]:
        res.positive(f"lambda[{e['id']}]", lam[e["id"]])
    return res.problems


def kernel_problems(adj: list[list[int]], eta, vec) -> list[str]:
    """(eta A - I) v = 0 with v > 0, where eta is the program's root (its
    field generator when irrational) and v its positive kernel vector."""
    res = Residuals()
    lam = eta.rational if eta.rational is not None else Generator(eta)
    n = len(adj)
    for i in range(n):
        res.positive(f"v[{i}]", vec[i])
        if any(adj[i]):
            terms = [(lam, adj[i][j], vec[j]) for j in range(n) if adj[i][j]]
            res.equation(f"row {i}", vec[i], terms)
    return res.problems


def rank2_problems(cspec: dict, w, mode: str, res: Residuals | None = None) -> list[str]:
    """Skeleton equation for (g, lambda_tilde), boundary equation for
    (lam, eta) at every face instance, the coupling of the mode, and
    positivity of every value."""
    res = res or Residuals()
    graph_weight_problems(cspec, w.g, w.lambda_tilde, res)
    dst = {e["id"]: e["dst"] for e in cspec["edges"]}
    sums: dict[str, list] = {}
    for f in cspec["faces"]:
        word = f["boundary"]
        for k, e in enumerate(word):
            eta = w.eta_instances.get((f["id"], k), w.eta.get(f["id"]))
            res.positive(f"eta[{f['id']}:{k}]", eta)
            sums.setdefault(e, []).append((eta, w.lam[word[(k + 1) % len(word)]]))
    for e, terms in sums.items():
        res.equation(f"boundary {e}", w.lam[e], terms)
    for e in cspec["edges"]:
        eid = e["id"]
        if mode == "standard":
            res.equation(f"coupling {eid}", w.lam[eid], [(w.lambda_tilde[eid], w.g[dst[eid]])])
        else:
            res.equation(f"coupling {eid}", w.lam[eid], [(w.lambda_tilde[eid],)])
    return res.problems


def triangular_problems(cspec: dict, w) -> list[str]:
    """Follower (eta_a, next edge) and predecessor (eta_b, previous edge)
    equations, the skeleton equation and tightness."""
    res = Residuals()
    graph_weight_problems(cspec, w.g, w.lambda_tilde, res)
    sums_a: dict[str, list] = {}
    sums_b: dict[str, list] = {}
    for f in cspec["faces"]:
        word, fid = f["boundary"], f["id"]
        n = len(word)
        for k, e in enumerate(word):
            sums_a.setdefault(e, []).append((w.eta_a[fid], w.lam[word[(k + 1) % n]]))
            sums_b.setdefault(e, []).append((w.eta_b[fid], w.lam[word[(k - 1) % n]]))
        res.equation(f"tight eta[{fid}]", w.eta_a[fid], [(w.eta_b[fid],)])
    for e in sums_a:
        res.equation(f"follower {e}", w.lam[e], sums_a[e])
        res.equation(f"predecessor {e}", w.lam[e], sums_b[e])
    for e in cspec["edges"]:
        res.equation(f"tight lambda[{e['id']}]", w.lam[e["id"]], [(w.lambda_tilde[e["id"]],)])
    return res.problems


# ---------------------------------------------------------------------------
# Path monomials
# ---------------------------------------------------------------------------

def _comparable(p, q) -> bool:
    """Paths p and q start at one vertex and one extends the other."""
    if p.src != q.src:
        return False
    k = min(len(p.edges), len(q.edges))
    return p.edges[:k] == q.edges[:k]


def product_nonzero(x, y) -> bool:
    """(S_mu S_nu*)(S_alpha S_beta*) is non-zero iff nu and alpha are
    prefix-comparable; a rank-2 product needs both factors non-zero."""
    if hasattr(x, "skeleton_part"):
        return product_nonzero(x.skeleton_part, y.skeleton_part) and product_nonzero(
            x.boundary_part, y.boundary_part
        )
    return _comparable(x.nu, y.mu)


def nonzero_pairs(sample) -> int:
    """Pairs whose identity has a non-zero side: xy or yx survives."""
    return sum(1 for x, y in sample if product_nonzero(x, y) or product_nonzero(y, x))


def kms_problems(report, sample_size: int, expect_pass: bool = True) -> list[str]:
    """An exact sweep passes with discrepancy exactly 0 over the whole
    sample; the opposite sign convention must fail."""
    problems = []
    if report.pairs_checked != sample_size:
        problems.append(f"pairs_checked {report.pairs_checked} != sample size {sample_size}")
    if expect_pass and (not report.passed or report.max_discrepancy != 0):
        problems.append(f"exact sweep: passed={report.passed} discrepancy={report.max_discrepancy}")
    if not expect_pass and (report.passed or not report.max_discrepancy > 0):
        problems.append("opposite sign convention was not rejected")
    return problems
