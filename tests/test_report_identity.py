"""Verifier reports against references built with term-by-term arithmetic.

The verifiers form each residual in one fused integer pass and decide a
zero representation without an enclosure.  The references below build every
residual as a chain of reduced field operations and decide every value by
its sign, so equal reports show that neither shortcut changes a key, a flag
or a float.  Each side runs on its own deep copy of the weight, so both
start from the same isolating interval of the root.
"""

import copy
from dataclasses import asdict
from fractions import Fraction as F

import pytest

from cwkms.cwweights import (
    MODE_STANDARD,
    MODE_TIGHT,
    Rank2Weight,
    boundary_weight_residuals,
    solve_2dcw,
    solve_triangular_special,
    verify_rank2,
    verify_triangular,
)
from cwkms.exact import (
    FieldElement,
    NumberField,
    Poly,
    isolate_positive_roots,
    scalar_abs_leq,
    scalar_sign,
)
from cwkms.fixtures import FIG_B_SPEC
from cwkms.solver import DEFAULT_TOL
from cwkms.splicing import build_amalgam, splice_cw_weights

from .conftest import fig_b_standard_weight

# ---------------------------------------------------------------------------
# References: term-by-term residuals, every value decided by its sign
# ---------------------------------------------------------------------------


def _eq(a, b):
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return scalar_sign(a - b) == 0
    return a == b


def _sum_products(pairs):
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def _graph_report(graph, g, lam, tol):
    residuals, passed, exact = {}, True, True
    for v in graph.non_sinks():
        r = g[v] - _sum_products((lam[eid], g[graph.dst(eid)]) for eid in graph.out_edges(v))
        exact = exact and not isinstance(r, float)
        if not scalar_abs_leq(r, tol):
            passed = False
        residuals[v] = abs(float(r))
    vals = [lam[e.id] for e in graph.edges]
    return {
        "passed": passed,
        "max_residual": max(residuals.values(), default=0.0),
        "residuals": residuals,
        "faithful": all(scalar_sign(g[v]) != 0 for v in graph.vertices),
        "special": all(_eq(v, vals[0]) for v in vals[1:]) if vals else True,
        "exact": exact,
        "tol": float(tol),
    }


def _boundary_residuals(c, lam, eta_of, step=1):
    terms = {}
    for f in c.faces:
        n = len(f.boundary)
        for k in range(n):
            terms.setdefault(f.boundary[k], []).append((eta_of(f.id, k), lam[f.boundary[(k + step) % n]]))
    return {e: lam[e] - _sum_products(pairs) for e, pairs in terms.items()}


def _summary(sk, maps, tol):
    within = [scalar_abs_leq(r, tol) for m in maps for r in m.values()]
    floats = [{k: abs(float(r)) for k, r in m.items()} for m in maps]
    maxr = max([sk["max_residual"]] + [x for m in floats for x in m.values()])
    return sk["passed"] and all(within), floats, maxr


def _rank2_report(c, w, tol=DEFAULT_TOL):
    sk = _graph_report(c.skeleton, w.g, w.lambda_tilde, tol)
    bres = _boundary_residuals(c, w.lam, w.eta_at)
    coupling = {}
    if w.mode == MODE_TIGHT:
        coupling = {e.id: w.lam[e.id] - w.lambda_tilde[e.id] for e in c.skeleton.edges}
    elif w.mode == MODE_STANDARD:
        coupling = {e.id: w.lam[e.id] - w.lambda_tilde[e.id] * w.g[e.dst] for e in c.skeleton.edges}
    passed, (bfl, cfl), maxr = _summary(sk, [bres, coupling], tol)
    vals = [w.g[v] for v in c.skeleton.vertices] + [w.lam[e.id] for e in c.skeleton.edges]
    vals += [w.lambda_tilde[e.id] for e in c.skeleton.edges]
    etas = [w.eta_at(f.id, k) for f in c.faces for k in range(len(f.boundary))]
    return {
        "passed": passed,
        "mode": w.mode,
        "max_residual": maxr,
        "skeleton": sk,
        "boundary_residuals": bfl,
        "coupling_residuals": cfl,
        "faithful": all(scalar_sign(x) != 0 for x in vals + etas),
        "special": all(_eq(x, etas[0]) for x in etas[1:]) if etas else True,
    }


def _triangular_report(c, w, tol=DEFAULT_TOL):
    sk = _graph_report(c.skeleton, w.g, w.lambda_tilde, tol)
    res_a = _boundary_residuals(c, w.lam, lambda fid, k: w.eta_a[fid], 1)
    res_b = _boundary_residuals(c, w.lam, lambda fid, k: w.eta_b[fid], -1)
    tight = {}
    if w.tight:
        tight = {f"lambda[{e.id}]": w.lam[e.id] - w.lambda_tilde[e.id] for e in c.skeleton.edges}
        tight.update({f"eta[{f.id}]": w.eta_a[f.id] - w.eta_b[f.id] for f in c.faces})
    passed, (fa, fb, ft), maxr = _summary(sk, [res_a, res_b, tight], tol)
    etas = [w.eta_a[f.id] for f in c.faces] + [w.eta_b[f.id] for f in c.faces]
    vals = [w.g[v] for v in c.skeleton.vertices] + [w.lam[e.id] for e in c.skeleton.edges] + etas
    return {
        "passed": passed,
        "max_residual": maxr,
        "skeleton": sk,
        "residuals_a": fa,
        "residuals_b": fb,
        "tightness_residuals": ft,
        "faithful": all(scalar_sign(x) != 0 for x in vals),
        "special": all(_eq(x, etas[0]) for x in etas[1:]) if etas else True,
    }


def _assert_same_rank2(c, w):
    want = _rank2_report(c, copy.deepcopy(w))
    assert asdict(verify_rank2(c, copy.deepcopy(w))) == want
    return want


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figb_standard(figb):
    return solve_2dcw(figb, MODE_STANDARD)[0].weight


def _amalgam(form, k):
    names = [f"p{i}" for i in range(k)]
    residue = {"vertices": ["v", "u"], "edges": [{"id": "d", "src": "v", "dst": "u"}]}
    attach = {"vertex_map": {"v": "v", "u": "u"}, "edge_map": {"d": "d"}}
    if form == "star":
        residues = {"r": residue}
        attachments = [{"piece": p, "residue": "r", **attach} for p in names]
    else:
        residues = {f"r{i}": residue for i in range(k - 1)}
        attachments = [
            {"piece": p, "residue": f"r{i}", **attach} for i in range(k - 1) for p in (names[i], names[i + 1])
        ]
    pieces = {p: FIG_B_SPEC for p in names}
    return build_amalgam({"pieces": pieces, "residues": residues, "attachments": attachments})


def _scaled(w, c):
    return Rank2Weight(
        g={v: c * x for v, x in w.g.items()},
        lambda_tilde=dict(w.lambda_tilde),
        lam={e: c * x for e, x in w.lam.items()},
        eta=dict(w.eta),
        mode=w.mode,
    )


def test_figb_standard_weight(figb, figb_standard):
    want = _assert_same_rank2(figb, figb_standard)
    assert want["passed"] and want["faithful"] and want["max_residual"] == 0.0


@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("form", ["star", "chain"])
def test_spliced_amalgam_weights(figb_standard, form, k):
    am = _amalgam(form, k)
    weights = {p: _scaled(figb_standard, 1 + i % 4) for i, p in enumerate(am.pieces)}
    spliced = splice_cw_weights(am, weights)
    want = _assert_same_rank2(am.foundation, spliced)
    assert want["passed"] and want["faithful"] and not want["special"]


@pytest.mark.parametrize("edge", ["a", "d"])
def test_planted_wrong_lambda(figb, figb_standard, edge):
    w = copy.deepcopy(figb_standard)
    w.lam[edge] = w.lam[edge] * F(8, 7)
    want = _assert_same_rank2(figb, w)
    assert not want["passed"]
    assert 0 < want["max_residual"] < 1
    assert {e for e, r in want["coupling_residuals"].items() if r} == {edge}


def test_planted_wrong_lambda_tilde(figb, figb_standard):
    w = copy.deepcopy(figb_standard)
    w.lambda_tilde["b"] = w.lambda_tilde["b"] + F(1, 3)
    want = _assert_same_rank2(figb, w)
    assert not want["passed"] and not want["skeleton"]["passed"]
    assert [v for v, r in want["skeleton"]["residuals"].items() if r] == [figb.skeleton.src("b")]


def test_residual_vanishing_at_the_root_of_a_reducible_modulus(figb, figb_standard):
    """The closed-form figB weight over (x^4 + x^3 - 1)(x - 3) at eta: its
    residuals are multiples of x^4 + x^3 - 1, non-zero representations that
    vanish at the root, so they pass with 0.0 by their signs."""
    root = figb_standard.eta["s1"].field.root
    m = Poly.from_ints([-1, 0, 0, 1, 1]) * Poly.from_ints([-3, 1])
    k = NumberField(m, isolate_positive_roots(root.poly)[0])
    w = fig_b_standard_weight(k.gen(), 1)
    assert any(r.nums for r in boundary_weight_residuals(figb, w.lam, w.eta_at).values())
    want = _assert_same_rank2(figb, w)
    assert want["passed"] and want["faithful"] and want["max_residual"] == 0.0


def test_gamma_triangular_weight(gamma_complex):
    w = solve_triangular_special(gamma_complex)[0].weight
    want = _triangular_report(gamma_complex, copy.deepcopy(w))
    assert asdict(verify_triangular(gamma_complex, copy.deepcopy(w))) == want
    assert want["passed"] and want["faithful"] and want["special"]
    w.eta_a[next(iter(w.eta_a))] = F(1, 2)
    want = _triangular_report(gamma_complex, copy.deepcopy(w))
    assert asdict(verify_triangular(gamma_complex, copy.deepcopy(w))) == want
    assert not want["passed"] and not want["special"]
