"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: root isolation width 1e-14,
verification residuals 1e-10, the internal root identity 1e-12, exact-zero
checks in rational arithmetic where stated.  Criterion 10 (whole-suite
runtime under 60 s) is enforced by the sessionfinish hook in conftest, which
prints its line after the last test.
"""

import random
import time
from fractions import Fraction as F

from cwkms import buildings
from cwkms.buildings import lattice_weight_check, matched_weight_search, sector_graphs
from cwkms.complexes import boundary_graph
from cwkms.cwweights import (
    MODE_STANDARD,
    MODE_TIGHT,
    solve_2dcw,
    solve_triangular_special,
    verify_rank2,
)
from cwkms.errors import AmbiguousSector
from cwkms.exact import ROOT_WIDTH, Poly, scalar_sign
from cwkms.fixtures import fig_b_double_amalgam_spec
from cwkms.pathalgebra import (
    Rank2Monomial,
    all_monomials,
    functional_from_graph_weight,
    functional_from_rank2,
    kms_check,
)
from cwkms.solver import GraphWeight, solve_special_weights, verify_graph_weight
from cwkms.splicing import build_amalgam, splice_cw_weights, splice_graph_weights

from .conftest import (
    compatible_extension_pair,
    fig_b_standard_weight,
    fig_b_two_parameter_weight,
    random_faithful_weight,
    random_graph,
)
from .test_cw_weights import ETA0

RESIDUAL_TOL = F(1, 10**10)
IDENTITY_TOL = 1e-12


def report(n: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_boundary_graph_classification(figb_boundary):
    t0 = time.perf_counter()
    rep = solve_special_weights(figb_boundary.graph)
    elapsed = time.perf_counter() - t0
    target = Poly.from_ints([1, 0, 0, -1, -1])  # 1 - x^3 - x^4
    ok = rep.det in (target, -target)
    positive = rep.families
    ok &= len(positive) == 1
    root = positive[0].eta
    ok &= root.width() <= ROOT_WIDTH
    eta = root.to_float()
    kernel = [float(v) for v in positive[0].kernel.positive]
    expected = [eta**3, eta**2, eta, 1.0, eta**2, eta]
    # normalize on the maximal component (the d entry)
    kd = kernel[figb_boundary.graph.vertices.index("d")]
    kernel = [v / kd for v in kernel]
    ok &= max(abs(a - b) for a, b in zip(kernel, expected)) <= 1e-10
    ok &= elapsed < 1.0
    report(1, "figB boundary determinant, unique root, kernel direction", ok)


def test_criterion_02_standard_solve(figb):
    fams = solve_2dcw(figb, MODE_STANDARD)
    ok = len(fams) == 1
    fam = fams[0]
    eta = fam.eta.to_float()
    gv = {v: float(fam.weight.g[v]) for v in figb.skeleton.vertices}
    scale = gv["v"]  # expected g(v) = C
    expected = {"x": eta**2, "y": eta, "z": eta, "u": 1.0 / eta, "v": 1.0}
    ok &= max(abs(gv[k] / scale - expected[k]) for k in expected) <= 1e-10
    ok &= all(
        abs(float(fam.weight.lambda_tilde[e]) - eta) <= 1e-10
        for e in figb.skeleton.edge_ids()
    )
    rep = verify_rank2(figb, fam.weight, RESIDUAL_TOL)
    ok &= rep.passed and rep.max_residual <= 1e-10
    # internal identity eta^3 + eta^2 = 1/eta at the refined root
    fam.eta.refine(F(1, 10**16))
    eta = fam.eta.to_float()
    ok &= abs(eta**3 + eta**2 - 1.0 / eta) <= IDENTITY_TOL
    report(2, "figB standard 2D CW family and root identity", ok)


def test_criterion_03_two_parameter_family(figb):
    ok = True
    for k in range(1, 21):
        eta1 = k / 21.0
        w = fig_b_two_parameter_weight(eta1, c=1.0)
        rep = verify_rank2(figb, w, RESIDUAL_TOL)
        ok &= rep.passed and rep.max_residual <= 1e-10
    report(3, "two-parameter family verifies at 20 sampled eta1", ok)


def test_criterion_04_tight_solve(figb):
    fams = solve_2dcw(figb, MODE_TIGHT)
    ok = len(fams) >= 1
    fam = fams[0]
    # second determinant equals +-(1 - C^3 h^3 - C^4 h^6), checked exactly
    # in the number field of the boundary root
    h = fam.eta.number_field().gen()
    expected = [1, 0, 0, -(h**3), -(h**6)]
    det = fam.scale_det
    ok &= len(det.coeffs) == len(expected)
    match = False
    for sign in (1, -1):
        match = match or all((sign * c - e).sign() == 0 for c, e in zip(det.coeffs, expected))
    ok &= match
    ok &= fam.scale_root is not None and scalar_sign(fam.scale_root) > 0
    rep = verify_rank2(figb, fam.weight, RESIDUAL_TOL)
    ok &= rep.passed and rep.max_residual <= 1e-10 and rep.mode == MODE_TIGHT
    report(4, "figB tight family via the scale determinant", ok)


def test_criterion_05_gamma_building(gamma_complex):
    t0 = time.perf_counter()
    bg = boundary_graph(gamma_complex)
    rep = solve_special_weights(bg.graph)
    fams = solve_triangular_special(gamma_complex)
    elapsed = time.perf_counter() - t0
    expected = (
        Poly.from_ints([-1, 3])
        * Poly.from_ints([1, 1, 2])
        * Poly.from_ints([1, 1, 2])
        * Poly.from_ints([-1, 0, 2])
    )
    ok = rep.det in (expected, -expected)
    roots = rep.families
    ok &= len(roots) == 2
    ok &= roots[0].eta.rational == F(1, 3)
    ok &= abs(roots[1].eta.to_float() - 2**-0.5) <= 1e-13
    ok &= roots[0].kernel.status == "positive"
    ok &= roots[1].kernel.status != "positive"
    ok &= len(fams) == 1
    fam = fams[0]
    ok &= fam.eta.rational == F(1, 3)
    ok &= all(v == F(1, 7) for v in fam.weight.lam.values())
    ok &= fam.free_parameters == ["g"]
    ok &= elapsed < 1.0
    report(5, "triangle-presentation building: det factors, roots, unique family", ok)


def test_criterion_06_kms_identity(figb, figb_boundary):
    # boundary-graph weight, float values for the full sweep
    graph = figb_boundary.graph
    lam0 = [ETA0**3, ETA0**2, ETA0, 1.0, ETA0**2, ETA0]
    wb = GraphWeight(g=dict(zip(graph.vertices, lam0)), lam={e.id: ETA0 for e in graph.edges})
    psi_b = functional_from_graph_weight(graph, wb, beta_sign=-1)
    monos_b = all_monomials(graph, 4)
    rep_b = kms_check(psi_b, [(x, y) for x in monos_b for y in monos_b], RESIDUAL_TOL)
    ok = rep_b.passed and rep_b.max_discrepancy <= 1e-10

    # rank-2 weight: factorwise over all pairs of length <= 4 plus a mixed sample
    w2 = fig_b_standard_weight(ETA0, c=1.0)
    psi2 = functional_from_rank2(figb, w2, beta_sign=-1)
    monos_s = all_monomials(figb.skeleton, 4)
    rep_s = kms_check(psi2.skeleton, [(x, y) for x in monos_s for y in monos_s], RESIDUAL_TOL)
    rep_b2 = kms_check(psi2.boundary, [(x, y) for x in monos_b for y in monos_b], RESIDUAL_TOL)
    rng = random.Random(2024)
    mixed = [Rank2Monomial(rng.choice(monos_s), rng.choice(monos_b)) for _ in range(150)]
    rep_m = kms_check(psi2, [(rng.choice(mixed), rng.choice(mixed)) for _ in range(1500)], RESIDUAL_TOL)
    for rep in (rep_s, rep_b2, rep_m):
        ok &= rep.passed and rep.max_discrepancy <= 1e-10
    report(6, "equilibrium identity over all length<=4 monomial pairs", ok)


def test_criterion_07_splice_closure(figb):
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        gamma = random_graph(rng, n_max=3)
        (g1, e1), (g2, e2) = compatible_extension_pair(rng, gamma)
        w1 = random_faithful_weight(rng, g1)
        w2 = random_faithful_weight(rng, g2)
        res = splice_graph_weights(w1, w2, e1, e2)
        rep = verify_graph_weight(res.glued.graph, res.weight, 0)
        ok &= rep.passed and rep.exact and rep.max_residual == 0.0

    am = build_amalgam(fig_b_double_amalgam_spec())
    w = solve_2dcw(figb, MODE_STANDARD)[0].weight
    spliced = splice_cw_weights(am, {"p1": w, "p2": w})
    rep2 = verify_rank2(am.foundation, spliced, RESIDUAL_TOL)
    ok &= rep2.passed and rep2.max_residual <= 1e-10
    # coupling identity: lambda = lambda_tilde * g(dst) componentwise
    ok &= all(v <= 1e-10 for v in rep2.coupling_residuals.values())
    report(7, "splice closure: 50 exact graph splices + figB CW splice", ok)


def test_criterion_08_shape_lattice(monkeypatch):
    ok = True
    for base in ({"o": F(1)}, {"o": F(13, 5), "p": F(2, 11)}):
        rep = lattice_weight_check(2, (4, 4), base)
        ok &= rep.passed
        ok &= all(r == 0 for r in rep.residuals.values())
    monkeypatch.setattr(buildings, "decay_law", lambda q: lambda m1, m2: F(1, q * q) ** m1)
    perturbed = lattice_weight_check(2, (4, 4), {"o": F(1)})
    ok &= not perturbed.passed
    ok &= any(r != 0 for r in perturbed.residuals.values())
    report(8, "shape-lattice law: exact zeros, perturbed law fails", ok)


def test_criterion_09_sector_graphs(gamma_presentation):
    try:
        gp, gm = sector_graphs(gamma_presentation)
    except AmbiguousSector as exc:
        # a documented diagnosis is an accepted outcome; surface it loudly
        print(f"ACCEPTANCE  9 sector graphs: AmbiguousSector diagnosis: {exc}")
        assert exc.vertex is not None
        return
    ok = len(gp.vertices) == 21 and len(gm.vertices) == 21
    ok &= all(len(gp.out_edges(v)) == 4 for v in gp.vertices)
    ok &= all(len(gm.out_edges(v)) == 4 for v in gm.vertices)
    # the constant pair satisfies the matching condition exactly: both sides
    # solve to lambda = 1/4 with kernel vector identically 1 (exact rationals)
    rp = solve_special_weights(gp)
    rm = solve_special_weights(gm)
    const_p = [f for f in rp.faithful_families() if f.eta.rational == F(1, 4)]
    const_m = [f for f in rm.faithful_families() if f.eta.rational == F(1, 4)]
    ok &= len(const_p) == 1 and len(const_m) == 1
    kp, km = const_p[0].kernel.positive, const_m[0].kernel.positive
    ok &= all(x == 1 for x in kp) and all(x == 1 for x in km)
    # matching condition lam+*g+ == lam-*g- holds exactly: 1/4 * 1 both sides
    ok &= all(
        F(1, 4) * a == F(1, 4) * b for a, b in zip(kp, km)
    )
    pairs = matched_weight_search(gp, gm)
    ok &= any(
        p.plus.eta.rational == F(1, 4) and p.minus.eta.rational == F(1, 4)
        for p in pairs
    )
    report(9, "sector graphs: 21 vertices, out-degree 4, exact matched pair", ok)
