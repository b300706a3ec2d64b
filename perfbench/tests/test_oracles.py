"""Each independent check accepts the program's right answer and rejects a
wrong one.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import cwkms as cw
import cwkms.fixtures
import pytest

import inputs
import oracles


def _solved(n: int):
    """Ladder graph n of the classify workload, solved."""
    spec = inputs.random_strong_multigraph(random.Random(n), n)
    return spec, cw.solve_special_weights(cw.build_graph(spec))


@pytest.fixture(scope="module")
def strong_graph():
    return _solved(9)


def test_int_det_small_cases():
    assert oracles.int_det([[2, 1], [1, 3]]) == 5
    assert oracles.int_det([[0, 1], [1, 0]]) == -1
    assert oracles.int_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert oracles.int_det([[1, 2], [2, 4]]) == 0


def test_det_check_rejects_a_wrong_coefficient(strong_graph):
    spec, rep = strong_graph
    adj = inputs.adjacency(spec)
    coeffs = list(rep.det.coeffs)
    assert oracles.check_det(coeffs, adj, (2, 3, -5)) == []
    coeffs[1] += 1
    assert oracles.check_det(coeffs, adj, (2, 3, -5))


def test_kernel_check_rejects_a_perturbed_vector(strong_graph):
    spec, rep = strong_graph
    adj = inputs.adjacency(spec)
    (fam,) = [f for f in rep.families if f.kernel.status == "positive"]
    assert fam.eta.rational is None  # the vector lives in a number field
    vec = list(fam.kernel.positive)
    assert oracles.kernel_problems(adj, fam.eta, vec) == []
    vec[0] = vec[0] + Fraction(1, 10**12)
    assert oracles.kernel_problems(adj, fam.eta, vec)


def test_kernel_check_rejects_a_perturbed_float_vector():
    spec, rep = _solved(8)  # reducible modulus: the SVD fallback gives floats
    adj = inputs.adjacency(spec)
    (fam,) = [f for f in rep.families if f.kernel.status == "positive"]
    vec = list(fam.kernel.positive)
    assert isinstance(vec[0], float)
    assert oracles.kernel_problems(adj, fam.eta, vec) == []
    vec[0] *= 1 + 1e-6
    assert oracles.kernel_problems(adj, fam.eta, vec)


def test_kernel_check_rejects_a_perturbed_rational_vector():
    spec = inputs.de_bruijn_spec(2, 3, "")
    rep = cw.solve_special_weights(cw.build_graph(spec))
    fam = rep.families[0]
    vec = list(fam.kernel.positive)
    assert oracles.kernel_problems(inputs.adjacency(spec), fam.eta, vec) == []
    vec[-1] *= 2
    assert oracles.kernel_problems(inputs.adjacency(spec), fam.eta, vec)


def test_spliced_weight_check_rejects_one_changed_lambda():
    figb = cw.build_complex(inputs.FIG_B_SPEC)
    base = cw.solve_2dcw(figb, "standard")[0].weight
    am = cw.build_amalgam(inputs.amalgam_spec("chain", 3, random.Random(1)))
    spliced = cw.splice_cw_weights(am, {p: base for p in am.pieces})
    cspec = cw.complexes.complex_to_dict(am.foundation)
    assert oracles.rank2_problems(cspec, spliced, "standard") == []
    eid = cspec["edges"][-1]["id"]
    bad = replace(spliced, lam={**spliced.lam, eid: spliced.lam[eid] * 2})
    assert oracles.rank2_problems(cspec, bad, "standard")


def test_graph_splice_check_rejects_one_changed_lambda():
    rng = random.Random(3)
    shared = cw.build_graph(inputs.SHARED_SPEC)
    parts = []
    for tag in ("a", "b"):
        spec = inputs.graph_with_shared_cycle(rng, 12, tag)
        g, lam = inputs.exact_graph_weight(rng, spec)
        ids = {v: v for v in inputs.SHARED_SPEC["vertices"]}
        eids = {e["id"]: e["id"] for e in inputs.SHARED_SPEC["edges"]}
        parts.append((cw.GraphWeight(g, lam), cw.GraphEmbedding(shared, cw.build_graph(spec), ids, eids)))
    result = cw.splice_graph_weights(parts[0][0], parts[1][0], parts[0][1], parts[1][1])
    spec = cw.graphs.graph_to_dict(result.glued.graph)
    assert oracles.graph_weight_problems(spec, result.weight.g, result.weight.lam) == []
    lam = dict(result.weight.lam)
    lam["t0"] += Fraction(1, 7)
    assert oracles.graph_weight_problems(spec, result.weight.g, lam)


def test_kms_check_rejects_the_opposite_sign():
    figb = cw.build_complex(inputs.FIG_B_SPEC)
    w = cw.solve_2dcw(figb, "standard")[0].weight
    monos = cw.all_monomials(cw.boundary_graph(figb).graph, 1)
    sample = [(x, y) for x in monos for y in monos]
    right = cw.kms_check(cw.functional_from_rank2(figb, w).boundary, sample)
    wrong = cw.kms_check(cw.functional_from_rank2(figb, w, beta_sign=1).boundary, sample)
    assert oracles.kms_problems(right, len(sample)) == []
    assert oracles.kms_problems(wrong, len(sample))
    assert oracles.kms_problems(wrong, len(sample), expect_pass=False) == []
    assert oracles.kms_problems(right, len(sample), expect_pass=False)


def test_prefix_test_agrees_with_monomial_products():
    figb = cw.build_complex(inputs.FIG_B_SPEC)
    monos = cw.all_monomials(cw.boundary_graph(figb).graph, 2)
    rng = random.Random(0)
    for x, y in inputs.sample_pairs(rng, monos, 2000):
        assert oracles.product_nonzero(x, y) == bool(cw.monomial_product(x, y))


def test_figb_root_and_fixture_copies_match_the_library():
    assert abs(oracles.FIG_B_ETA - 0.8191725133961645) < 1e-15
    assert inputs.FIG_B_SPEC == cw.fixtures.FIG_B_SPEC
    assert inputs.gamma_q2_presentation_spec() == cw.fixtures.gamma_q2_presentation_spec()
