"""Path monomial calculus, the induced functional, and the equilibrium
identity."""

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkms.cwweights import MODE_STANDARD, solve_2dcw, weight_from_dict
from cwkms.errors import InputError
from cwkms.fixtures import FIG_B_SPEC
from cwkms import pathalgebra
from cwkms.graphs import build_graph
from cwkms.pathalgebra import (
    PathMonomial,
    Rank2Monomial,
    all_monomials,
    all_paths,
    edge_isometry,
    functional_from_graph_weight,
    functional_from_rank2,
    gauge_check,
    kms_check,
    monomial,
    monomial_product,
    path_range,
    rank2_product,
    vertex_projection,
)
from cwkms.solver import GraphWeight

from .conftest import fig_b_standard_weight, random_faithful_weight
from .test_golden import INPUTS
from .test_cw_weights import ETA0

TOL = F(1, 10**10)


@pytest.fixture(scope="module")
def figb_psi(figb):
    """Float-valued functionals for the closed-form standard weight."""
    w = fig_b_standard_weight(ETA0, c=1.0)
    return functional_from_rank2(figb, w)


@pytest.fixture(scope="module")
def boundary_psi(figb_boundary):
    graph = figb_boundary.graph
    lam0 = [ETA0 ** 3, ETA0 ** 2, ETA0, 1.0, ETA0 ** 2, ETA0]
    w = GraphWeight(
        g=dict(zip(graph.vertices, lam0)),
        lam={e.id: ETA0 for e in graph.edges},
    )
    return functional_from_graph_weight(graph, w)


class TestProducts:
    def test_star_isometry_relation(self, figb):
        sk = figb.skeleton
        se = edge_isometry(sk, "a")
        out = monomial_product(se.star(), se)
        assert len(out) == 1 and not out[0].mu.edges and not out[0].nu.edges
        assert out[0].mu.src == out[0].nu.src == "x"  # P at the range of a

    def test_projection_action(self, figb):
        sk = figb.skeleton
        se = edge_isometry(sk, "a")
        assert monomial_product(vertex_projection(sk, "u"), se)[0] == se
        assert monomial_product(vertex_projection(sk, "x"), se) == []

    def test_prefix_extension(self, figb):
        sk = figb.skeleton
        m1 = monomial(sk, ["a"], ["a"], coeff=F(2))
        m2 = monomial(sk, ["a", "b"], [], coeff=F(3))
        out = monomial_product(m1, m2)
        assert out[0].mu.edges == ("a", "b") and out[0].nu.edges == () and out[0].coeff == 6
        out = monomial_product(m2.star(), m1)  # nu = ab extends alpha = a
        assert out[0].mu.edges == () and out[0].nu.edges == ("a", "b") and out[0].coeff == 6

    def test_divergent_paths_vanish(self, figb):
        sk = figb.skeleton
        sa = edge_isometry(sk, "a")
        se = edge_isometry(sk, "e")
        assert monomial_product(sa.star(), se) == []
        # a zero coefficient vanishes with comparable and with incomparable paths
        assert monomial_product(sa.star().scaled(0), sa) == []
        assert monomial_product(sa.star().scaled(0), se) == []

    def test_graph_mismatch(self, figb, figb_boundary):
        a = vertex_projection(figb.skeleton, "u")
        b = vertex_projection(figb_boundary.graph, "a")
        with pytest.raises(InputError, match="monomials over different graphs"):
            monomial_product(a, b)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, figb, seed):
        sk = figb.skeleton
        rng = random.Random(seed)
        monos = all_monomials(sk, 6)
        x, y, z = (rng.choice(monos) for _ in range(3))

        def mul(ms, n):
            out = []
            for m in ms:
                out.extend(monomial_product(m, n))
            return out

        left = mul(mul([x], y), z)
        right = []
        for t in monomial_product(y, z):
            right.extend(monomial_product(x, t))
        assert [(m.mu, m.nu, m.coeff) for m in left] == [(m.mu, m.nu, m.coeff) for m in right]


class TestWeightEval:
    def test_projection_value(self, boundary_psi, figb_boundary):
        p = vertex_projection(figb_boundary.graph, "d")
        assert boundary_psi.eval(p) == 1.0  # g(d) normalized to 1

    def test_edge_value(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        e = graph.edges[0]  # s1:0, a -> b
        se = edge_isometry(graph, e.id)
        val = boundary_psi.eval(monomial_product(se, se.star())[0])
        expected = ETA0 * boundary_psi.weight.g[e.dst]
        assert abs(val - expected) < 1e-14

    def test_off_diagonal_vanishes(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        # two distinct boundary edges into d give a legal off-diagonal word
        m = monomial(graph, ["s1:2"], ["s2:2"])  # c->d and f->d
        assert boundary_psi.eval(m) == 0

    def test_figb_rank2_value(self, figb_psi, figb):
        sk = figb.skeleton
        m = monomial(sk, ["a", "b"], ["a", "b"])
        val = figb_psi.skeleton.eval(m)
        # lt(a) lt(b) g(y) = eta0^2 * eta0 = eta0^3 at C=1
        assert abs(val - ETA0 ** 3) < 1e-14


class TestEvolve:
    def test_projection_fixed(self, boundary_psi, figb_boundary):
        p = vertex_projection(figb_boundary.graph, "a")
        for t in (0, 1j, -1j, 2j):
            assert boundary_psi.evolve(p, t).coeff == 1

    def test_time_off_the_imaginary_integers_rejected(self, boundary_psi, figb_boundary):
        se = edge_isometry(figb_boundary.graph, "s1:0")
        for t in (1.7, -0.37, 0.5j, 1 + 1j, complex("infj")):
            with pytest.raises(InputError, match="only at t = s\\*1j"):
                boundary_psi.evolve(se, t)

    def test_minus_i_gives_real_ratio(self, boundary_psi, figb_boundary):
        se = edge_isometry(figb_boundary.graph, "s1:0")
        out = boundary_psi.evolve(se, -1j)
        assert abs(out.coeff - ETA0) < 1e-14
        out2 = boundary_psi.evolve(se, 1j)
        assert abs(out2.coeff - 1 / ETA0) < 1e-14

    def test_nonpositive_weight_rejected(self, figb):
        sk = figb.skeleton
        w = GraphWeight({v: 1.0 for v in sk.vertices}, {e.id: 0.0 for e in sk.edges})
        psi = functional_from_graph_weight(sk, w)
        with pytest.raises(InputError, match=r"lambda\(a\) must be positive for the flow"):
            psi.evolve(edge_isometry(sk, "a"), -1j)

    def test_one_parameter_group_on_products(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        monos = all_monomials(graph, 2)
        rng = random.Random(3)
        t = 2j
        for _ in range(50):
            x, y = rng.choice(monos), rng.choice(monos)
            prod = monomial_product(x, y)
            if not prod:
                continue
            lhs = boundary_psi.evolve(prod[0], t).coeff
            rhs_terms = monomial_product(boundary_psi.evolve(x, t), boundary_psi.evolve(y, t))
            assert rhs_terms
            assert abs(lhs - rhs_terms[0].coeff) < 1e-12


class TestKMS:
    def test_generator_pair(self, boundary_psi, figb_boundary):
        se = edge_isometry(figb_boundary.graph, "s1:0")
        rep = kms_check(boundary_psi, [(se, se.star())], TOL)
        assert rep.passed and rep.max_discrepancy <= 1e-14

    def test_closed_form_pair(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        mu = ["s1:0", "s1:1"]  # a->b->c
        x = monomial(graph, mu, mu)
        pairs = [(x, x), (x, x.star())]
        rep = kms_check(boundary_psi, pairs, TOL)
        assert rep.passed

    def test_projection_pairs(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        pv = vertex_projection(graph, "a")
        pw = vertex_projection(graph, "d")
        rep = kms_check(boundary_psi, [(pv, pw), (pv, pv)], TOL)
        assert rep.passed

    def test_sweep_length_three(self, boundary_psi, figb_boundary):
        monos = all_monomials(figb_boundary.graph, 3)
        pairs = [(x, y) for x in monos for y in monos]
        rep = kms_check(boundary_psi, pairs, TOL)
        assert rep.passed
        assert rep.pairs_checked == len(pairs)

    def test_rank2_factorwise_and_mixed(self, figb_psi, figb, figb_boundary):
        sk_monos = all_monomials(figb.skeleton, 3)
        bd_monos = all_monomials(figb_boundary.graph, 2)
        rep1 = kms_check(figb_psi.skeleton, [(x, y) for x in sk_monos for y in sk_monos], TOL)
        rep2 = kms_check(figb_psi.boundary, [(x, y) for x in bd_monos for y in bd_monos], TOL)
        assert rep1.passed and rep2.passed
        rng = random.Random(0)
        mixed = [Rank2Monomial(rng.choice(sk_monos), rng.choice(bd_monos)) for _ in range(60)]
        rep3 = kms_check(figb_psi, [(rng.choice(mixed), rng.choice(mixed)) for _ in range(600)], TOL)
        assert rep3.passed

    def test_wrong_sign_fails(self, figb_boundary):
        graph = figb_boundary.graph
        lam0 = [ETA0 ** 3, ETA0 ** 2, ETA0, 1.0, ETA0 ** 2, ETA0]
        w = GraphWeight(g=dict(zip(graph.vertices, lam0)), lam={e.id: ETA0 for e in graph.edges})
        psi = functional_from_graph_weight(graph, w, beta_sign=1)
        se = edge_isometry(graph, "s1:0")
        rep = kms_check(psi, [(se, se.star())], TOL)
        assert not rep.passed  # the identity pins the sign convention


class TestGaugeAndConsistency:
    def test_gauge_sweep(self, boundary_psi, figb_boundary):
        monos = all_monomials(figb_boundary.graph, 3)
        rng = random.Random(1)
        sample = [rng.choice(monos) for _ in range(50)]
        rep = gauge_check(boundary_psi, sample)
        assert rep.passed

    def test_ck_consistency_is_weight_equation(self, boundary_psi, figb_boundary):
        graph = figb_boundary.graph
        for v in graph.non_sinks():
            lhs = boundary_psi.eval(vertex_projection(graph, v))
            rhs = 0.0
            for eid in graph.out_edges(v):
                se = edge_isometry(graph, eid)
                rhs += boundary_psi.eval(monomial_product(se, se.star())[0])
            assert abs(lhs - rhs) < 1e-12

    def test_paths_enumeration(self, figb):
        sk = figb.skeleton
        paths = all_paths(sk, 2)
        assert sum(1 for p in paths if not p.edges) == 5
        assert sum(1 for p in paths if len(p.edges) == 1) == 6
        for p in paths:
            if p.edges:
                assert path_range(sk, p) == sk.dst(p.edges[-1])

    def test_rank2_product_componentwise(self, figb, figb_boundary):
        sk, bgraph = figb.skeleton, figb_boundary.graph
        a = Rank2Monomial(vertex_projection(sk, "u"), vertex_projection(bgraph, "a"))
        b = Rank2Monomial(edge_isometry(sk, "a"), vertex_projection(bgraph, "a"))
        out = rank2_product(a, b)
        assert len(out) == 1
        assert out[0].skeleton_part.mu.edges == ("a",)


# ---------------------------------------------------------------------------
# kms_check against a pair-by-pair reference
# ---------------------------------------------------------------------------

def _reference_value(psi, a, b):
    product = rank2_product if isinstance(a, Rank2Monomial) else monomial_product
    return sum((psi.eval(m) for m in product(a, b)), 0)


def _as_complex(v) -> complex:
    return v if isinstance(v, complex) else complex(float(v))


def reference_kms(psi, sample, tol):
    """The identity over every pair on its own: evolve per pair, no pair
    skipped.  Returns (passed, pairs, max discrepancy, worst pair)."""
    t = 1j * psi.beta_sign
    maxd, worst, count = 0.0, None, 0
    for x, y in sample:
        count += 1
        lhs = _reference_value(psi, x, y)
        rhs = _reference_value(psi, y, psi.evolve(x, t))
        d = abs(_as_complex(lhs) - _as_complex(rhs))
        if d > maxd:
            maxd, worst = d, (x, y)
    return maxd <= float(tol), count, maxd, worst


def _fresh(m):
    """An equal monomial built anew, so its id differs from ``m``'s."""
    if isinstance(m, Rank2Monomial):
        return Rank2Monomial(_fresh(m.skeleton_part), _fresh(m.boundary_part))
    return PathMonomial(m.graph, m.mu, m.nu, m.coeff)


def _degrees(m) -> tuple:
    """|mu| - |nu| per factor."""
    parts = (m.skeleton_part, m.boundary_part) if isinstance(m, Rank2Monomial) else (m,)
    return tuple(len(p.mu.edges) - len(p.nu.edges) for p in parts)


def _opposite(x, y) -> bool:
    """Whether the degrees of x and y sum to 0 in every factor."""
    return all(a + b == 0 for a, b in zip(_degrees(x), _degrees(y)))


KMS_CASES = [
    "graph-float",
    "graph-rational",
    "graph-rational-opposite",
    "rank2-float-mixed",
    "rank2-field-boundary",
    "rank2-field-mixed",
    "rank2-field-opposite-boundary",
    "rank2-field-opposite-mixed",
]


@pytest.fixture(scope="module")
def kms_cases(figb, figb_boundary, boundary_psi, figb_psi):
    """Functional and sample per case: float, rational and number-field
    weights, graph and rank-2 functionals, both sign conventions.  Samples
    repeat their x, as the sweeps do."""
    rng = random.Random(11)
    sk, bd = figb.skeleton, figb_boundary.graph
    sk2, bd2 = all_monomials(sk, 2), all_monomials(bd, 2)
    w_rat = random_faithful_weight(random.Random(7), sk)
    w_field = solve_2dcw(figb, MODE_STANDARD)[0].weight
    field = functional_from_rank2(figb, w_field)
    field_opp = functional_from_rank2(figb, w_field, beta_sign=1)

    def pairs(xs, n=400):
        return [(rng.choice(xs), rng.choice(xs)) for _ in range(n)]

    mixed = [Rank2Monomial(rng.choice(sk2), rng.choice(bd2)) for _ in range(60)]
    # x x* is never zero, so the mixed samples hold non-zero pairs
    mixed_pairs = pairs(mixed, 150) + [
        (m, Rank2Monomial(m.skeleton_part.star(), m.boundary_part.star())) for m in mixed[:20]
    ]
    return {
        "graph-float": (boundary_psi, pairs(bd2)),
        "graph-rational": (functional_from_graph_weight(sk, w_rat), [(x, y) for x in sk2 for y in sk2]),
        "graph-rational-opposite": (functional_from_graph_weight(sk, w_rat, beta_sign=1), pairs(sk2)),
        "rank2-float-mixed": (figb_psi, mixed_pairs),
        "rank2-field-boundary": (field.boundary, pairs(bd2, 200)),
        "rank2-field-mixed": (field, mixed_pairs),
        "rank2-field-opposite-boundary": (field_opp.boundary, pairs(bd2, 200)),
        "rank2-field-opposite-mixed": (field_opp, mixed_pairs),
    }


class TestKMSSweepSemantics:
    @pytest.mark.parametrize("case", KMS_CASES)
    def test_matches_reference_loop(self, kms_cases, case):
        psi, sample = kms_cases[case]
        rep = kms_check(psi, sample, TOL)
        passed, count, maxd, worst = reference_kms(psi, sample, TOL)
        assert (rep.passed, rep.pairs_checked, rep.max_discrepancy) == (passed, count, maxd)
        if worst is None:
            assert rep.worst_pair is None
        else:
            assert rep.worst_pair[0] is worst[0] and rep.worst_pair[1] is worst[1]
        assert passed == ("opposite" not in case)

    @pytest.mark.parametrize("case", KMS_CASES)
    def test_generator_of_fresh_monomials_matches_list(self, kms_cases, case):
        psi, sample = kms_cases[case]
        listed = kms_check(psi, sample, TOL)
        streamed = kms_check(psi, ((_fresh(x), _fresh(y)) for x, y in sample), TOL)
        assert streamed.to_dict() == listed.to_dict()
        assert streamed.pairs_checked == len(sample)

    @pytest.mark.parametrize("case", KMS_CASES)
    def test_evolve_runs_once_per_distinct_x(self, kms_cases, case, monkeypatch):
        psi, sample = kms_cases[case]
        calls = Counter()
        evolve = psi.evolve

        def counting(m, t, checked=None):
            calls[id(m)] += 1
            return evolve(m, t, checked)

        monkeypatch.setattr(psi, "evolve", counting)
        kms_check(psi, sample, TOL)
        distinct = {id(x) for x, _ in sample}
        assert len(distinct) < len(sample)
        # sigma(x) is read only through y sigma(x), which vanishes with y x,
        # and only for a y of opposite degree: psi is 0 off degree 0
        product = rank2_product if isinstance(sample[0][0], Rank2Monomial) else monomial_product
        needed = {id(x) for x, y in sample if _opposite(x, y) and product(y, x)}
        assert calls == Counter(dict.fromkeys(needed, 1))

    @pytest.mark.parametrize("case", KMS_CASES)
    def test_lambda_signs_are_decided_once_per_edge(self, kms_cases, case, monkeypatch):
        """``evolve`` shares the sweep's checked set, so no lambda sign is
        decided twice for one functional."""
        psi, sample = kms_cases[case]
        parts = [psi.skeleton, psi.boundary] if hasattr(psi, "skeleton") else [psi]
        signs = []
        sign = pathalgebra.scalar_sign
        monkeypatch.setattr(pathalgebra, "scalar_sign", lambda v: signs.append(v) or sign(v))
        kms_check(psi, sample, TOL)
        assert 0 < len(signs) <= sum(len(part.weight.lam) for part in parts)

    @pytest.mark.parametrize("bad", [F(0), F(-1)])
    def test_nonpositive_lambda_raises_from_a_zero_pair(self, figb, bad):
        sk = figb.skeleton
        w = random_faithful_weight(random.Random(3), sk)
        w.lam["b"] = bad  # b: x -> y
        psi = functional_from_graph_weight(sk, w)
        sb, pz = edge_isometry(sk, "b"), vertex_projection(sk, "z")
        assert monomial_product(sb, pz) == [] and monomial_product(pz, sb) == []
        sa = edge_isometry(sk, "a")
        good = [(vertex_projection(sk, "u"), vertex_projection(sk, "u")), (sa, sa.star())]
        assert kms_check(psi, good, TOL).pairs_checked == 2
        with pytest.raises(InputError, match=r"lambda\(b\) must be positive for the flow"):
            kms_check(psi, good + [(sb, pz)], TOL)

    def test_equal_distinct_graphs_accepted(self, figb):
        g1, g2 = build_graph(FIG_B_SPEC), build_graph(FIG_B_SPEC)
        assert g1 == g2 and g1 is not g2
        psi = functional_from_graph_weight(g1, random_faithful_weight(random.Random(5), g1))
        m1, m2 = all_monomials(g1, 2), all_monomials(g2, 2)
        own = kms_check(psi, [(x, y) for x in m1 for y in m1], TOL)
        across = kms_check(psi, [(x, y) for x in m2 for y in m1], TOL)
        assert across.to_dict() == own.to_dict()
        assert own.passed and own.pairs_checked == len(m1) ** 2

    def test_different_graphs_rejected(self, figb):
        g1 = build_graph(FIG_B_SPEC)
        spec = {**FIG_B_SPEC, "edges": FIG_B_SPEC["edges"] + [{"id": "g", "src": "z", "dst": "u"}]}
        g3 = build_graph(spec)
        psi = functional_from_graph_weight(g1, random_faithful_weight(random.Random(5), g1))
        p1, p3 = vertex_projection(g1, "u"), vertex_projection(g3, "u")
        with pytest.raises(InputError, match="monomials over different graphs"):
            kms_check(psi, [(p1, p3)], TOL)
        with pytest.raises(InputError, match="monomial over a different graph"):
            kms_check(psi, [(p3, p3)], TOL)
        with pytest.raises(InputError, match="monomial over a different graph"):
            psi.eval(p3)


# ---------------------------------------------------------------------------
# Pairs of non-zero degree sum, settled without reduction
# ---------------------------------------------------------------------------

def _monomials_over(graph, max_len: int):
    """Strategy: S_mu S_nu* over ``graph`` with |mu|, |nu| <= max_len, so
    that samples mix degrees from -max_len to max_len."""
    by_range: dict = {}
    for p in all_paths(graph, max_len):
        by_range.setdefault(path_range(graph, p), []).append(p)
    return (
        st.sampled_from(list(by_range.values()))
        .flatmap(lambda group: st.tuples(st.sampled_from(group), st.sampled_from(group)))
        .map(lambda pair: PathMonomial(graph, *pair))
    )


def _star(m):
    if isinstance(m, Rank2Monomial):
        return Rank2Monomial(m.skeleton_part.star(), m.boundary_part.star())
    return m.star()


GRADING_CASES = [
    (name, part, beta_sign)
    for name in ("figB", "gamma")
    for part in ("skeleton", "boundary", "mixed")
    for beta_sign in (-1, 1)
]


@pytest.fixture(scope="module")
def grading(figb, gamma_complex):
    """Per complex, factor and sign: the functional and a strategy for its
    monomials, paths up to length 3.  figB carries its number-field
    standard weight, gamma the rational weight of the golden inputs."""
    weights = {
        "figB": (figb, solve_2dcw(figb, MODE_STANDARD)[0].weight),
        "gamma": (gamma_complex, weight_from_dict(json.loads((INPUTS / "gamma-rank2.json").read_text()))),
    }
    out = {}
    for name, part, beta_sign in GRADING_CASES:
        psi = functional_from_rank2(*weights[name], beta_sign)
        sk, bd = _monomials_over(psi.skeleton.graph, 3), _monomials_over(psi.boundary.graph, 3)
        out[name, part, beta_sign] = {
            "skeleton": (psi.skeleton, sk),
            "boundary": (psi.boundary, bd),
            "mixed": (psi, st.builds(Rank2Monomial, sk, bd)),
        }[part]
    return out


class TestDegreeSettling:
    @given(data=st.data(), case=st.sampled_from(GRADING_CASES), stream=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_on_mixed_degrees(self, grading, data, case, stream):
        """Samples of every degree, listed or streamed as fresh monomials:
        the sweep agrees with the pair-by-pair reference, worst pair
        included."""
        psi, monomials = grading[case]
        pool = data.draw(st.lists(monomials, min_size=1, max_size=8))
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()), min_size=1, max_size=40)
        )
        # x x* is never zero, so the starred pairs have non-zero products of degree 0
        sample = [
            (pool[i % len(pool)], _star(pool[i % len(pool)]) if starred else pool[j % len(pool)])
            for i, j, starred in picks
        ]
        passed, count, maxd, worst = reference_kms(psi, sample, TOL)
        if stream:
            rep = kms_check(psi, ((_fresh(x), _fresh(y)) for x, y in sample), TOL)
        else:
            rep = kms_check(psi, sample, TOL)
        assert (rep.passed, rep.pairs_checked) == (passed, count)
        assert rep.max_discrepancy == pytest.approx(maxd, rel=1e-12)
        if worst is None:
            assert rep.worst_pair is None
        elif stream:
            assert [repr(m) for m in rep.worst_pair] == [repr(m) for m in worst]
        else:
            assert rep.worst_pair[0] is worst[0] and rep.worst_pair[1] is worst[1]

    def test_foreign_monomial_of_nonzero_degree_sum_raises(self):
        """A monomial over another graph is reduced, not settled, so its pair
        raises the graph error, also before the lambda error of an x over
        psi's own graph."""
        g1 = build_graph(FIG_B_SPEC)
        spec = {**FIG_B_SPEC, "edges": FIG_B_SPEC["edges"] + [{"id": "g", "src": "z", "dst": "u"}]}
        g3 = build_graph(spec)
        w = random_faithful_weight(random.Random(5), g1)
        w.lam["a"] = F(0)
        psi = functional_from_graph_weight(g1, w)
        own, foreign = edge_isometry(g1, "a"), edge_isometry(g3, "g")
        for pair in [(own, foreign), (foreign, own)]:
            with pytest.raises(InputError, match="monomials over different graphs"):
                kms_check(psi, [pair], TOL)
        # S_g S_a reduces to a non-zero word of degree 2 over the foreign graph
        foreign_a = edge_isometry(g3, "a")
        assert monomial_product(foreign, foreign_a)
        with pytest.raises(InputError, match="monomial over a different graph"):
            kms_check(psi, [(foreign, foreign_a)], TOL)


# ---------------------------------------------------------------------------
# Exact decisions: checks a float reference cannot make
# ---------------------------------------------------------------------------

TWO_CYCLE_SPEC = {
    "vertices": ["u", "v"],
    "edges": [{"id": "a", "src": "u", "dst": "v"}, {"id": "b", "src": "v", "dst": "u"}],
}


def _float_discrepancies(psi, sample) -> list[float]:
    """|psi(x y) - psi(y sigma(x))| per pair, each side converted to a float
    as the float check of the identity did."""
    t = 1j * psi.beta_sign
    return [
        abs(_as_complex(_reference_value(psi, x, y)) - _as_complex(_reference_value(psi, y, psi.evolve(x, t))))
        for x, y in sample
    ]


@pytest.fixture(scope="module")
def eta_field(figb):
    """The field Q(eta), eta^4 + eta^3 = 1, of the figB standard weight."""
    from cwkms.exact import FieldElement

    lam = solve_2dcw(figb, MODE_STANDARD)[0].weight.lam
    return next(v for v in lam.values() if isinstance(v, FieldElement)).field


class TestExactDecisions:
    def test_discrepancy_below_float_resolution_fails(self):
        """lambda = 1 +- 10^-30 on a 2-cycle rounds to 1.0 as a float, so a
        float check sees no discrepancy under the opposite convention."""
        graph = build_graph(TWO_CYCLE_SPEC)
        eps = F(1, 10**30)
        w = GraphWeight(g={"u": F(1), "v": F(1)}, lam={"a": 1 + eps, "b": 1 - eps})
        psi = functional_from_graph_weight(graph, w, beta_sign=1)
        monos = all_monomials(graph, 2)
        sample = [(x, y) for x in monos for y in monos]
        assert max(_float_discrepancies(psi, sample)) == 0.0
        rep = kms_check(psi, sample, tol=0)
        assert not rep.passed
        assert rep.max_discrepancy == pytest.approx(2e-30, rel=1e-6)
        assert rep.worst_pair is not None and rep.tol == 0.0
        # the convention the weight satisfies passes at tol = 0, exactly
        rep = kms_check(functional_from_graph_weight(graph, w), sample, tol=0)
        assert rep.passed and rep.max_discrepancy == 0.0 and rep.worst_pair is None

    def test_negative_tol_fails_an_exact_sweep(self, figb):
        psi = functional_from_graph_weight(figb.skeleton, random_faithful_weight(random.Random(2), figb.skeleton))
        monos = all_monomials(figb.skeleton, 1)
        rep = kms_check(psi, [(x, y) for x in monos for y in monos], tol=F(-1, 10**10))
        assert not rep.passed and rep.max_discrepancy == 0.0

    def test_gauge_flags_a_functional_nonzero_off_balance(self, figb):
        """A stub functional that is 1 on every monomial breaks gauge
        invariance exactly on the monomials with |mu| != |nu|."""
        sk = figb.skeleton
        base = functional_from_graph_weight(sk, random_faithful_weight(random.Random(6), sk))

        class Constant(type(base)):
            def eval(self, m):
                self.check_graph(m)
                return F(1)

        stub = Constant(base.graph, base.weight)
        sa, pu = edge_isometry(sk, "a"), vertex_projection(sk, "u")
        off = [sa, sa.star()]
        rep = gauge_check(stub, [pu, *off, monomial(sk, ["a"], ["a"])])
        assert not rep.passed and rep.checked == 4 and rep.violations == off
        assert gauge_check(stub, [pu, monomial(sk, ["a"], ["a"])]).passed
        assert gauge_check(base, [pu, *off]).passed

    def test_gauge_rank2_offbalance_factor_is_checked(self, figb, figb_boundary):
        w = solve_2dcw(figb, MODE_STANDARD)[0].weight
        psi = functional_from_rank2(figb, w)
        sk, bd = figb.skeleton, figb_boundary.graph
        balanced = Rank2Monomial(vertex_projection(sk, "u"), vertex_projection(bd, "a"))
        skewed = Rank2Monomial(vertex_projection(sk, "u"), edge_isometry(bd, "s1:0"))
        assert balanced.balanced() and not skewed.balanced()
        assert gauge_check(psi, [balanced, skewed]).passed

    def test_gauge_foreign_balanced_monomial_raises(self, figb):
        g1 = build_graph(FIG_B_SPEC)
        spec = {**FIG_B_SPEC, "edges": FIG_B_SPEC["edges"] + [{"id": "g", "src": "z", "dst": "u"}]}
        g3 = build_graph(spec)
        psi = functional_from_graph_weight(g1, random_faithful_weight(random.Random(5), g1))
        foreign = vertex_projection(g3, "u")
        assert foreign.balanced()
        with pytest.raises(InputError, match="monomial over a different graph"):
            gauge_check(psi, [vertex_projection(g1, "u"), foreign])
        # an equal graph built anew is the same graph
        assert gauge_check(psi, [vertex_projection(build_graph(FIG_B_SPEC), "u")]).passed

    @given(
        field=st.booleans(),
        beta_sign=st.sampled_from([-1, 1]),
        lam=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(1, 4)), min_size=6, max_size=6),
        g=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=5, max_size=5),
        picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_check_agrees_with_float_reference(self, figb, eta_field, field, beta_sign, lam, g, picks):
        """Random exact weights on the figB skeleton, rational or in Q(eta),
        under both conventions: the exact check and a float reference agree
        on ``passed``, ``pairs_checked`` and the worst pair, the first pair
        whose float discrepancy is the maximum up to rounding."""
        from cwkms.exact import FieldElement

        sk = figb.skeleton
        eta = FieldElement(eta_field, (0, 1)) if field else F(0)
        w = GraphWeight(
            g={v: F(n, d) for v, (n, d) in zip(sk.vertices, g)},
            lam={e.id: F(a, d) + F(b, d) * eta for e, (a, b, d) in zip(sk.edges, lam)},
        )
        psi = functional_from_graph_weight(sk, w, beta_sign=beta_sign)
        monos = all_monomials(sk, 2)
        # x x* is never zero, so every other pair has a non-zero product
        sample = [
            (monos[i % len(monos)], monos[j % len(monos)] if k % 2 else monos[i % len(monos)].star())
            for k, (i, j) in enumerate(picks)
        ]
        rep = kms_check(psi, sample, TOL)
        ds = _float_discrepancies(psi, sample)
        top = max(ds)
        assert rep.pairs_checked == len(sample)
        assert rep.passed == (top <= float(TOL))
        if top <= 1e-12:
            assert rep.worst_pair is None and rep.max_discrepancy == 0.0
            return
        first = next(k for k, d in enumerate(ds) if d >= top * (1 - 1e-12))
        assert rep.worst_pair[0] is sample[first][0] and rep.worst_pair[1] is sample[first][1]
        assert rep.max_discrepancy == pytest.approx(top, rel=1e-12)
