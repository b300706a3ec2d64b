"""Weight verification and the determinant/kernel pipeline."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from cwkms.complexes import boundary_graph
from cwkms.errors import MissingValue
from cwkms.exact import Poly, kernel_basis_exact
from cwkms.graphs import build_graph
from cwkms.solver import (
    GraphWeight,
    boundary_matrix,
    det_polynomial,
    evaluate_special_matrix,
    positive_kernel,
    positive_roots,
    solve_special_weights,
    verify_graph_weight,
)

from .conftest import random_graph

LOOP = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}


class TestVerify:
    def test_loop_passes(self):
        g = build_graph(LOOP)
        rep = verify_graph_weight(g, GraphWeight({"v": F(1)}, {"e": F(1)}), 0)
        assert rep.passed and rep.max_residual == 0 and rep.exact
        assert rep.faithful and rep.special

    def test_loop_fails_with_wrong_lambda(self):
        g = build_graph(LOOP)
        rep = verify_graph_weight(g, GraphWeight({"v": F(1)}, {"e": F(2)}), 0)
        assert not rep.passed
        assert rep.residuals["v"] == 1.0

    def test_missing_value(self):
        g = build_graph(LOOP)
        with pytest.raises(MissingValue):
            verify_graph_weight(g, GraphWeight({"v": F(1)}, {}), 0)

    def test_boundary_weight_fixture(self, figb_boundary):
        # lambda-vector proportional to (h^3,h^2,h,1,h^2,h) at the quartic
        # root, with the constant edge weight equal to that root
        rep = solve_special_weights(figb_boundary.graph)
        fam = rep.faithful_families()[0]
        k = fam.eta.number_field()
        h = k.gen()
        w = GraphWeight(
            g=dict(zip(figb_boundary.graph.vertices, [h ** 0 * v for v in fam.kernel.positive])),
            lam={e.id: h for e in figb_boundary.graph.edges},
        )
        rep2 = verify_graph_weight(figb_boundary.graph, w, 0)
        assert rep2.passed and rep2.exact and rep2.special and rep2.faithful

    def test_sinks_impose_no_equation(self):
        g = build_graph({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]})
        w = GraphWeight({"a": F(3), "b": F(6)}, {"e": F(1, 2)})
        rep = verify_graph_weight(g, w, 0)
        assert rep.passed
        assert "b" not in rep.residuals


class TestBoundaryMatrix:
    def test_loop_special(self):
        m = boundary_matrix(build_graph(LOOP), "special")
        assert m.entries[0][0] == Poly.from_ints([-1, 1])
        assert det_polynomial(m) == Poly.from_ints([-1, 1])

    def test_figb_boundary_det(self, figb_boundary):
        m = boundary_matrix(figb_boundary.graph, "special")
        det = det_polynomial(m)
        target = Poly.from_ints([1, 0, 0, -1, -1])
        assert det == target or det == -target

    def test_gamma_det_factors(self, gamma_complex):
        bg = boundary_graph(gamma_complex)
        det = det_polynomial(boundary_matrix(bg.graph, "special"))
        expected = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([-1, 0, 2])
        )
        assert det == expected or det == -expected

    def test_sink_rows_are_zero(self):
        g = build_graph({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]})
        m = boundary_matrix(g, "special")
        assert m.sink_rows == frozenset({1})
        assert all(p.is_zero() for p in m.entries[1])

    def test_general_mode_sums_parallel_edges(self):
        g = build_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "dst": "b"},
                {"id": "e2", "src": "a", "dst": "b"},
                {"id": "f", "src": "b", "dst": "a"},
            ],
        })
        m = boundary_matrix(g, "general", lam={"e1": F(1, 3), "e2": F(1, 6), "f": F(2)})
        assert m.entries[0][1] == F(1, 2)
        assert m.entries[0][0] == F(-1)
        with pytest.raises(MissingValue):
            boundary_matrix(g, "general", lam={"e1": F(1)})

    def test_det_matches_numeric_on_random_graphs(self):
        """Dual route: the determinant polynomial evaluated at a rational
        point equals the determinant of the evaluated matrix, exactly by
        independent rational elimination and approximately by numpy."""
        from cwkms.exact import det_exact

        rng = random.Random(42)
        checked = 0
        while checked < 20:
            g = random_graph(rng, n_max=8)
            m = boundary_matrix(g, "special")
            det = det_polynomial(m)
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            rows = evaluate_special_matrix(g, lam)
            sym = det(lam) if not det.is_zero() else F(0)
            assert sym == det_exact(rows)
            a = np.array([[float(x) for x in row] for row in rows])
            num = np.linalg.det(a) if len(a) else 1.0
            assert abs(float(sym) - num) <= 1e-8 * max(1.0, abs(num))
            checked += 1


class TestPositiveRoots:
    def test_quartic(self):
        roots = positive_roots(Poly.from_ints([1, 0, 0, -1, -1]))
        assert len(roots) == 1
        assert abs(roots[0].to_float() - 0.8191725133961645) < 1e-13

    def test_gamma_roots(self):
        p = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([-1, 0, 2])
        )
        roots = positive_roots(p)
        assert len(roots) == 2
        assert roots[0].equals_rational(F(1, 3))
        assert abs(roots[1].to_float() - 2 ** -0.5) < 1e-13

    def test_linear(self):
        roots = positive_roots(Poly.from_ints([-1, 1]))
        assert len(roots) == 1 and roots[0].equals_rational(1)


class TestPositiveKernel:
    def test_identity_has_none(self):
        res = positive_kernel([[F(1), F(0)], [F(0), F(1)]])
        assert res.status == "none" and res.positive is None and res.dim == 0

    def test_figb_direction(self, figb_boundary):
        rep = solve_special_weights(figb_boundary.graph)
        fam = rep.faithful_families()[0]
        k = fam.eta.number_field()
        h = k.gen()
        expected = [h * h * h, h * h, h, k.one(), h * h, h]
        assert all(a == b for a, b in zip(fam.kernel.positive, expected))

    def test_gamma_rejects_sqrt_half(self, gamma_complex):
        bg = boundary_graph(gamma_complex)
        rep = solve_special_weights(bg.graph)
        by_value = {round(f.eta.to_float(), 6): f for f in rep.families}
        third = by_value[round(1 / 3, 6)]
        assert third.faithful and third.kernel.status == "positive"
        sqrt_half = by_value[round(2 ** -0.5, 6)]
        assert not sqrt_half.faithful
        assert sqrt_half.kernel.status == "none"
        assert sqrt_half.kernel.dim >= 1  # det root always gives a kernel

    def test_multidimensional_kernel_lp(self):
        # rank-1 matrix on 3 vertices: kernel is a plane containing a
        # strictly positive direction
        rows = [[F(1), F(-1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]]
        res = positive_kernel(rows)
        assert res.dim == 2
        assert res.status == "positive"
        assert all(v > 0 for v in res.positive_floats())


class TestSolvePipeline:
    def test_figb_family(self, figb_boundary):
        rep = solve_special_weights(figb_boundary.graph)
        assert rep.status == "ok"
        fams = rep.faithful_families()
        assert len(fams) == 1
        assert fams[0].kernel.dim == 1

    def test_solutions_verify(self, figb_boundary, gamma_complex):
        for graph in (figb_boundary.graph, boundary_graph(gamma_complex).graph):
            rep = solve_special_weights(graph, F(1, 10**14))
            for fam in rep.faithful_families():
                lam_f = fam.eta.to_float()
                g = dict(zip(graph.vertices, fam.kernel.positive_floats()))
                w = GraphWeight(g=g, lam={e.id: lam_f for e in graph.edges})
                out = verify_graph_weight(graph, w, F(1, 10**10))
                assert out.passed

    def test_all_sinks_unconstrained(self):
        g = build_graph({"vertices": ["a", "b"], "edges": []})
        rep = solve_special_weights(g)
        assert rep.status == "unconstrained" and rep.families == []

    def test_graph_with_sink_degenerate(self):
        g = build_graph({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]})
        rep = solve_special_weights(g)
        assert rep.status == "degenerate"

    def test_zero_divisor_largest_component(self):
        """At the root ~0.505 the square-free modulus is reducible and the
        largest kernel component is a zero divisor; the vector is scaled by
        the largest invertible component instead."""
        cycle = [0, 12, 11, 1, 6, 8, 5, 7, 4, 3, 10, 2, 9, 0]
        extra = [(10, 8), (7, 7), (4, 10), (10, 1), (4, 6), (4, 8), (7, 0),
                 (11, 9), (11, 10), (6, 4), (5, 8), (12, 10), (3, 1)]
        pairs = list(zip(cycle, cycle[1:])) + extra
        spec = {
            "vertices": [f"v{i}" for i in range(13)],
            "edges": [{"id": f"e{k}", "src": f"v{a}", "dst": f"v{b}"} for k, (a, b) in enumerate(pairs)],
        }
        rep = solve_special_weights(build_graph(spec))
        assert [f.kernel.status for f in rep.families].count("positive") == 1
        fam = rep.faithful_families()[0]
        assert abs(fam.eta.to_float() - 0.505) < 1e-3
        assert 1 in fam.kernel.positive

    def test_brute_force_oracle_agreement(self):
        """Exhaustive rational elimination agrees with positive_kernel on the
        existence of strictly positive solutions (grid of rational lambdas)."""
        rng = random.Random(99)
        grid = [F(1, 4), F(1, 2), F(1), F(3, 2)]
        for _ in range(12):
            g = random_graph(rng, n_max=4, allow_sinks=False)
            for lam in grid:
                rows = evaluate_special_matrix(g, lam)
                res = positive_kernel(rows)
                basis = kernel_basis_exact(rows)
                oracle = _positive_exists_bruteforce(basis)
                if res.dim <= 1:
                    assert (res.status == "positive") == oracle
                elif res.status == "positive":
                    # LP found one; it must actually lie in the kernel and be positive
                    vec = res.positive_floats()
                    a = np.array([[float(x) for x in row] for row in rows])
                    assert np.allclose(a @ np.array(vec), 0, atol=1e-8)
                    assert min(vec) > 0


def _positive_exists_bruteforce(basis) -> bool:
    """Grid search over the kernel span for a strictly positive vector."""
    if not basis:
        return False
    if len(basis) == 1:
        vec = basis[0]
        return all(v > 0 for v in vec) or all(v < 0 for v in vec)
    coeffs = [F(n, 4) for n in range(-8, 9)]
    from itertools import product

    for combo in product(coeffs, repeat=len(basis)):
        if all(c == 0 for c in combo):
            continue
        vec = [sum(c * b[i] for c, b in zip(combo, basis)) for i in range(len(basis[0]))]
        if all(v > 0 for v in vec):
            return True
    return False
