"""Weight verification and the determinant/kernel pipeline."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwkms
from cwkms.complexes import boundary_graph
from cwkms.errors import InputError
from cwkms.exact import Poly, isolate_positive_roots, kernel_basis_exact, scalar_sign
from cwkms.graphs import build_graph
from cwkms.solver import (
    GraphWeight,
    boundary_matrix,
    det_polynomial,
    positive_kernel,
    solve_special_weights,
    verify_graph_weight,
)

from .conftest import det_exact, random_graph

SQRT2 = isolate_positive_roots(Poly.from_ints([-2, 0, 1]))[0]

LOOP = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}
TWO_CYCLES = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [
        {"id": "ab", "src": "a", "dst": "b"}, {"id": "ba", "src": "b", "dst": "a"},
        {"id": "cd", "src": "c", "dst": "d"}, {"id": "dc", "src": "d", "dst": "c"},
    ],
}


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
        with pytest.raises(InputError, match=r"weight not total on graph, missing \['e'\]"):
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
        g = build_graph(LOOP)
        assert boundary_matrix(g, F(3)) == [[F(2)]]
        assert det_polynomial(g) == Poly.from_ints([-1, 1])

    def test_figb_boundary_det(self, figb_boundary):
        det = det_polynomial(figb_boundary.graph)
        target = Poly.from_ints([1, 0, 0, -1, -1])
        assert det == target or det == -target

    def test_gamma_det_factors(self, gamma_complex):
        bg = boundary_graph(gamma_complex)
        det = det_polynomial(bg.graph)
        expected = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([-1, 0, 2])
        )
        assert det == expected or det == -expected

    def test_sink_rows_are_zero(self):
        g = build_graph({"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]})
        rows = boundary_matrix(g, F(5))
        assert rows == [[F(-1), F(5)], [F(0), F(0)]]

    def test_general_mode_sums_parallel_edges(self):
        g = build_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "dst": "b"},
                {"id": "e2", "src": "a", "dst": "b"},
                {"id": "f", "src": "b", "dst": "a"},
            ],
        })
        rows = boundary_matrix(g, {"e1": F(1, 3), "e2": F(1, 6), "f": F(2)})
        assert rows[0][1] == F(1, 2)
        assert rows[0][0] == F(-1)
        with pytest.raises(InputError, match=r"lambda not total, missing \['e2', 'f'\]"):
            boundary_matrix(g, {"e1": F(1)})

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_a_dense_reference(self, data):
        """Random multigraphs with sinks, self-loops and parallel edges, under
        Fraction, Q(sqrt 2) and float edge maps and one constant value."""
        n = data.draw(st.integers(1, 5))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
        vertices = [f"v{i}" for i in range(n)]
        edges = [{"id": f"e{k}", "src": vertices[i], "dst": vertices[j]} for k, (i, j) in enumerate(pairs)]
        graph = build_graph({"vertices": vertices, "edges": edges})
        rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)
        kind = data.draw(st.sampled_from(["fraction", "sqrt2", "float", "constant"]))
        if kind == "fraction":
            lam = {e["id"]: data.draw(rational) for e in edges}
        elif kind == "sqrt2":
            r2 = SQRT2.exact_value()
            lam = {e["id"]: data.draw(rational) + data.draw(rational) * r2 for e in edges}
        elif kind == "float":
            lam = {e["id"]: data.draw(st.floats(-5, 5)) for e in edges}
        else:
            lam = data.draw(rational)
        value = lam.get if isinstance(lam, dict) else lambda eid: lam
        zero = value(edges[0]["id"]) * 0 if edges else F(0)
        reference = []
        for vi in vertices:
            out = [e for e in edges if e["src"] == vi]
            row = []
            for vj in vertices:
                x = zero
                for e in out:
                    if e["dst"] == vj:
                        x = x + value(e["id"])
                row.append(x - 1 if vi == vj and out else x)
            reference.append(row)
        rows = boundary_matrix(graph, lam)
        assert rows == reference
        assert all(type(x) is type(zero) for row in rows for x in row)

    def test_det_polynomial_takes_the_modular_path(self, monkeypatch, figb_boundary):
        """The integer determinant is the reversed characteristic polynomial
        from ``charpoly`` of an int matrix, reduced modulo 2**61 - 1 and not
        over Q."""
        import cwkms.exact
        import cwkms.solver
        from cwkms.exact import charpoly

        calls = []
        body = cwkms.exact._hessenberg_charpoly

        def spy(h, p=None):
            calls.append((len(h), p))
            return body(h, p)

        def spy_charpoly(a):
            entries.extend(type(x) for row in a for x in row)
            return charpoly(a)

        entries = []
        monkeypatch.setattr(cwkms.exact, "_hessenberg_charpoly", spy)
        monkeypatch.setattr(cwkms.solver, "charpoly", spy_charpoly)
        det = det_polynomial(figb_boundary.graph)
        assert calls == [(6, 2**61 - 1)]
        assert set(entries) == {int}
        assert det in (Poly.from_ints([1, 0, 0, -1, -1]), Poly.from_ints([-1, 0, 0, 1, 1]))
        assert all(type(c) is F for c in det.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_det_polynomial_matches_sympy(self, data):
        """det(x*A - I_r) on multigraphs with 0 to 8 vertices, parallel edges,
        self-loops and sinks, against sympy's det(x*A - I_r)."""
        sympy = pytest.importorskip("sympy")
        n = data.draw(st.integers(0, 8))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)) if n else []
        graph = build_graph({
            "vertices": [f"v{i}" for i in range(n)],
            "edges": [{"id": f"e{k}", "src": f"v{i}", "dst": f"v{j}"} for k, (i, j) in enumerate(pairs)],
        })
        x = sympy.Symbol("x")
        a = sympy.zeros(n, n)
        for i, j in pairs:
            a[i, j] += 1
        sources = {i for i, _ in pairs}
        ident = sympy.diag(*[int(i in sources) for i in range(n)]) if n else sympy.zeros(0, 0)
        want = (x * a - ident).det(method="domain-ge") if n else sympy.Integer(1)
        coeffs = sympy.Poly(want, x).all_coeffs()[::-1] if want != 0 else []
        det = det_polynomial(graph)
        assert det == Poly.from_ints([int(c) for c in coeffs])
        assert all(type(c) is F for c in det.coeffs)

    def test_rational_pencil_matches_det_exact(self):
        """A non-integral rational weight goes through ``charpoly`` on D*W;
        det(x*W - I), of degree at most n, equals Gaussian elimination of
        x*W - I at the n + 1 points x = 0, ..., n."""
        from cwkms.solver import pencil_determinant

        rng = random.Random(14)
        for _ in range(30):
            g = random_graph(rng, n_max=7, allow_sinks=False)
            lam = {e.id: F(rng.randint(-6, 6), rng.randint(1, 9)) for e in g.edges}
            for value in (lam, F(rng.randint(1, 9), rng.randint(2, 9))):
                rows = boundary_matrix(g, value)
                n = len(rows)
                det = pencil_determinant(g, value)
                assert det.degree <= n
                for x in range(n + 1):
                    pencil = [[x * (v + (i == j)) - (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
                    assert det(F(x)) == det_exact(pencil)
                assert all(type(c) is F for c in det.coeffs)

    def test_disjoint_cycles_and_a_swapped_pivot(self):
        """Two disjoint 2-cycles, where a Hessenberg subdiagonal entry is 0,
        and a graph whose first Hessenberg pivot needs a row and column swap."""
        assert det_polynomial(build_graph(TWO_CYCLES)) == Poly.from_ints([1, 0, -2, 0, 1])
        swapped = build_graph({
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "ab", "src": "a", "dst": "b"}, {"id": "ac", "src": "a", "dst": "c"},
                {"id": "bc", "src": "b", "dst": "c"}, {"id": "ca", "src": "c", "dst": "a"},
            ],
        })
        # -det(I - x A) = -(1 - x^2 - x^3)
        assert det_polynomial(swapped) == Poly.from_ints([-1, 0, 1, 1])

    def test_det_matches_numeric_on_random_graphs(self):
        """Dual route: the determinant polynomial evaluated at a rational
        point equals the determinant of the evaluated matrix, exactly by
        independent rational elimination and approximately by numpy."""
        rng = random.Random(42)
        checked = 0
        while checked < 20:
            g = random_graph(rng, n_max=8)
            det = det_polynomial(g)
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            rows = boundary_matrix(g, lam)
            sym = det(lam) if not det.is_zero() else F(0)
            assert sym == det_exact(rows)
            a = np.array([[float(x) for x in row] for row in rows])
            num = np.linalg.det(a) if len(a) else 1.0
            assert abs(float(sym) - num) <= 1e-8 * max(1.0, abs(num))
            checked += 1


class TestPositiveRoots:
    def test_quartic(self):
        roots = isolate_positive_roots(Poly.from_ints([1, 0, 0, -1, -1]))
        assert len(roots) == 1
        assert abs(roots[0].to_float() - 0.8191725133961645) < 1e-13

    def test_gamma_roots(self):
        p = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([-1, 0, 2])
        )
        roots = isolate_positive_roots(p)
        assert len(roots) == 2
        assert roots[0].rational == F(1, 3)
        assert abs(roots[1].to_float() - 2 ** -0.5) < 1e-13

    def test_linear(self):
        roots = isolate_positive_roots(Poly.from_ints([-1, 1]))
        assert len(roots) == 1 and roots[0].rational == 1


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
        assert all(v > 0 for v in map(float, res.positive))


class TestSolvePipeline:
    def test_figb_family(self, figb_boundary):
        rep = solve_special_weights(figb_boundary.graph)
        assert rep.status == "ok"
        fams = rep.faithful_families()
        assert len(fams) == 1
        assert fams[0].kernel.dim == 1

    def test_solutions_verify(self, figb_boundary, gamma_complex):
        for graph in (figb_boundary.graph, boundary_graph(gamma_complex).graph):
            rep = solve_special_weights(graph)
            for fam in rep.faithful_families():
                lam_f = fam.eta.to_float()
                g = dict(zip(graph.vertices, [float(v) for v in fam.kernel.positive]))
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

    def test_exact_kernel_of_a_24_vertex_graph(self):
        """A Hamiltonian cycle plus 24 random edges: the Perron root is the
        only positive root and its kernel lives in a ring of high degree,
        where elimination over Fraction coefficients took seconds."""
        cycle = [1, 3, 13, 10, 9, 16, 17, 8, 7, 0, 4, 14, 15, 23, 11, 2, 21, 19, 20, 6, 5, 18, 12, 22, 1]
        extra = [(15, 23), (14, 21), (9, 15), (2, 21), (8, 19), (5, 21), (10, 9), (2, 17),
                 (20, 11), (21, 1), (6, 10), (10, 23), (2, 9), (3, 7), (21, 19), (4, 15),
                 (9, 8), (17, 23), (8, 6), (2, 18), (15, 4), (20, 4), (10, 15), (6, 21)]
        pairs = list(zip(cycle, cycle[1:])) + extra
        spec = {
            "vertices": [f"v{i}" for i in range(24)],
            "edges": [{"id": f"e{k}", "src": f"v{a}", "dst": f"v{b}"} for k, (a, b) in enumerate(pairs)],
        }
        rep = solve_special_weights(build_graph(spec))
        (fam,) = rep.faithful_families()
        assert [f.kernel.status for f in rep.families] == ["positive"]
        assert not fam.eta.is_rational
        assert not any(isinstance(x, float) for x in fam.kernel.positive)
        _assert_positive_kernel_vector(fam.kernel.rows, fam.kernel.positive)

    def test_nine_regular_52_vertex_multigraph(self, monkeypatch):
        """The union of 9 seeded permutations of 52 vertices (the PG(2,3)
        sector graphs' size) has every in- and out-degree 9, so its Perron
        root is 1/9 with a constant kernel vector, found by the modular
        rational kernel."""
        import cwkms.exact

        rng = random.Random(52)
        edges = []
        for k in range(9):
            perm = list(range(52))
            rng.shuffle(perm)
            edges += [{"id": f"p{k}v{i}", "src": f"v{i}", "dst": f"v{j}"} for i, j in enumerate(perm)]
        graph = build_graph({"vertices": [f"v{i}" for i in range(52)], "edges": edges})
        solved = []
        kernel_mod = cwkms.exact._kernel_mod
        monkeypatch.setattr(
            cwkms.exact, "_kernel_mod", lambda a, p: solved.append(len(a)) or kernel_mod(a, p)
        )
        fam = solve_special_weights(graph).families[0]
        assert fam.eta.rational == F(1, 9)
        assert fam.kernel.status == "positive"
        assert fam.kernel.positive == [F(1)] * 52
        assert solved == [52]

    def test_brute_force_oracle_agreement(self):
        """Exhaustive rational elimination agrees with positive_kernel on the
        existence of strictly positive solutions (grid of rational lambdas)."""
        rng = random.Random(99)
        grid = [F(1, 4), F(1, 2), F(1), F(3, 2)]
        for _ in range(12):
            g = random_graph(rng, n_max=4, allow_sinks=False)
            for lam in grid:
                rows = boundary_matrix(g, lam)
                res = positive_kernel(rows)
                basis = kernel_basis_exact(rows)
                oracle = _positive_exists_bruteforce(basis)
                assert res.status in ("positive", "none")
                if res.dim <= 1 or oracle:
                    assert (res.status == "positive") == oracle
                if res.status == "positive":
                    _assert_positive_kernel_vector(rows, res.positive)


def _assert_positive_kernel_vector(rows, vec):
    """Exact check; a float vector (the numeric kernel fallback of a
    reducible modulus) is checked to rounding."""
    assert all(scalar_sign(x) > 0 for x in vec)
    if any(isinstance(x, float) for x in vec):
        a = np.array([[float(x) for x in row] for row in rows])
        assert np.allclose(a @ np.array(vec), 0, atol=1e-8)
    else:
        assert all(sum((a * x for a, x in zip(row, vec)), 0 * vec[0]) == 0 for row in rows)


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


def _adjacency(graph):
    index = {v: i for i, v in enumerate(graph.vertices)}
    a = np.zeros((len(index), len(index)))
    for e in graph.edges:
        a[index[e.src], index[e.dst]] += 1
    return a


def _classes(a):
    """Strongly connected classes of the adjacency matrix, by transitive
    closure, and for each whether an edge leaves it (it is not final)."""
    n = len(a)
    reach = (a > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, [k]] & reach[[k], :])
    classes = {frozenset(j for j in range(n) if reach[i, j] and reach[j, i]) for i in range(n)}
    return [(sorted(c), any(a[i, j] > 0 and j not in c for i in c for j in range(n))) for c in classes]


def _spectral_radius(a):
    return max(abs(np.linalg.eigvals(a))) if len(a) else 0.0


def _strongly_connected_graph(rng, n_max=6):
    """A random multigraph on a Hamiltonian cycle, so strongly connected."""
    n = rng.randint(1, n_max)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    return build_graph({
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{k}", "src": f"v{a}", "dst": f"v{b}"} for k, (a, b) in enumerate(pairs)],
    })


def _cycles_graph(cycles, extra_edges=(), length=2):
    """Disjoint directed cycles named by letter, plus extra edges between
    their first vertices; "golden" cycles add a loop at the first vertex."""
    vertices, edges = [], []
    for name, golden in cycles:
        vs = [f"{name}{i}" for i in range(length)]
        vertices += vs
        edges += [(vs[i], vs[(i + 1) % length]) for i in range(length)]
        if golden:
            edges.append((vs[0], vs[0]))
    edges += [(f"{a}0", f"{b}0") for a, b in extra_edges]
    return build_graph({
        "vertices": vertices,
        "edges": [{"id": f"e{k}", "src": s, "dst": d} for k, (s, d) in enumerate(edges)],
    })


class TestPerronFrobenius:
    """A positive kernel vector of lambda*A - I is a positive eigenvector of
    A, which exists only at lambda = 1/rho(A), and there exactly when the
    classes of spectral radius rho are the final classes."""

    def test_strongly_connected_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            graph = _strongly_connected_graph(rng)
            rep = solve_special_weights(graph)
            assert [f.kernel.status for f in rep.families] == ["positive"] + ["none"] * (len(rep.families) - 1)
            fam = rep.families[0]
            rows = boundary_matrix(graph, fam.eta.exact_value())
            _assert_positive_kernel_vector(rows, fam.kernel.positive)
            a = _adjacency(graph)
            vals, vecs = np.linalg.eig(a)
            top = int(np.argmax(vals.real))
            assert abs(fam.eta.to_float() - 1 / vals[top].real) < 1e-9
            perron = np.abs(vecs[:, top].real)
            got = np.array([float(v) for v in fam.kernel.positive])
            assert np.allclose(got / got.max(), perron / perron.max(), atol=1e-8)

    def test_eigenvector_matches_sympy(self):
        """The positive kernel vector at 1/rho is proportional to sympy's
        eigenvector of A for rho: a column of adj(A - y*I), which has rank
        one at the simple Perron root.  Exactly when rho is rational, and
        otherwise by ratios against sympy at evalf(30), with the kernel
        vector enclosed from its exact entries."""
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        rng = random.Random(1405)
        kinds = []
        for _ in range(20):
            graph = _strongly_connected_graph(rng)
            fam = solve_special_weights(graph).families[0]
            a = sympy.Matrix(_adjacency(graph).astype(int).tolist())
            n = a.rows
            rho = max(sympy.Poly(a.charpoly(y).as_expr(), y).real_roots())
            column = (a - y * sympy.eye(n)).adjugate(method="berkowitz")[:, 0].expand()
            assert rho.is_Rational == fam.eta.is_rational
            if rho.is_Rational:
                assert fam.eta.rational == F(int(rho.q), int(rho.p))
                want = [c.subs(y, rho) for c in column]
                got = [sympy.Rational(v.numerator, v.denominator) for v in fam.kernel.positive]
                assert all(got[i] * want[0] == got[0] * want[i] for i in range(n))
                kinds.append("rational")
                continue
            fam.eta.refine(F(1, 10**50))
            lo, hi = fam.eta.bounds()
            rho30 = rho.evalf(30)
            assert abs(rho30 * sympy.Rational(lo.numerator, lo.denominator) - 1) < sympy.Float("1e-25", 30)
            want = [c.subs(y, rho30) for c in column]
            if isinstance(fam.kernel.positive[0], float):
                # the SVD fallback after a zero divisor: a float vector
                got, tol = fam.kernel.positive, sympy.Float("1e-9", 30)
                kinds.append("float")
            else:
                got, tol = [], sympy.Float("1e-20", 30)
                kinds.append("field")
                for v in fam.kernel.positive:
                    mid = sum(v.rep.interval_eval(lo, hi)) / 2
                    got.append(sympy.Rational(mid.numerator, mid.denominator))
            for i in range(1, n):
                ratio = want[i] / want[0]
                assert abs(got[i] / got[0] - ratio) < tol * abs(ratio)
        assert {"rational", "field"} <= set(kinds)

    def test_reducible_graphs(self):
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for _ in range(60):
            graph = random_graph(rng, n_max=6, allow_sinks=False)
            a = _adjacency(graph)
            classes = _classes(a)
            radii = [_spectral_radius(a[np.ix_(c, c)]) for c, _ in classes]
            rho = max(radii)
            basic = {tuple(c) for (c, _), r in zip(classes, radii) if abs(r - rho) < 1e-9}
            final = {tuple(c) for c, leaves in classes if not leaves}
            expected = basic == final
            seen[expected] += 1
            rep = solve_special_weights(graph)
            statuses = [f.kernel.status for f in rep.families]
            assert abs(rep.families[0].eta.to_float() - 1 / rho) < 1e-9
            assert statuses == ["positive" if expected else "none"] + ["none"] * (len(statuses) - 1)
            if expected:
                rows = boundary_matrix(graph, rep.families[0].eta.exact_value())
                _assert_positive_kernel_vector(rows, rep.families[0].kernel.positive)
        assert seen[True] and seen[False]

    def test_basic_class_that_is_not_final(self):
        # three 2-cycles X, Y, Z and an edge X -> Y: at lambda = 1 the kernel
        # is spanned by the Z cycle and by X, and Y is forced to 0
        rep = solve_special_weights(_cycles_graph([("x", False), ("y", False), ("z", False)], [("x", "y")]))
        (fam,) = rep.families
        assert fam.eta.rational == 1
        assert (fam.kernel.status, fam.kernel.dim) == ("none", 2)

    def test_number_field_kernels_of_dimension_two(self):
        # a 2-cycle with a loop has rho = golden ratio; two disjoint copies
        # have a positive Perron kernel of dimension 2, three copies with an
        # edge between two of them have none
        for cycles, extra, status in (
            ([("x", True), ("y", True)], [], "positive"),
            ([("x", True), ("y", True), ("z", True)], [("x", "y")], "none"),
        ):
            graph = _cycles_graph(cycles, extra)
            fam = solve_special_weights(graph).families[0]
            assert not fam.eta.is_rational and fam.eta.poly.degree == 2
            assert abs(fam.eta.to_float() - 2 / (1 + 5 ** 0.5)) < 1e-12
            assert (fam.kernel.status, fam.kernel.dim) == (status, 2)
            if status == "positive":
                _assert_positive_kernel_vector(boundary_matrix(graph, fam.eta.exact_value()), fam.kernel.positive)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_positive_kernel_on_random_exact_matrices(self, data):
        # M = U V has rank <= r, so its kernel has dimension >= n - r
        n = data.draw(st.integers(1, 4))
        r = data.draw(st.integers(0, n - 1))
        entry = st.integers(-3, 3)
        u = [[data.draw(entry) for _ in range(r)] for _ in range(n)]
        v = [[data.draw(entry) for _ in range(n)] for _ in range(r)]
        rows = [[F(sum(u[i][t] * v[t][j] for t in range(r))) for j in range(n)] for i in range(n)]
        res = positive_kernel(rows)
        assert res.status in ("positive", "none")
        if res.status == "positive":
            _assert_positive_kernel_vector(rows, res.positive)
        if res.dim <= 3 and _positive_exists_bruteforce(res.basis):  # the grid has 17**dim points
            assert res.status == "positive"

    def test_solver_does_not_import_scipy(self):
        # numpy stays out too: the CLI, figB's fixture and boundary graph, and
        # two disjoint 2-cycles (a two-dimensional kernel at the Perron root)
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            import cwkms, cwkms.cli
            from cwkms.fixtures import FIG_B_SPEC
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cwkms.cli.main(["fixtures", "figB"]) == 0
            assert '"faces"' in out.getvalue()
            fams = cwkms.solve_special_weights(cwkms.boundary_graph(cwkms.build_complex(FIG_B_SPEC)).graph).families
            assert [f.kernel.status for f in fams] == ["positive"]
            fam = cwkms.solve_special_weights(cwkms.build_graph({spec!r})).families[0]
            print(fam.kernel.status, fam.kernel.dim, "numpy" in sys.modules, "scipy" in sys.modules)
            """
        ).format(spec=TWO_CYCLES)
        out = _run_fresh(code)
        assert out.split() == ["positive", "2", "False", "False"]

    @pytest.mark.parametrize(
        "call, expected",
        [
            # the SVD of a rank-one matrix: its kernel line is +-(1, 1)/sqrt(2)
            ("[abs(x) for x in solver._kernel_basis_svd([[1, -1], [-1, 1]])[0]]", [0.5**0.5] * 2),
        ],
    )
    def test_each_float_fallback_imports_numpy_itself(self, call, expected):
        # a fresh interpreter has no numpy until the fallback imports it, and
        # there is no module-level ``np``, so a fallback without its import fails
        code = textwrap.dedent(
            """
            import sys
            from cwkms import cwweights, solver
            from cwkms.exact import Poly
            from cwkms.graphs import build_graph
            assert "numpy" not in sys.modules
            print(repr(CALL))
            assert "numpy" in sys.modules
            """
        ).replace("CALL", call)
        assert eval(_run_fresh(code)) == pytest.approx(expected, abs=1e-9)

    def test_tight_solve_does_not_import_numpy(self):
        # figB's tight scale root is found through the norm, in exact arithmetic
        figb = Path(__file__).parent / "golden" / "inputs" / "figB.json"
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            import cwkms.cli
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cwkms.cli.main(["solve-cw", "--mode", "tight", {str(figb)!r}]) == 0
            assert '"families"' in out.getvalue()
            print("numpy" in sys.modules)
            """
        )
        assert _run_fresh(code).split() == ["False"]


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this checkout's cwkms."""
    src = str(Path(cwkms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout
