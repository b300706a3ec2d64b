"""Exact arithmetic: polynomials, root isolation, number fields, kernels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkms.errors import ZeroDivisor, ZeroPolynomial
from cwkms.exact import (
    AlgebraicScalar,
    NumberField,
    Poly,
    count_roots,
    det_bareiss_poly,
    det_exact,
    isolate_positive_roots,
    kernel_basis_exact,
    sturm_sequence,
)

EPS = F(1, 10**14)


def test_poly_divmod_roundtrip():
    a = Poly.from_ints([3, -2, 0, 5, 1])
    b = Poly.from_ints([-1, 2, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_exact_div_raises_on_remainder():
    a = Poly.from_ints([1, 1])
    b = Poly.from_ints([1, 2])
    with pytest.raises(ArithmeticError):
        a.exact_div(b)


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@given(coeff_lists, coeff_lists, st.integers(-5, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_poly_product_evaluates_pointwise(c1, c2, num, den):
    p, q = Poly.from_ints(c1), Poly.from_ints(c2)
    x = F(num, den)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def test_sturm_counts_quadratic():
    p = Poly.from_ints([-2, 0, 1])  # x^2 - 2
    assert count_roots(p, F(0), F(2)) == 1
    assert count_roots(p, F(-2), F(2)) == 2
    assert count_roots(p, F(2), F(3)) == 0


def test_sturm_sequence_is_normalized():
    p = Poly.from_ints([-100, 0, 0, 700])
    for term in sturm_sequence(p):
        nums = [abs(c.numerator) for c in term.coeffs if c != 0]
        assert nums, "zero chain term"


class TestIsolation:
    def test_single_positive_root_of_quartic(self):
        # independent bisection oracle computed the value 0.81917251339616...
        p = Poly.from_ints([1, 0, 0, -1, -1])  # 1 - x^3 - x^4
        roots = isolate_positive_roots(p, EPS)
        assert len(roots) == 1
        r = roots[0]
        assert not r.is_rational
        assert r.width() <= EPS
        assert abs(r.to_float() - 0.8191725133961645) < 1e-13

    def test_rational_and_quadratic_roots(self):
        # (3x-1)(2x^2-1)(2x^2+x+1)^2 has positive roots 1/3 and 1/sqrt(2)
        p = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([-1, 0, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
        )
        roots = isolate_positive_roots(p, EPS)
        assert len(roots) == 2
        assert roots[0].equals_rational(F(1, 3))
        assert abs(roots[1].to_float() - 2 ** -0.5) < 1e-13

    def test_linear(self):
        roots = isolate_positive_roots(Poly.from_ints([-1, 1]), EPS)
        assert len(roots) == 1 and roots[0].equals_rational(1)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_positive_roots(Poly([]), EPS)

    def test_no_positive_roots(self):
        assert isolate_positive_roots(Poly.from_ints([1, 0, 1]), EPS) == []

    def test_root_at_zero_is_excluded(self):
        roots = isolate_positive_roots(Poly.from_ints([0, 0, -1, 1]), EPS)  # x^2(x-1)
        assert len(roots) == 1 and roots[0].equals_rational(1)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_recovers_planted_rational_roots(self, roots_in):
        p = Poly.from_ints([1])
        for r in roots_in:
            p = p * Poly([F(-r, 7), F(1)])
        found = isolate_positive_roots(p, EPS)
        assert sorted(f.rational for f in found) == sorted(F(r, 7) for r in roots_in)


class TestNumberField:
    def field(self):
        m = Poly.from_ints([-1, 0, 0, 1, 1])  # x^4 + x^3 - 1
        root = isolate_positive_roots(m, F(1, 10**6))[0]
        return root.number_field()

    def test_defining_identity(self):
        k = self.field()
        x = k.gen()
        assert x * x * x * x + x * x * x == k.one()

    def test_inverse(self):
        k = self.field()
        x = k.gen()
        assert x * (k.one() / x) == k.one()
        # the root satisfies eta^3 + eta^2 = 1/eta
        assert x * x * x + x * x == k.one() / x

    def test_sign_is_exact(self):
        k = self.field()
        x = k.gen()
        assert (x - 1).sign() == -1
        assert (x * 5 - 4).sign() == 1  # eta > 0.8
        assert (x - x).sign() == 0

    def test_to_float_matches_root(self):
        k = self.field()
        x = k.gen()
        assert abs(x.to_float() - 0.8191725133961645) < 1e-12

    def test_zero_divisor_detected(self):
        m = Poly.from_ints([-1, 0, 2]) * Poly.from_ints([1, 1, 2])  # reducible
        roots = isolate_positive_roots(m, F(1, 10**6))
        k = roots[0].number_field()
        x = k.gen()
        bad = x * x * 2 - 1  # vanishing factor
        with pytest.raises((ZeroDivisor, ZeroDivisionError)):
            k.one() / bad


class TestDeterminants:
    def test_bareiss_matches_numeric(self):
        import random

        import numpy as np

        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 5)
            rows = [[Poly.from_ints([rng.randint(-4, 4)]) for _ in range(n)] for _ in range(n)]
            det = det_bareiss_poly(rows)
            a = np.array([[float(rows[i][j](F(0))) for j in range(n)] for i in range(n)])
            expected = np.linalg.det(a)
            got = float(det(F(0))) if not det.is_zero() else 0.0
            assert abs(got - expected) < 1e-6 * max(1.0, abs(expected))

    def test_bareiss_polynomial_entries(self):
        x = Poly.x()
        one = Poly.from_ints([1])
        rows = [[x, one], [one, x]]
        assert det_bareiss_poly(rows) == Poly.from_ints([-1, 0, 1])

    def test_det_exact_singular(self):
        assert det_exact([[F(1), F(2)], [F(2), F(4)]]) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_pencil_matches_sympy(self, data):
        """det(A0 + x*A1) of small integer pencils, with negative entries,
        multiplicities and zero (sink) rows, against sympy."""
        sympy = pytest.importorskip("sympy")
        n = data.draw(st.integers(1, 7))
        entry = st.integers(-3, 3)
        rows = []
        for _ in range(n):
            if data.draw(st.integers(0, 5)) == 0:
                rows.append([Poly([]) for _ in range(n)])
            else:
                rows.append([Poly.from_ints([data.draw(entry), data.draw(entry)]) for _ in range(n)])
        x = sympy.Symbol("x")
        m = sympy.Matrix(n, n, lambda i, j: sum(int(c) * x**k for k, c in enumerate(rows[i][j].coeffs)))
        want = sympy.Poly(m.det(method="domain-ge").expand(), x).all_coeffs()[::-1]
        assert det_bareiss_poly(rows) == Poly.from_ints(want)

    def test_bound_beyond_prime_table_keeps_exact_result(self, monkeypatch):
        """With 2**61 - 1 as the only prime, coefficients near 2**70 exceed
        the bound and must not be reduced modulo it."""
        import cwkms.exact

        monkeypatch.setattr(cwkms.exact, "_MERSENNE_EXPONENTS", (61,))
        big = 2**70 + 3
        rows = [[Poly.from_ints([big, 1]), Poly.from_ints([1])], [Poly.from_ints([0]), Poly.from_ints([1, 1])]]
        assert det_bareiss_poly(rows) == Poly.from_ints([big, big + 1, 1])

    def test_non_integer_coefficients_keep_bareiss_results(self, figb, figb_boundary):
        """Scale determinants on the figB skeleton with number-field and with
        non-integral rational weights."""
        from cwkms.cwweights import scale_determinant
        from cwkms.solver import solve_special_weights

        eta = solve_special_weights(figb_boundary.graph).faithful_families()[0].eta
        k = eta.number_field()
        x = k.gen()
        lam0 = {"a": x**3, "b": x**2, "c": x, "d": k.one(), "e": x**2, "f": x}
        det = scale_determinant(figb.skeleton, lam0)
        # -1 + eta^3 C^3 + eta^6 C^4, with eta^6 = 1 - eta + eta^2 - eta^3
        want = [[-1], [], [], [0, 0, 0, 1], [1, -1, 1, -1]]
        assert [c.rep for c in det.coeffs] == [Poly.from_ints(w) for w in want]

        lam0 = {"a": F(1, 2), "b": F(2, 3), "c": F(3, 4), "d": F(1), "e": F(5, 7), "f": F(-1, 3)}
        assert scale_determinant(figb.skeleton, lam0) == Poly([F(-1), F(0), F(0), F(-5, 21), F(1, 4)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_de_bruijn_any_vertex_order(self, seed):
        """B(2,6) has det(x*A - I) = 1 - 2x whatever the vertex order."""
        import itertools
        import random

        from cwkms.graphs import build_graph
        from cwkms.solver import boundary_matrix, det_polynomial

        words = ["".join(w) for w in itertools.product("01", repeat=6)]
        edges = [{"id": f"{w}>{s}", "src": w, "dst": w[1:] + s} for w in words for s in "01"]
        random.Random(seed).shuffle(words)
        graph = build_graph({"vertices": words, "edges": edges})
        assert det_polynomial(boundary_matrix(graph)) == Poly.from_ints([1, -2])

    def test_kernel_basis(self):
        rows = [[F(1), F(1), F(0)], [F(0), F(0), F(0)], [F(1), F(1), F(0)]]
        basis = kernel_basis_exact(rows)
        assert len(basis) == 2
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_algebraic_scalar_refine_collapses_on_rational_hit():
    p = Poly.from_ints([-1, 0, 1])  # roots +-1; manual interval around 1
    s = AlgebraicScalar.from_root(p, F(1, 2), F(3, 2))
    s.refine(F(1, 10**6))
    assert s.is_rational and s.rational == 1
