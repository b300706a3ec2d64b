"""Exact arithmetic: polynomials, root isolation, number fields, kernels."""

import functools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkms import exact
from cwkms.errors import InputError, ZeroDivisor, ZeroPolynomial
from cwkms.exact import (
    ROOT_WIDTH,
    AlgebraicScalar,
    FieldElement,
    NumberField,
    Poly,
    as_tolerance,
    charpoly,
    isolate_positive_roots,
    kernel_basis_exact,
    residual,
    scalar_abs_leq,
    scalar_sign,
)

from .conftest import det_exact


def test_poly_divmod_roundtrip():
    a = Poly.from_ints([3, -2, 0, 5, 1])
    b = Poly.from_ints([-1, 2, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@given(coeff_lists, coeff_lists, st.integers(-5, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_poly_product_evaluates_pointwise(c1, c2, num, den):
    p, q = Poly.from_ints(c1), Poly.from_ints(c2)
    x = F(num, den)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def _fraction_horner_enclosure(p, lo, hi):
    """Reference: interval Horner in Fraction arithmetic, step by step."""
    vlo = vhi = F(0)
    for k, c in enumerate(reversed(p.coeffs)):
        if k == 0:
            vlo = vhi = F(c)
            continue
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


exact_coeffs = st.lists(
    st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
        st.just(0),
    ),
    max_size=8,
)
interval_ends = st.fractions(min_value=-50, max_value=50, max_denominator=2**40)


@given(exact_coeffs, interval_ends, interval_ends, st.booleans())
@settings(max_examples=200, deadline=None)
def test_integer_enclosure_is_the_fraction_enclosure(coeffs, a, b, zero_width):
    p = Poly(coeffs)
    lo, hi = (a, a) if zero_width else (min(a, b), max(a, b))
    got = p.interval_eval(lo, hi)
    assert got == _fraction_horner_enclosure(p, lo, hi)
    assert all(type(v) is F for v in got)
    assert got[0] <= p(lo) <= got[1] and got[0] <= p(hi) <= got[1]


def test_enclosure_of_zero_polynomial():
    assert Poly([]).interval_eval(F(-3, 2), F(7, 5)) == (F(0), F(0))
    assert Poly([0, F(0)]).interval_eval(F(1), F(1)) == (F(0), F(0))


sign_points = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=2**40),
    st.builds(F, st.integers(-3, 3), st.integers(2**40, 2**80)),
)


@given(exact_coeffs, sign_points)
@settings(max_examples=200, deadline=None)
def test_sign_at_is_the_sign_of_fraction_evaluation(coeffs, x):
    """Integer Horner signs against Fraction evaluation: non-integer
    coefficients, x = 0, negative and tiny x, the zero polynomial."""
    v = sum((F(c) * x**i for i, c in enumerate(coeffs)), F(0))
    assert Poly(coeffs).sign_at(x) == (v > 0) - (v < 0)
    assert Poly([]).sign_at(x) == 0


def _descartes_count(p: Poly, lo: int, hi: int) -> int:
    """The isolation's root count of p on (lo, hi): its count on (0, 1) of
    p(lo + (hi - lo) x)."""
    h = Poly([])
    for c in reversed(p.coeffs):
        h = h * Poly.from_ints([lo, hi - lo]) + Poly([c])
    return exact._descartes(h.ints[0])


def test_descartes_counts_quadratic():
    p = Poly.from_ints([-2, 0, 1])  # x^2 - 2
    assert _descartes_count(p, 0, 2) == 1
    assert _descartes_count(p, -2, 2) == 2
    assert _descartes_count(p, 2, 3) == 0


int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda f: f[-1])


@given(int_polys, int_polys, int_polys)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_is_the_rational_gcd(common, a, b):
    """With or without a common factor: the primitive gcd divides both and
    has the degree of Euclid's gcd over Q."""
    fa, fb = (Poly.from_ints(common) * Poly.from_ints(f) for f in (a, b))
    g = exact._poly_gcd(fa.ints[0], fb.ints[0])
    assert g[-1] > 0 and gcd(*g) == 1
    assert len(g) - 1 == _gcd_degree(fa, fb)
    for f in (fa, fb):
        exact._exact_quo(f.ints[0], g)  # raises unless g divides f


class TestIsolation:
    def test_single_positive_root_of_quartic(self):
        # independent bisection oracle computed the value 0.81917251339616...
        p = Poly.from_ints([1, 0, 0, -1, -1])  # 1 - x^3 - x^4
        roots = isolate_positive_roots(p)
        assert len(roots) == 1
        r = roots[0]
        assert not r.is_rational
        assert r.width() <= ROOT_WIDTH
        assert abs(r.to_float() - 0.8191725133961645) < 1e-13

    def test_rational_and_quadratic_roots(self):
        # (3x-1)(2x^2-1)(2x^2+x+1)^2 has positive roots 1/3 and 1/sqrt(2)
        p = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([-1, 0, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
        )
        roots = isolate_positive_roots(p)
        assert len(roots) == 2
        assert roots[0].equals_rational(F(1, 3))
        assert abs(roots[1].to_float() - 2 ** -0.5) < 1e-13

    def test_linear(self):
        roots = isolate_positive_roots(Poly.from_ints([-1, 1]))
        assert len(roots) == 1 and roots[0].equals_rational(1)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_positive_roots(Poly([]))

    def test_no_positive_roots(self):
        assert isolate_positive_roots(Poly.from_ints([1, 0, 1])) == []

    def test_root_at_zero_is_excluded(self):
        roots = isolate_positive_roots(Poly.from_ints([0, 0, -1, 1]))  # x^2(x-1)
        assert len(roots) == 1 and roots[0].equals_rational(1)

    def test_rational_roots_with_large_coefficients(self):
        # (3^13 x - 1)(x^2 - 2)(5x - 7): both rational roots are found, and
        # sqrt(2) is a root of the quotient x^2 - 2 alone
        p = Poly.from_ints([-1, 3**13]) * Poly.from_ints([-2, 0, 1]) * Poly.from_ints([-7, 5])
        small, seven_fifths, sqrt2 = isolate_positive_roots(p)
        assert small.rational == F(1, 3**13) and seven_fifths.rational == F(7, 5)
        assert not sqrt2.is_rational and sqrt2.poly == Poly.from_ints([-2, 0, 1])

    def test_rational_candidate_outside_the_interval(self):
        # near 2^(-1/3) the closest fraction with denominator <= 2 is 1, which
        # is a root of (x - 1)(2x^3 - 1) but not the one in that interval
        p = Poly.from_ints([-1, 1]) * Poly.from_ints([-1, 0, 0, 2])
        cube, one = isolate_positive_roots(p)
        assert not cube.is_rational and cube.poly == Poly.from_ints([-1, 0, 0, 2])
        assert one.rational == 1

    def test_exact_order_of_close_roots(self):
        # a rational root 6.3e-10 above sqrt(2), and one 3.7e-10 below it
        for r, expected in ((F(1414213563, 10**9), [False, True]), (F(1414213562, 10**9), [True, False])):
            p = Poly([-r, F(1)]) * Poly.from_ints([-2, 0, 1])
            roots = isolate_positive_roots(p)
            assert [x.is_rational for x in roots] == expected
            assert r in [x.rational for x in roots]

    @given(
        st.lists(st.integers(1, 40), max_size=3, unique=True),
        st.lists(st.sampled_from([2, 3, 5, 6, 7]), max_size=2, unique=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_roots_come_in_increasing_order(self, rationals, squares):
        # rationals r/9 and irrationals sqrt(s)/2, distinct and positive
        p = Poly.from_ints([1])
        for r in rationals:
            p = p * Poly([F(-r, 9), F(1)])
        for sq in squares:
            p = p * Poly([F(-sq, 4), F(0), F(1)])
        roots = isolate_positive_roots(p)
        assert sorted(x.rational for x in roots if x.is_rational) == sorted(F(r, 9) for r in rationals)
        assert sum(not x.is_rational for x in roots) == len(squares)
        values = [float(x.rational) if x.is_rational else x.to_float() for x in roots]
        assert values == sorted(values)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_recovers_planted_rational_roots(self, roots_in):
        p = Poly.from_ints([1])
        for r in roots_in:
            p = p * Poly([F(-r, 7), F(1)])
        found = isolate_positive_roots(p)
        assert sorted(f.rational for f in found) == sorted(F(r, 7) for r in roots_in)

    def test_midpoint_root_next_to_an_irrational_one(self):
        # (2x - 1)(2x^2 - 1): the bisection of (0, 4) reaches 1/2 as a
        # midpoint, and 1/sqrt(2) lies in the half that starts there
        half, root = isolate_positive_roots(Poly.from_ints([-1, 2]) * Poly.from_ints([-1, 0, 2]))
        assert half.rational == F(1, 2)
        assert root.poly == Poly.from_ints([-1, 0, 2]) and F(1, 2) <= root.lo < root.hi <= 1
        assert root.width() <= ROOT_WIDTH and abs(root.to_float() - 2**-0.5) < 1e-15

    @pytest.mark.parametrize(
        "planted", [[F(1, 2)], [F(1, 4), F(1, 2)], [F(3, 8), F(1, 2), F(3, 4)], [F(1, 4), F(3, 8)]]
    )
    def test_dyadic_midpoint_roots_keep_their_order(self, planted):
        # dyadic roots beside sqrt(3): the bisection hits 1/2 in the second
        # and third cases and 1/4 in the fourth, and an isolating interval
        # then starts at the root it hit
        p = Poly.from_ints([-3, 0, 1])
        for r in planted:
            p = p * Poly([-r, F(1)])
        *rationals, sqrt3 = isolate_positive_roots(p)
        assert [r.rational for r in rationals] == planted
        assert sqrt3.poly == Poly.from_ints([-3, 0, 1]) and abs(sqrt3.to_float() - 3**0.5) < 1e-14


def _sympy_poly(p: Poly, x):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in p.coeffs[::-1]], x)


# roots on bisection points, near 0 and near Cauchy's bound, and ordinary ones
root_choices = st.sampled_from(
    [F(1, 2), F(1, 4), F(3, 8), F(3, 4), F(1), F(2), F(1, 3), F(7, 5)]
    + [F(1, 1024), F(1, 1000), F(1000), F(1023), F(1024)]
) | st.builds(F, st.integers(1, 40), st.integers(1, 12))
factor_choices = st.one_of(
    root_choices.map(lambda r: Poly([-r, F(1)])),
    st.tuples(st.integers(1, 9), st.integers(1, 60)).map(lambda ab: Poly.from_ints([-ab[1], 0, ab[0]])),
    st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(any).map(Poly.from_ints),
)


@given(st.lists(st.tuples(factor_choices, st.integers(1, 3)), min_size=1, max_size=4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_isolation_agrees_with_sympy(factors, zeros):
    """Repeated factors, dyadic and nearby rational roots, roots near 0 and
    near the bound: the same distinct positive roots as sympy, rational
    ones exact, irrational ones inside intervals of width <= ROOT_WIDTH, on the
    primitive square-free part without its rational roots."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = Poly.from_ints([0] * zeros + [1])
    for f, k in factors:
        for _ in range(k):
            p = p * f
    roots = isolate_positive_roots(p)
    sp = _sympy_poly(p, x)
    want = sorted({r for r in sp.real_roots() if r > 0}, key=lambda r: r.evalf(30))
    assert len(roots) == len(want)
    rest = sp.sqf_part()
    if rest.eval(0) == 0:  # a factor may vanish at 0 too
        rest = rest.exquo(sympy.Poly(x, x))
    for got, r in zip(roots, want):
        assert got.is_rational == r.is_Rational
        if got.is_rational:
            assert sympy.Rational(got.rational.numerator, got.rational.denominator) == r
            rest = rest.exquo(sympy.Poly(x - r, x))
        else:
            lo, hi = (sympy.Rational(v.numerator, v.denominator) for v in (got.lo, got.hi))
            assert lo < r < hi and got.width() <= ROOT_WIDTH
    primitive = rest.primitive()[1]
    if primitive.LC() < 0:
        primitive = -primitive
    for got in roots:
        if not got.is_rational:
            assert [F(int(c)) for c in primitive.all_coeffs()[::-1]] == list(got.poly.coeffs)


class TestNumberField:
    def field(self):
        m = Poly.from_ints([-1, 0, 0, 1, 1])  # x^4 + x^3 - 1
        root = isolate_positive_roots(m)[0]
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
        roots = isolate_positive_roots(m)
        k = roots[0].number_field()
        x = k.gen()
        bad = x * x * 2 - 1  # vanishing factor
        with pytest.raises((ZeroDivisor, ZeroDivisionError)):
            k.one() / bad


    def reducible_ring(self):
        # (2x^2 - 1)(2x^2 + x + 1): the designated root is 1/sqrt(2)
        m = Poly.from_ints([-1, 0, 2]) * Poly.from_ints([1, 1, 2])
        return isolate_positive_roots(m)[0].number_field()

    def test_sign_of_representative_vanishing_at_root(self):
        k = self.reducible_ring()
        x = k.gen()
        assert (x * x * 2 - 1).sign() == 0
        assert (1 - x * x * 2).sign() == 0
        assert (x * x * 2 + x + 1).sign() == 1

    def test_sign_when_an_interval_end_is_a_root_of_the_modulus(self):
        # (2x - 1)(2x^2 - 1) with the root 1/sqrt(2) in (1/2, 1): gcd(x - 1/2,
        # m) = 2x - 1 vanishes at the end 1/2, which decides nothing
        root = AlgebraicScalar.from_root(Poly.from_ints([-1, 0, 2]), F(1, 2), F(1))
        k = NumberField(Poly.from_ints([-1, 2]) * Poly.from_ints([-1, 0, 2]), root)
        x = k.gen()
        assert (x - F(1, 2)).sign() == 1
        assert (x * x * 2 - 1).sign() == 0
        assert (F(1, 2) - x).sign() == -1

    def test_decisive_signs_need_no_gcd(self, monkeypatch):
        k = self.field()
        x = k.gen()

        def no_gcd(a, b):
            raise AssertionError("a decisive enclosure must not reach the gcd")

        monkeypatch.setattr(exact, "_poly_gcd", no_gcd)
        assert (x - 1).sign() == -1
        assert (x * 5 - 4).sign() == 1
        assert (x * x - F(1, 2)).sign() == 1

    def test_sign_and_float_after_root_collapses_to_rational(self):
        # the first bisection of (1/2, 3/2) lands on the root 1 of x^2 - 1
        def ring():
            root = AlgebraicScalar.from_root(Poly.from_ints([-1, 0, 1]), F(1, 2), F(3, 2))
            return NumberField(root.poly, root)

        x = ring().gen()
        assert (x - F(9, 8)).sign() == -1
        assert x.field.root.is_rational
        assert (x - 1).sign() == 0 and (x - 1).to_float() == 0.0
        assert (x - 1 + F(1, 10**30)).sign() == 1
        assert (x * F(1, 3)).to_float() == 1 / 3
        assert (ring().gen() * 2).to_float() == 2.0


class TestDeterminants:
    def test_charpoly_constant_term_is_the_determinant(self):
        """det(A) = (-1)**n * chi_A(0), against Gaussian elimination."""
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert (-1) ** n * charpoly(a)[0] == det_exact(a)

    def test_charpoly_of_a_swap(self):
        """det([[t, 1], [1, t]]) = t**2 - 1, with sympy's charpoly."""
        sympy = pytest.importorskip("sympy")
        a = [[0, -1], [-1, 0]]
        want = [int(c) for c in sympy.Matrix(a).charpoly().all_coeffs()[::-1]]
        assert charpoly(a) == want == [-1, 0, 1]

    def test_det_exact_singular(self):
        assert det_exact([[F(1), F(2)], [F(2), F(4)]]) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_pencil_matches_sympy(self, data):
        """det(A0 + x*A1) of small integer pencils, with negative entries,
        multiplicities and zero (sink) rows, against sympy.  ``charpoly``
        computes it as (-1)**n * chi(0) over the field Q[x]/(x**(n+1) - 2)
        (irreducible by Eisenstein), where the determinant, of degree at
        most n, is its own representative."""
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
        modulus = Poly.from_ints([-2] + [0] * n + [1])
        k = NumberField(modulus, isolate_positive_roots(modulus)[0])
        det = (-1) ** n * charpoly([[k.element(e) for e in row] for row in rows])[0]
        assert det.rep == Poly.from_ints(want)

    def test_bound_beyond_prime_table_keeps_exact_result(self, monkeypatch):
        """With 2**61 - 1 as the only prime, a weight near 2**70 puts the
        coefficient bound beyond the table: the characteristic polynomial
        and the determinant still come out exact, reduced over Q (p = None)."""
        import cwkms.exact
        from cwkms.graphs import build_graph
        from cwkms.solver import pencil_determinant

        monkeypatch.setattr(cwkms.exact, "_MERSENNE_EXPONENTS", (61,))
        primes = []
        body = cwkms.exact._hessenberg_charpoly
        monkeypatch.setattr(cwkms.exact, "_hessenberg_charpoly", lambda h, p=None: primes.append(p) or body(h, p))
        big = 2**70 + 3
        graph = build_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "aa", "src": "a", "dst": "a"}, {"id": "ab", "src": "a", "dst": "b"},
                {"id": "bb", "src": "b", "dst": "b"},
            ],
        })
        lam = {"aa": F(big), "ab": F(1), "bb": F(1, 2)}
        assert charpoly([[big, 1], [0, 1]]) == [big, -big - 1, 1]
        # det [[big x - 1, x], [0, x/2 - 1]]
        assert pencil_determinant(graph, lam) == Poly([F(1), F(-big - F(1, 2)), F(big, 2)])
        assert primes == [None, None]

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
        from cwkms.solver import det_polynomial

        words = ["".join(w) for w in itertools.product("01", repeat=6)]
        edges = [{"id": f"{w}>{s}", "src": w, "dst": w[1:] + s} for w in words for s in "01"]
        random.Random(seed).shuffle(words)
        graph = build_graph({"vertices": words, "edges": edges})
        assert det_polynomial(graph) == Poly.from_ints([1, -2])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_charpoly_matches_sympy(self, data):
        """det(t*I - A) of integer matrices with negative entries and zero
        rows, against sympy."""
        sympy = pytest.importorskip("sympy")
        n = data.draw(st.integers(0, 7))
        a = [data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
        want = sympy.Matrix(n, n, lambda i, j: a[i][j]).charpoly().all_coeffs()[::-1]
        assert charpoly(a) == [int(c) for c in want]

    @pytest.mark.parametrize(
        "a, want",
        [
            # two disjoint 2-cycles: the Hessenberg subdiagonal entry h_21 is 0
            ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [1, 0, -2, 0, 1]),
            # a_10 = 0 and a_20 != 0: the first pivot needs a row and a column swap
            ([[0, 1, 1], [0, 0, 1], [1, 0, 0]], [-1, -1, 0, 1]),
            ([[5]], [-5, 1]),
            ([], [1]),
        ],
    )
    def test_charpoly_fixed_cases(self, a, want):
        assert charpoly(a) == want

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


@pytest.mark.parametrize("eps", [0, -1, F(-1, 3), 0.0])
def test_nonpositive_isolation_width_rejected(eps):
    # sqrt(2) is irrational, so an unchecked width would bisect forever
    root = isolate_positive_roots(Poly.from_ints([-2, 0, 1]))[0]
    with pytest.raises(InputError, match="must be positive"):
        root.refine(eps)
    assert root.width() <= ROOT_WIDTH


def test_nonpositive_refinement_width_rejected():
    root = isolate_positive_roots(Poly.from_ints([-2, 0, 1]))[0]  # sqrt(2)
    for call in (
        lambda: root.refine(0),
        lambda: root.refine(-1),
    ):
        with pytest.raises(InputError, match="must be positive"):
            call()
    assert abs(root.to_float() - 2**0.5) < 1e-15


def test_small_irrational_root_keeps_its_significant_digits():
    root = isolate_positive_roots(Poly.from_ints([-2, 0, 10**14]))[0]  # sqrt(2) / 10**7
    assert f"{root.to_float():.15g}" == "1.4142135623731e-07"
    x = isolate_positive_roots(Poly.from_ints([-2, 0, 10**14]))[0].number_field().gen()
    assert abs(x.to_float() / (2**0.5 * 1e-7) - 1) < 1e-14
    assert f"{float(x):.15g}" == "1.4142135623731e-07"


def test_decimal_of_one_over_sqrt2_rounds_its_15th_digit():
    # 1/sqrt(2) = 0.70710678118654752...
    for poly in (Poly.from_ints([-1, 0, 2]), Poly.from_ints([-1, -1, 0, 2, 4])):
        root = isolate_positive_roots(poly)[0]
        assert f"{root.to_float():.15g}" == "0.707106781186548"
        x = isolate_positive_roots(poly)[0].exact_value()
        assert f"{float(x):.15g}" == "0.707106781186548"


@pytest.mark.parametrize(
    "ints",
    [[-1, 0, 0, 1, 1], [-1, 0, 2], [-1, -1, 0, 2, 4]],
    ids=["figB eta", "1/sqrt(2)", "gamma boundary"],
)
def test_float_of_a_root_is_its_generators_within_1e_16(ints):
    """float() of a root and of its number field's generator is one decimal
    path, and lands within relative 1e-16 of the root: here against the
    midpoint of a copy refined to width 1e-40."""
    root = isolate_positive_roots(Poly.from_ints(ints))[0]
    fine = isolate_positive_roots(Poly.from_ints(ints))[0].refine(F(1, 10**40))
    mid = (fine.lo + fine.hi) / 2
    value = float(root)
    assert value == float(root.number_field().gen())
    assert abs(F(value) - mid) <= mid / 10**16


def test_to_float_of_an_exact_zero_terminates():
    # x^3 - x has the single root 0 in (-1/3, 1/2), which bisection never hits
    s = AlgebraicScalar.from_root(Poly.from_ints([0, -1, 0, 1]), F(-1, 3), F(1, 2))
    assert s.to_float() == 0.0
    # 2x^2 - 1 vanishes at the root 1/sqrt(2) of a reducible modulus: its
    # enclosure contains 0 at every width
    m = Poly.from_ints([-1, 0, 2]) * Poly.from_ints([1, 1, 2])
    x = isolate_positive_roots(m)[0].number_field().gen()
    assert (x * x * 2 - 1).to_float() == 0.0


# ---------------------------------------------------------------------------
# Integer products in Q[x]/(m) and sparse exact elimination, against the
# rational Euclidean remainder and a dense reduced row echelon form
# ---------------------------------------------------------------------------

MODULI = {
    "monic": Poly.from_ints([-2, 0, 1]),  # x^2 - 2
    "leading 7": Poly.from_ints([-5, -2, 0, 7]),  # 7x^3 - 2x - 5
    "leading 6, reducible": Poly.from_ints([-1, 0, 2]) * Poly.from_ints([1, 1, 3]),
    "reducible, rational factor": Poly.from_ints([-1, 3]) * Poly.from_ints([-2, 0, 5]) * Poly.from_ints([1, 0, 1]),
}


@functools.lru_cache(maxsize=None)
def _ring(name: str) -> NumberField:
    m = MODULI[name]
    return NumberField(m, isolate_positive_roots(m)[-1])


field_coeffs = st.lists(st.builds(F, st.integers(-20, 20), st.integers(1, 12)), max_size=8)


@given(st.sampled_from(sorted(MODULI)), field_coeffs, field_coeffs, st.builds(F, st.integers(-50, 50), st.integers(1, 50)))
@settings(max_examples=100, deadline=None)
def test_field_product_is_the_euclidean_remainder(name, ca, cb, r):
    k = _ring(name)
    a, b = k.element(ca), k.element(cb)
    for got, want in (
        (a * b, a.rep * b.rep),
        (b * a, a.rep * b.rep),
        (a * a, a.rep * a.rep),
        (a * r, a.rep * r),
        (r * a, a.rep * r),
        (a * 3, a.rep * 3),
    ):
        assert got.rep == want.divmod(k.modulus)[1]
        assert all(type(c) is F for c in got.rep.coeffs)
        assert got.rep.degree < k.modulus.degree


def _dense_kernel(rows):
    """Reference: reduced row echelon form that divides every entry of the
    pivot row by the pivot and updates every column of every other row."""
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = m[0][0] * 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def _outcome(kernel, rows):
    try:
        return kernel(rows)
    except ZeroDivisor:
        return "ZeroDivisor"


@st.composite
def sparse_matrices(draw, entry):
    """Rows of entries drawn from ``entry`` or None (zero, two times in
    three), and a few combinations row_i + c * row_j that keep the rank
    below the row count."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = [[draw(st.one_of(st.none(), st.none(), entry)) for _ in range(ncols)] for _ in range(nrows)]
    combos = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, nrows - 1), st.integers(-3, 3)), max_size=2))
    return rows, combos


small_fractions = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))


def _materialize(matrix, embed):
    rows, combos = matrix
    rows = [[embed(x) for x in row] for row in rows]
    for i, j, c in combos:
        rows.append([x + y * c for x, y in zip(rows[i], rows[j])])
    return rows


@given(sparse_matrices(small_fractions))
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_is_the_dense_kernel_over_q(rows):
    rows = _materialize(rows, lambda x: F(0) if x is None else x)
    basis = kernel_basis_exact(rows)
    assert basis == _dense_kernel(rows)
    assert all(type(v) is F for vec in basis for v in vec)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


@given(sparse_matrices(st.tuples(small_fractions, st.builds(F, st.integers(-9, 9), st.integers(1, 6)))))
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_is_the_dense_kernel_over_q_sqrt2(rows):
    k = _ring("monic")
    s = k.gen()
    rows = _materialize(rows, lambda x: k.zero() if x is None else x[0] + x[1] * s)
    basis = kernel_basis_exact(rows)
    assert basis == _dense_kernel(rows)
    assert all(isinstance(v, FieldElement) for vec in basis for v in vec)
    for vec in basis:
        assert all(sum((a * b for a, b in zip(row, vec)), k.zero()) == 0 for row in rows)


# entries of Q[x]/((2x^2 - 1)(2x^2 + x + 1)): units and zero divisors
# vanishing on either factor
_REDUCIBLE_ENTRIES = [[1], [0, 1], [-1, 0, 2], [0, -1, 0, 2], [1, 1, 3], [2, -1], [1, 1, 2, 1]]


@given(sparse_matrices(st.sampled_from(range(len(_REDUCIBLE_ENTRIES)))))
@settings(max_examples=100, deadline=None)
def test_sparse_kernel_meets_zero_divisors_where_the_dense_kernel_does(rows):
    k = _ring("leading 6, reducible")
    rows = _materialize(rows, lambda x: k.zero() if x is None else k.element(_REDUCIBLE_ENTRIES[x]))
    assert _outcome(kernel_basis_exact, rows) == _outcome(_dense_kernel, rows)


def test_sparse_kernel_raises_on_a_zero_divisor_pivot():
    k = _ring("leading 6, reducible")
    zd = k.element([-1, 0, 2])
    rows = [[zd, k.one(), k.zero()], [k.zero(), k.zero(), k.one()]]
    with pytest.raises(ZeroDivisor):
        kernel_basis_exact(rows)
    with pytest.raises(ZeroDivisor):
        _dense_kernel(rows)


big_fractions = st.builds(F, st.integers(-2**40, 2**40).filter(bool), st.integers(1, 2**40))
M61 = 2**61 - 1


@given(sparse_matrices(big_fractions), st.integers(0, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_modular_kernel_of_tall_rationals_is_the_dense_kernel(matrix, zero_col, zero_row):
    """Rectangular, rank-deficient rational matrices with numerators and
    denominators up to 2**40, a zero column and perhaps a zero row: the
    ladder of primes gives the RREF basis over Q."""
    rows = _materialize(matrix, lambda x: F(0) if x is None else x)
    for row in rows:
        row[zero_col % len(row)] = F(0)
    if zero_row:
        rows.insert(len(rows) // 2, [F(0)] * len(rows[0]))
    basis = kernel_basis_exact(rows)
    assert basis == _dense_kernel(rows)
    assert all(type(v) is F for vec in basis for v in vec)


def _spy_kernel_mod(monkeypatch):
    """Record (p, basis or None) for each prime the kernel ladder tries."""
    import cwkms.exact

    tried = []
    kernel_mod = cwkms.exact._kernel_mod

    def spy(a, p):
        tried.append((p, kernel_mod(a, p)))
        return tried[-1][1]

    monkeypatch.setattr(cwkms.exact, "_kernel_mod", spy)
    return tried


def test_unlucky_prime_fails_the_exact_check(monkeypatch):
    """[[2**61 - 1, 1]] reduces to [[0, 1]] modulo 2**61 - 1, whose kernel
    vector [1, 0] the integer check rejects."""
    tried = _spy_kernel_mod(monkeypatch)
    assert kernel_basis_exact([[F(M61), F(1)]]) == [[F(-1, M61), F(1)]]
    assert tried[0] == (M61, None)
    assert tried[-1][1] is not None


def test_failed_reconstruction_climbs_the_ladder(monkeypatch):
    """-b/a with a, b near 2**46 has no fraction of height <= 2**30 congruent
    to it modulo 2**61 - 1, so a larger prime settles the kernel."""
    from math import isqrt

    from cwkms.exact import _reconstruct

    a, b = 3**29, 5**20
    assert _reconstruct(-b * pow(a, -1, M61) % M61, M61, isqrt(M61 // 2)) is None
    tried = _spy_kernel_mod(monkeypatch)
    assert kernel_basis_exact([[a, b]]) == [[F(-b, a), F(1)]]
    assert tried[0] == (M61, None)
    assert len(tried) > 1


def test_ladder_stops_at_2_127_minus_1(monkeypatch):
    """-b/a with a, b near 2**95 needs a prime near 2**190; after 2**61 - 1
    the ladder jumps to 2**127 - 1 and stops, and the exact elimination
    gives the basis."""
    tried = _spy_kernel_mod(monkeypatch)
    a, b = 3**60, 5**41
    assert kernel_basis_exact([[a, b]]) == [[F(-b, a), F(1)]]
    assert tried == [(2**e - 1, None) for e in (61, 127)]


def test_dense_rational_kernel_tries_two_primes(monkeypatch):
    """A dense 21 x 30 matrix whose echelon entries are too large for
    2**127 - 1 pays two failed modular passes, not four, before the exact
    elimination; the basis is the dense one."""
    rng = random.Random(7)
    rows = [[F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(30)] for _ in range(21)]
    tried = _spy_kernel_mod(monkeypatch)
    assert kernel_basis_exact(rows) == _dense_kernel(rows)
    assert tried == [(2**61 - 1, None), (2**127 - 1, None)]


def test_bound_beyond_prime_table_takes_the_fraction_elimination(monkeypatch):
    """With 2**61 - 1 as the only prime and 2 * H**2 beyond it, no modular
    pass runs and the exact elimination gives the same basis."""
    import cwkms.exact

    monkeypatch.setattr(cwkms.exact, "_MERSENNE_EXPONENTS", (61,))
    tried = _spy_kernel_mod(monkeypatch)
    rows = [[F(2**40 + 1, 3), F(5), F(7, 2**35)], [F(1), F(2**41 - 1), F(0)]]
    basis = kernel_basis_exact(rows)
    assert tried == []
    assert basis == _dense_kernel(rows)
    assert all(type(v) is F for vec in basis for v in vec)


def test_de_bruijn_kernel_takes_one_modular_pass(monkeypatch):
    """B(2,6) at lambda = 1/2 (64 x 64, kernel the constant vector) is
    settled at 2**61 - 1; the exact elimination is not reached."""
    import itertools

    import cwkms.exact
    from cwkms.graphs import build_graph
    from cwkms.solver import boundary_matrix

    words = ["".join(w) for w in itertools.product("01", repeat=6)]
    graph = build_graph({
        "vertices": words,
        "edges": [{"id": f"{w}>{s}", "src": w, "dst": w[1:] + s} for w in words for s in "01"],
    })
    rows = boundary_matrix(graph, F(1, 2))
    tried = _spy_kernel_mod(monkeypatch)
    rref_kernel = cwkms.exact._rref_kernel

    def modular_only(m, neg, p=None):
        assert p is not None, "exact elimination reached"
        return rref_kernel(m, neg, p)

    monkeypatch.setattr(cwkms.exact, "_rref_kernel", modular_only)
    assert kernel_basis_exact(rows) == [[F(1)] * 64]
    assert [p for p, _ in tried] == [M61]


# ---------------------------------------------------------------------------
# Integer-backed field elements against Poly-of-Fraction arithmetic mod m
# ---------------------------------------------------------------------------

ETA_MODULUS = Poly.from_ints([-1, 0, 0, 1, 1])  # x^4 + x^3 - 1
GAMMA_FACTORS = (Poly.from_ints([-1, 0, 2]), Poly.from_ints([1, 1, 2]))
REFERENCE_MODULI = {
    "Q(eta)": ETA_MODULUS,
    # the square-free, reducible modulus of the gamma boundary golden
    "gamma boundary": GAMMA_FACTORS[0] * GAMMA_FACTORS[1],
}


@functools.lru_cache(maxsize=None)
def _reference_field(name: str) -> NumberField:
    m = REFERENCE_MODULI[name]
    return NumberField(m, isolate_positive_roots(m)[0])


def _mod(p: Poly, k: NumberField) -> Poly:
    return p.divmod(k.modulus)[1]


def _euclid_inverse(p: Poly, k: NumberField) -> Poly | None:
    """Extended Euclid over Q: the inverse of p mod m, None when
    gcd(p, m) != 1."""
    r0, r1 = k.modulus, p
    s0, s1 = Poly([]), Poly.from_ints([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return _mod(s0 * (F(1) / r0.coeffs[0]), k) if r0.degree == 0 else None


def _reference_sign(p: Poly, k: NumberField) -> int:
    """Sign of p at the field's root by sympy's root counts: 0 if gcd(p, m)
    vanishes at the root, else the sign of p at the end of an isolating
    interval of m, halved by sympy's signs of m, on which p has no root."""
    sympy = pytest.importorskip("sympy")
    if p.is_zero():
        return 0
    x = sympy.Symbol("x")
    sp, m = _sympy_poly(p, x), _sympy_poly(k.modulus, x)
    lo, hi = (sympy.Rational(v.numerator, v.denominator) for v in (k.root.lo, k.root.hi))
    if sympy.gcd(sp, m).count_roots(lo, hi) > 0:
        return 0
    while sp.count_roots(lo, hi) > 0:
        mid = (lo + hi) / 2
        if m.eval(mid) == 0:
            return int(sympy.sign(sp.eval(mid)))
        lo, hi = (mid, hi) if sympy.sign(m.eval(mid)) == sympy.sign(m.eval(lo)) else (lo, mid)
    return int(sympy.sign(sp.eval(lo)))


def _gcd_degree(p: Poly, q: Poly) -> int:
    while not q.is_zero():
        p, q = q, p.divmod(q)[1]
    return p.degree


def _assert_normal(x: FieldElement, k: NumberField) -> None:
    assert x.den > 0 and not (x.nums and x.nums[-1] == 0)
    assert gcd(x.den, *x.nums) == 1
    assert all(type(c) is F for c in x.rep.coeffs)
    assert x.rep.degree < k.modulus.degree
    assert x.rep == _mod(x.rep, k)
    assert x.rep == Poly([F(v, x.den) for v in x.nums])


small_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
element_polys = st.builds(
    lambda cs, factor: Poly(cs) * factor if factor is not None else Poly(cs),
    st.lists(small_fractions, max_size=7),
    st.sampled_from((None,) + GAMMA_FACTORS),
)


@given(st.sampled_from(sorted(REFERENCE_MODULI)), element_polys, element_polys, small_fractions, st.integers(-7, 7))
@settings(max_examples=150, deadline=None)
def test_field_arithmetic_is_the_rational_arithmetic_mod_m(name, pa, pb, r, n):
    k = _reference_field(name)
    a, b = k.element(pa), k.element(pb)
    ra, rb = _mod(pa, k), _mod(pb, k)
    assert a.rep == ra and b.rep == rb
    for got, want in (
        (a + b, ra + rb),
        (a - b, ra - rb),
        (-a, -ra),
        (a * b, ra * rb),
        (a * r, ra * r),
        (r * a, ra * r),
        (a * n, ra * n),
        (n * a, ra * n),
        (a + r, ra + Poly([r])),
        (r - a, Poly([r]) - ra),
        (n - a, Poly([F(n)]) - ra),
        (a - n, ra - Poly([F(n)])),
    ):
        _assert_normal(got, k)
        assert got.rep == _mod(want, k)
    assert (a == b) == (ra == rb)
    again = k.element(list(pa.coeffs))
    assert a == again and hash(a) == hash(again)
    assert (a == r) == (ra == Poly([r]))
    assert a.sign() == _reference_sign(ra, k)


operand_specs = st.one_of(
    st.tuples(st.just("element"), element_polys),
    st.tuples(st.just("int"), st.integers(-9, 9)),
    st.tuples(st.just("fraction"), small_fractions),
)


def _operand(k: NumberField, spec):
    kind, value = spec
    return k.element(value) if kind == "element" else value


@given(
    st.sampled_from(sorted(REFERENCE_MODULI)),
    st.one_of(st.tuples(st.just("element"), element_polys), operand_specs),
    st.lists(st.tuples(operand_specs, operand_specs), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_fused_residual_is_the_naive_residual(name, x_spec, pair_specs):
    """Elements with different denominators, ints and Fractions, over an
    irreducible and a reducible modulus whose factors appear in the
    elements, so some residuals are non-zero representations of 0."""
    k = _reference_field(name)
    x = _operand(k, x_spec)
    pairs = [(_operand(k, a), _operand(k, b)) for a, b in pair_specs]
    got, want = residual(x, pairs), x - sum(a * b for a, b in pairs)
    assert type(got) is type(want) and got == want
    if isinstance(got, FieldElement):
        _assert_normal(got, k)
        assert got.nums == want.nums and got.den == want.den
    assert scalar_sign(got) == scalar_sign(want)


def test_residual_of_other_operands_is_the_plain_expression():
    assert residual(1.5, [(0.5, 3.0), (F(1, 4), 1)]) == 1.5 - (0.5 * 3.0 + 0.25)
    assert residual(F(1, 2), [(F(1, 3), 3)]) == F(-1, 2)
    x = _reference_field("Q(eta)").gen()
    with pytest.raises(ValueError, match="different number fields"):
        residual(x, [(_reference_field("gamma boundary").gen(), 1)])
    with pytest.raises(TypeError):
        residual(x, [(x, 0.5)])
    k = _reference_field("gamma boundary")
    vanishing = residual(k.gen() * k.gen() * 2, [(k.one(), 1)])  # 2x^2 - 1 at 1/sqrt(2)
    assert vanishing.nums and vanishing.sign() == 0 and vanishing.to_float() == 0.0


@given(st.sampled_from(sorted(REFERENCE_MODULI)), element_polys, element_polys)
@settings(max_examples=150, deadline=None)
def test_field_inverse_is_the_euclidean_inverse(name, pa, pb):
    k = _reference_field(name)
    a, b = k.element(pa), k.element(pb)
    ra, rb = _mod(pa, k), _mod(pb, k)
    if ra.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    want = _euclid_inverse(ra, k)
    if want is None:
        assert _gcd_degree(ra, k.modulus) >= 1
        with pytest.raises(ZeroDivisor):
            a.inverse()
        with pytest.raises(ZeroDivisor):
            b / a
        return
    inv = a.inverse()
    _assert_normal(inv, k)
    assert inv.rep == want
    assert (a * inv) == 1
    _assert_normal(b / a, k)
    assert (b / a).rep == _mod(rb * want, k)
    assert (1 / a) == inv


def test_field_inverse_raises_zero_divisor_exactly_on_common_factors():
    k = _reference_field("gamma boundary")
    x = k.gen()
    for zd in (x * x * 2 - 1, x * x * 2 + x + 1, (x * x * 2 - 1) * (x + 3)):
        assert _gcd_degree(zd.rep, k.modulus) >= 1
        with pytest.raises(ZeroDivisor):
            zd.inverse()
    unit = x * x * 2 + x - 1  # coprime to both factors
    assert _gcd_degree(unit.rep, k.modulus) == 0
    assert unit * unit.inverse() == 1


def _sympy_charpoly(sympy, rows, modulus=None):
    """sympy's charpoly of a matrix of Polys, as Polys over Q: over Q[y], each
    coefficient reduced modulo ``modulus`` when one is given."""
    y, t = sympy.symbols("y t")
    m = sympy.Matrix(len(rows), len(rows), lambda i, j: sum(
        sympy.Rational(c.numerator, c.denominator) * y**k for k, c in enumerate(rows[i][j].coeffs)))
    out = []
    for c in m.charpoly(t).all_coeffs()[::-1]:
        if modulus is not None:
            c = sympy.rem(sympy.expand(c), sum(int(v) * y**k for k, v in enumerate(modulus.coeffs)), y)
        c = sympy.Poly(c, y).all_coeffs()[::-1] if c != 0 else []
        out.append(Poly([F(int(v.p), int(v.q)) for v in c]))
    return out


sparse_fractions = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(sparse_fractions, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_charpoly_of_fraction_matrices_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    want = _sympy_charpoly(sympy, [[Poly([x]) for x in row] for row in a])
    got = charpoly(a)
    assert all(type(c) is F for c in got)
    assert [Poly([c]) for c in got] == want


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
    st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)), max_size=4).map(Poly),
    min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=20, deadline=None)
def test_charpoly_over_q_eta_matches_sympy(rows):
    """Matrices over Q(eta), eta the positive root of x**4 + x**3 - 1,
    reduced in the field's own arithmetic (p = None)."""
    sympy = pytest.importorskip("sympy")
    k = _reference_field("Q(eta)")
    got = charpoly([[k.element(e) for e in row] for row in rows])
    assert all(isinstance(c, FieldElement) for c in got)
    assert [c.rep for c in got] == _sympy_charpoly(sympy, rows, k.modulus)


def test_charpoly_pivot_on_a_zero_divisor_raises():
    """Over (2x**2 - 1)(2x**2 + x + 1) at 1/sqrt(2), the first Hessenberg
    pivot is the zero divisor 2x**2 - 1, which has no inverse."""
    k = _reference_field("gamma boundary")
    x = k.gen()
    zero = k.zero()
    with pytest.raises(ZeroDivisor):
        charpoly([[zero, zero, zero], [x * x * 2 - 1, zero, zero], [k.one(), zero, zero]])


@given(st.sampled_from(sorted(REFERENCE_MODULI)), small_fractions, st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
@settings(max_examples=50, deadline=None)
def test_constant_elements_are_decided_as_fractions(name, r, tol):
    """A constant element's sign and |x| <= tol read off nums[0] over den
    > 0, with no enclosure; a negative tol fails on an exact 0 too."""
    k = _reference_field(name)

    def no_enclosure(*args):
        raise AssertionError("a constant element must not reach the enclosure")

    x = k.element([r])
    assert len(x.nums) <= 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_horner_enclosure", no_enclosure)
        assert x.sign() == (r > 0) - (r < 0)
        assert scalar_abs_leq(x, tol) == (abs(r) <= tol)
        assert scalar_abs_leq(k.zero(), tol) == (tol >= 0)


@pytest.mark.parametrize(
    "value",
    [float("inf"), float("-inf"), float("nan"), 10**400, F(-(10**400), 3)],
    ids=["inf", "-inf", "nan", "1e400", "-1e400/3"],
)
def test_bounds_a_float_cannot_hold_are_input_errors(value):
    with pytest.raises(InputError, match="a float can hold"):
        as_tolerance(value)
    with pytest.raises(InputError, match="a float can hold"):
        isolate_positive_roots(Poly.from_ints([-2, 0, 1]))[0].refine(value)
    assert as_tolerance(-0.5) == F(-1, 2) and as_tolerance(F(1, 10**400)) == F(1, 10**400)


def test_field_rep_is_read_only():
    k = _reference_field("Q(eta)")
    x = k.gen() / 3
    assert x.nums == (0, 1) and x.den == 3
    assert x.rep == Poly([F(0), F(1, 3)])
    with pytest.raises(AttributeError):
        x.rep = Poly([])
