"""Exact scalar arithmetic: polynomials, real algebraic numbers, number fields.

Everything here works over ``fractions.Fraction`` (or over elements of a
``NumberField``, which themselves reduce to Fraction arithmetic), so results
are exact and deterministic.  Floating point enters only through the
``to_float`` conversions used at report time.

The root machinery follows the classical exact recipe: square-free reduction
by gcd, Sturm sequences for root counting, and interval bisection for
isolation and refinement.

Determinants of polynomial matrices with integer coefficients (every
det(lambda*A - I) the solver builds) are computed by evaluation and
interpolation modulo one prime: the matrix is evaluated at x = 0..d, where d
bounds the determinant's degree, each value matrix is eliminated modulo the
prime, and the values are Newton-interpolated.  The prime exceeds twice a
Hadamard bound on the determinant's coefficients, so the symmetric residues
are the integer coefficients themselves; no step is probabilistic.  Other
polynomial matrices (rational or number-field coefficients) use
fraction-free (Bareiss) elimination, whose intermediate divisions are exact
by the Sylvester identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import isqrt

from .errors import ZeroDivisor, ZeroPolynomial


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact: floats are dyadic rationals
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Poly:
    """Dense univariate polynomial, coefficients in ascending degree order.

    Coefficients may be Fractions (the common case) or elements of a
    NumberField; the arithmetic only assumes a commutative ring with exact
    division where required.  The zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def from_ints(coeffs) -> "Poly":
        return Poly([Fraction(c) for c in coeffs])

    @staticmethod
    def x() -> "Poly":
        return Poly([Fraction(0), Fraction(1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return Poly([a * c for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; coefficients must support true division."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if self.degree < d:
            return Poly([]), self
        lead = other.coeffs[-1]
        zero = lead * 0
        rem = list(self.coeffs)
        q = [zero] * (self.degree - d + 1)
        for k in range(len(q) - 1, -1, -1):
            top = rem[k + d]
            if not _is_zero(top):
                c = top / lead
                q[k] = c
                for i in range(d + 1):
                    rem[k + i] = rem[k + i] - c * other.coeffs[i]
        return Poly(q), Poly(rem[:d])

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("polynomial division was expected to be exact")
        return q

    def derivative(self) -> "Poly":
        return Poly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return x * 0
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def interval_eval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact interval-arithmetic enclosure of self over [lo, hi]."""
        vlo = vhi = Fraction(0)
        first = True
        for c in reversed(self.coeffs):
            if first:
                vlo = vhi = Fraction(c)
                first = False
                continue
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cands) + c, max(cands) + c
        return vlo, vhi

    def primitive(self) -> "Poly":
        """Integer-primitive form with positive leading coefficient.

        Only meaningful for Fraction coefficients.
        """
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // _int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = _int_gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Poly([Fraction(v, g) for v in ints])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def pos_normalized(self) -> "Poly":
        """Divide by the positive content; keeps every coefficient sign.

        Only meaningful for Fraction coefficients; used to hold coefficient
        growth down in remainder sequences."""
        if self.is_zero():
            return self
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = _int_gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        return Poly([c / content for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over the fraction field of the coefficients.

        Fraction-coefficient inputs run a content-normalized remainder
        sequence so intermediate coefficients stay near primitive size."""
        rational = all(isinstance(c, Fraction) for c in self.coeffs + other.coeffs)
        a, b = self, other
        if rational:
            a, b = a.pos_normalized(), b.pos_normalized()
        while not b.is_zero():
            r = a.divmod(b)[1]
            if rational and not r.is_zero():
                r = r.pos_normalized()
            a, b = b, r
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "Poly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return self.exact_div(g).monic()

    def sign_at(self, x: Fraction) -> int:
        v = self(x)
        return (v > 0) - (v < 0)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def _is_zero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    if isinstance(c, FieldElement):
        return c.rep.is_zero()
    return c == 0


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation (Fraction coefficients only)
# ---------------------------------------------------------------------------

def sturm_sequence(p: Poly) -> list[Poly]:
    """Sturm chain of ``p``; each term is content-normalized (a positive
    rescaling, which leaves all sign variations unchanged)."""
    seq = [p.pos_normalized(), p.derivative().pos_normalized()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append((-rem).pos_normalized())
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _sign_variations(values) -> int:
    signs = [v for v in ((x > 0) - (x < 0) for x in values) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction, seq: list[Poly] | None = None) -> int:
    """Number of distinct real roots of square-free ``p`` in the open
    interval (lo, hi); endpoints must not be roots."""
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    if seq is None:
        seq = sturm_sequence(p)
    va = _sign_variations([q(lo) for q in seq])
    vb = _sign_variations([q(hi) for q in seq])
    return va - vb


def cauchy_root_bound(p: Poly) -> Fraction:
    lead = abs(p.coeffs[-1])
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def _positive_rational_roots(p: Poly, limit: int = 10**6) -> list[Fraction]:
    """Positive rational roots of an integer-primitive polynomial, found by
    the rational root test.  Skipped (returns []) when the constant or
    leading coefficient is too large to factor cheaply."""
    a0 = int(p.coeffs[0])
    an = int(p.coeffs[-1])
    if a0 == 0:
        raise ValueError("strip zero roots before calling")
    if abs(a0) > limit or abs(an) > limit:
        return []

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    roots = []
    for num in divisors(a0):
        for den in divisors(an):
            r = Fraction(num, den)
            if p(r) == 0 and r not in roots:
                roots.append(r)
    return sorted(roots)


@dataclass
class AlgebraicScalar:
    """A real number, either exactly rational or a designated real root of an
    integer polynomial together with an isolating interval.

    The interval is open, contains exactly one root of ``poly`` and shows a
    sign change at its endpoints; ``refine`` narrows it by bisection to any
    requested width.
    """

    rational: Fraction | None = None
    poly: Poly | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    _field: "NumberField | None" = None

    @staticmethod
    def from_rational(r) -> "AlgebraicScalar":
        return AlgebraicScalar(rational=_as_fraction(r))

    @staticmethod
    def from_root(poly: Poly, lo: Fraction, hi: Fraction) -> "AlgebraicScalar":
        if poly.sign_at(lo) * poly.sign_at(hi) >= 0:
            raise ValueError("isolating interval must show a sign change")
        return AlgebraicScalar(poly=poly, lo=lo, hi=hi)

    @property
    def is_rational(self) -> bool:
        return self.rational is not None

    def width(self) -> Fraction:
        if self.is_rational:
            return Fraction(0)
        return self.hi - self.lo

    def refine(self, eps) -> "AlgebraicScalar":
        """Narrow the isolating interval below ``eps`` (no-op for rationals)."""
        if self.is_rational:
            return self
        eps = _as_fraction(eps)
        slo, shi = self.poly.sign_at(self.lo), self.poly.sign_at(self.hi)
        lo, hi = self.lo, self.hi
        while hi - lo > eps:
            mid = (lo + hi) / 2
            sm = self.poly.sign_at(mid)
            if sm == 0:
                # Landed exactly on the root: collapse to a rational.
                self.rational = mid
                self.poly = None
                self.lo = self.hi = None
                return self
            if sm == slo:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi = lo, hi
        return self

    def to_float(self, eps=Fraction(1, 10**15)) -> float:
        if self.is_rational:
            return float(self.rational)
        self.refine(eps)
        return float((self.lo + self.hi) / 2)

    def __float__(self) -> float:
        return self.to_float()

    def as_fraction(self, eps=Fraction(1, 10**15)) -> Fraction:
        """Exact value if rational, else the interval midpoint after
        refinement to ``eps``."""
        if self.is_rational:
            return self.rational
        self.refine(eps)
        return (self.lo + self.hi) / 2

    def equals_rational(self, r) -> bool:
        r = _as_fraction(r)
        if self.is_rational:
            return self.rational == r
        return False

    def number_field(self) -> "NumberField":
        """The (memoized) quotient ring generated by this root; reusing one
        instance lets elements built from the same root mix arithmetically."""
        if self.is_rational:
            raise ValueError("rational scalars generate no number field")
        if self._field is None:
            self._field = NumberField(self.poly, self)
        return self._field

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicScalar({self.rational})"
        return f"AlgebraicScalar(root of {self.poly} in ({self.lo}, {self.hi}))"


def _split_point(sf: Poly, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) that is not a root of ``sf``."""
    for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)):
        m = a + (b - a) * t
        if sf(m) != 0:
            return m
    k = 4
    while True:
        m = a + (b - a) / k
        if sf(m) != 0:
            return m
        k += 1


def isolate_positive_roots(p: Poly, eps) -> list[AlgebraicScalar]:
    """All real roots > 0 of ``p``, each isolated to interval width <= eps.

    The count is exact: the polynomial is reduced to its square-free part,
    positive rational roots are split off exactly when coefficient sizes
    permit, and the remaining roots are isolated with Sturm counts plus
    bisection.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    eps = _as_fraction(eps)

    # strip roots at zero
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    work = Poly(coeffs)
    if work.degree <= 0:
        return []

    sf = work.squarefree_part().primitive()
    results: list[AlgebraicScalar] = []
    for r in _positive_rational_roots(sf):
        results.append(AlgebraicScalar.from_rational(r))
        sf = sf.exact_div(Poly([-r, Fraction(1)]))
    sf = sf.primitive()

    if sf.degree >= 1:
        seq = sturm_sequence(sf)
        lo = Fraction(0)
        bound = cauchy_root_bound(sf)
        while sf(bound) == 0:
            bound += 1
        stack = [(lo, bound, count_roots(sf, lo, bound, seq))]
        isolated: list[tuple[Fraction, Fraction]] = []
        while stack:
            a, b, n = stack.pop()
            if n == 0:
                continue
            if n == 1:
                isolated.append((a, b))
                continue
            mid = _split_point(sf, a, b)
            nl = count_roots(sf, a, mid, seq)
            stack.append((a, mid, nl))
            stack.append((mid, b, n - nl))
        for a, b in isolated:
            # shrink until a sign change is visible at the endpoints, then
            # hand off to interval bisection
            found_rational = None
            while sf.sign_at(a) * sf.sign_at(b) >= 0:
                mid = (a + b) / 2
                if sf(mid) == 0:
                    found_rational = mid  # rational root missed by the divisor test
                    break
                if count_roots(sf, a, mid, seq) == 1:
                    b = mid
                else:
                    a = mid
            if found_rational is not None:
                results.append(AlgebraicScalar.from_rational(found_rational))
            else:
                results.append(AlgebraicScalar.from_root(sf, a, b).refine(eps))

    results.sort(key=lambda s: s.as_fraction(Fraction(1, 10**6)))
    return results


# ---------------------------------------------------------------------------
# Number fields Q[x]/(m)
# ---------------------------------------------------------------------------

class NumberField:
    """The quotient ring Q[x]/(m) with a designated real root of m.

    ``m`` should be square-free; when it is irreducible the ring is a field
    and every nonzero element is invertible.  The designated root (an
    AlgebraicScalar) fixes the real embedding used by ``sign`` and
    ``to_float``.
    """

    def __init__(self, modulus: Poly, root: AlgebraicScalar):
        self.modulus = modulus.primitive()
        if self.modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        self.root = root

    def element(self, coeffs) -> "FieldElement":
        rep = coeffs if isinstance(coeffs, Poly) else Poly([_as_fraction(c) for c in coeffs])
        return FieldElement(self, rep.divmod(self.modulus)[1])

    def from_rational(self, r) -> "FieldElement":
        return self.element([_as_fraction(r)])

    def gen(self) -> "FieldElement":
        return self.element(Poly.x())

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def __repr__(self):
        return f"NumberField({self.modulus}, root~{self.root.to_float():.6g})"


class FieldElement:
    """Element of a NumberField, represented by a polynomial of degree
    < deg(modulus)."""

    __slots__ = ("field", "rep")

    def __init__(self, field: NumberField, rep: Poly):
        self.field = field
        self.rep = rep

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.rep + o.rep)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.rep)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.rep - o.rep)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, o.rep - self.rep)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, (self.rep * o.rep).divmod(self.field.modulus)[1])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).inverse()
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """Extended-Euclid inverse modulo the field polynomial."""
        if self.rep.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        r0, r1 = self.field.modulus, self.rep
        s0, s1 = Poly([]), Poly([Fraction(1)])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisor(f"{self.rep} is a zero divisor modulo {self.field.modulus}")
        inv_gcd = Fraction(1) / r0.coeffs[0]
        return FieldElement(self.field, s0.scale(inv_gcd).divmod(self.field.modulus)[1])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            o = self._coerce(other)
            return (self.rep - o.rep).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.rep.coeffs))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def sign(self) -> int:
        """Exact sign of the element under the designated real embedding."""
        if self.rep.is_zero():
            return 0
        root = self.field.root
        if root.is_rational:
            v = self.rep(root.rational)
            return (v > 0) - (v < 0)
        # The representative could vanish at the root even though it is not
        # the zero element (possible when the modulus is reducible).  The
        # interval endpoints are never roots of the modulus, hence not of g.
        g = self.rep.gcd(self.field.modulus)
        if g.degree >= 1 and count_roots(g, root.lo, root.hi) > 0:
            return 0
        while True:
            vlo, vhi = self.rep.interval_eval(root.lo, root.hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            root.refine(root.width() / 4)

    def to_float(self, eps: float = 1e-14) -> float:
        root = self.field.root
        if root.is_rational:
            return float(self.rep(root.rational))
        target = _as_fraction(eps)
        while True:
            vlo, vhi = self.rep.interval_eval(root.lo, root.hi)
            if vhi - vlo <= target:
                return float((vlo + vhi) / 2)
            root.refine(root.width() / 16)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __repr__(self):
        return f"FieldElement({self.rep})"


def scalar_to_float(x, eps: float = 1e-14) -> float:
    if isinstance(x, FieldElement):
        return x.to_float(eps)
    if isinstance(x, AlgebraicScalar):
        return x.to_float(_as_fraction(eps))
    return float(x)


def scalar_sign(x) -> int:
    if isinstance(x, FieldElement):
        return x.sign()
    if isinstance(x, AlgebraicScalar):
        if x.is_rational:
            return 1 if x.rational > 0 else (-1 if x.rational < 0 else 0)
        # isolating intervals of our roots never straddle zero
        return 1 if x.lo >= 0 else -1
    return 1 if x > 0 else (-1 if x < 0 else 0)


# ---------------------------------------------------------------------------
# Determinants and kernels
# ---------------------------------------------------------------------------

# Exponents p of Mersenne primes 2**p - 1, the moduli of the modular
# determinant.  The largest allows coefficient bounds of about 65,000 digits.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
)


def det_bareiss_poly(rows: list[list[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    When every coefficient is an integer, the determinant is found modulo
    the smallest tabulated Mersenne prime M with M > 2B and M > d, where d is
    the sum over rows of the largest entry degree (a bound on the
    determinant's degree) and B bounds every coefficient by Hadamard's
    inequality applied to the expansion of the determinant in the rows'
    coefficient vectors: |c_k| <= prod_i sum_k ||row i of A_k||_2 for
    A(x) = sum_k A_k x^k.  Values at x = 0..d come from Gaussian elimination
    modulo M and are Newton-interpolated; since |c_k| < M/2, the symmetric
    residues are the coefficients.

    Other matrices (non-integral rational or number-field coefficients,
    or a bound beyond the largest tabulated prime) go through fraction-free
    elimination.  Deterministic: pivots are taken in order, with row swaps
    (and a sign flip) only to skip zero pivots."""
    n = len(rows)
    if n == 0:
        return Poly([Fraction(1)])
    ints = _integer_entries(rows)
    if ints is not None:
        modular = _det_poly_modular(ints)
        if modular is not None:
            return modular
    a = [row[:] for row in rows]
    one = Poly([Fraction(1)])
    prev = one
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Poly([])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Poly([])
        prev = a[k][k]
    det = a[-1][-1]
    return -det if sign < 0 else det


def _integer_entries(rows: list[list[Poly]]) -> list[list[list[int]]] | None:
    """Coefficient lists of the entries as ints, or None if any coefficient
    is not an integer."""
    out = []
    for row in rows:
        out_row = []
        for entry in row:
            cs = []
            for c in entry.coeffs:
                if not (isinstance(c, Fraction) and c.denominator == 1):
                    return None
                cs.append(c.numerator)
            out_row.append(cs)
        out.append(out_row)
    return out


def _ceil_sqrt(s: int) -> int:
    return isqrt(s - 1) + 1 if s else 0


def _det_poly_modular(ints: list[list[list[int]]]) -> Poly | None:
    """Determinant of an integer polynomial matrix by evaluation and
    interpolation modulo one prime; None when the coefficient bound exceeds
    every tabulated prime."""
    n = len(ints)
    degree = 0
    bound = 1
    for row in ints:
        width = max(len(cs) for cs in row)
        if width == 0:
            return Poly([])  # a zero row
        degree += width - 1
        bound *= sum(
            _ceil_sqrt(sum(cs[k] * cs[k] for cs in row if k < len(cs))) for k in range(width)
        )
    prime = next(
        (m for m in ((1 << e) - 1 for e in _MERSENNE_EXPONENTS) if m > 2 * bound and m > degree),
        None,
    )
    if prime is None:
        return None
    sparse = [[(j, cs) for j, cs in enumerate(row) if cs] for row in ints]
    values = []
    for t in range(degree + 1):
        a = []
        for row in sparse:
            dense = [0] * n
            for j, cs in row:
                v = 0
                for c in reversed(cs):
                    v = v * t + c
                dense[j] = v % prime
            a.append(dense)
        values.append(_det_mod(a, prime))
    coeffs = _newton_interpolate_mod(values, prime)
    half = prime // 2
    return Poly([Fraction(c - prime if c > half else c) for c in coeffs])


def _det_mod(a: list[list[int]], p: int) -> int:
    """Determinant modulo the prime ``p`` of a matrix with entries reduced
    modulo ``p``, by Gaussian elimination in place.  Rows whose pivot-column
    entry is zero, and columns that are zero in the pivot row, are skipped."""
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pivot_row = a[k]
        det = det * pivot_row[k] % p
        inv = pow(pivot_row[k], -1, p)
        cols = [(j, pivot_row[j]) for j in range(k + 1, n) if pivot_row[j]]
        for i in range(k + 1, n):
            row = a[i]
            if row[k]:
                f = row[k] * inv % p
                for j, v in cols:
                    row[j] = (row[j] - f * v) % p
    return det % p


def _newton_interpolate_mod(values: list[int], p: int) -> list[int]:
    """Coefficients, ascending and modulo ``p``, of the polynomial of degree
    < len(values) taking ``values[t]`` at x = t (requires p > len(values))."""
    c = list(values)
    d = len(c) - 1
    # divided differences at the points 0..d: x_i - x_{i-j} = j
    for j in range(1, d + 1):
        inv = pow(j, -1, p)
        for i in range(d, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    # expand c[0] + c[1] x + c[2] x (x - 1) + ... by Horner in the Newton basis
    out = [c[d]]
    for i in range(d - 1, -1, -1):
        # out <- out * (x - i) + c[i]
        shifted = [0] + out
        for k in range(len(out)):
            shifted[k] = (shifted[k] - i * out[k]) % p
        shifted[0] = (shifted[0] + c[i]) % p
        out = shifted
    return out


def det_exact(rows) -> object:
    """Determinant of a square matrix of exact scalars (Fractions or
    NumberField elements) by ordinary Gaussian elimination."""
    n = len(rows)
    a = [[_entry(x) for x in row] for row in rows]
    if n == 0:
        return Fraction(1)
    det = None
    sign = 1
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not _is_zero(a[i][k]):
                piv = i
                break
        if piv is None:
            return a[0][0] * 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        det = a[k][k] if det is None else det * a[k][k]
        inv = a[k][k]
        for i in range(k + 1, n):
            if _is_zero(a[i][k]):
                continue
            f = a[i][k] / inv
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return -det if sign < 0 else det


def _entry(x):
    if isinstance(x, (int, str)):
        return _as_fraction(x)
    return x


def kernel_basis_exact(rows) -> list[list]:
    """Basis of the right kernel of a matrix of exact scalars, by reduced row
    echelon form.  Returns a list of coordinate vectors."""
    if not rows:
        return []
    m = [[_entry(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not _is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = m[0][0] * 0
    one = zero + 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis
