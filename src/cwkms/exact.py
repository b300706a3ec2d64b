"""Exact scalar arithmetic: polynomials, real algebraic numbers, number fields.

Everything here works over ``fractions.Fraction`` or over elements of a
``NumberField`` Q[x]/(m), each held as integer numerators over one positive
integer denominator, so results are exact and deterministic.  Text is read
by ``parse_scalar``; floating point enters only through ``float()`` of a
scalar and the ``decimal`` it prints as, at report time.

Roots are isolated in integers: square-free reduction by a primitive
pseudo-remainder sequence, Descartes' rule of signs on integer Taylor shifts
for isolation (Vincent-Collins-Akritas bisection), and one bisection over a
doubling denominator for refinement; every sign at a rational point is an
integer Horner evaluation.  A number-field sign is decided by an integer
interval enclosure first, by a gcd with the modulus and its signs at the
interval's ends only when the enclosure contains 0, and then by refining
the root's interval.

The solver's determinants det(x*W - I) are reversed characteristic
polynomials, (-1)**n * x**n * chi_W(1/x), and ``charpoly`` is the one
routine that computes chi_W: a Hessenberg reduction by similarity
transforms, then the Hessenberg recurrence, in O(n**3) operations.  A
rational W, cleared of denominators, is reduced modulo one prime above
twice a Hadamard bound on the coefficients, so the symmetric residues are
the integer coefficients themselves; no step is probabilistic.  A
number-field W, or a rational one whose bound is beyond the prime table,
is reduced in its own arithmetic, one inverse per pivot.  Rational kernels
come from an elimination modulo a prime with rational reconstruction,
accepted only after an exact integer check A*v = 0 (``kernel_basis_exact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import isqrt, lcm

from .errors import InputError, ZeroDivisor, ZeroPolynomial


def parse_scalar(x) -> Fraction:
    """``x`` as an exact rational: an int, a Fraction, a finite float (read
    exactly: floats are dyadic rationals) or a string such as "3/7" or
    "1e-3".  Anything else, a bool included, is an InputError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise InputError(f"not a finite rational value: {x!r}")


def as_tolerance(value) -> Fraction:
    """``value``, a bound such as a residual tolerance, as a Fraction.  It must
    be finite and within the float range, as reports print it as a float;
    a negative bound is accepted."""
    try:
        tol = parse_scalar(value)
        float(tol)
    except (InputError, OverflowError):
        raise InputError(f"bound must be a finite number a float can hold, got {value!r}") from None
    return tol


def decimal(x) -> str:
    """The decimal every report prints for a scalar: 15 significant digits
    of ``float(x)``."""
    return f"{float(x):.15g}"


def format_scalar(x) -> str:
    """An int or Fraction as "p" or "p/q", so golden files stay platform
    independent; any other scalar as its ``decimal``."""
    return str(x) if isinstance(x, (int, Fraction)) else decimal(x)


# Width of every isolating interval a root is reported with.  A Descartes
# count of 1 certifies the interval at any width, so no answer depends on it.
ROOT_WIDTH = Fraction(1, 10**14)

# Relative width of the enclosure a decimal is read from: the 15 significant
# digits that reports print are then off only within 1e-16 of a rounding
# boundary.
DECIMAL_WIDTH = Fraction(1e-16)


class Poly:
    """Dense univariate polynomial, coefficients in ascending degree order.

    Coefficients may be Fractions (the common case) or elements of a
    NumberField; the arithmetic only assumes a commutative ring with exact
    division where required.  The zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self._ints = None

    @property
    def ints(self) -> tuple[list[int], int]:
        """``_int_numerators`` of the (Fraction) coefficients, built on first use."""
        if self._ints is None:
            self._ints = _int_numerators(self.coeffs)
        return self._ints

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

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return x * 0
        return acc

    def interval_eval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact interval-arithmetic enclosure of self over [lo, hi]."""
        vlo, vhi, s = _horner_enclosure(*self.ints, lo, hi)
        return Fraction(vlo, s), Fraction(vhi, s)

    def sign_at(self, x: Fraction) -> int:
        """Sign at a rational point, by integer Horner (Fraction coefficients)."""
        return _sign_at(self.ints[0], *x.as_integer_ratio())

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def _int_numerators(coeffs) -> tuple[list[int], int]:
    """Numerators of rational ``coeffs`` over their lcm denominator, and it."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _horner_enclosure(nums, den: int, lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """Interval Horner for sum(nums[i] * x**i) / den over [lo, hi], in
    integers: lo and hi over d, so after k steps both bounds are integers
    over den * d**k.  Returns (vlo, vhi, s): the range is in [vlo/s, vhi/s]."""
    if not nums:
        return 0, 0, den
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    vlo = vhi = nums[-1]
    scale = 1
    for n in nums[-2::-1]:
        scale *= d
        cands = (vlo * a, vlo * b, vhi * a, vhi * b)
        vlo, vhi = min(cands) + n * scale, max(cands) + n * scale
    return vlo, vhi, den * scale


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, FieldElement) else c == 0


# ---------------------------------------------------------------------------
# Integer polynomials and root isolation
# ---------------------------------------------------------------------------

def _sign_at(f: list[int], a: int, d: int) -> int:
    """Sign of sum(f[i] * x**i) at x = a/d, d > 0: integer Horner on d**n f(a/d)."""
    v, scale = (f[-1] if f else 0), 1
    for c in f[-2::-1]:
        scale *= d
        v = v * a + c * scale
    return (v > 0) - (v < 0)


def _primitive(f: list[int]) -> list[int]:
    """Nonzero integer ``f`` over its content, with positive leading coefficient."""
    g = _int_gcd(*f)
    return [v // g for v in f] if f[-1] > 0 else [-v // g for v in f]


def _pseudo_rem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(r, s) with s * a = q * b + r, deg r < deg b, for b with positive
    leading coefficient: each step scales by lead(b) / gcd(lead(b), top) > 0."""
    r, d, lb, s = list(a), len(b) - 1, b[-1], 1
    for k in range(len(a) - 1, d - 1, -1):
        q = r.pop()
        if q:
            g = _int_gcd(q, lb)
            if g != lb:
                r = [v * (lb // g) for v in r]
                s *= lb // g
            q //= g
            for i in range(d):
                r[k - d + i] -= q * b[i]
    while r and not r[-1]:
        r.pop()
    return r, s


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, with positive leading coefficient, of nonzero integer
    polynomials: the primitive pseudo-remainder sequence (Knuth, TAOCP 2,
    4.6.1)."""
    a, b = _primitive(a), _primitive(b)
    while r := _pseudo_rem(a, b)[0]:  # deg a < deg b: r = a, and they swap
        a, b = b, _primitive(r)
    return b


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials, b primitive and dividing a, so that
    the quotient is integral (Gauss's lemma)."""
    r, d, lb = list(a), len(b) - 1, b[-1]
    q = [0] * (len(a) - d)
    for k in range(len(a) - 1, d - 1, -1):
        c = q[k - d] = r[k] // lb
        for i in range(d + 1):
            r[k - d + i] -= c * b[i]
    if any(r):
        raise ArithmeticError("polynomial division was expected to be exact")
    return q


def _shift1(f: list[int]) -> list[int]:
    """Coefficients of f(x + 1): Horner's scheme, n(n + 1)/2 additions."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += f[j + 1]
    return f


def _descartes(h: list[int]) -> int:
    """min(2, V) for V the sign variations of (x + 1)**n h(1/(x + 1)), whose
    positive roots are the roots of h in (0, 1): V bounds their number and
    equals it when V <= 1 (Descartes' rule of signs)."""
    signs = [v > 0 for v in _shift1(h[::-1]) if v]
    return min(2, sum(s != t for s, t in zip(signs, signs[1:])))


def _isolate(f: list[int]) -> list:
    """The positive roots of the square-free integer ``f``, f(0) != 0, in
    increasing order: a Fraction for a root that a bisection point hits,
    else a dyadic open interval (lo, hi) holding one root, which may end at
    such a Fraction.  A node (h, c, j) has h(x) = 2**e f(2**k (c + x)/2**j)
    for 0 < x < 1; a root of h at 0 or 1 leaves Descartes' count valid."""
    lead, top = abs(f[-1]), max(abs(v) for v in f[:-1])
    k = ((lead + top) // lead).bit_length()  # 2**k > 1 + top/lead, Cauchy's bound
    out: list = []
    stack = [([v << (k * i) for i, v in enumerate(f)], 0, 0)]
    while stack:
        h, c, j = stack.pop()
        count = _descartes(h)
        if count == 1:
            out.append((Fraction(c << k, 1 << j), Fraction((c + 1) << k, 1 << j)))
        elif count:
            left = [v << (len(h) - 1 - i) for i, v in enumerate(h)]  # 2**n h(x/2)
            right = _shift1(left)
            if not right[0]:  # the midpoint is a root
                out.append(Fraction((2 * c + 1) << k, 1 << (j + 1)))
            stack += [(left, 2 * c, j + 1), (right, 2 * c + 1, j + 1)]
    # a midpoint root comes before the interval it starts (the sort is stable)
    return sorted(out, key=lambda x: x if isinstance(x, Fraction) else x[0])


def _bisect(f: list[int], lo: Fraction, hi: Fraction, width: Fraction):
    """Halve (lo, hi), across which ``f`` changes sign at its one root there,
    until the width is at most ``width``: the interval, or the root once a
    midpoint hits it.  The ends are integers over one denominator, which
    doubles at each step."""
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    sa = _sign_at(f, a, d)
    while (b - a) * width.denominator > width.numerator * d:
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        s = _sign_at(f, m, d)
        if not s:
            return Fraction(m, d)
        if s == sa:
            a = m
        else:
            b = m
    return Fraction(a, d), Fraction(b, d)


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

    def bounds(self) -> tuple[Fraction, Fraction]:
        return (self.rational, self.rational) if self.is_rational else (self.lo, self.hi)

    def refine(self, width) -> "AlgebraicScalar":
        """Narrow the isolating interval below ``width`` > 0 (no-op for
        rationals); a midpoint that hits the root makes it rational."""
        width = as_tolerance(width)
        if width <= 0:  # no interval around an irrational root reaches width 0
            raise InputError(f"root isolation width must be positive, got {width}")
        if not self.is_rational:
            x = _bisect(self.poly.ints[0], self.lo, self.hi, width)
            if isinstance(x, Fraction):
                self.rational, self.poly, self.lo, self.hi = x, None, None, None
            else:
                self.lo, self.hi = x
        return self

    def to_float(self) -> float:
        """The rational's float, or that of the generator of the root's
        number field (``FieldElement.to_float``)."""
        return float(self.rational) if self.is_rational else self.number_field().gen().to_float()

    __float__ = to_float

    def equals_rational(self, r) -> bool:
        r = parse_scalar(r)
        if self.is_rational:
            return self.rational == r
        return False

    def exact_value(self):
        """The root as an exact scalar: its Fraction, or the generator of
        its number field."""
        return self.rational if self.is_rational else self.number_field().gen()

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


def isolate_positive_roots(p: Poly) -> list[AlgebraicScalar]:
    """All real roots > 0 of ``p`` in increasing order, each isolated to
    interval width <= ``ROOT_WIDTH``.  The irrational roots share one
    ``poly``: the primitive square-free part of p with its rational roots
    divided out.

    All in integers (Collins and Akritas, SYMSAC 1976; Rouillier and
    Zimmermann, J. Comput. Appl. Math. 162, 2004).  The square-free part is
    p over gcd(p, p'), from a primitive pseudo-remainder sequence.  Its
    roots in (0, 2**k), 2**k above Cauchy's bound, are isolated by bisection
    with integer Taylor shifts: the sign variations V of
    (x + 1)**n h(1/(x + 1)) exceed the number of roots of h in (0, 1) by an
    even number (Descartes' rule of signs), so V = 0 proves that an interval
    holds no root and V = 1 that it holds exactly one.  A midpoint that is a
    root is kept as an exact rational and divided out, so no interval ends at
    a root of the quotient q.  Any other rational root has a denominator
    dividing the leading coefficient a_n of q; such fractions lie at least
    1/a_n**2 apart, so it is the closest fraction with denominator <= a_n to
    the midpoint of its interval refined below width 1/(2 a_n**2).  The
    irrational roots are refined to ``ROOT_WIDTH`` last.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    f = p.ints[0]
    f = f[next(i for i, v in enumerate(f) if v):]  # strip roots at zero
    if len(f) < 2:
        return []
    sf = _primitive(_exact_quo(f, _poly_gcd(f, [i * v for i, v in enumerate(f)][1:])))
    roots = _isolate(sf)
    for x in roots:
        if isinstance(x, Fraction):
            sf = _exact_quo(sf, [-x.numerator, x.denominator])
    lead, rest = sf[-1], sf
    for i, x in enumerate(roots):
        if isinstance(x, tuple):
            x = _bisect(sf, *x, Fraction(1, 2 * lead * lead))
            if isinstance(x, tuple):
                r = ((x[0] + x[1]) / 2).limit_denominator(lead)
                # sf has one root in x; the candidate may be another one
                x = r if x[0] < r < x[1] and _sign_at(sf, *r.as_integer_ratio()) == 0 else x
            if isinstance(x, Fraction):
                rest = _exact_quo(rest, [-x.numerator, x.denominator])
            roots[i] = x
    poly = Poly.from_ints(rest)
    return [AlgebraicScalar(x) if isinstance(x, Fraction) else AlgebraicScalar(None, poly, *x).refine(ROOT_WIDTH)
            for x in roots]


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
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        self.root = root
        self.modulus_ints = _primitive(modulus.ints[0])
        self.modulus = Poly.from_ints(self.modulus_ints)

    def element(self, coeffs) -> "FieldElement":
        cs = coeffs.coeffs if isinstance(coeffs, Poly) else [parse_scalar(c) for c in coeffs]
        return self._reduce(*_int_numerators(cs))

    def _reduce(self, nums: list[int], den: int) -> "FieldElement":
        """nums/den with nums reduced by integer pseudo-division by the
        primitive modulus: s * nums = q * m + rem, and rem over den * s."""
        rem, s = _pseudo_rem(nums, self.modulus_ints)
        return FieldElement.lowest(self, rem, den * s)

    def gen(self) -> "FieldElement":
        return self.element(Poly.x())

    def zero(self) -> "FieldElement":
        return FieldElement(self, ())

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,))

    def __repr__(self):
        return f"NumberField({self.modulus}, root~{self.root.to_float():.6g})"


class FieldElement:
    """Element of a NumberField: sum(nums[i] * x**i) / den of degree
    < deg(modulus), int numerators (ascending, no trailing zero) over one
    positive int denominator, in lowest terms (Cohen, section 4.2).  ``rep``
    is the same polynomial with Fraction coefficients, built on first use."""

    __slots__ = ("field", "nums", "den", "_rep")

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int = 1):
        self.field = field
        self.nums = nums
        self.den = den
        self._rep = None

    @staticmethod
    def lowest(field: NumberField, nums: list[int], den: int) -> "FieldElement":
        while nums and not nums[-1]:
            nums.pop()
        g = _int_gcd(den, *nums)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        return FieldElement(field, tuple(nums), den)

    @property
    def rep(self) -> Poly:
        if self._rep is None:
            self._rep = Poly([Fraction(v, self.den) for v in self.nums])
        return self._rep

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, (other.numerator,) if other else (), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = _int_gcd(self.den, o.den)  # over the lcm of the denominators
        fa, fb = o.den // g, self.den // g
        out = [v * fa for v in self.nums] + [0] * (len(o.nums) - len(self.nums))
        for i, v in enumerate(o.nums):
            out[i] += v * fb
        return FieldElement.lowest(self.field, out, self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-v for v in self.nums), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.field._reduce(prod, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        out = self.field.one()
        for _ in range(abs(n)):
            out = out * self
        return out if n >= 0 else out.inverse()

    def inverse(self) -> "FieldElement":
        """Fraction-free (Bareiss) elimination on the integer matrix with
        columns lead**j * (nums * x**j mod m), singular iff gcd(rep, m) != 1,
        then back substitution for det * w, det the last pivot: its
        divisions are exact, since det * w is an integer vector (Cramer)."""
        if not self.nums:
            raise ZeroDivisionError("inverting zero field element")
        m = self.field.modulus_ints
        d, lead = len(m) - 1, m[-1]
        cols = [list(self.nums) + [0] * (d - len(self.nums))]
        while len(cols) < d:
            c = cols[-1]  # next: lead * x * c - top * m, of degree < d
            cols.append([lead * v - c[-1] * mi for v, mi in zip([0] + c[:-1], m)])
        a = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            piv = next((i for i in range(k, d) if a[i][k]), None)
            if piv is None:
                raise ZeroDivisor(f"{self.rep} is a zero divisor modulo {self.field.modulus}")
            a[k], a[piv] = a[piv], a[k]
            pivot, p = a[k], prev
            prev = pivot[k]
            for row in a[k + 1:]:
                f = row[k]
                row[k + 1:] = [(prev * v - f * u) // p for v, u in zip(row[k + 1:], pivot[k + 1:])]
        w = [0] * d
        for i in range(d - 1, -1, -1):
            w[i] = (prev * a[i][d] - sum(a[i][j] * w[j] for j in range(i + 1, d))) // a[i][i]
        s = self.den if prev > 0 else -self.den
        return FieldElement.lowest(self.field, [s * v * lead ** j for j, v in enumerate(w)], abs(prev))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((id(self.field), self.nums, self.den))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def is_zero(self) -> bool:
        return not self.nums

    def sign(self) -> int:
        """Exact sign of the element under the designated real embedding:
        by its integer interval enclosure first, by a gcd with the modulus
        once the enclosure contains 0, then by refining the interval."""
        nums = self.nums
        if len(nums) <= 1:  # a rational, over den > 0
            return (nums[0] > 0) - (nums[0] < 0) if nums else 0
        root = self.field.root
        gcd_checked = False
        while True:
            vlo, vhi, _ = _horner_enclosure(nums, self.den, *root.bounds())
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if root.is_rational:
                return 0  # the enclosure at a point is the value
            if not gcd_checked:
                # A nonzero representative vanishes at the root of a
                # reducible modulus iff its gcd g with the modulus does.  g
                # divides the square-free modulus: it has at most that one
                # simple root in the interval, so once neither end is a root
                # of g, it vanishes there iff its signs at the ends differ.
                g = _poly_gcd(nums, self.field.modulus_ints)
                ends = _sign_at(g, *root.lo.as_integer_ratio()) * _sign_at(g, *root.hi.as_integer_ratio())
                if ends < 0:
                    return 0
                gcd_checked = ends > 0
            root.refine(root.width() / 4)

    def to_float(self) -> float:
        """The midpoint of an enclosure of width at most ``DECIMAL_WIDTH``
        times min(1, |value|), once ``sign`` has ruled out an exact zero."""
        if self.sign() == 0:
            return 0.0
        root = self.field.root
        while True:
            vlo, vhi, s = _horner_enclosure(self.nums, self.den, *root.bounds())
            if (vhi - vlo) * DECIMAL_WIDTH.denominator <= DECIMAL_WIDTH.numerator * min(abs(vlo), abs(vhi), s):
                return (vlo + vhi) / (2 * s)
            root.refine(root.width() / 16)

    __float__ = to_float

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __repr__(self):
        return f"FieldElement({self.rep})"


def scalar_sign(x) -> int:
    if isinstance(x, FieldElement):
        return x.sign()
    if isinstance(x, AlgebraicScalar):
        if x.is_rational:
            return 1 if x.rational > 0 else (-1 if x.rational < 0 else 0)
        # isolating intervals of our roots never straddle zero
        return 1 if x.lo >= 0 else -1
    return 1 if x > 0 else (-1 if x < 0 else 0)


def all_nonzero(values) -> bool:
    """Whether no value is 0, deciding each distinct value once, in order."""
    return all(scalar_sign(x) != 0 for x in dict.fromkeys(values))


def scalar_eq(a, b) -> bool:
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        return a == b or scalar_sign(a - b) == 0
    return a == b


def residual(x, pairs):
    """x - sum(a * b for a, b in pairs), exactly: for x in a number field and a, b in it or rational,
    one integer sum of unreduced products over the lcm of denominators, reduced once; else the plain expression."""
    field = isinstance(x, FieldElement) and x.field
    ops = field and [v if type(v) is FieldElement and v.field is field else x._coerce(v) for p in pairs for v in p]
    if not ops or not all(ops):  # _coerce gives None for a float or another type
        return x - sum(a * b for a, b in pairs)
    out, den = list(x.nums), x.den
    for a, b in zip(ops[::2], ops[1::2]):
        d = a.den * b.den
        if (m := d // _int_gcd(den, d)) > 1:  # den becomes lcm(den, d)
            out, den = [v * m for v in out], den * m
        s = den // d
        out += [0] * (len(a.nums) + len(b.nums) - 1 - len(out))
        for i, u in enumerate(a.nums):
            for j, v in enumerate(b.nums, i):
                out[j] -= s * u * v
    return field._reduce(out, den)


def scalar_abs_leq(x, tol: Fraction) -> bool:
    if isinstance(x, float):
        return abs(x) <= float(tol)
    if isinstance(x, FieldElement) and len(x.nums) <= 1:
        x = Fraction(x.nums[0], x.den) if x.nums else 0
    return not abs(x) > tol


# ---------------------------------------------------------------------------
# Determinants and kernels
# ---------------------------------------------------------------------------

# Exponents p of Mersenne primes 2**p - 1, the moduli of ``charpoly`` and of
# ``kernel_basis_exact``.  The largest allows bounds of about 65,000 digits.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
)


def _mersenne_ladder(a: list[list[int]], power: int) -> list[int] | None:
    """The tabulated Mersenne primes, ascending, up to the first one above
    2 * H**power, where H = prod_i (ceil(||A_i||_2) + 1) is the row Hadamard
    bound of the integer matrix A; None when no tabulated prime is that large."""
    h = 1
    for row in a:
        s = sum(v * v for v in row)
        h *= isqrt(s - 1) + 2 if s else 1  # ceil(sqrt(s)) + 1
    ladder = []
    for e in _MERSENNE_EXPONENTS:
        ladder.append((1 << e) - 1)
        if ladder[-1] > 2 * h**power:
            return ladder
    return None


def charpoly(a: list[list]) -> list:
    """Coefficients, ascending, of det(t*I - A) for a square matrix A of
    ints, Fractions or elements of one number field, in that scalar type.

    A rational A is cleared of denominators: B = D*A is an integer matrix
    for D the lcm of the denominators, and chi_A has coefficient b_j / D**(n-j)
    at t**j, for b_j that of chi_B.  B is reduced modulo the smallest
    tabulated Mersenne prime p above twice its row Hadamard bound
    prod_i (ceil(||B_i||_2) + 1) (``_mersenne_ladder``).  Expanding
    det(t*I - B) by rows, b_j sums, over the sets S of n - j rows,
    determinants with rows B_i (i in S) and unit rows elsewhere, so
    Hadamard's inequality bounds |b_j| by that product and the symmetric
    residues modulo p are the b_j themselves; no step is probabilistic.  A
    rational A whose bound is beyond the table, and a number-field A, are
    reduced in their own arithmetic (``_hessenberg_charpoly``)."""
    n = len(a)
    if all(isinstance(x, (int, Fraction)) for row in a for x in row):
        d = lcm(*(x.denominator for row in a for x in row))
        b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
        ladder = _mersenne_ladder(b, 1)
        if ladder is not None:
            p = ladder[-1]
            half = p // 2
            chi = _hessenberg_charpoly([[v % p for v in row] for row in b], p)
            return [Fraction(v - p if v > half else v, d ** (n - j)) for j, v in enumerate(chi)]
    return _hessenberg_charpoly([[Fraction(x) if isinstance(x, int) else x for x in row] for row in a])


def _hessenberg_charpoly(h: list[list], p: int | None = None) -> list:
    """det(t*I - H) for ``h``, reduced in place exactly or, for entries in
    [0, p), modulo p.  H is brought to upper Hessenberg form by similarity
    transforms: a row swap with the matching column swap, and row i minus
    u times the pivot row with column i's multiple u added to the pivot
    column.  The characteristic polynomials P_m of the leading m x m blocks
    then follow from P_0 = 1 and
    P_{m+1} = (t - h_mm) P_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) P_i
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    2.2.9).  Exactly, each pivot is inverted once, so a zero divisor of a
    number-field ring raises ZeroDivisor."""
    n = len(h)
    one = h[0][0] * 0 + 1 if n else 1
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if not _is_zero(h[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            for row in h:
                row[r], row[piv] = row[piv], row[r]
        prow = h[r]
        inv = 1 / prow[c] if p is None else pow(prow[c], -1, p)
        # entries left of c are zero in every row from r on
        cols = [j for j in range(c, n) if not _is_zero(prow[j])]
        ops = []
        for i in range(r + 1, n):
            row = h[i]
            if not _is_zero(row[c]):
                if p is None:
                    u = row[c] * inv
                    for j in cols:
                        row[j] = row[j] - u * prow[j]
                else:
                    u = row[c] * inv % p
                    for j in cols:
                        row[j] = (row[j] - u * prow[j]) % p
                ops.append((i, u))
        if ops:
            # the row operations commute, and so do their inverse column operations
            for row in h:
                s = row[r] + sum(u * row[i] for i, u in ops)
                row[r] = s if p is None else s % p
    chars = [[one]]
    for m in range(n):
        nxt = [one * 0] + chars[m]
        for k, v in enumerate(chars[m]):
            nxt[k] -= h[m][m] * v
        t = one
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] if p is None else t * h[i + 1][i] % p
            if _is_zero(t):
                break
            f = h[i][m] * t
            if not _is_zero(f):
                for k, v in enumerate(chars[i]):
                    nxt[k] -= f * v
        chars.append(nxt if p is None else [v % p for v in nxt])
    return chars[n]


# The benchmark's traced runs wrap this name; it stays until they wrap charpoly.
det_bareiss_poly = charpoly


def kernel_basis_exact(rows) -> list[list]:
    """Basis of the right kernel of a matrix of exact scalars: for each free
    column c of the reduced row echelon form (RREF), the vector with 1 at c,
    0 at the other free columns and minus column c of the RREF at the pivots.

    A rational matrix A, rows cleared of denominators, is reduced modulo a
    prime p, each entry is rebuilt as the fraction r/s with |r|, s <=
    sqrt(p/2) congruent to it, and the basis is accepted once every vector v
    passes A*v = 0 in integers.  p is 2**61 - 1 and, if that fails, the top
    rung of ``_mersenne_ladder(A, 2)`` up to 2**127 - 1: the rungs between
    are skipped, as each failed rung costs a whole elimination.  It is then
    the RREF basis over Q: rank mod p is at most the rank over Q, so the free
    columns F_p mod p number at least dim ker_Q, and the |F_p| verified
    vectors are independent (each has a unit at its own free column), so
    |F_p| = dim ker_Q.  The vector of a free column c is zero at every pivot
    after c, so its check shows that column c depends on earlier columns
    over Q; hence F_p = F_Q.  The ladder ends at the first prime above
    2 * H**2: each RREF entry is a ratio of two minors of A, each at most H
    (Hadamard), so no nonzero minor vanishes modulo it and reconstruction is
    certain there.  Rational matrices the two primes do not settle, those
    whose bound is beyond the table and number-field matrices are eliminated
    in their own arithmetic."""
    if not rows:
        return []
    m = [[parse_scalar(x) if isinstance(x, (int, str)) else x for x in row] for row in rows]
    if all(isinstance(x, Fraction) for row in m for x in row):
        a = [_int_numerators(row)[0] for row in m]
        # beyond 2**127 - 1 the exact elimination is cheaper than a modular one
        ladder = [p for p in _mersenne_ladder(a, 2) or () if p.bit_length() <= 127]
        for p in ladder[:1] + ladder[1:][-1:]:
            basis = _kernel_mod(a, p)
            if basis is not None:
                return basis
    return _rref_kernel(m, lambda x: -x)


def _kernel_mod(a: list[list[int]], p: int) -> list[list[Fraction]] | None:
    """The RREF kernel basis of the integer matrix A from its RREF modulo p,
    or None unless every entry reconstructs and every vector v passes
    A*v = 0 exactly."""
    bound = isqrt(p // 2)
    basis = _rref_kernel([[v % p for v in row] for row in a], lambda x: _reconstruct(-x % p, p, bound), p)
    for vec in basis:
        if None in vec:
            return None
        support = [(j, v) for j, v in enumerate(_int_numerators(vec)[0]) if v]
        if any(sum(row[j] * v for j, v in support) for row in a):
            return None
    return basis


def _rref_kernel(m: list[list], neg, p: int | None = None) -> list[list]:
    """The kernel basis read off the RREF of ``m``, made in place exactly or,
    for entries in [0, p), modulo p; ``neg`` maps an entry x to the vector's
    -x.  The pivot row is scaled by one inverse, and the other rows are
    updated only in the columns where the pivot row is non-zero."""
    ncols = len(m[0])
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not _is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        inv = 1 / prow[c] if p is None else pow(prow[c], -1, p)
        # entries left of c are zero in every row from r on
        cols = [j for j in range(c, ncols) if not _is_zero(prow[j])]
        for j in cols:
            prow[j] = prow[j] * inv if p is None else prow[j] * inv % p
        for i, row in enumerate(m):
            if i != r and not _is_zero(row[c]):
                f = row[c]
                if p is None:
                    for j in cols:
                        row[j] = row[j] - f * prow[j]
                else:
                    for j in cols:
                        row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        if r + 1 == len(m):
            break
    zero = neg(m[0][0] * 0)
    one = zero + 1
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = neg(m[i][fc])
        basis.append(vec)
    return basis


def _reconstruct(u: int, p: int, bound: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= bound and r = s*u mod p, unique when
    2 * bound**2 < p, or None: Euclid on (p, u) up to a remainder <= bound."""
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound else None
