"""Exact arithmetic: big rationals, real quadratic surds, integer Mobius maps.

Values flow through the package as `fractions.Fraction` or `QuadSurd` and mix
freely in arithmetic and comparisons, always exactly.  A `QuadSurd` is
irrational by construction (rational results collapse to `Fraction` inside
`make_surd`), so cross-type equality is always False and ordering is decided
by integer sign computations, never by floating point.  Long products of
integer matrices are one balanced tree (`matrix_product`).  The module, which
every other one imports, also holds `Frozen`, the mixin that keeps the
package's records with a `__dict__` immutable.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath


class Infinity:
    """The point at infinity of the projective line (use the INF singleton)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = Infinity()


class Frozen:
    """Mixin of the package's immutable records (`collections.namedtuple`
    subclasses) that keep a `__dict__`, for a `functools.cached_property` or a
    companion outside the value: no attribute is set or deleted after
    construction.  A cached_property writes the `__dict__` directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


def _sgn(n) -> int:
    return (n > 0) - (n < 0)


def _decimal(n: int) -> str:
    """Decimal text of an integer of any size.

    Python refuses int -> str beyond `sys.get_int_max_str_digits()` digits
    (4300 by default), a guard meant for parsing untrusted input; exact
    output values can be longer, so the limit is lifted for this one
    conversion and put back.
    """
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12

    def coprime_fraction(n: int, d: int) -> Fraction:
        """n/d for coprime integers with d > 0, built without a gcd."""
        return Fraction._from_coprime_ints(n, d)

else:

    def coprime_fraction(n: int, d: int) -> Fraction:
        """n/d for coprime integers with d > 0, built without a gcd."""
        return Fraction(n, d, _normalize=False)


_FULL_FACTOR_BOUND = 4 * 10**12  # covers discriminants of qumtervals with q(S) <= 10^6
_PARTIAL_PRIME_BOUND = 2048  # square factors looked for at and above the bound


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i, flag in enumerate(sieve) if flag]


_PRIME_TABLES: tuple[list[int], list[int]] | None = None


def _prime_tables() -> tuple[list[int], list[int]]:
    """The primes below 16000 (16000**3 > _FULL_FACTOR_BOUND) and those below
    `_PARTIAL_PRIME_BOUND`: constant tables, built on first use and kept for
    the life of the process."""
    global _PRIME_TABLES
    if _PRIME_TABLES is None:
        primes = _primes_below(16000)
        _PRIME_TABLES = primes, [p for p in primes if p < _PARTIAL_PRIME_BOUND]
    return _PRIME_TABLES


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*d with d square-reduced (n >= 0); d = 1 exactly when n is a square.

    Below `_FULL_FACTOR_BOUND` d is the squarefree part of n: trial division
    by every prime p with p**3 <= the cofactor leaves a cofactor with at most
    two prime factors, which is a square or squarefree.  At and above the
    bound only the squares of primes below `_PARTIAL_PRIME_BOUND` and a
    square cofactor are extracted.  Nothing downstream relies on
    squarefreeness: d is always a non-square, which keeps floors and sign
    tests exact, and the same n always gives the same d.
    """
    if n == 0:
        return 1, 0
    full, small = _prime_tables()
    primes, power = (full, 3) if n < _FULL_FACTOR_BOUND else (small, 2)
    s = d = 1
    for p in primes:
        if p**power > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
    root = math.isqrt(n)
    if root * root == n:
        return s * root, d
    return s, d * n


def _sign_single(a: int, b: int, D: int) -> int:
    """Sign of a + b*sqrt(D) for integers with D >= 0 (D need not be squarefree)."""
    if b == 0 or D == 0:
        return _sgn(a)
    if a == 0:
        return _sgn(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    s = _sgn(a * a - b * b * D)
    if s == 0:
        return 0
    return _sgn(a) if s > 0 else _sgn(b)


def _sign_pair(B: int, d1: int, C: int, d2: int) -> int:
    """Sign of B*sqrt(d1) + C*sqrt(d2) for distinct non-square d1, d2 > 1."""
    if B == 0:
        return _sgn(C)
    if C == 0:
        return _sgn(B)
    if B > 0 and C > 0:
        return 1
    if B < 0 and C < 0:
        return -1
    t = B * B * d1 - C * C * d2
    if t == 0:  # same field met through square-divisible radicands
        return 0
    return _sgn(B) if t > 0 else _sgn(C)


def _sign_mixed(A: int, B: int, d1: int, C: int, d2: int) -> int:
    """Sign of A + B*sqrt(d1) + C*sqrt(d2), distinct non-square d1, d2 > 1."""
    sp = _sign_pair(B, d1, C, d2)
    if A == 0:
        return sp
    sA = _sgn(A)
    if sp == 0 or sp == sA:
        return sA
    # opposite signs: compare (B sqrt(d1) + C sqrt(d2))^2 against A^2
    T = B * B * d1 + C * C * d2 - A * A
    s = _sign_single(T, 2 * B * C, d1 * d2)
    return sp if s > 0 else sA if s < 0 else 0


def make_surd(p: int, q: int, r: int, d: int) -> Exact:
    """Normalized value (p + q*sqrt(d))/r; collapses to Fraction when rational.

    The radicand is reduced by `_squarefree_split`, so equal d always give
    the same reduced radicand and the text form is canonical per field: the
    radicand is squarefree below `_FULL_FACTOR_BOUND` and free of the squares
    of primes below `_PARTIAL_PRIME_BOUND` above it.
    """
    if r == 0:
        raise ZeroDivisionError("surd denominator is zero")
    if d < 0:
        raise ValueError("negative radicand: not a real quadratic value")
    if q == 0 or d == 0:
        return Fraction(p, r)
    if d == 1:
        return Fraction(p + q, r)
    s, d0 = _squarefree_split(d)
    q *= s
    if d0 == 1:
        return Fraction(p + q, r)
    return QuadSurd._reduced(p, q, r, d0)


_CF_MAX_DIGITS = 100_000  # digits `QuadSurd.cf_expansion` reads before giving up on a period


class QuadSurd:
    """Irrational element (p + q*sqrt(d))/r of a real quadratic field.

    Invariants: d > 1 and not a perfect square (squarefree below
    `_FULL_FACTOR_BOUND`, see `_squarefree_split`), q != 0, r > 0,
    gcd(p, q, r) = 1.  Build instances through `make_surd` or
    `from_quadratic`; ordering and equality are decided by value, never by
    representation.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if q == 0 or d <= 1 or r <= 0:
            raise ValueError("not a normalized irrational surd; use make_surd")
        self.p, self.q, self.r, self.d = p, q, r, d

    @classmethod
    def _reduced(cls, p: int, q: int, r: int, d: int) -> Exact:
        # d already reduced by _squarefree_split; q may be 0 after cancellations
        if q == 0:
            return Fraction(p, r)
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        return cls(p, q, r, d)

    @classmethod
    def from_quadratic(cls, A: int, B: int, C: int) -> Exact:
        """Root (-B + sqrt(B*B - 4*A*C)) / (2*A) of A x^2 + B x + C."""
        return make_surd(-B, 1, 2 * A, B * B - 4 * A * C)

    # -- arithmetic (exact, within one field) --------------------------------

    def _coerce(self, other) -> tuple[int, int, int] | None:
        """Return (p, q, r) of `other` over this surd's field, or None."""
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        if isinstance(other, QuadSurd):
            if other.d != self.d:
                raise ValueError("arithmetic across different quadratic fields")
            return other.p, other.q, other.r
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2, r2 = co
        return QuadSurd._reduced(
            self.p * r2 + p2 * self.r, self.q * r2 + q2 * self.r, self.r * r2, self.d
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2, r2 = co
        return QuadSurd._reduced(
            self.p * r2 - p2 * self.r, self.q * r2 - q2 * self.r, self.r * r2, self.d
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2, r2 = co
        return QuadSurd._reduced(
            self.p * p2 + self.q * q2 * self.d,
            self.p * q2 + self.q * p2,
            self.r * r2,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadSurd":
        n = self.p * self.p - self.q * self.q * self.d  # nonzero: value irrational
        return QuadSurd._reduced(self.r * self.p, -self.r * self.q, n, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadSurd):
            return self * other._inverse()
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return QuadSurd._reduced(
                self.p * other.denominator,
                self.q * other.denominator,
                self.r * other.numerator,
                self.d,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    # -- total order ---------------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return _sign_single(
                self.p * other.denominator - other.numerator * self.r,
                self.q * other.denominator,
                self.d,
            )
        if isinstance(other, QuadSurd):
            if other.d == self.d:
                return _sign_single(
                    self.p * other.r - other.p * self.r,
                    self.q * other.r - other.q * self.r,
                    self.d,
                )
            return _sign_mixed(
                self.p * other.r - other.p * self.r,
                self.q * other.r,
                self.d,
                -other.q * self.r,
                other.d,
            )
        raise TypeError(f"cannot compare QuadSurd with {type(other).__name__}")

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadSurd):
            if self.d == other.d:
                return (self.p, self.q, self.r) == (other.p, other.q, other.r)
            return self._cmp(other) == 0  # e.g. sqrt(8) against 2 sqrt(2)
        if isinstance(other, (int, Fraction)):
            return False  # a QuadSurd is irrational
        return NotImplemented

    def __hash__(self):
        # representation hash: values at or above _FULL_FACTOR_BOUND could in
        # principle compare equal across differently reduced radicands while
        # hashing apart; such pairs never share a container here
        return hash((self.p, self.q, self.r, self.d))

    # -- conversions ---------------------------------------------------------

    def to_mpf(self) -> mpmath.mpf:
        """Value at the current mpmath working precision."""
        root = mpmath.sqrt(mpmath.mpf(self.d))
        return (mpmath.mpf(self.p) + mpmath.mpf(self.q) * root) / mpmath.mpf(self.r)

    def __float__(self):
        with mpmath.workprec(80):
            return float(self.to_mpf())

    def __str__(self):
        sign = "+" if self.q >= 0 else "-"
        p, q, d, r = (_decimal(v) for v in (self.p, abs(self.q), self.d, self.r))
        return f"({p}{sign}{q}*sqrt({d}))/{r}"

    def __repr__(self):
        p, q, r, d = (_decimal(v) for v in (self.p, self.q, self.r, self.d))
        return f"QuadSurd({p}, {q}, {r}, {d})"

    def cf_expansion(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Continued fraction of a surd in (0, 1) as (preperiod, period) of [0; ...]."""
        if not (0 < self < 1):
            raise ValueError("cf_expansion expects a value in (0, 1)")
        x: QuadSurd = self
        seen: dict[tuple[int, int, int, int], int] = {}
        digits: list[int] = []
        while len(digits) < _CF_MAX_DIGITS:
            key = (x.p, x.q, x.r, x.d)
            if key in seen:
                i = seen[key]
                return tuple(digits[:i]), tuple(digits[i:])
            seen[key] = len(digits)
            y = 1 / x  # QuadSurd
            a = floor_exact(y)
            digits.append(a)
            x = y - a
        raise ArithmeticError("period not found (max_digits exceeded)")


Exact = int | Fraction | QuadSurd  # the values of the package


def floor_exact(x: Exact) -> int:
    """Greatest integer <= x, exact (integer square-root bracketing for surds)."""
    if isinstance(x, QuadSurd):
        n = x.q * x.q * x.d
        s = math.isqrt(n)
        # d > 1 is not a square and q != 0, so n is never a perfect square
        f = s if x.q > 0 else -(s + 1)
        return (x.p + f) // x.r
    return math.floor(x)


class Mobius:
    """Integer 2x2 matrix [[a, b], [c, d]] acting on the projective line.

    Determinant must be +1 or -1; equality and hashing are projective
    (up to a global sign).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c not in (1, -1):
            raise ValueError("Mobius matrices here must have determinant +/-1")
        self.a, self.b, self.c, self.d = a, b, c, d

    def normalized(self) -> tuple[int, int, int, int]:
        t = (self.a, self.b, self.c, self.d)
        for entry in t:
            if entry:
                return t if entry > 0 else tuple(-e for e in t)
        raise ArithmeticError("zero matrix")

    def __mul__(self, other: "Mobius") -> "Mobius":
        if not isinstance(other, Mobius):
            return NotImplemented
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        # adjugate; projectively the inverse since det = +/-1
        return Mobius(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Mobius":
        if n < 0:
            return self.inverse() ** (-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Mobius):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def __repr__(self):
        return f"Mobius({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mobius(1, 0, 0, 1)
S = Mobius(0, -1, 1, 0)  # x -> -1/x
T = Mobius(1, 1, 0, 1)  # x -> x + 1
E = Mobius(1, 0, 0, -1)  # x -> -x (conjugates the reflection symmetry)


def mobius_apply(m: Mobius, x: Exact | Infinity):
    """Projective action of m; total on the extended line (INF handled)."""
    if isinstance(x, Infinity):
        return INF if m.c == 0 else Fraction(m.a, m.c)
    if isinstance(x, QuadSurd):
        # (u + v sqrt d)/(s + t sqrt d) over the common r, times the conjugate:
        # one reduction; the image of an irrational is irrational, never INF
        p, q, r, d = x.p, x.q, x.r, x.d
        u, v, s, t = m.a * p + m.b * r, m.a * q, m.c * p + m.d * r, m.c * q
        return QuadSurd._reduced(u * s - v * t * d, v * s - u * t, s * s - t * t * d, d)
    num = m.a * x + m.b
    den = m.c * x + m.d
    if den == 0:
        return INF
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def matrix_product(entries) -> Mobius:
    """Product of the integer matrices (a, b, c, d) of `entries`, left to
    right; IDENTITY when empty.

    Neighbours are multiplied pairwise as a balanced tree, so long products
    cost a few products of large entries instead of one big-integer
    determinant check per factor.
    """
    level = list(entries)
    if not level:
        return IDENTITY
    while len(level) > 1:
        paired = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in zip(level[::2], level[1::2])
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return Mobius(*level[0])


def digits_matrix(digits) -> Mobius:
    """Product of the digit matrices [[0, 1], [1, a]] of `digits`, left to
    right (`matrix_product`)."""
    return matrix_product((0, 1, 1, a) for a in digits)


def surd_from_periodic_cf(pre: tuple[int, ...], period: tuple[int, ...]) -> Exact:
    """Value [0; pre, period, period, ...] with all digits >= 1.

    The repeating tail is the attracting fixed point in (0, 1) of the
    period's digit-matrix product; the preperiod is then applied exactly, as
    the one Mobius map of its digit-matrix product.
    """
    if not period:
        raise ValueError("period must be nonempty")
    if any(a < 1 for a in period) or any(a < 1 for a in pre):
        raise ValueError("continued-fraction digits must be positive")
    m = digits_matrix(period)
    # fixed point: c y^2 + (d - a) y - b = 0, positive root (unique: b, c >= 1)
    y = QuadSurd.from_quadratic(m.c, m.d - m.a, -m.b)
    return mobius_apply(digits_matrix(pre), y) if pre else y


def _scaled(values, scale: int) -> list[int]:
    """Each exact value times 2^scale, rounded down: n/m as (n << scale) // m
    and a surd (p + q sqrt d)/r as ((p << scale) + q isqrt(d << 2 scale)) // r,
    within |q|/r + 1 units, with one isqrt per field."""
    roots: dict[int, int] = {}
    out = []
    for v in values:
        if isinstance(v, QuadSurd):
            root = roots.get(v.d)
            if root is None:
                root = roots[v.d] = math.isqrt(v.d << 2 * scale)
            out.append(((v.p << scale) + v.q * root) // v.r)
        else:
            out.append((v.numerator << scale) // v.denominator)
    return out


def _slack(values) -> int:
    """A whole number of units that bounds, strictly, the rounding of
    `_scaled` over `values` at any scale: ceil(|q|/r) + 1 for a surd, 1 for
    a rational."""
    return max((-(-abs(v.q) // v.r) + 1 if isinstance(v, QuadSurd) else 1 for v in values), default=1)


def format_exact(x: Exact | Infinity) -> str:
    """Canonical text: "p/q" for rationals, "(p+q*sqrt(d))/r" for surds."""
    if isinstance(x, Infinity):
        return "inf"
    if isinstance(x, QuadSurd):
        return str(x)
    x = Fraction(x)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def to_mpf(x: Exact) -> mpmath.mpf:
    """Exact value rounded once at the current mpmath working precision."""
    if isinstance(x, QuadSurd):
        return x.to_mpf()
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or a plain integer/decimal string into a Fraction."""
    num, slash, den = text.strip().partition("/")
    if not slash:
        return Fraction(num)
    if int(den) == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(int(num), int(den))


def selftest() -> list[tuple[str, bool]]:
    """Small invariant suite (used by the CLI --selftest flags)."""
    checks = []
    g = make_surd(-1, 1, 2, 5)
    checks.append(("golden mean from sqrt(5)", 0 < g < 1 and g * g + g == 1))
    checks.append(("periodic cf (2,1)", surd_from_periodic_cf((), (2, 1)) == make_surd(-1, 1, 2, 3)))
    checks.append(("periodic cf (3),(1,2)", surd_from_periodic_cf((3,), (1, 2)) == make_surd(2, -1, 1, 3)))
    checks.append(("floor of -g", floor_exact(-g) == -1))
    m = Mobius(1, 1, 1, 2)
    checks.append(("projective equality", m == Mobius(-1, -1, -1, -2)))
    checks.append(("mobius inverse", m * m.inverse() == IDENTITY))
    return checks
