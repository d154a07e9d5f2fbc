"""Exact arithmetic: big rationals, real quadratic surds, integer Mobius maps.

Values flow through the package as `fractions.Fraction` or `QuadSurd` and mix
freely in arithmetic and comparisons, always exactly.  A `QuadSurd` is
irrational by construction (rational results collapse to `Fraction` inside
`make_surd`), so cross-type equality is always False and ordering is decided
by integer sign computations, never by floating point.  Long products of
integer matrices are one balanced tree (`matrix_product`).  The module, which
every other one imports, also holds `Frozen`, the mixin that keeps the
package's records with a `__dict__` immutable, and the package's one float
system: mpmath's raw (sign, man, exp, bc) tuples, rounded in integers as
mpmath rounds them, with a correctly rounded log (`raw_log`), pi^2
(`pi_squared`), the nearest double (`raw_float`) and mpmath's decimal
printing (`decimal_text`).  mpmath computes none of the package's floats:
`raw_mpf`, its one import, only wraps a result for library callers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache


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

    def __float__(self):
        return raw_float(to_raw(self, 80))

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


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or a plain integer/decimal string into a Fraction; text
    that is not one is refused naming it as given.  Python's limit on the
    digits of an integer names itself, without the text."""
    num, slash, den = text.strip().partition("/")
    if not slash:
        try:
            return Fraction(num)
        except ValueError as exc:
            if not str(exc).startswith("Invalid literal"):
                raise
            raise ValueError(f"{text!r} is not a fraction p/q, an integer or a decimal") from None
    try:
        num, den = int(num), int(den)
    except ValueError as exc:
        if not str(exc).startswith("invalid literal"):
            raise
        raise ValueError(f"{text!r} is not a fraction p/q of two integers") from None
    if den == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# binary floats in integers
# ---------------------------------------------------------------------------
#
# A raw float is mpmath's tuple (sign, man, exp, bc): the value
# (-1)^sign man 2^exp with man odd, or ZERO, and bc the bit length of man.
# Each operation below is exact and then rounded once, as its `mpmath.libmp`
# namesake rounds, so a raw float is the `_mpf_` of the mpf that mpmath would
# compute, wraps into it (`raw_mpf`) and prints as mpmath prints it
# (`decimal_text`), and the printed floats of a CLI call need no mpmath.
# The operations work on pairs (m, e) of a signed mantissa and an exponent,
# with one rounding to nearest (`_near`), one directed truncation (`_cut`)
# and one quotient (`_quotient`); the raw_* functions wrap them, and a
# caller that chains operations (the entropy's float tail) keeps the pairs
# and makes raw floats of its results.

Raw = tuple  # (sign, man, exp, bc)
ZERO = (0, 0, 0, 0)
ONE = (0, 1, 0, 1)


def _near(m: int, e: int, prec: int) -> tuple[int, int]:
    """m 2^e rounded to nearest at `prec` bits, ties to even, as a pair
    (m, e) of a signed mantissa and an exponent, not normalized: the one
    rounding to nearest of the raw floats (`_round`, `raw_add`, `raw_mul`,
    `raw_div`, and the float tail of `natext`).  A carry may leave the
    mantissa at 2^prec."""
    a = -m if m < 0 else m
    excess = a.bit_length() - prec
    if excess <= 0:
        return m, e
    t = a >> (excess - 1)  # the kept bits and the rounding bit
    if t & 1 and (t & 2 or t << (excess - 1) != a):  # above half, or half and odd
        t += 2
    return (-(t >> 1) if m < 0 else t >> 1), e + excess


def _raw(m: int, e: int) -> Raw:
    """The raw float of m 2^e: its sign, its trailing zero bits stripped
    (mpmath's `normalize`)."""
    a = -m if m < 0 else m
    if not a & 1:
        if not a:
            return ZERO
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        e += zeros
    return int(m < 0), a, e, a.bit_length()


def _cut(m: int, e: int, prec: int, mode: str) -> tuple[int, int]:
    """m 2^e, m >= 0, cut to `prec` bits toward zero ("d") or away from
    zero ("u"), as a pair (m, e), not normalized: the one directed
    truncation of the raw floats (`_round`, `_pow10`).  Rounding up may
    leave the mantissa at 2^prec."""
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    return (m >> excess if mode == "d" else -(-m >> excess)), e + excess


def _round(sign: int, man: int, exp: int, prec: int, mode: str = "n") -> Raw:
    """(-1)^sign man 2^exp, man >= 0, rounded to `prec` bits: to nearest
    with ties to even ("n", `_near`), toward zero ("d") or away from zero
    ("u", `_cut`), as a raw float (`_raw`)."""
    man, exp = _near(man, exp, prec) if mode == "n" else _cut(man, exp, prec, mode)
    return _raw(-man if sign else man, exp)


def _quotient(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """xm 2^xe / ym 2^ye, not yet rounded: a signed quotient of at least
    prec + 4 bits with a sticky last bit for a nonzero remainder, which
    every rounding at `prec` bits reads as the exact quotient."""
    if not ym:
        raise ZeroDivisionError("division by a zero raw float")
    xa, ya = -xm if xm < 0 else xm, -ym if ym < 0 else ym
    extra = prec - xa.bit_length() + ya.bit_length() + 5
    if extra < 5:
        extra = 5
    q, r = divmod(xa << extra, ya)
    if r:
        q, extra = (q << 1) | 1, extra + 1
    return (-q if (xm < 0) != (ym < 0) else q), xe - ye - extra


def _signed(x: Raw) -> int:
    """The signed mantissa of a raw float."""
    return -x[1] if x[0] else x[1]


def raw_int(n: int, prec: int = 0) -> Raw:
    """The integer n, rounded to nearest at `prec` bits, or exact for prec 0."""
    return _raw(*_near(n, 0, prec)) if prec else _raw(n, 0)


def raw_shift(x: Raw, n: int) -> Raw:
    """x 2^n, exact."""
    return (x[0], x[1], x[2] + n, x[3]) if x[1] else x


def raw_neg(x: Raw) -> Raw:
    """-x, exact."""
    return (1 - x[0], *x[1:]) if x[1] else x


def raw_add(x: Raw, y: Raw, prec: int) -> Raw:
    """x + y rounded to nearest at `prec` bits: the exact sum, then `_near`."""
    e = min(x[2], y[2])
    return _raw(*_near((_signed(x) << (x[2] - e)) + (_signed(y) << (y[2] - e)), e, prec))


def raw_mul(x: Raw, y: Raw, prec: int) -> Raw:
    """x y rounded to nearest at `prec` bits: the exact product, then `_near`."""
    return _raw(*_near(_signed(x) * _signed(y), x[2] + y[2], prec))


def raw_div(x: Raw, y: Raw, prec: int, mode: str = "n") -> Raw:
    """x / y rounded at `prec` bits, in `_round`'s modes: `_quotient`, then `_round`."""
    q, e = _quotient(_signed(x), x[2], _signed(y), y[2], prec)
    return _round(int(q < 0), abs(q), e, prec, mode)


def raw_sqrt(x: Raw, prec: int) -> Raw:
    """sqrt x of x >= 0 rounded to nearest at `prec` bits: an integer root
    of at least prec + 2 bits and a sticky bit (mpmath's `mpf_sqrt`)."""
    _, man, exp, bc = x
    if not man:
        return x
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    elif man == 1:
        return _round(0, 1, exp // 2, prec)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    root = math.isqrt(man << shift)
    if root * root != man << shift:
        root, shift = (root << 1) | 1, shift + 2
    return _round(0, root, (exp - shift) // 2, prec)


def to_raw(x: Exact, prec: int) -> Raw:
    """An exact value as a raw float at `prec` bits, each step rounded to
    nearest in the order of mpmath's mpf expressions: n/m as
    mpf(n) / mpf(m), and (p + q sqrt d)/r as (mpf(p) + mpf(q) sqrt(mpf(d))) / mpf(r)."""
    if isinstance(x, QuadSurd):
        p, q, r, d = (raw_int(v, prec) for v in (x.p, x.q, x.r, x.d))
        return raw_div(raw_add(p, raw_mul(q, raw_sqrt(d, prec), prec), prec), r, prec)
    if isinstance(x, Fraction):
        return raw_div(raw_int(x.numerator, prec), raw_int(x.denominator, prec), prec)
    return raw_int(x, prec)


def raw_float(x: Raw) -> float:
    """The double of a raw float, as mpmath's `to_float` makes it: rounded
    to nearest at 53 bits (`_near`), then `math.ldexp`, and +-inf past the
    largest double."""
    m, e = _near(_signed(x), x[2], 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return -math.inf if m < 0 else math.inf


def raw_mpf(x: Raw):
    """The mpmath.mpf of a raw float, for library callers of mpf results:
    the package's one import of mpmath, which computes nothing here."""
    import mpmath

    return mpmath.mp.make_mpf(x)


def _atanh_fixed(num: int, den: int, wp: int) -> tuple[int, int]:
    """(S, E): atanh(num/den) 2^wp within E units, for 0 <= num/den <= 1/3.

    The first term z is rounded to nearest (1/2 unit, at most 0.57 after
    atanh' <= 9/8); the powers z^(4i+1) step by a truncated z^4 and stay
    within 1.5 units; the terms z^(4i+1)/(4i+1) and z^(4i+3)/(4i+3) (the
    latter summed, then times z^2) are truncated, so each of the N terms
    costs at most 1 unit plus 1.5/(2j+1), at most N + 12 in all, and the
    tail after the first zero power less than 1 unit: E = N + 14."""
    z = ((num << (wp + 1)) // den + 1) >> 1
    z2 = z * z >> wp
    z4 = z2 * z2 >> wp
    odd, rest = z, z // 3
    t = z * z4 >> wp
    k = 5
    while t:
        odd += t // k
        rest += t // (k + 2)
        t = t * z4 >> wp
        k += 4
    return odd + (rest * z2 >> wp), k // 2 + 14


def _atan_inv_fixed(m: int, wp: int) -> tuple[int, int]:
    """(S, E): atan(1/m) 2^wp within E units, for m >= 2: each of the N
    truncated powers within 1.34 units, each term within 2, the
    alternating tail within 1; E = 2 N + 3."""
    t = s = (1 << wp) // m
    k, m2 = 1, m * m
    while t:
        t //= m2
        k += 2
        s += -(t // k) if k & 2 else t // k
    return s, k + 2


def _ln_fixed(wp: int, p: int, q: int) -> tuple[int, int]:
    """ln(p/q) = 2 atanh((p - q)/(p + q)) for 1/2 <= p/q <= 2, scaled by
    2^wp, within the second entry (`_atanh_fixed`)."""
    s, e = _atanh_fixed(abs(p - q), p + q, wp)
    return (2 * s if p > q else -2 * s), 2 * e


def _ln10_fixed(wp: int) -> tuple[int, int]:
    """ln 10 = 3 ln 2 + ln(5/4)."""
    l2, e2 = _ln_fixed(wp, 2, 1)
    l5, e5 = _ln_fixed(wp, 5, 4)
    return 3 * l2 + l5, 3 * e2 + e5


def _pi_fixed(wp: int) -> tuple[int, int]:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin)."""
    a, ea = _atan_inv_fixed(5, wp)
    b, eb = _atan_inv_fixed(239, wp)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


@lru_cache(maxsize=1024)
def _floor_const(fixed, wp: int, *args) -> int:
    """floor(c 2^wp) of a constant c that is not dyadic, from `fixed`
    ((p, *args) -> (V, E) with |V - c 2^p| <= E): guard bits double until
    V - E and V + E have one floor (Ziv's test), as mpmath floors its
    constants.  Cached per precision."""
    guard = 16
    while True:
        v, e = fixed(wp + guard, *args)
        lo = (v - e) >> guard
        if lo == (v + e) >> guard:
            return lo
        guard *= 2


_LOG_GUARD = 24  # guard bits of `raw_log` past the result's leading bit
_LOG_GRID = 9  # ln c is cached for the multiples c of 2^-_LOG_GRID in [45/64, 90/64]
_LOG_ONE = 1 << _LOG_GRID


def _log_parts(man: int, exp: int) -> tuple[int, int, int, int]:
    """(k, c, num, den) of x = man 2^exp > 0, man not necessarily odd:
    x = 2^k y with y in [45/64, 90/64), c 2^-g, g = `_LOG_GRID`, the
    nearest multiple of 2^-g to y and z = num/den = (y - c 2^-g)/(y + c
    2^-g), |z| < 2^-(g+1), so log x = k ln 2 + ln(c 2^-g) + 2 atanh(z)."""
    bc = man.bit_length()
    k, s = exp + bc, bc  # x = 2^k man/2^s, man/2^s in [1/2, 1)
    if (man >> (bc - 6) if bc > 6 else man << (6 - bc)) < 45:
        k, s = k - 1, s - 1
    c = ((man << (_LOG_GRID + 1) >> s) + 1) >> 1
    return k, c, (man << _LOG_GRID) - (c << s), (man << _LOG_GRID) + (c << s)


def _log_fixed(parts: tuple[int, int, int, int], wp: int) -> tuple[int, int]:
    """(R, E): log x 2^wp within E units, from `_log_parts` of x: the
    series within N + 14 units, doubled (`_atanh_fixed`), ln 2 floored
    (within 1 unit, times |k|) and ln(c 2^-g) floored (within 1 unit), both
    cached per precision (`_floor_const`): E = 2 (N + 14) + |k| + 1."""
    k, c, num, den = parts
    S, E = _atanh_fixed(abs(num), den, wp)
    R = 2 * S if num >= 0 else -2 * S
    if k:
        R += k * _floor_const(_ln_fixed, wp, 2, 1)
    if c != _LOG_ONE:
        R += _floor_const(_ln_fixed, wp, c, _LOG_ONE)
    return R, 2 * E + abs(k) + 1


def _log(man: int, exp: int, prec: int) -> tuple[int, int]:
    """log x of x = man 2^exp > 0, correctly rounded to nearest at `prec`
    bits, as a normalized pair (m, e) (mpmath's `mpf_log` rounds the same
    on every input tried); man need not be odd.

    The sum R of `_log_fixed` at the scale 2^wp, wp `_LOG_GUARD` bits past
    prec and the result's leading bit, is within E units of log x 2^wp.
    Ziv's test: when R - E and R + E round alike, so does log x; else wp
    grows by half and the sum is redone.  log x of x != 1 is
    transcendental, never a rounding midpoint, so the loop ends."""
    parts = k, c, num, den = _log_parts(man, exp)
    # |log x| >= 2^-2 for k != 0, >= 2^-(g+2) for c != 2^g, else >= 2 |z|
    if k:
        lead = max(4, abs(k).bit_length())
    elif c != _LOG_ONE:
        lead = _LOG_GRID + 2
    elif num:
        lead = den.bit_length() - abs(num).bit_length()
    else:
        return 0, 0  # x = 1
    wp = prec + _LOG_GUARD + lead
    while True:
        R, E = _log_fixed(parts, wp)
        r = abs(R)
        size = r.bit_length()
        n = size - prec
        half = 1 << (n - 1)
        m = (r - E + half) >> n
        if m == (r + E + half) >> n and (r - E).bit_length() == size:
            zeros = (m & -m).bit_length() - 1
            m >>= zeros
            return (-m if R < 0 else m), n - wp + zeros
        wp += wp // 2


def raw_log(x: Raw, prec: int) -> Raw:
    """log x of a positive raw float, correctly rounded to nearest at
    `prec` bits (`_log`)."""
    sign, man, exp, _ = x
    if sign or not man:
        raise ValueError("log of a value <= 0")
    return _raw(*_log(man, exp, prec))


@lru_cache(maxsize=32)
def pi_squared(prec: int) -> Raw:
    """pi^2 at `prec` bits: pi from its floor at prec + 20 bits rounded to
    nearest (mpmath's `mpf_pi`), then squared and rounded to nearest."""
    _, man, exp, _ = _round(0, _floor_const(_pi_fixed, prec + 20), -(prec + 20), prec)
    return _round(0, man * man, 2 * exp, prec)


def _pow10(n: int, prec: int, mode: str) -> Raw:
    """10^n at `prec` bits, rounded toward zero ("d") or away ("u"), step
    for step as mpmath's `mpf_pow_int`: exact below 334, else squarings
    truncated (or raised) to prec + 4 bitlen(n) + 4 bits."""
    if n < 0:
        return raw_div(ONE, _pow10(-n, prec + 5, "u" if mode == "d" else "d"), prec, mode)
    if 3 * n < 1000:
        return _round(0, 5**n, n, prec, mode)
    work = prec + 4 * n.bit_length() + 4
    pm, pe, man, exp = 1, 0, 5, 1
    while True:
        if n & 1:
            pm, pe = _cut(pm * man, pe + exp, work, mode)
            n -= 1
            if not n:
                return _round(0, pm, pe, prec, mode)
        man, exp = _cut(man * man, 2 * exp, work, mode)
        n //= 2


def _decimal_digits(man: int, exp: int, bc: int, dps: int) -> tuple[str, int]:
    """(digits, exponent) of man 2^exp > 0, truncated to about `dps`
    digits (mpmath's `to_digits_exp`): a value beyond 2^±3500 is first
    divided by a power of ten, both rounded toward zero as mpmath does."""
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + bc) > 3500:
        expprec = abs(exp).bit_length() + 5
        ln2, ln10 = (
            _round(0, _floor_const(fixed, expprec + 20, *args), -(expprec + 20), expprec, "d")
            for fixed, *args in ((_ln_fixed, 2, 1), (_ln10_fixed,))
        )
        m = abs(exp) * ln2[1]
        _, m, e, _ = raw_div(_round(int(exp < 0), m, ln2[2], m.bit_length()), ln10, expprec, "d")
        exponent = (m << e if e >= 0 else m >> -e) * (-1 if exp < 0 else 1)
        _, man, exp, bc = raw_div((0, man, exp, bc), _pow10(exponent, bitprec, "d"), bitprec, "d")
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = _decimal(fixed * 10**fixdps >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1


def decimal_text(x: Raw, dps: int, strip_zeros: bool = True) -> str:
    """A raw float as `mpmath.nstr(mpf, dps, strip_zeros=...)` prints it,
    byte for byte, for dps >= 1: its first dps + 3 digits truncated
    (`_decimal_digits`), rounded at digit dps (a run of 9s carries into
    the exponent); fixed notation while the leading digit's exponent lies
    strictly between min(-(dps // 3), -5) and dps, else "d.ddd" and an
    exponent ("e+7", "e-36").  An exact 0 prints as "0.0"."""
    sign, man, exp, bc = x
    if not man:
        return "0.0"
    digits, exponent = _decimal_digits(man, exp, bc, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = digits[:split] + "." + digits[split:]
    if strip_zeros:
        digits = digits.rstrip("0")
        if digits.endswith("."):
            digits += "0"
    text = "-" + digits if sign else digits
    if not exponent:
        return text
    return f"{text}e{'+' if exponent > 0 else ''}{exponent}"


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
