"""Orbit dynamics of the interval maps x -> -1/x - c with integer digits.

For a parameter alpha in (0, 1) the map sends [alpha-1, alpha] to itself,
choosing the unique integer digit that lands the image in [alpha-1, alpha).
Digits and orbit points are exact (rationals, or surds of one quadratic
field); the product of the inverse branches over the first k digits
(`branch_product`) inverts the first k steps.

Sign dictionary: a branch written as x -> T^k S x in matrix form corresponds
to digit c = -k in the digit form x -> -1/x - c; digits are reported in the
digit form throughout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from . import cfstrings as cfs
from . import words
from .bifurcation import qumterval_of
from .exactnum import E, Exact, Mobius, S, T, floor_exact, matrix_product

ZERO = Fraction(0)
_SLOW_MAX_STEPS = 10_000  # translations `slow_first_return` takes before giving up


def digit_of(alpha, x) -> int:
    """The digit c(x) = floor(-1/x + 1 - alpha) selecting the branch at x."""
    if x == 0:
        raise ZeroDivisionError("digit undefined at the fixed point 0")
    return floor_exact(-1 / x + 1 - alpha)


def k_step(alpha, x) -> tuple[Exact, int | None]:
    """One step of the map: (next point, digit).  The fixed point 0 maps to
    itself with no digit."""
    _check_in_interval(alpha, x)
    if x == 0:
        return ZERO, None
    c = digit_of(alpha, x)
    return -1 / x - c, c


def _check_in_interval(alpha, x) -> None:
    if not (alpha - 1 <= x <= alpha):
        raise ValueError(f"point {x} outside [alpha-1, alpha] for alpha={alpha}")


class OrbitRecord(namedtuple("OrbitRecord", "start points digits hit_zero")):
    """Exact orbit with its digits.  Once the orbit hits 0 it stays there
    and digits become None.  The level map of points[k] is the adjugate of
    `branch_product(digits[:k])`."""

    __slots__ = ()


_POINT_SCALE = 64  # the scale s of `rational_orbit` when it returns exact points


def rational_orbit(alpha: tuple[int, int], x: tuple[int, int], steps: int, shift: int | None = None):
    """(digits, levels, end) of a rational orbit, stepped in integers from
    the parameter alpha and the start x, each given as the pair (p, q) of
    p/q in lowest terms, q > 0: the digit of each step, then each point from
    the start on, exactly as a `Fraction` or, with `shift` = s, as its key
    floor(y 2^s), and the last point as the pair (a, b) of a/b in lowest
    terms, b > 0.  This is the orbit's one step; asked for keys, it makes no
    `Fraction` at all.

    With alpha = P/Q = k + F/Q (k = floor(alpha)) and the point x = a/b
    (b > 0), one division gives floor(-b 2^s / a) = f 2^s + T: f =
    floor(-1/x), and T = floor(t 2^s) for t = -1/x - f in [0, 1).  The
    digit floor(-1/x + 1 - alpha) is f - e with e = k - 1 when t >= F/Q and
    e = k otherwise, and the next point -1/x - (f - e) is t + e, in
    [alpha - 1, alpha), with numerator -b - (f - e) a over a (in lowest
    terms: that numerator is -b mod a, and gcd(b, a) = 1) and key T + e 2^s.
    With A = floor(2^s F/Q), T > A proves t > F/Q and T < A proves t < F/Q;
    only T = A, t within 2^-s of F/Q, takes the exact comparison of t = r/a
    with F/Q, for r = -b - f a.  So the digit is exact at any scale.  A step
    divides b 2^s by a, so its cost grows with s: the fit steps at the
    mass's scale, where the keys of two distinct points may tie, and orders
    such points by their itineraries (`natext._Itineraries`).  Exact points
    are stepped at s = `_POINT_SCALE`.

    The start is checked once, in integers: (P - Q) b <= a Q <= P b.  Every
    later point needs no check.  Once the orbit hits 0 it stays there, with
    digit None."""
    (P, Q), (a, b) = alpha, x
    if not ((P - Q) * b <= a * Q <= P * b):
        raise ValueError(f"point {Fraction(a, b)} outside [alpha-1, alpha] for alpha={Fraction(P, Q)}")
    k, F = divmod(P, Q)
    s = _POINT_SCALE if shift is None else shift
    one = 1 << s
    mask, A = one - 1, (F << s) // Q
    above, below = (k - 1) * one, k * one  # e 2^s of the key, for t >= F/Q and t < F/Q
    digits: list[int | None] = []
    levels: list = [Fraction(a, b) if shift is None else (a << s) // b]
    for _ in range(steps):
        if a == 0:
            digits.append(None)
            levels.append(levels[-1])
            continue
        T = (-b << s) // a
        f, T = T >> s, T & mask
        if T > A or T == A and ((-b - f * a) * Q >= F * a if a > 0 else (-b - f * a) * Q <= F * a):
            c, T = f - k + 1, T + above
        else:
            c, T = f - k, T + below
        r = -b - c * a
        a, b = (r, a) if a > 0 else (-r, -a)
        digits.append(c)
        levels.append(Fraction(a, b) if shift is None else T)
    return digits, levels, (a, b)


def orbit(alpha, x, steps: int) -> OrbitRecord:
    """The first `steps` iterates of x.  Rational parameters and points step
    in integers (`rational_orbit`); quadratic ones go through `k_step`.

    A start outside [alpha-1, alpha] raises ValueError: for rational inputs
    `rational_orbit` checks it once, in integers; for the others it is
    checked here, and `k_step` checks every point again."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if isinstance(alpha, (int, Fraction)) and isinstance(x, (int, Fraction)):
        digits, points, _ = rational_orbit((alpha.numerator, alpha.denominator), (x.numerator, x.denominator), steps)
        del points[0]
    else:
        _check_in_interval(alpha, x)
        points, digits = [], []
        cur = x
        for _ in range(steps):
            cur, c = k_step(alpha, cur)
            points.append(cur)
            digits.append(c)
    hit_zero = x == 0 or None in digits
    return OrbitRecord(x, (x, *points), tuple(digits), hit_zero)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


class MatchingCertificate(namedtuple("MatchingCertificate", "word M M_prime m0 m1")):
    """Digit-matrix products of the two endpoint orbits over a qumterval and
    the group identity tying them together."""

    __slots__ = ()

    def identity_holds(self) -> bool:
        return T * self.M == self.M_prime * S * (T**-1) * S


def expected_digits_low(S_rl: cfs.CFString) -> tuple[int, ...]:
    """Digit pattern of the alpha-1 orbit on a side-0 qumterval: blocks of
    (a_k - 1) twos followed by a three, closing with a_n twos."""
    a = S_rl[0::2]
    out: list[int] = []
    for ak in a[:-1]:
        out.extend([2] * (ak - 1))
        out.append(3)
    out.extend([2] * a[-1])
    return tuple(out)


def expected_digits_high(S_rl: cfs.CFString) -> tuple[int, ...]:
    """Digit pattern of the alpha orbit on a side-0 qumterval."""
    a = S_rl[0::2]
    return (-a[0] - 1,) + tuple(-ak - 2 for ak in a[1:])


def matching_matrices(w: str) -> MatchingCertificate:
    """The constant inverse-branch products M (orbit of alpha-1, m0 steps)
    and M' (orbit of alpha, m1 steps) attached to a word: the branches
    (0, -1, 1, c) over the word's digit pattern (`_word_pattern`).  The
    word's check, run-length string and digit counts are those of its
    qumterval (`qumterval_of`)."""
    q = qumterval_of(w)
    _, _, M, M_prime = _word_pattern(w)
    return MatchingCertificate(w, M, M_prime, q.m0, q.m1)


@lru_cache(maxsize=256)
def _word_pattern(w: str) -> tuple[tuple[int, ...], tuple[int, ...], Mobius, Mobius]:
    """(low, high, M, M'): the digits of the orbits of alpha - 1 (m0 steps)
    and of alpha (m1 steps) on the qumterval of w, the word's digit pattern
    (`expected_digits_low`, `_high`), and their inverse-branch products
    (`branch_product`), the certificate of `matching_matrices`.  A side-1
    word takes its mirror's, conjugated by x -> -x: the conjugation (alpha,
    x) -> (1 - alpha, -x) maps the orbit of alpha - 1 to that of 1 - alpha
    and negates every digit, so the patterns are the mirror's negated and
    swapped and the products E M'_mirror E and E M_mirror E."""
    q = qumterval_of(w)
    if q.m1 > q.m0:
        low, high, M, M_prime = _word_pattern(words.transpose(words.negate(w)))
        return tuple(-c for c in high), tuple(-c for c in low), E * M_prime * E, E * M * E
    low, high = expected_digits_low(q.S), expected_digits_high(q.S)
    return low, high, branch_product(low), branch_product(high)


def branch_product(digits) -> Mobius:
    """The product of the inverse branches (0, -1, 1, c) over `digits`, left
    to right (`matrix_product`); a run of equal digits enters as one power.

    It inverts the level map: over an orbit's first k digits it sends
    point k back to the start, and its adjugate (`Mobius.inverse`), the
    branches x -> -1/x - c composed in step order, sends the start to
    point k.  Over the word's digit pattern it is the certificate's M or
    M' (`_word_pattern`)."""
    return matrix_product(_branch_power(c, len(list(run))) for c, run in groupby(digits))


def _branch_power(c: int, k: int) -> tuple[int, int, int, int]:
    """The entries of the inverse branch (0, -1, 1, c) to the power k >= 1."""
    if k == 1:
        return 0, -1, 1, c
    m = Mobius(0, -1, 1, c) ** k
    return m.a, m.b, m.c, m.d


def verify_matching(w: str, alphas) -> dict:
    """Run both endpoint orbits at each parameter and check the exact orbit
    collision and the constancy of the digit-matrix products.  The orbits
    are stepped in integers to their digits and last points
    (`rational_orbit`), with no exact point on the way.  An orbit whose
    digits are the word's digit pattern (`_word_pattern`) has the pattern's
    product, so where that is the certificate's no product is taken; only
    other digits are multiplied out (`branch_product`).

    Parameters outside the qumterval are reported, never skipped silently,
    and no parameter at all is refused: nothing would have been checked.
    """
    cert = matching_matrices(w)
    q = qumterval_of(w)
    want_low, want_high, M, M_prime = _word_pattern(w)
    low_known, high_known = M == cert.M, M_prime == cert.M_prime
    results = []
    all_exact = True
    for alpha in alphas:
        alpha = Fraction(alpha)
        if alpha not in q:
            results.append({"alpha": alpha, "status": "outside"})
            all_exact = False
            continue
        P, Q = alpha.numerator, alpha.denominator
        low_digits, _, low_end = rational_orbit((P, Q), (P - Q, Q), cert.m0 + 1, _POINT_SCALE)
        high_digits, _, high_end = rational_orbit((P, Q), (P, Q), cert.m1 + 1, _POINT_SCALE)
        collision = low_end == high_end  # both in lowest terms
        low_digits, high_digits = low_digits[: cert.m0], high_digits[: cert.m1]
        constant = (
            None not in low_digits
            and None not in high_digits
            and (low_known and tuple(low_digits) == want_low or branch_product(low_digits) == cert.M)
            and (high_known and tuple(high_digits) == want_high or branch_product(high_digits) == cert.M_prime)
        )
        ok = collision and constant
        all_exact = all_exact and ok
        results.append(
            {
                "alpha": alpha,
                "status": "exact" if ok else "failed",
                "collision": collision,
                "matrices_constant": constant,
                "meet_point": Fraction(*low_end),
            }
        )
    if not results:
        raise ValueError("no parameter to check")
    return {
        "word": w,
        "M": cert.M,
        "M_prime": cert.M_prime,
        "m0": cert.m0,
        "m1": cert.m1,
        "identity_holds": cert.identity_holds(),
        "alphas_checked": results,
        "all_exact": all_exact,
    }


def rotation_orders(m0: int, m1: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The level orders of the endpoint orbits on the qumterval of a side-0
    word with m0 zeros and m1 ones: the indices of the alpha - 1 orbit (m0
    steps) and of the alpha orbit (m1 steps), levels ascending.

    Both are orders of a rotation's points, as for Sturmian orbits (compare
    the three-distance theorem; Sos 1958, Swierczkowski 1958).  The lower
    orbit's digits (`expected_digits_low`) are m0 - m1 + 1 twos and m1 - 1
    threes.  A digit c >= 2 puts its point below 0, where the digit does not
    decrease and each branch x -> -1/x - c increases: the twos are the
    lowest points before the matching point (index m0), the threes the
    highest, and each block keeps its order.  With the threes' images below
    the twos' (taken from the word's matching, not proved here), a two at
    rank r goes to rank r + m1 and a three to r - (m0 - m1), an exchange of
    two blocks: the rotation by m1 mod m0.  So index k < m0 has rank k m1
    mod m0, the order is v m1^-1 mod m0 for v < m0, then m0.  The upper
    orbit is the same with ranks counted down from alpha, a step moving a
    rank by m0 - m1 mod m1.  The fit checks every parameter's key order
    against these (`natext._Skeleton.fit`).  No sort: O(m0 + m1), and
    gcd(m0, m1) = 1 makes both inverses exist.
    """
    step = pow(m1, -1, m0)
    low = [v * step % m0 for v in range(m0)]
    step = pow(m0 - m1, -1, m1)
    high = [v * step % m1 for v in range(m1)]
    return (*low, m0), (m1, *reversed(high))


def orbit_order_extremes(w: str) -> tuple[int, int]:
    """(j0, j1): the iterate indices where the alpha-1 orbit is smallest and
    the alpha orbit is largest, the second entries of the rotation orders
    (`rotation_orders`) from either end."""
    if words.farey_side(w) != 0:
        raise ValueError("orbit order extremes are defined on side-0 words")
    q = qumterval_of(w)
    low, high = rotation_orders(q.m0, q.m1)
    return low[1], high[-2]


def symmetry_conjugate(alpha, x) -> tuple[Fraction, Exact]:
    """The measurable conjugation (alpha, x) -> (1 - alpha, -x); the countable
    exceptional set x = 1/(k - alpha) (floor-convention boundary) is refused."""
    alpha = Fraction(alpha)
    _check_in_interval(alpha, x)
    if x != 0:
        k = 1 / x + alpha
        if isinstance(k, Fraction) and k.denominator == 1:
            raise ValueError(f"exceptional point: x = 1/(k - alpha) with k = {k}")
    return 1 - alpha, -x


def slow_first_return(alpha, x) -> Exact:
    """First return to [alpha-1, alpha) of the slow map (translations by +-1
    around an inversion); equals one step of the fast map."""
    alpha = Fraction(alpha)
    _check_in_interval(alpha, x)
    if x == 0:
        return ZERO
    y = -1 / x
    for _ in range(_SLOW_MAX_STEPS):
        if alpha - 1 <= y < alpha:
            return y
        y = y - 1 if y >= alpha else y + 1
    raise ArithmeticError("translation budget exceeded (point too close to 0)")


def selftest() -> list[tuple[str, bool]]:
    checks = []
    half = Fraction(1, 2)
    nxt, c = k_step(half, half)
    checks.append(("step at 1/2", nxt == 0 and c == -2))
    cert = matching_matrices("01")
    checks.append(("certificate 01", T * cert.M == Mobius(1, 1, 1, 2) and cert.identity_holds()))
    rep = verify_matching("01", [Fraction(2, 5), half, Fraction(3, 5)])
    checks.append(("weak matching on 01", rep["all_exact"]))
    rep2 = verify_matching("001", [Fraction(1, 3)])
    checks.append(("weak matching on 001", rep2["all_exact"]))
    checks.append(("order extremes", orbit_order_extremes("00101") == (2, 1)))
    a, x = Fraction(1, 3), Fraction(1, 4)
    checks.append(
        ("reflection symmetry", k_step(a, x)[0] == -k_step(*symmetry_conjugate(a, x))[0])
    )
    checks.append(("slow map", slow_first_return(a, x) == k_step(a, x)[0]))
    return checks
