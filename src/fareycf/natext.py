"""Natural-extension attractors and the entropy function.

For a rational parameter inside a qumterval the planar natural extension has
an attractor made of finitely many axis-parallel rectangles.  Horizontal
levels are the exact endpoint orbits up to the matching time; the vertical
lines come from pushing the two corner abscissae (quadratic surds fixed by
the qumterval) through the extension map.  Every seam between consecutive
boundary segments is checked exactly; only the final mass integrals
(closed-form logs of the invariant density) are floating, at a configurable
precision with a stated error bound.  The mass is integer arithmetic up to
its one log: the boundary product is taken in Python integers at a binary
scale `_GUARD` bits finer than that precision.

The exact pass is integer arithmetic throughout, and a sample makes no
exact level: the endpoint orbits step in integers to their digits and the
order keys of their points (`kdynamics.rational_orbit`), each abscissa push
is the classical surd recurrence, linear in the size of its numbers, on
integer pairs over one Q in one field (`_abscissae`), so every seam and the
closure compare integers, the empty-rectangle test and the check that every
segment end lies in (-1, 1) (so the attractor lies in the open square
(-1, 1)^2, off the density's poles) are decided on the integers of the mass
with a proved margin, exactly only where the margin cannot decide, and the
rectangles come from one merge of the two level-sorted boundaries.  What
depends on the qumterval alone is one `_Skeleton`, built from its word
(`_skeleton`): the digits of the word's block pattern, the rotation order
of each orbit (`kdynamics.rotation_orders`) and one end of each boundary
segment (both pushed, every seam and the closure checked, then each
staircase corner kept once as an integer pair, made exact only where
read); it checks the square once per scale.  Every parameter takes one
path to it, the skeleton's fit of its endpoint orbits, stepped once
(`kdynamics.rational_orbit`), which refuses orbits whose digits or level
order differ from the skeleton's and checks that no rectangle is empty as
it merges the staircase, and returns one byte per rectangle, the side of
its top level.  A sample fits the orbits' order keys (`_fitted`) and
counts the bytes; `build_attractor` fits their exact points, the only
exact levels made, and replays the bytes over them into its rectangles
(`_steps`).  An error message names a level by its orbit index.

The entropy then follows from the identity  h * area = pi^2 / 3  where
"area" is the mass of the attractor under dx dy / (1 + x y)^2.  That mass has
one path: it builds no rectangles and integrates along the two staircase
boundaries, one log of a product of boundary factors per parameter.  Each
level is an integer, its order key floor(y 2^W) at the mass's scale W,
which is the level rounded for its boundary factors; the orbits step at W
alone.  Keys that differ order their levels, since the floor is monotone.
Keys that tie are ordered by the two points' itineraries (`_Itineraries`):
each branch is increasing and the digits' cylinders lie in order, so the
first offset where the keys or the digits differ decides, and the two
points are compared exactly only where an itinerary runs out.  The order
check and the merge compare integers only, never two exact levels, and a
sample with no tie makes no itinerary.  One helper builds the factors and
multiplies them as it forms them (`_Skeleton.product`), for the entropy
(`_sample_mass`) and the band masses of `measure_interval` (the same
product over the fit's keys clamped into the band) alike.  `entropy_at`,
`entropy_curve`, `qumterval_slope` and `probe asymptotic` share one sample
loop (`_entropy_run`).  It carries each parameter p/q as its integer pair
(p, q) through the reflection above 1/2 and both orbit starts, (p - q, q)
and (p, q), so a sample makes no `Fraction`; it binds once per qumterval
the skeleton and the word's labels with its mirror's, keeps them for the
length of the call, and takes pi^2 once.  An attractor keeps the skeleton
it was built from, and its mass is the entropy's, taken once per precision
and kept on it (`_raw_mass`), which the density and the measure divide by.
The sum of the rectangles' closed-form masses is only the tests' oracle.

The float tail of a sample is a few operations on mantissa/exponent
pairs of integers at the working precision, each exact and then rounded
to nearest by the one rounding of the raw floats (`exactnum._near`, with
`_quotient` for a division): A = log(num / den) of the boundary product,
its log correctly rounded (`exactnum._log`), and its bound err = 2^-bits
(32 rects + 8 A) (`_mass_of`), then h = pi^2 / (3 A) and its bound
h (err / A) + 2^(8 - bits) (`_entropy_of`, which also makes the probe's
target).  Only the results become raw floats (sign, man, exp, bc).  The
operations and their order are those of the mpf expressions written out,
and of the chain of `exactnum.raw_*` calls the tests keep as the oracle,
so every raw value is theirs bit for bit, and the CLI prints them without
mpmath (`exactnum.decimal_text`).  The other floats (the density, the
measure, the probes' columns, the plateau value) are chains of
`exactnum.raw_*` calls in the order of their mpf expressions, and the
slope is one rounding of an exact quotient (`qumterval_slope`).  An
`EntropySample` keeps the raw values, A's bound among them, and wraps A, h
and h's bound into mpmath.mpf for library callers on first read; the
library's other mpf results are wrapped as they are returned
(`exactnum.raw_mpf`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, groupby, pairwise
from math import gcd, isqrt, lcm
from operator import lt

from . import words
from .bifurcation import (
    Qumterval,
    locate_qumterval,
    qumterval_of,
    simplest_rational_between,
)
from .exactnum import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    ONE,
    ZERO,
    Exact,
    Frozen,
    QuadSurd,
    Raw,
    S,
    T,
    _log,
    _near,
    _quotient,
    _raw,
    _scaled,
    _sign_single,
    _signed,
    checked_precision,
    mobius_apply,
    pi_squared,
    raw_add,
    raw_div,
    raw_float,
    raw_int,
    raw_log,
    raw_mpf,
    raw_mul,
    raw_neg,
    raw_shift,
    raw_sqrt,
    surd_from_periodic_cf,
    to_raw,
)
from .kdynamics import (
    expected_digits_high,
    expected_digits_low,
    orbit_order_extremes,
    rational_orbit,
    rotation_orders,
)


# guard bits of the entropy path's integer scale W = bits + _GUARD (`_sample_mass`)
_GUARD = 40


class AttractorError(AssertionError):
    """A seam or corner condition failed; the construction data are wrong."""


class Rect(namedtuple("Rect", "x_lo x_hi y_lo y_hi")):
    __slots__ = ()

    def __new__(cls, x_lo: Exact, x_hi: Exact, y_lo: Exact, y_hi: Exact):
        """Refuse an empty box, or a corner where 1 + x y <= 0, so x y < 0.  A negative
        product on a box is most negative at opposite signs and the largest magnitudes,
        at (x_lo, y_hi) or (x_hi, y_lo): these two give the four-corner verdict on any box."""
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError("degenerate rectangle")
        if not (_pole_free(x_lo, y_hi) and _pole_free(x_hi, y_lo)):
            raise ValueError("density pole inside rectangle")
        return super().__new__(cls, x_lo, x_hi, y_lo, y_hi)


def _below(left, right, X_left: int, X_right: int, slack: int, value) -> bool:
    """value(left) < value(right), for values rounded to X_left and X_right
    by `_scaled` within `slack` units each: decided on the integers when
    X_right - X_left >= 2 slack, else exactly (`_Skeleton.fit`)."""
    return X_right - X_left >= 2 * slack or value(left) < value(right)


def _pole_free(x: Exact, y: Exact) -> bool:
    """1 + x*y > 0.  For a surd x = (p + q sqrt d)/r (r > 0) and a rational
    y = n/m (m > 0) this is the sign of m r + n p + n q sqrt d, one integer
    test; other pairs use exact arithmetic."""
    if isinstance(y, QuadSurd) and not isinstance(x, QuadSurd):
        x, y = y, x
    if isinstance(x, QuadSurd) and not isinstance(y, QuadSurd):
        n, m = y.numerator, y.denominator
        return _sign_single(m * x.r + n * x.p, n * x.q, x.d) > 0
    return 1 + x * y > 0


class Attractor(
    Frozen,
    namedtuple("Attractor", "word alpha rects corner_x corner_y h_levels_low h_levels_high v_levels"),
):
    """The rectangles of an attractor and its exact levels; `v_levels` are the
    distinct ends of the boundary segments, ascending.  Outside the value
    (not compared, hashed or printed) it keeps the skeleton it was built
    from, the mass's boundaries, and `masses`, its (A, err) by bits
    (`attractor_mass`)."""

    def __new__(cls, word, alpha, rects, corner_x, corner_y, h_levels_low, h_levels_high, v_levels, skeleton):
        self = super().__new__(
            cls, word, alpha, rects, corner_x, corner_y, h_levels_low, h_levels_high, v_levels
        )
        self.__dict__.update(skeleton=skeleton, masses={})
        return self

    def __getnewargs__(self):  # pickle and copy build an attractor with its skeleton
        return (*self, self.skeleton)


@lru_cache(maxsize=1024)
def attractor_corners(w: str) -> tuple[Exact, Exact]:
    """Upper-right abscissa x and lower-left abscissa y of the attractor for
    any parameter in the qumterval of w (side-0 words only), both surds of
    the qumterval: y = -alpha_plus and x = [0; S^T, S^T, ...], the periodic
    tail of alpha_minus (`Qumterval.tail`).  Both solve the corner
    fixed-point system.

    S has the form (a1, 1, ..., an, 1), so S^T = (1, an, ..., 1, a1): a
    side-0 word of slope p/q <= 1/2 starts with 0 and ends with 1 (letter k
    is floor(k p/q) - floor((k-1) p/q)), and no two ones meet, as 2 p/q <= 1.
    """
    q = qumterval_of(w)
    if q.m1 > q.m0:
        raise ValueError("corners are built for side-0 words; reflect first")
    return q.tail, -q.alpha_plus


def _lift(xi: QuadSurd) -> int:
    """The least positive Q with which a chain from xi = (p + q sqrt d)/r can
    run (`_abscissae`): |q| k with k = r / gcd(r, p^2 - q^2 d)."""
    p, q, r, d = xi.p, xi.q, xi.r, xi.d
    return abs(q) * (r // gcd(r, p * p - q * q * d))


def _abscissae(xi: QuadSurd, digits, Q: int) -> list[tuple[int, int]]:
    """xi and its images under the abscissa updates S T^-c of the extension
    map, xi -> 1/(c - xi), for the branch digits c in turn, each as the pair
    (P, R) of (P + Q sqrt d)/R over xi's radicand d and the given Q, a
    multiple of `_lift(xi)`.

    The chain runs in the classical form (P + Q sqrt d)/R of continued
    fractions, with R dividing P^2 - Q^2 d, and carries the previous
    denominator R_, for which R R_ = P^2 - Q^2 d.  With P' = c R - P,

        1/(c - xi) = R (P' + Q sqrt d) / (P'^2 - Q^2 d) = (P' + Q sqrt d) / R',

    where R' = (P'^2 - Q^2 d)/R is an integer because P' = -P mod R, and
    R' R = P'^2 - Q^2 d keeps the invariant.  Since P' + P = c R,
    R (R' - R_) = P'^2 - P^2 = c R (P' - P), so

        R' = c (P' - P) + R_,

    and a step is two products of a number by the digit and three additions:
    no product of two big numbers, no division and no gcd.  Q never changes.
    The start (p + q sqrt d)/r, n = p^2 - q^2 d, is lifted once by k = Q/q,
    a multiple of r / gcd(r, n): then P, R = k p, k r, R divides k^2 n, and
    R_ = k n / r.  Over one Q a value has one pair, since the coefficient
    Q/R of sqrt d fixes R: two values of the field are equal exactly when
    their pairs over a common Q are.
    """
    p, q, r, d = xi.p, xi.q, xi.r, xi.d
    k = Q // q
    P, R, R_ = k * p, k * r, k * (p * p - q * q * d) // r
    out = [(P, R)]
    for c in digits:
        P_ = c * R - P
        P, R, R_ = P_, c * (P_ - P) + R_, R
        out.append((P, R))
    return out


class _Skeleton:
    """The exact data of the attractor shared by every rational parameter of
    one qumterval, a function of its word (`_skeleton`).

    The endpoint digits are fixed on a qumterval (the matching condition), so
    the pushed abscissae do not depend on the parameter; nor does the level
    order within each orbit, a rotation order (`kdynamics.rotation_orders`).
    Only the levels themselves and the interleaving of the two orbits move.
    The seam and closure checks need abscissae and order alone and run once,
    in `_skeleton`; past the seams one end per segment holds them all, kept
    as pairs (P, R) of (P + Q sqrt d)/R over one Q (`_abscissae`; Q = 0 for
    rationals) and made exact only where read (`value`).  That every end
    lies in (-1, 1) is checked once per scale (`rounded_ends`); `fit` checks
    a parameter's orbits against the digits and orders and runs the checks
    that need the levels, and `product` is the one builder of the boundary
    factors.
    """

    __slots__ = (
        "word", "low_digits", "high_digits", "low_order", "high_order", "rights", "lefts", "Q", "d", "ends_cache"
    )

    def __init__(self, word, low_digits, high_digits, low_order, high_order, rights, lefts, Q, d):
        self.word = word
        self.low_digits, self.high_digits = low_digits, high_digits  # lists of ints, as the kernel gives them
        self.low_order = low_order  # orbit indices of the lower segments, levels ascending
        self.high_order = high_order  # orbit indices of the upper segments, levels ascending
        self.rights = rights  # right end (P, R) of each lower segment, in low_order; the last is corner x
        self.lefts = lefts  # left end (P, R) of each upper segment, in high_order; the first is corner y
        self.Q, self.d = Q, d  # the ends' common coefficient of sqrt d, and d
        self.ends_cache = {}  # (rights, lefts) scaled, and their slack, by scale

    def value(self, end: tuple[int, int]) -> Exact:
        """The exact value of the end `end`."""
        P, R = end
        return QuadSurd._reduced(P, self.Q, R, self.d)

    def fit(self, alpha: tuple[int, int], low, high, scale: int):
        """Check one parameter's endpoint orbits against the skeleton.

        `alpha` is the pair (p, q) of p/q, and `low` and `high` are the
        orbits of alpha - 1 and alpha as the kernel steps them
        (`kdynamics.rational_orbit`): digits, levels and the last point.
        The levels are the order keys floor(y 2^W) of the points at W =
        `scale` (`_fitted`), or the exact points themselves
        (`build_attractor`): keys that tie only where two points are equal.
        W also sets the integers of the rectangle tests.  Returns the lower
        and the upper segments' levels, both ascending, and `sides`, one
        byte per rectangle of the staircase: 0, 1 or 2 as its top level is
        the next lower level, one in both (taken once) or the next upper
        one (`_steps` replays them).  Raises AttractorError, naming the word
        and the orbit, when an orbit's digits differ from the skeleton's (an
        orbit that hits zero has the digit None) or its levels do not ascend
        in the skeleton's order (a changed order, a start that is not
        extremal, a repeated level); and when a rectangle would be empty or
        an end lies outside (-1, 1) (`rounded_ends`).  With every level in
        [alpha - 1, alpha], inside (-1, 1), an end in (-1, 1) gives 1 + x y
        > 0: no rectangle reaches a pole of the density.

        The floor is monotone, so keys that differ order their levels; two
        levels whose keys tie are ordered by their itineraries
        (`_Itineraries`), made only at the first tie: the order check, and
        the merge, which starts above lo[0] = alpha - 1 (past alpha the
        orbit's denominators fall below q, as |a/b| < 1) and ends at hi[-1]
        = alpha.  It checks each rectangle as it is merged: the left end L
        of its upper segment must lie below the right end R of its lower
        one.  With the ends X = `rounded_ends(W)`, each within s units of
        its value times 2^W, (R - L) 2^W exceeds X_R - X_L - 2s, so X_R -
        X_L >= 2s proves L < R (`_below`); only where the integers cannot
        decide is the test exact.
        """
        lo, hi = [low[1][k] for k in self.low_order], [high[1][k] for k in self.high_order]
        ties = None

        def tie(i, j, u=0, v=1):
            """The sign of level i of orbit u minus level j of orbit v (0: lower,
            1: upper), each by its position in the skeleton's order."""
            nonlocal ties
            if ties is None:
                ties = _Itineraries(alpha, low, high, scale)
            orders = self.low_order, self.high_order
            return ties.order(u, orders[u][i], v, orders[v][j])

        orbits = ("alpha - 1", low[0], self.low_digits, lo), ("alpha", high[0], self.high_digits, hi)
        for u, (start, digits, want, levels) in enumerate(orbits):
            if digits != want:
                fault = "hits zero before the matching time" if None in digits else "leaves the word's digits"
            elif all(map(lt, levels, levels[1:])):
                continue
            elif all(a < b or a == b and tie(p, p + 1, u, u) < 0 for p, (a, b) in enumerate(pairwise(levels))):
                continue
            else:
                fault = "leaves the word's level order"
            raise AttractorError(f"the orbit of {start} {fault} (word {self.word}, alpha = {Fraction(*alpha)})")

        X_rights, X_lefts, slack = self.rounded_ends(scale)
        rights, lefts, value = self.rights, self.lefts, self.value
        sides = bytearray()
        i, j, n_lo, n_hi = 1, 0, len(lo), len(hi)
        while j < n_hi:
            if i == n_lo:
                side = 1
            else:
                a, b = lo[i], hi[j]
                side = -1 if a < b else 1 if a > b else tie(i, j)
            if not _below(lefts[j], rights[i - 1], X_lefts[j], X_rights[i - 1], slack, value):
                if side < 0:
                    top = f"index {self.low_order[i]} of the orbit of alpha - 1"
                else:
                    top = f"index {self.high_order[j]} of the orbit of alpha"
                raise AttractorError(f"empty rectangle below the level at {top} (word {self.word}, alpha = {Fraction(*alpha)})")
            sides.append(side + 1)
            i += side <= 0
            j += side >= 0
        return lo, hi, sides

    def product(self, lo, hi, scale: int) -> tuple[int, int]:
        """The boundary product (num, den) at W = `scale` over the ascending
        level keys Y = floor(y 2^W) of the lower and the upper segments
        (`fit`).

        The integral of dx/(1+xy)^2 from L to R is R/(1+Ry) - L/(1+Ly), whose
        integral in y is a log, so a lower segment with right end R over
        [y0, y1] gives log((1+R y1)/(1+R y0)) and an upper one with left end
        L gives log((1+L y0)/(1+L y1)).  With the keys' Y and the ends' X
        (`rounded_ends`) these are the factors (2^W + (X Y1 >> W), 2^W +
        (X Y0 >> W)) below, then (2^W + (X Y0 >> W), 2^W + (X Y1 >> W))
        above; lo[0] (alpha - 1) opens the upper boundary and hi[-1] (alpha)
        closes the lower one.  Each factor is multiplied in as it is formed,
        lower boundary first, and numerator and denominator shift right
        together once both pass 2W bits (both at least 2^(2W)), which keeps
        the smaller at W bits.
        """
        rights, lefts, _ = self.rounded_ends(scale)
        one, full = 1 << scale, 1 << 2 * scale
        ys_lo, ys_hi = lo + hi[-1:], lo[:1] + hi
        num = den = 1
        for X, y_num, y_den in chain(zip(rights, ys_lo[1:], ys_lo), zip(lefts, ys_hi, ys_hi[1:])):
            num *= one + (X * y_num >> scale)
            den *= one + (X * y_den >> scale)
            if num >= full and den >= full:
                extra = min(num.bit_length(), den.bit_length()) - scale
                num >>= extra
                den >>= extra
        return num, den

    def rounded_ends(self, scale: int):
        """The right ends of the lower segments and the left ends of the
        upper ones, times 2^scale and rounded down, X = ((P << scale) + Q
        isqrt(d << 2 scale)) // R, and the bound s = ceil(Q / min |R|) + 1 on
        their rounding; kept per scale.  These are `_scaled` and `_slack` of
        the reduced values bit for bit: a floor and the ratio |q|/r do not
        change under a common factor or a sign flip.

        The first call at a scale checks that each end x lies in (-1, 1), on
        the integers when |X| + s < 2^scale, else exactly.  True ends always
        do: they start there (corner x in (0, 1), corner y in (-1, 0),
        x/(1 + x) and y/(1 - y) between), and a push xi -> 1/(c - xi) keeps
        them there, since each digit c = floor(-1/t + 1 - alpha) of an orbit
        point t has |c| >= 2: for t < 0, -1/t + 1 - alpha >= 1/(1 - alpha) +
        (1 - alpha) >= 2; for t > 0, -1/t + 1 - alpha <= 1 - (alpha +
        1/alpha) < -1.
        """
        got = self.ends_cache.get(scale)
        if got is None:
            ends = self.rights + self.lefts
            Q_root = self.Q * isqrt(self.d << 2 * scale)
            X = [((P << scale) + Q_root) // R for P, R in ends]
            slack = -(-self.Q // min(abs(R) for _, R in ends)) + 1
            for X_end, end in zip(X, ends):
                if not (abs(X_end) + slack < 1 << scale or -1 < self.value(end) < 1):
                    raise AttractorError(f"density pole: end {self.value(end)} lies outside (-1, 1)")
            n = len(self.rights)
            got = self.ends_cache[scale] = X[:n], X[n:], slack
        return got


class _Itineraries:
    """The order of two levels of one parameter's endpoint orbits whose keys
    tie (`_Skeleton.fit`), with alpha given as the pair (p, q) of p/q.
    Orbit 0 starts at alpha - 1 and orbit 1 at alpha, each given as the
    kernel steps it at one scale (`kdynamics.rational_orbit`): its digits,
    the keys floor(y 2^scale) of its points and its last point.

    Each branch x -> -1/x - c is increasing, so two points of one digit are
    in the order of their images; and the cylinders of the digits lie in
    order, c >= 2 ascending left of 0, then c <= -2 ascending right of 0,
    so two points of different digits are in the order of their digits.
    `order` walks the two itineraries forward to the first offset where the
    keys or the digits differ; where an itinerary runs out it compares the
    two points exactly, the last point as the kernel keeps it and an
    interior one stepped again, which is rare.  Every tied pair a walk
    passes is in the order it finds, and is kept.
    """

    __slots__ = ("alpha", "orbits", "scale", "known")

    def __init__(self, alpha: tuple[int, int], low, high, scale: int):
        self.alpha, self.orbits, self.scale = alpha, (low, high), scale
        self.known = {}  # (u, i, v, j) -> order, for the tied pairs walked

    def order(self, u: int, i: int, v: int, j: int) -> int:
        """The sign of level i of orbit u minus level j of orbit v."""
        (du, ku, _), (dv, kv, _) = self.orbits[u], self.orbits[v]
        nu, nv = len(du), len(dv)
        known = self.known
        walked = []
        while True:
            if ku[i] != kv[j]:
                sign = -1 if ku[i] < kv[j] else 1
                break
            pair = u, i, v, j
            sign = known.get(pair)
            if sign is not None:
                break
            walked.append(pair)
            if i == nu or j == nv:
                (a, b), (c, d) = self.point(u, i), self.point(v, j)
                sign = (a * d > c * b) - (a * d < c * b)
                break
            cu, cv = du[i], dv[j]
            if cu != cv:  # the cylinders: c >= 2 left of 0, then c <= -2, each ascending
                sign = -1 if (cu < 0, cu) < (cv < 0, cv) else 1
                break
            i, j = i + 1, j + 1
        for pair in walked:
            known[pair] = sign
        return sign

    def point(self, u: int, i: int) -> tuple[int, int]:
        """Point i of orbit u as the pair (a, b) of a/b, b > 0."""
        digits, _, end = self.orbits[u]
        if i == len(digits):
            return end
        P, Q = alpha = self.alpha
        return rational_orbit(alpha, (P - Q, Q) if u == 0 else alpha, i, self.scale)[2]


def _skeleton(q: Qumterval) -> _Skeleton:
    """The skeleton of a side-0 qumterval, from its word alone: the digits of
    the word's block pattern (`kdynamics.expected_digits_low` and `_high`)
    and the rotation orders (`kdynamics.rotation_orders`).  Both ends of
    every segment are pushed as integer pairs over one Q in one field
    (`_abscissae`), each seam and the closure are checked on them exactly,
    then one end per segment is kept.  No orbit is stepped here."""
    word = q.word
    x, y = attractor_corners(word)
    if x.d != y.d:
        raise AttractorError(f"corners {x} and {y} lie in two quadratic fields")
    low_digits, high_digits = list(expected_digits_low(q.S)), list(expected_digits_high(q.S))
    low_order, high_order = rotation_orders(q.m0, q.m1)
    # (left, right) ends of the segment at each orbit index, in level order; the map is increasing
    starts = y, x / (1 + x), y / (1 - y), x
    Q, d = lcm(*map(_lift, starts)), x.d
    low_lefts, rights = ([ends[k] for k in low_order] for ends in (_abscissae(v, low_digits, Q) for v in starts[:2]))
    lefts, high_rights = ([ends[k] for k in high_order] for ends in (_abscissae(v, high_digits, Q) for v in starts[2:]))
    skel = _Skeleton(word, low_digits, high_digits, low_order, high_order, tuple(rights), tuple(lefts), Q, d)
    if rights[:-1] != low_lefts[1:]:
        k = next(k for k in range(1, len(rights)) if rights[k - 1] != low_lefts[k])
        raise AttractorError(
            f"lower seam open at index {low_order[k]} of the orbit of alpha - 1 (word {word}): "
            f"{skel.value(low_lefts[k])} != {skel.value(rights[k - 1])}"
        )
    if high_rights[:-1] != lefts[1:]:
        k = next(k for k in range(len(lefts) - 1) if high_rights[k] != lefts[k + 1])
        raise AttractorError(
            f"upper seam open at index {high_order[k]} of the orbit of alpha (word {word}): "
            f"{skel.value(high_rights[k])} != {skel.value(lefts[k + 1])}"
        )
    # index 0 (alpha - 1 and alpha) is the lowest and the highest level: y's pair and x's
    if rights[-1] != high_rights[-1] or lefts[0] != low_lefts[0]:
        raise AttractorError(f"staircase does not close at the far corner (word {word})")
    return skel


def _fitted(alpha: tuple[int, int], skel: _Skeleton, scale: int):
    """The fit of a parameter p/q <= 1/2 of the skeleton's qumterval, given
    as the pair alpha = (p, q) (`_Skeleton.fit`), with the boundary factors'
    scale `scale`: the endpoint orbits are stepped once, in integers, from
    (p - q, q) and (p, q) to their digits and order keys at that scale
    (`kdynamics.rational_orbit`)."""
    P, Q = alpha
    low = rational_orbit(alpha, (P - Q, Q), len(skel.low_digits), scale)
    high = rational_orbit(alpha, alpha, len(skel.high_digits), scale)
    return skel.fit(alpha, low, high, scale)


def build_attractor(alpha) -> Attractor:
    """Exact rectangle decomposition of the attractor at a rational parameter
    in (0, 1/2], in the qumterval that `locate_qumterval` finds.

    Raises AttractorError with a diagnostic if any boundary seam fails to
    close, a rectangle is empty or one reaches a density pole, which would
    indicate wrong orbit-ordering data.
    """
    alpha = Fraction(alpha)
    q = locate_qumterval(alpha)
    if q.m1 > q.m0:
        raise ValueError("parameters above 1/2: reflect with alpha -> 1 - alpha")
    skel = _skeleton(q)
    P, Q = pair = alpha.as_integer_ratio()
    low, high = rational_orbit(pair, (P - Q, Q), q.m0), rational_orbit(pair, pair, q.m1)
    # the fit orders the exact levels as it orders keys; its scale sets the integers of the rectangle tests
    lo, hi, sides = skel.fit(pair, low, high, MIN_PRECISION)
    rights, lefts = [skel.value(end) for end in skel.rights], [skel.value(end) for end in skel.lefts]
    return Attractor(
        word=q.word,
        alpha=alpha,
        rects=tuple(Rect(lefts[j], rights[i], y_lo, y_hi) for y_lo, y_hi, i, j in _steps(lo, hi, sides)),
        corner_x=rights[-1],
        corner_y=lefts[0],
        h_levels_low=tuple(low[1]),
        h_levels_high=tuple(high[1]),
        # every segment end is in rights or lefts, each strictly ascending (increasing pushes
        # from y < x/(1 + x) and y/(1 - y) < x, chained by the seams): sorted merges two runs
        v_levels=tuple(v for v, _ in groupby(sorted(rights + lefts))),
        skeleton=skel,
    )


def _steps(lo: list, hi: list, sides):
    """The rectangles of a fit (`_Skeleton.fit`), replayed from its `sides`
    over its levels: (y_lo, y_hi, i, j) for each, whose right end is that
    of lower segment i and left end that of upper segment j."""
    i, j, below = 1, 0, lo[0]
    for side in sides:
        level = lo[i] if side == 0 else hi[j]
        yield below, level, i - 1, j
        i += side < 2
        j += side > 0
        below = level


def corner_system_residues(w: str):
    """Exact residues of the two corner fixed-point equations (both must be
    equal pairs): checked at the pseudocenter of the qumterval of w."""
    q = qumterval_of(w)
    x, y = attractor_corners(w)
    j0, j1 = orbit_order_extremes(w)
    p, r = alpha = q.pseudocenter.as_integer_ratio()
    low_digits, high_digits = rational_orbit(alpha, (p - r, r), j0)[0], rational_orbit(alpha, alpha, j1)[0]
    Q = lcm(_lift(x), _lift(y))
    (P, R), (P_, R_) = _abscissae(x, high_digits, Q)[-1], _abscissae(y, low_digits, Q)[-1]
    xi, eta = QuadSurd._reduced(P, Q, R, x.d), QuadSurd._reduced(P_, Q, R_, y.d)
    lhs1 = mobius_apply(S * T * S, y)
    lhs2 = mobius_apply(S * T**-1 * S, x)
    return (lhs1, xi), (lhs2, eta)


# ---------------------------------------------------------------------------
# masses and entropy
# ---------------------------------------------------------------------------


def attractor_mass(attr: Attractor, precision: int | None = None):
    """(area integral, error bound) as mpmath.mpf: the entropy's own mass at
    the attractor's parameter and skeleton (`_sample_mass`), so
    `entropy_at(attr.alpha, precision).A` bit for bit (`_raw_mass`)."""
    return tuple(map(raw_mpf, _raw_mass(attr, checked_precision(precision))))


def _raw_mass(attr: Attractor, bits: int) -> tuple[Raw, Raw]:
    """The raw (A, err) of `attractor_mass`, taken once per precision and
    kept on the attractor (`Attractor.masses`)."""
    got = attr.masses.get(bits)
    if got is None:
        alpha = attr.alpha.numerator, attr.alpha.denominator
        got = attr.masses[bits] = _sample_mass(alpha, attr.skeleton, bits)
    return got


class EntropySample(Frozen, namedtuple("EntropySample", "alpha word m0 m1 raw_A raw_h raw_err raw_A_err")):
    """An entropy sample: the mass A, the entropy h, h's error bound and
    A's as raw floats (sign, man, exp, bc) of the working precision
    (`_mass_of`, `_entropy_of`), which the CLI and `probe asymptotic` print
    (`exactnum.decimal_text`); `A`, `h` and `err_bound` are the first three
    as mpmath.mpf, wrapped on first read."""

    @cached_property
    def A(self):
        return raw_mpf(self.raw_A)

    @cached_property
    def h(self):
        return raw_mpf(self.raw_h)

    @cached_property
    def err_bound(self):
        return raw_mpf(self.raw_err)


def entropy_at(alpha, precision: int | None = None) -> EntropySample:
    """Metric entropy at a rational parameter in (0, 1) (`_entropy_run`)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("entropy is computed for parameters strictly inside (0, 1)")
    return _entropy_run([alpha], precision)[0]


def _sample_mass(alpha: tuple[int, int], skel: _Skeleton, bits: int) -> tuple[Raw, Raw]:
    """(area integral, error bound) as raw floats at a parameter p/q <= 1/2
    of the skeleton's qumterval, given as the pair alpha = (p, q): the
    boundary product of its fit (`_fitted`, `_Skeleton.product`) at the
    scale W = bits + _GUARD, its levels rounded from their order keys, and
    one log of its ratio (`_mass_of`).  The log of the product is the sum of
    the rectangle masses; the error estimate is theirs, summed in closed
    form."""
    scale = bits + _GUARD
    lo, hi, sides = _fitted(alpha, skel, scale)
    return _mass_of(*skel.product(lo, hi, scale), len(sides), bits)


def _mass_of(num: int, den: int, rects: int, bits: int) -> tuple[Raw, Raw]:
    """The mass A = log(num / den) of a boundary product and its bound
    err = 2^-bits (32 rects + 8 A), as raw floats: num and den rounded to
    `bits`, then each operation rounded to nearest at `bits`, in the order
    of these expressions, the log correctly rounded (`exactnum._log`).  The
    operations run on mantissa/exponent pairs, each exact and then rounded
    (`exactnum._near`, `_quotient`), as `raw_int`, `raw_div`, `raw_log`,
    `raw_add` and `raw_shift` compute them, and only the results become
    raw floats."""
    n_m, n_e = _near(num, 0, bits)
    d_m, d_e = _near(den, 0, bits)
    q_m, q_e = _quotient(n_m, n_e, d_m, d_e, bits)
    q_m, q_e = _near(q_m, q_e, bits)
    A_m, A_e = _log(q_m, q_e, bits)
    e = min(A_e + 3, 0)
    err_m, err_e = _near((A_m << (A_e + 3 - e)) + (32 * rects << -e), e, bits)
    return _raw(A_m, A_e), _raw(err_m, err_e - bits)


def _entropy_of(A: Raw, err: Raw, pi2: Raw, bits: int) -> tuple[Raw, Raw]:
    """h = pi^2 / (3 A) and its bound h (err / A) + 2^(8 - bits), as raw
    floats, from the raw mass A and its bound err (`_sample_mass`), with
    pi^2 = `exactnum.pi_squared(bits)`: each operation exact and then
    rounded to nearest at `bits`, in the order of these expressions, on
    mantissa/exponent pairs (`exactnum._near`, `_quotient`)."""
    A_m, A_e, err_m = _signed(A), A[2], _signed(err)
    t_m, t_e = _near(3 * A_m, A_e, bits)
    h_m, h_e = _quotient(pi2[1], pi2[2], t_m, t_e, bits)
    h_m, h_e = _near(h_m, h_e, bits)
    r_m, r_e = _quotient(err_m, err[2], A_m, A_e, bits)
    r_m, r_e = _near(r_m, r_e, bits)
    u_m, u_e = _near(h_m * r_m, h_e + r_e, bits)
    e = min(u_e, 8 - bits)
    u_m, u_e = _near((u_m << (u_e - e)) + (1 << (8 - bits - e)), e, bits)
    return _raw(h_m, h_e), _raw(u_m, u_e)


def density_slice(attr: Attractor, t, precision: int | None = None):
    """Invariant density at height t, an mpmath.mpf: the exact antiderivative
    (x_hi - x_lo)/((1+x_lo t)(1+x_hi t)) of the one rectangle with
    y_lo <= t < y_hi, found by bisection (the top one at t = alpha), over
    `attractor_mass`, kept on the attractor.  Each operation is rounded to
    nearest at the working precision, in the order of these expressions,
    the three values as `exactnum.to_raw` rounds them."""
    if not isinstance(t, (int, Fraction, QuadSurd)):
        # quadrature callers pass floats; clamp their rounding slack
        t = min(max(Fraction(float(t)), attr.alpha - 1), attr.alpha)
    if not attr.alpha - 1 <= t <= attr.alpha:
        raise ValueError("height outside the interval")
    bits = checked_precision(precision)
    A = _raw_mass(attr, bits)[0]
    rect = attr.rects[bisect_right(attr.rects, t, key=lambda r: r.y_lo) - 1]
    tm, xl, xh = (to_raw(v, bits) for v in (t, rect.x_lo, rect.x_hi))
    lo, hi = (raw_add(ONE, raw_mul(x, tm, bits), bits) for x in (xl, xh))
    return raw_mpf(raw_div(raw_div(raw_add(xh, raw_neg(xl), bits), raw_mul(lo, hi, bits), bits), A, bits))


def measure_interval(attr: Attractor, lo, hi, precision: int | None = None):
    """Invariant measure of [lo, hi], for rational bounds inside the map's
    interval, an mpmath.mpf: the boundary product of the attractor's fit
    over its keys clamped into [lo, hi] (`_fitted`, `_Skeleton.product`),
    over the mass (`attractor_mass`), rounded to nearest at the working
    precision.  Clamped, a segment's span is its part of the band; a
    segment outside the band has y0 = y1 and a pair of equal factors.  The
    bounds are rounded down at the mass's scale, as the levels are in their
    keys: the floor is monotone, so the clamped keys are the clamped levels
    rounded down, and no two exact values are compared."""
    for bound in (lo, hi):
        if not isinstance(bound, (int, Fraction)):
            raise ValueError(f"measure bounds must be rational, got {bound!r}")
    if not (attr.alpha - 1 <= lo <= hi <= attr.alpha):
        raise ValueError("interval must sit inside [alpha-1, alpha]")
    bits = checked_precision(precision)
    scale, skel = bits + _GUARD, attr.skeleton
    A = _raw_mass(attr, bits)[0]
    bottom, top = _scaled([lo, hi], scale)
    alpha = attr.alpha.numerator, attr.alpha.denominator
    band = [[min(max(K, bottom), top) for K in keys] for keys in _fitted(alpha, skel, scale)[:2]]
    B, _ = _mass_of(*skel.product(*band, scale), 0, bits)
    return raw_mpf(raw_div(B, A, bits))


# ---------------------------------------------------------------------------
# parameter sweeps and probes
# ---------------------------------------------------------------------------

_GRID_DEN = 2**19  # dyadic sample grid; denominators stay below 10**6


def entropy_grid(start, stop, samples: int) -> list[Fraction]:
    """The points start + (stop - start) i / (samples + 1), i = 1..samples,
    rounded to the dyadic grid of step 2^-19, half to even as
    `Fraction.__round__`; endpoints and repeats are dropped.

    With start = sn/sd and stop = tn/td the numerator of point i is the
    rounded quotient of (sn td (samples+1) + (tn sd - sn td) i) 2^19 by
    sd td (samples+1), taken in integers; only a kept point becomes a
    `Fraction`.  Once (stop - start) 2^19 < samples + 1, points lie less
    than a step apart and round at most a step apart: the kept points are
    then every multiple of 2^-19 inside (start, stop) from the rounding of
    point 1 to that of point `samples`, taken with no loop.
    """
    start, stop = Fraction(start), Fraction(stop)
    if not 0 < start < stop < 1:
        raise ValueError("need 0 < start < stop < 1")
    if samples < 2:
        raise ValueError("need at least two samples")
    sn, sd, tn, td = start.numerator, start.denominator, stop.numerator, stop.denominator
    parts = samples + 1
    den = sd * td * parts
    base, step = sn * td * parts, tn * sd - sn * td
    lo, hi = sn * _GRID_DEN, tn * _GRID_DEN

    def rounded(i):
        k, rem = divmod((base + step * i) * _GRID_DEN, den)
        return k + 1 if 2 * rem > den or (2 * rem == den and k & 1) else k

    if step * _GRID_DEN < den:
        kept = range(max(rounded(1), lo // sd + 1), min(rounded(samples), -(-hi // td) - 1) + 1)
    else:
        kept = dict.fromkeys(k for k in map(rounded, range(1, parts)) if k * sd > lo and k * td < hi)
    return [Fraction(k, _GRID_DEN) for k in kept]


def entropy_curve(
    start, stop, samples: int, precision: int | None = None, jobs: int = 1
) -> list[EntropySample]:
    """Entropy along a rational grid in (start, stop), endpoints avoided.

    The samples equal those of `entropy_at`.  With jobs > 1 contiguous chunks
    of the grid, about four per worker, go to worker processes, each through
    the same loop; the pool has at most one worker per chunk and per CPU.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid = entropy_grid(start, stop, samples)
    if jobs > 1 and grid:
        # imported here: it pulls in multiprocessing, which every cold start would pay
        from concurrent.futures import ProcessPoolExecutor
        from os import cpu_count

        workers = min(jobs, cpu_count() or 1)
        size = -(-len(grid) // (4 * workers))
        chunks = [grid[k : k + size] for k in range(0, len(grid), size)]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = pool.map(_entropy_run, chunks, [precision] * len(chunks))
            return [s for part in parts for s in part]
    return _entropy_run(grid, precision)


def _entropy_run(grid, precision: int | None) -> list[EntropySample]:
    """The entropy at each parameter of the grid, in (0, 1), through the
    exact attractor: h = pi^2 / (3 A) from the mass A (`_sample_mass`,
    `_entropy_of`).  A parameter p/q above 1/2 is reflected (measurable
    conjugation) to (q - p)/q, with the containing word reported on the
    original side: the mirror word, the counts swapped.  The loop carries
    each parameter as its pair (p, q) and makes no `Fraction` but where the
    previous parameter's qumterval does not hold it.  Parameters of one
    qumterval share a skeleton and both labels, bound for this call only.
    Before a descent the qumtervals located in the call are searched: the
    previous parameter's, then the two whose pseudocenters bracket the
    parameter (the qumtervals are disjoint and each holds its pseudocenter,
    so no other can hold it)."""
    bits = checked_precision(precision)
    pi2 = pi_squared(bits)
    centers: list[Fraction] = []  # the pseudocenters of the located qumtervals, ascending
    located: list[tuple] = []  # theirs: (qumterval, skeleton, (word, m0, m1), the mirror's)
    got = None
    out = []
    for alpha in grid:
        P, Q = alpha.numerator, alpha.denominator
        mirrored = 2 * P > Q
        if mirrored:
            P = Q - P
        if got is None or not got[0].holds(P, Q):
            x = Fraction(P, Q)
            i = bisect_right(centers, x)
            got = next((near for near in located[max(i - 1, 0) : i + 1] if near[0].holds(P, Q)), None)
            if got is None:
                q = locate_qumterval(x)
                mirror = words.transpose(words.negate(q.word)), q.m1, q.m0
                got = q, _skeleton(q), (q.word, q.m0, q.m1), mirror
                i = bisect_right(centers, q.pseudocenter)
                centers.insert(i, q.pseudocenter)
                located.insert(i, got)
            _, skel, labels, mirror = got
        A, err = _sample_mass((P, Q), skel, bits)
        h, h_err = _entropy_of(A, err, pi2, bits)
        out.append(EntropySample(alpha, *(mirror if mirrored else labels), A, h, h_err, err))
    return out


def asymptotic_probe(n_values, precision: int | None = None) -> list[dict]:
    """Entropy against pi^2/(3 log(N+1)) at the parameters 1/(N+1) whose
    qumtervals have runlength (N, 1); the attractor mass grows like log N.
    The rows of `_asymptotic_rows`, h, the target, A and the error bound
    wrapped into mpmath.mpf."""
    wrapped = ("h", "target", "A", "err_bound")
    return [{**row, **{key: raw_mpf(row[key]) for key in wrapped}} for row in _asymptotic_rows(n_values, precision)]


def _asymptotic_rows(n_values, precision: int | None) -> list[dict]:
    """The rows of `probe asymptotic`: h, A and A's bound (`raw_A_err`) of
    `entropy_at` at 1/(N+1), the pseudocenter of 0^N 1, and the target,
    the entropy's own h of the mass log(N+1) (`_entropy_of`), as raw
    floats; `ratio` and `A_minus_log` are the doubles of h / target and A -
    log(N+1), each rounded to nearest at the working precision first.  N
    below 2 raises ValueError before any sample, and N above the descent's
    step budget when it is reached."""
    bits = checked_precision(precision)
    n_values = list(n_values)
    if any(n < 2 for n in n_values):
        raise ValueError("N must be at least 2")
    pi2 = pi_squared(bits)
    rows = []
    for n in n_values:
        s = _entropy_run([Fraction(1, n + 1)], bits)[0]  # one call per N: a call keeps each skeleton it makes
        log_n1 = raw_log(raw_int(n + 1), bits)
        target = _entropy_of(log_n1, ZERO, pi2, bits)[0]
        rows.append(dict(
            N=n, alpha=s.alpha, h=s.raw_h, target=target, ratio=raw_float(raw_div(s.raw_h, target, bits)),
            A=s.raw_A, A_minus_log=raw_float(raw_add(s.raw_A, raw_neg(log_n1), bits)), err_bound=s.raw_A_err,
        ))
    return rows


def qumterval_slope(q: Qumterval, precision: int | None = None) -> dict:
    """Difference quotient of the entropy across the inner 3/4 of a qumterval.

    Off the plateau (m0 != m1) the entropy is strictly monotone on q, so two
    entropies within their error bounds of each other differ by rounding
    only: ValueError, naming the precision.  Without one given it works at
    2 b + 64 bits, if above the default, for a qumterval about 2^-2b wide,
    b the bit length of its pseudocenter's denominator.  The raw entropies
    and bounds are compared exactly, as integers at their least exponent,
    and the slope is the correctly rounded double of the exact quotient."""
    if precision is None:
        precision = max(DEFAULT_PRECISION, 2 * q.pseudocenter.denominator.bit_length() + 64)
    width = q.alpha_plus - q.alpha_minus
    p1 = simplest_rational_between(q.alpha_minus, q.alpha_minus + width / 8)
    p2 = simplest_rational_between(q.alpha_plus - width / 8, q.alpha_plus)
    s1, s2 = _entropy_run([p1, p2], precision)
    raws = s1.raw_h, s2.raw_h, s1.raw_err, s2.raw_err
    e = min(x[2] for x in raws)
    h1, h2, err1, err2 = (_signed(x) << (x[2] - e) for x in raws)
    if q.m0 != q.m1 and abs(h2 - h1) <= err1 + err2:
        raise ValueError(f"entropy difference below its error bound at {precision} bits: raise the precision")
    num, den = (h2 - h1) * (p2 - p1).denominator, (p2 - p1).numerator
    return {
        "word": q.word,
        "a": p1,
        "b": p2,
        "slope": (num << e) / den if e >= 0 else num / (den << -e),  # int / int rounds correctly
        "excess_zeros": q.m0 - q.m1,
    }


_SLOPE_WINDOW = Fraction(1, 8)  # half-width of the first window of `slope_growth_probe`


def slope_growth_probe(
    word: str,
    side: str = "plus",
    halvings: int = 8,
    precision: int | None = None,
) -> list[dict]:
    """Max sampled entropy slope over qumtervals inside shrinking windows
    around one quadratic endpoint of the named qumterval.

    The windows halve; the mediant path toward the endpoint supplies the
    qumtervals, whose zero/one imbalance (hence slope) grows without bound.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if halvings < 0:
        raise ValueError("halvings must be >= 0")
    q0 = qumterval_of(word)
    target = q0.alpha_plus if side == "plus" else q0.alpha_minus
    w1, w2 = words.standard_factorization(word)
    u, v = (word, w2) if side == "plus" else (w1, word)

    rows = []
    mediant = u + v
    best = None
    for k in range(halvings + 1):
        delta = _SLOPE_WINDOW / 2**k
        lo, hi = target - delta, target + delta
        while True:
            qm = qumterval_of(mediant)
            if lo < qm.alpha_minus and qm.alpha_plus < hi:
                break
            u, v = (u, mediant) if side == "plus" else (mediant, v)
            mediant = u + v
        info = qumterval_slope(qm, precision)
        if best is None or abs(info["slope"]) > abs(best["slope"]):
            best = info
        rows.append(
            {
                "halving": k,
                "delta": delta,
                "word_length": len(qm.word),
                "excess_zeros": info["excess_zeros"],
                "slope": best["slope"],
            }
        )
    return rows


def plateau_entropy(precision: int | None = None):
    """pi^2 / (6 log(1+g)) with g the golden mean, an mpmath.mpf: the
    constant value of the entropy on the middle qumterval (`_plateau`)."""
    return raw_mpf(_plateau(checked_precision(precision)))


def _plateau(bits: int) -> Raw:
    """The raw pi^2 / (6 log(1+g)), g = (sqrt(5) - 1) / 2: each operation
    rounded to nearest at `bits`, in the order of these expressions."""
    g = raw_shift(raw_add(raw_sqrt(raw_int(5), bits), raw_int(-1), bits), -1)
    return raw_div(pi_squared(bits), raw_mul(raw_int(6), raw_log(raw_add(ONE, g, bits), bits), bits), bits)


def selftest() -> list[tuple[str, bool]]:
    checks = []
    x, y = attractor_corners("01")
    g = surd_from_periodic_cf((), (1,))
    checks.append(("corners of 01", x == g and y == -g))
    attr = build_attractor(Fraction(9, 20))
    checks.append(("attractor in the middle window", attr.word == "01" and len(attr.rects) == 3))
    checks.append(
        (
            "vertical strip inclusion",
            all(r.x_lo <= 0 and r.x_hi >= Fraction(1, 3) for r in attr.rects),
        )
    )
    bits = DEFAULT_PRECISION
    h = entropy_at(Fraction(9, 20), bits).raw_h
    checks.append(("plateau value", abs(raw_float(raw_add(h, raw_neg(_plateau(bits)), bits))) < 1e-20))
    checks.append(("reflection", entropy_at(Fraction(11, 20), bits).raw_h == h))
    (l1, r1), (l2, r2) = corner_system_residues("00101")
    checks.append(("corner system", l1 == r1 and l2 == r2))
    return checks
