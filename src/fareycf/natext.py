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

The exact pass is integer arithmetic throughout: the endpoint orbits step in
integers (`kdynamics.orbit`), each abscissa push is the classical surd
recurrence, linear in the size of its numbers (`_abscissae`), the
empty-rectangle test and the check that every segment end lies in (-1, 1)
(so the attractor lies in the open square (-1, 1)^2, off the density's
poles) are decided on the integers of the mass with a proved margin, exactly
only where the margin cannot decide, and the rectangles come from one merge
of the two level-sorted boundaries.  What depends on the qumterval alone,
the endpoint digits, the order of each orbit and one end of each boundary
segment (both pushed, every seam checked, then each staircase corner kept
once) is one `_Skeleton`, which checks the square once per scale.  Every
parameter takes one path to it (`_fitted`): its endpoint orbits, their order
keys, the skeleton of its word (kept or built from these orbits) and the
skeleton's fit, which checks the digits, the order of each orbit and that
no rectangle is empty.  `build_attractor` turns the fit into rectangles.

The entropy then follows from the identity  h * area = pi^2 / 3  where
"area" is the mass of the attractor under dx dy / (1 + x y)^2.  That mass has
one path: it builds no rectangles and integrates along the two staircase
boundaries, one log of a product of boundary factors per parameter.  Each
level turns once into an integer, its order key, at a scale fine enough to
separate any two distinct levels (`_level_keys`): the sort, the order check
and the merge compare integers only, never two exact levels, and a key
shifted down to the mass's scale is the level rounded for its boundary
factors.  One helper builds the factors
(`_Skeleton.factors`); the fit returns them and `_boundary_mass`
multiplies that list.  `entropy_curve` keeps one
skeleton per word for the length of the call; `entropy_at` and
`asymptotic_probe` build their own, and an attractor keeps the one it was
built from: `attractor_mass` and the band masses of `measure_interval`
(the same product over the levels clamped into the band) come from it.
The sum of the rectangles' closed-form masses is only the tests' oracle.

The float tail of a sample is a few operations on raw `mpmath.libmp`
values at the working precision, each rounded to nearest, with no
precision context and no intermediate mpf: A = log(num / den) of the
boundary product and its bound err = 2^-bits (32 rects + 8 A)
(`_mass_of`), then h = pi^2 / (3 A) and its bound h (err / A) + 2^(8 - bits)
(`_entropy_of`, shared by `entropy_at`, `entropy_curve` and
`asymptotic_probe`).  Each result is wrapped as an mpf once.  The
operations and their order are those of the mpf expressions written
out, so every value is theirs bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, pairwise
from math import gcd, isqrt

import mpmath
from mpmath.libmp import (
    fone,
    from_int,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pow_int,
    mpf_shift,
    round_nearest,
)

from . import cfstrings as cfs
from . import words
from .bifurcation import (
    Qumterval,
    locate_qumterval,
    qumterval_of,
    simplest_rational_between,
)
from .exactnum import (
    Exact,
    QuadSurd,
    S,
    T,
    _sign_single,
    mobius_apply,
    surd_from_periodic_cf,
    to_mpf,
)
from .kdynamics import orbit, orbit_order_extremes
from .precision import MIN_PRECISION, checked_precision, working_precision


# guard bits of the entropy path's integer scale W = bits + _GUARD (`_boundary_mass`)
_GUARD = 40


class AttractorError(AssertionError):
    """A seam or corner condition failed; the construction data are wrong."""


@dataclass(frozen=True)
class Rect:
    x_lo: Exact
    x_hi: Exact
    y_lo: Exact
    y_hi: Exact

    def __post_init__(self):
        """Refuse an empty box, or a corner where 1 + x y <= 0, so x y < 0.  A negative
        product on a box is most negative at opposite signs and the largest magnitudes,
        at (x_lo, y_hi) or (x_hi, y_lo): these two give the four-corner verdict on any box."""
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError("degenerate rectangle")
        if not (_pole_free(self.x_lo, self.y_hi) and _pole_free(self.x_hi, self.y_lo)):
            raise ValueError("density pole inside rectangle")


def _below(left: Exact, right: Exact, X_left: int, X_right: int, slack: int) -> bool:
    """left < right, for values rounded to X_left and X_right by `_scaled`
    within `slack` units each: decided on the integers when
    X_right - X_left >= 2 slack, else exactly (`_Skeleton.fit`)."""
    return X_right - X_left >= 2 * slack or left < right


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


@dataclass(frozen=True)
class Attractor:
    word: str
    alpha: Fraction
    rects: tuple[Rect, ...]
    corner_x: Exact
    corner_y: Exact
    h_levels_low: tuple[Exact, ...]
    h_levels_high: tuple[Exact, ...]
    v_levels: tuple[Exact, ...]  # the distinct ends of the boundary segments, ascending
    skeleton: _Skeleton = field(compare=False, repr=False)  # the mass's boundaries (`attractor_mass`)


@lru_cache(maxsize=1024)
def attractor_corners(w: str) -> tuple[Exact, Exact]:
    """Upper-right abscissa x and lower-left abscissa y of the attractor for
    any parameter in the qumterval of w (side-0 words only), both surds of
    the qumterval: y = -alpha_plus and x = [0; S^T, S^T, ...], the periodic
    tail of alpha_minus.  Both solve the corner fixed-point system.

    S has the form (a1, 1, ..., an, 1), so S^T = (1, an, ..., 1, a1): a
    side-0 word of slope p/q <= 1/2 starts with 0 and ends with 1 (letter k
    is floor(k p/q) - floor((k-1) p/q)), and no two ones meet, as 2 p/q <= 1.
    """
    q = qumterval_of(w)
    if q.m1 > q.m0:
        raise ValueError("corners are built for side-0 words; reflect first")
    return surd_from_periodic_cf((), cfs.transpose_string(q.S)), -q.alpha_plus


def _abscissae(xi: QuadSurd, digits):
    """Yield xi and its images under the abscissa updates S T^-c of the
    extension map, xi -> 1/(c - xi), for the branch digits c in turn.

    The chain runs in the classical form (P + Q sqrt d)/R of continued
    fractions, with R dividing P^2 - Q^2 d, and carries the previous
    denominator R_, for which R R_ = P^2 - Q^2 d.  With P' = c R - P,

        1/(c - xi) = R (P' + Q sqrt d) / (P'^2 - Q^2 d) = (P' + Q sqrt d) / R',

    where R' = (P'^2 - Q^2 d)/R is an integer because P' = -P mod R, and
    R' R = P'^2 - Q^2 d keeps the invariant.  Since P' + P = c R,
    R (R' - R_) = P'^2 - P^2 = c R (P' - P), so

        R' = c (P' - P) + R_,

    and a step is two products of a number by the digit and three additions:
    no product of two big numbers, no division and no big gcd.  Q never
    changes.  A start (p + q sqrt d)/r with n = p^2 - q^2 d is lifted once
    by k = r / gcd(r, n): then P, Q, R = k p, k q, k r, R divides
    k^2 n, and R_ = n / gcd(r, n).  Each surd yielded is divided by
    gcd(P, Q, R), taken through the small Q first, and given a positive
    denominator, so it is the reduced surd: the same fields as reducing
    1/(c - xi) in full.
    """
    p, q, r, d = xi.p, xi.q, xi.r, xi.d
    n = p * p - q * q * d
    g = gcd(r, n)
    k = r // g
    P, Q, R, R_ = k * p, k * q, k * r, n // g
    yield xi
    for c in digits:
        P_ = c * R - P
        P, R, R_ = P_, c * (P_ - P) + R_, R
        g = gcd(gcd(P, Q), R)
        s = g if R > 0 else -g
        yield QuadSurd(P // s, Q // s, R // s, d)


@dataclass(eq=False)
class _Skeleton:
    """The exact data of the attractor shared by every rational parameter of
    one qumterval.

    The endpoint digits are fixed on a qumterval (the matching condition), so
    the pushed abscissae do not depend on the parameter; neither, on every
    qumterval tried, does the level order within each orbit.  Only the
    levels themselves and the interleaving of the two orbits move.  The
    seam, closure and extremal checks need abscissae and order alone and run
    once, in `_skeleton`; past the seams one end per segment holds them all.
    That every end lies in (-1, 1) is checked once per scale
    (`rounded_ends`); `fit` runs the checks that need the levels.
    """

    low_digits: tuple[int, ...]
    high_digits: tuple[int, ...]
    low_order: tuple[int, ...]  # orbit indices of the lower segments, levels ascending
    high_order: tuple[int, ...]  # orbit indices of the upper segments, levels ascending
    rights: tuple[Exact, ...]  # right end of each lower segment, in low_order; the last is corner x
    lefts: tuple[Exact, ...]  # left end of each upper segment, in high_order; the first is corner y
    # (rights, lefts) scaled, and their slack, by scale
    ends_cache: dict = field(default_factory=dict, init=False, repr=False)

    def fit(self, low, high, keys, scale: int):
        """Check one parameter's endpoint orbits against the skeleton.

        `keys` holds the order keys of the two orbits' points at `scale`
        (`_level_keys`, at the separating scale of the orbits' start).
        Returns the keys of the lower and of the upper segments' levels,
        both ascending, their boundary factors at `scale` (`factors`) and
        the number of rectangles; None when the digits or the order of an
        orbit differ from the skeleton's.  Raises
        AttractorError when a rectangle of the staircase would be empty or
        an end lies outside (-1, 1) (`rounded_ends`).  With every level in
        [alpha - 1, alpha], inside (-1, 1), an end in (-1, 1) gives
        1 + x y > 0: no rectangle reaches a pole of the density.

        The left end L of an upper segment must lie below the right end R of
        a lower one.  With the ends X = `rounded_ends(W)` at W = scale, each
        within s units of its value times 2^W, (R - L) 2^W exceeds
        X_R - X_L - 2s, so X_R - X_L >= 2s proves L < R; only where the
        integers cannot decide is the test exact.
        """
        if low.digits != self.low_digits or high.digits != self.high_digits:
            return None
        lo, hi = self.ordered(keys)
        if not (_increasing(lo) and _increasing(hi)):
            return None
        X_rights, X_lefts, slack = self.rounded_ends(scale)
        rects = 0
        for _, y_hi, i, j in _staircase(lo, hi):
            if not _below(self.lefts[j], self.rights[i], X_lefts[j], X_rights[i], slack):
                # the key is that of the next upper level, or else of the next lower one
                if j < len(hi) and hi[j] == y_hi:
                    top = high.points[self.high_order[j]]
                else:
                    top = low.points[self.low_order[i + 1]]
                raise AttractorError(f"empty rectangle below level {top}")
            rects += 1
        return lo, hi, self.factors(lo, hi, scale, _key_scale(low.points[0], scale) - scale), rects

    def ordered(self, keys):
        """Both orbits' keys in the skeleton's segment order: (lower, upper)."""
        return [keys[0][k] for k in self.low_order], [keys[1][k] for k in self.high_order]

    def factors(self, lo, hi, scale: int, shift: int) -> list[tuple[int, int]]:
        """The boundary factors at W = `scale` over the ascending level keys
        `lo` and `hi` of the lower and the upper segments (`ordered`), taken
        at the scale W + `shift`: Y = K >> shift is the level times 2^W,
        rounded down, exactly.

        The integral of dx/(1+xy)^2 from L to R is R/(1+Ry) - L/(1+Ly), whose
        integral in y is a log, so a lower segment with right end R over
        [y0, y1] gives log((1+R y1)/(1+R y0)) and an upper one with left end
        L gives log((1+L y0)/(1+L y1)).  With the keys' Y and the ends' X
        (`rounded_ends`) these are the pairs (2^W + (X Y1 >> W), 2^W +
        (X Y0 >> W)) below, then (2^W + (X Y0 >> W), 2^W + (X Y1 >> W))
        above; lo[0] (alpha - 1) opens the upper boundary and hi[-1] (alpha)
        closes the lower one.
        """
        rights, lefts, _ = self.rounded_ends(scale)
        one = 1 << scale
        if shift:
            lo, hi = [K >> shift for K in lo], [K >> shift for K in hi]
        ys_lo = lo + [hi[-1]]
        ys_hi = [lo[0]] + hi
        return [
            (one + (R * y1 >> scale), one + (R * y0 >> scale)) for R, y0, y1 in zip(rights, ys_lo, ys_lo[1:])
        ] + [(one + (L * y0 >> scale), one + (L * y1 >> scale)) for L, y0, y1 in zip(lefts, ys_hi, ys_hi[1:])]

    def rounded_ends(self, scale: int):
        """The right ends of the lower segments and the left ends of the
        upper ones, times 2^scale and rounded down (`_scaled`), and the
        bound s on their rounding (`_slack`); kept per scale.

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
            X, slack = _scaled(ends, scale), _slack(ends)
            for X_end, x in zip(X, ends):
                if not (abs(X_end) + slack < 1 << scale or -1 < x < 1):
                    raise AttractorError(f"density pole: end {x} lies outside (-1, 1)")
            n = len(self.rights)
            got = self.ends_cache[scale] = X[:n], X[n:], slack
        return got


def _increasing(values) -> bool:
    return all(a < b for a, b in pairwise(values))


def _key_scale(start: Fraction, scale: int) -> int:
    """The scale S = max(scale, 2 b + 2) of the order keys of an orbit from
    `start`, b the bit length of its denominator (`_level_keys`)."""
    return max(scale, 2 * start.denominator.bit_length() + 2)


def _level_keys(points, scale: int) -> list[int]:
    """The order key K = floor(y 2^S) of each level y = n/m of an orbit, at
    the separating scale S = `_key_scale(points[0], scale)`.

    With alpha = P/Q the start, alpha - 1 or alpha, has denominator Q, and
    along the orbit the next denominator is |a| < b for the point a/b
    (`kdynamics._rational_orbit`), since |a/b| < 1: every level has
    denominator at most Q.  Two distinct levels then differ by at least
    1/Q^2 > 4 / 2^S, so their keys differ, and equal levels have equal
    keys: keys of both orbits compare as their levels do, with no tie.
    K >> (S - scale) is floor(y 2^scale) exactly, at the entropy's scale
    the level rounded for the boundary factors (`_Skeleton.factors`).
    Where S = scale, as at every grid point of `entropy_curve` and every
    denominator below 2^((scale - 2) / 2), the keys are those integers.
    """
    S = _key_scale(points[0], scale)
    return [(y.numerator << S) // y.denominator for y in points]


def _skeleton(word: str, low, high, keys) -> _Skeleton:
    """The skeleton of the qumterval of a side-0 word, from the endpoint
    orbits at one parameter inside it and their order keys: both ends of
    every segment are pushed and each seam and the closure are checked
    exactly, then one end per segment is kept."""
    x, y = attractor_corners(word)
    if None in low.digits or None in high.digits:
        raise AttractorError("endpoint orbit hit zero before the matching time")
    # (left, right) ends of the segment at each orbit index; the map is increasing
    lower = list(zip(_abscissae(y, low.digits), _abscissae(x / (1 + x), low.digits)))
    upper = list(zip(_abscissae(y / (1 - y), high.digits), _abscissae(x, high.digits)))
    low_keys, high_keys = keys
    low_order = sorted(range(len(lower)), key=low_keys.__getitem__)
    high_order = sorted(range(len(upper)), key=high_keys.__getitem__)
    if low_order[0] != 0 or high_order[-1] != 0:
        raise AttractorError("endpoint level is not extremal in its orbit")
    low_x = [lower[k] for k in low_order]
    high_x = [upper[k] for k in high_order]
    for k, ((_, right), (left, _)) in enumerate(pairwise(low_x), start=1):
        if left != right:
            raise AttractorError(
                f"lower seam open at level {low.points[low_order[k]]}: {left} != {right}"
            )
    for k, ((_, right), (left, _)) in enumerate(pairwise(high_x)):
        if right != left:
            raise AttractorError(
                f"upper seam open at level {high.points[high_order[k]]}: {right} != {left}"
            )
    if low_x[-1][1] != x or high_x[0][0] != y:
        raise AttractorError("staircase does not close at the far corner")
    return _Skeleton(
        low_digits=low.digits,
        high_digits=high.digits,
        low_order=tuple(low_order),
        high_order=tuple(high_order),
        rights=tuple(right for _, right in low_x),
        lefts=tuple(left for left, _ in high_x),
    )


def _fitted(alpha: Fraction, q: Qumterval, skeletons: dict, scale: int):
    """The endpoint orbits of a parameter alpha <= 1/2 of q and their fit to
    the skeleton of q's word in `skeletons`, with order keys at `scale`.

    A missing skeleton, or one these orbits do not fit, is replaced by one
    built from these orbits, so no orbit is computed twice.  Returns the
    skeleton, the two orbits and the fit (`_Skeleton.fit`).
    """
    low = orbit(alpha, alpha - 1, q.m0)
    high = orbit(alpha, alpha, q.m1)
    keys = _level_keys(low.points, scale), _level_keys(high.points, scale)
    skel = skeletons.get(q.word)
    fit = None if skel is None else skel.fit(low, high, keys, scale)
    if fit is None:
        skel = skeletons[q.word] = _skeleton(q.word, low, high, keys)
        fit = skel.fit(low, high, keys, scale)
        if fit is None:
            raise AttractorError("an endpoint orbit repeats a level before the matching time")
    return skel, low, high, fit


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
    # the keys order the levels at any scale; this one sets the integers of the fit's rectangle tests
    skel, low, high, (lo, hi, _, _) = _fitted(alpha, q, {}, MIN_PRECISION)
    # distinct levels have distinct keys, so a key names its level
    level = dict(zip(lo, map(low.points.__getitem__, skel.low_order)))
    level.update(zip(hi, map(high.points.__getitem__, skel.high_order)))
    return Attractor(
        word=q.word,
        alpha=alpha,
        rects=tuple(
            Rect(skel.lefts[j], skel.rights[i], level[y_lo], level[y_hi])
            for y_lo, y_hi, i, j in _staircase(lo, hi)
        ),
        corner_x=skel.rights[-1],
        corner_y=skel.lefts[0],
        h_levels_low=tuple(low.points),
        h_levels_high=tuple(high.points),
        # every segment end is in rights or lefts, each strictly ascending (increasing pushes
        # from y < x/(1 + x) and y/(1 - y) < x, chained by the seams): sorted merges two runs
        v_levels=tuple(v for v, _ in groupby(sorted(skel.rights + skel.lefts))),
        skeleton=skel,
    )


def _staircase(lo: list, hi: list):
    """Merge the ascending levels of the lower and the upper boundary into
    the rectangles between them; the levels may be given by their order
    keys (`_level_keys`, integers), which the merge then yields.

    Yields (y_lo, y_hi, i, j) for each pair of consecutive distinct levels:
    the rectangle's right end is that of lower segment i, the last at or
    below y_lo, and its left end that of upper segment j, the first at or
    above y_hi.  A level in both lists is taken once.  Both segments exist
    because lo[0] = alpha - 1 is the lowest level and hi[-1] = alpha the
    highest (checked by `_skeleton`).
    """
    i = j = 0
    n_lo, n_hi = len(lo), len(hi)
    below = None
    while i < n_lo or j < n_hi:
        if j == n_hi or (i < n_lo and lo[i] < hi[j]):
            level = lo[i]
        else:
            level = hi[j]
        if below is not None:
            yield below, level, i_below, j
        while i < n_lo and lo[i] == level:
            i += 1
        while j < n_hi and hi[j] == level:
            j += 1
        below, i_below = level, i - 1


def corner_system_residues(w: str):
    """Exact residues of the two corner fixed-point equations (both must be
    equal pairs): checked at the pseudocenter of the qumterval of w."""
    q = qumterval_of(w)
    x, y = attractor_corners(w)
    j0, j1 = orbit_order_extremes(w)
    alpha = q.pseudocenter
    low = orbit(alpha, alpha - 1, j0)
    high = orbit(alpha, alpha, j1)
    *_, xi = _abscissae(x, high.digits)
    lhs1 = mobius_apply(S * T * S, y)
    *_, eta = _abscissae(y, low.digits)
    lhs2 = mobius_apply(S * T**-1 * S, x)
    return (lhs1, xi), (lhs2, eta)


# ---------------------------------------------------------------------------
# masses and entropy
# ---------------------------------------------------------------------------


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
                root = roots[v.d] = isqrt(v.d << 2 * scale)
            out.append(((v.p << scale) + v.q * root) // v.r)
        else:
            out.append((v.numerator << scale) // v.denominator)
    return out


def _slack(values) -> int:
    """A whole number of units that bounds, strictly, the rounding of
    `_scaled` over `values` at any scale: ceil(|q|/r) + 1 for a surd, 1 for
    a rational."""
    return max((-(-abs(v.q) // v.r) + 1 if isinstance(v, QuadSurd) else 1 for v in values), default=1)


def attractor_mass(attr: Attractor, precision: int | None = None):
    """(area integral, error bound): the boundary product of the attractor's
    skeleton (`_boundary_mass`), so `entropy_at(attr.alpha, precision).A`
    bit for bit.  Nothing is kept between calls."""
    bits = checked_precision(precision)
    scale, skel = bits + _GUARD, attr.skeleton
    # the skeleton orders the levels; the factors need them rounded at the scale only
    ys = [_scaled(levels, scale) for levels in (attr.h_levels_low, attr.h_levels_high)]
    return _boundary_mass(skel.factors(*skel.ordered(ys), scale, 0), len(attr.rects), bits)


@dataclass(frozen=True)
class EntropySample:
    alpha: Fraction
    word: str
    m0: int
    m1: int
    A: mpmath.mpf
    h: mpmath.mpf
    err_bound: mpmath.mpf


_HALF = Fraction(1, 2)


def entropy_at(alpha, precision: int | None = None) -> EntropySample:
    """Metric entropy at a rational parameter through the exact attractor and
    h = pi^2 / (3 A); parameters above 1/2 are reflected (measurable
    conjugation), with the containing word reported on the original side."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("entropy is computed for parameters strictly inside (0, 1)")
    base = alpha if alpha <= _HALF else 1 - alpha
    return _entropy_sample(alpha, base, locate_qumterval(base), {}, precision)


def _entropy_sample(
    alpha: Fraction, base: Fraction, q: Qumterval, skeletons: dict, precision: int | None
) -> EntropySample:
    """The entropy at alpha, whose reflection `base` <= 1/2 lies in q.

    The mass comes from the skeleton of q's word in `skeletons` (`_fitted`).
    """
    bits = checked_precision(precision)
    _, _, _, (_, _, factors, rects) = _fitted(base, q, skeletons, bits + _GUARD)
    A, err = _boundary_mass(factors, rects, bits)
    h, h_err = _entropy_of(A, err, bits)
    word, m0, m1 = q.word, q.m0, q.m1
    if alpha != base:  # reported on the original side: the mirror word, counts swapped
        word, m0, m1 = words.transpose(words.negate(word)), m1, m0
    return EntropySample(
        alpha=alpha,
        word=word,
        m0=m0,
        m1=m1,
        A=A,
        h=h,
        err_bound=h_err,
    )


def _boundary_mass(factors, rects: int, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(area integral, error bound) from the boundary factors at the scale
    W = bits + _GUARD (`_Skeleton.factors`).

    One log of the ratio of the factors' products is the sum of the
    rectangle masses; the error estimate is theirs, summed in closed form.
    Numerator and denominator shift right together once both pass 2W bits,
    which keeps the smaller at W bits, and one log of their ratio is taken
    at `bits` (`_mass_of`).
    """
    scale = bits + _GUARD
    num = den = 1
    for up, down in factors:
        num *= up
        den *= down
        extra = min(num.bit_length(), den.bit_length()) - scale
        if extra > scale:
            num >>= extra
            den >>= extra
    return _mass_of(num, den, rects, bits)


def _mass_of(num: int, den: int, rects: int, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The mass A = log(num / den) of a boundary product and its bound
    err = 2^-bits (32 rects + 8 A): num and den rounded to `bits`, then
    each operation rounded to nearest at `bits`, in the order of these
    expressions."""
    n, d = from_int(num, bits, round_nearest), from_int(den, bits, round_nearest)
    A = mpf_log(mpf_div(n, d, bits, round_nearest), bits, round_nearest)
    err = mpf_shift(mpf_add(mpf_shift(A, 3), from_int(32 * rects), bits, round_nearest), -bits)
    return mpmath.mp.make_mpf(A), mpmath.mp.make_mpf(err)


@lru_cache(maxsize=32)
def _pi_squared(bits: int):
    """pi^2 as a raw mpf: pi and its square each rounded to nearest at `bits`."""
    return mpf_pow_int(mpf_pi(bits, round_nearest), 2, bits, round_nearest)


def _entropy_of(A: mpmath.mpf, err: mpmath.mpf, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """h = pi^2 / (3 A) and its bound h (err / A) + 2^(8 - bits), from the
    mass A and its bound err (`_boundary_mass`): each operation rounded to
    nearest at `bits`, in the order of these expressions."""
    a = A._mpf_
    h = mpf_div(_pi_squared(bits), mpf_mul_int(a, 3, bits, round_nearest), bits, round_nearest)
    rel = mpf_div(err._mpf_, a, bits, round_nearest)
    h_err = mpf_add(mpf_mul(h, rel, bits, round_nearest), mpf_shift(fone, 8 - bits), bits, round_nearest)
    return mpmath.mp.make_mpf(h), mpmath.mp.make_mpf(h_err)


def density_slice(attr: Attractor, t, precision: int | None = None) -> mpmath.mpf:
    """Invariant density at height t: the exact antiderivative
    (x_hi - x_lo)/((1+x_lo t)(1+x_hi t)) of the one rectangle with
    y_lo <= t < y_hi, found by bisection (the top one at t = alpha), over
    `attractor_mass`."""
    if not isinstance(t, (int, Fraction, QuadSurd)):
        # quadrature callers pass floats; clamp their rounding slack
        t = min(max(Fraction(float(t)), attr.alpha - 1), attr.alpha)
    if not attr.alpha - 1 <= t <= attr.alpha:
        raise ValueError("height outside the interval")
    A, _ = attractor_mass(attr, precision)
    rect = attr.rects[bisect_right(attr.rects, t, key=lambda r: r.y_lo) - 1]
    with working_precision(precision):
        tm = to_mpf(t)
        xl, xh = to_mpf(rect.x_lo), to_mpf(rect.x_hi)
        return (xh - xl) / ((1 + xl * tm) * (1 + xh * tm)) / A


def measure_interval(attr: Attractor, lo, hi, precision: int | None = None) -> mpmath.mpf:
    """Invariant measure of [lo, hi], for rational bounds inside the map's
    interval: the boundary product of the attractor's skeleton over its
    levels clamped into [lo, hi] (`_boundary_mass`), over the attractor
    mass (`attractor_mass`), rounded to nearest at the working precision.
    Clamped, a segment's span is its part of the band; a segment outside
    the band has y0 = y1 and a pair of equal factors.  The clamp is taken
    on the levels and bounds rounded down at the mass's scale: rounding
    down is monotone, so it gives the clamped levels rounded, and no two
    exact values are compared."""
    for bound in (lo, hi):
        if not isinstance(bound, (int, Fraction)):
            raise ValueError(f"measure bounds must be rational, got {bound!r}")
    if not (attr.alpha - 1 <= lo <= hi <= attr.alpha):
        raise ValueError("interval must sit inside [alpha-1, alpha]")
    bits = checked_precision(precision)
    scale, skel = bits + _GUARD, attr.skeleton
    A, _ = attractor_mass(attr, bits)
    bottom, top = _scaled([lo, hi], scale)
    levels = attr.h_levels_low, attr.h_levels_high
    band = [[min(max(Y, bottom), top) for Y in _scaled(ys, scale)] for ys in levels]
    B, _ = _boundary_mass(skel.factors(*skel.ordered(band), scale, 0), 0, bits)
    return mpmath.mp.make_mpf(mpf_div(B._mpf_, A._mpf_, bits, round_nearest))


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
    `Fraction`.
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
    grid = []
    last = None
    for i in range(1, parts):
        k, rem = divmod((base + step * i) * _GRID_DEN, den)
        if 2 * rem > den or (2 * rem == den and k & 1):
            k += 1
        if k * sd > lo and k * td < hi and k != last:
            grid.append(Fraction(k, _GRID_DEN))
            last = k
    return grid


def entropy_curve(
    start, stop, samples: int, precision: int | None = None, jobs: int = 1
) -> list[EntropySample]:
    """Entropy along a rational grid in (start, stop), endpoints avoided.

    The samples equal those of `entropy_at`.  With jobs > 1 contiguous chunks
    of the grid go to worker processes, each through the same loop.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid = entropy_grid(start, stop, samples)
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which every cold start would pay
        from concurrent.futures import ProcessPoolExecutor

        size = -(-len(grid) // (4 * jobs))
        chunks = [grid[k : k + size] for k in range(0, len(grid), size)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(_entropy_run, chunks, [precision] * len(chunks))
            return [s for part in parts for s in part]
    return _entropy_run(grid, precision)


def _entropy_run(grid, precision: int | None) -> list[EntropySample]:
    """The entropy at each parameter of the grid.  Parameters of one
    qumterval share a skeleton, kept for this call only, and the qumterval
    of the previous parameter is tried before a descent."""
    skeletons: dict[str, _Skeleton] = {}
    q = None
    out = []
    for alpha in grid:
        base = alpha if alpha <= _HALF else 1 - alpha
        if q is None or base not in q:
            q = locate_qumterval(base)
        out.append(_entropy_sample(alpha, base, q, skeletons, precision))
    return out


def asymptotic_probe(n_values, precision: int | None = None) -> list[dict]:
    """Entropy against pi^2/(3 log(N+1)) at the parameters 1/(N+1) whose
    qumtervals have runlength (N, 1); the attractor mass grows like log N.

    A and its error bound come from the fit's boundary factors
    (`_boundary_mass`), so A is that of `entropy_at`."""
    bits = checked_precision(precision)
    rows = []
    for n in n_values:
        if n < 2:
            raise ValueError("N must be at least 2")
        q = qumterval_of("0" * n + "1")
        _, _, _, (_, _, factors, rects) = _fitted(q.pseudocenter, q, {}, bits + _GUARD)
        A, err = _boundary_mass(factors, rects, bits)
        h, _ = _entropy_of(A, err, bits)
        with working_precision(bits):
            log_n1 = mpmath.log(n + 1)
            target = mpmath.pi**2 / (3 * log_n1)
            rows.append(
                {
                    "N": n,
                    "alpha": q.pseudocenter,
                    "h": h,
                    "target": target,
                    "ratio": float(h / target),
                    "A": A,
                    "A_minus_log": float(A - log_n1),
                    "err_bound": err,
                }
            )
    return rows


def qumterval_slope(q: Qumterval, precision: int | None = None) -> dict:
    """Difference quotient of the entropy across the inner 3/4 of a qumterval."""
    width = q.alpha_plus - q.alpha_minus
    p1 = simplest_rational_between(q.alpha_minus, q.alpha_minus + width / 8)
    p2 = simplest_rational_between(q.alpha_plus - width / 8, q.alpha_plus)
    h1 = entropy_at(p1, precision).h
    h2 = entropy_at(p2, precision).h
    return {
        "word": q.word,
        "a": p1,
        "b": p2,
        "slope": float((h2 - h1) / (p2 - p1)),
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


def plateau_entropy(precision: int | None = None) -> mpmath.mpf:
    """pi^2 / (6 log(1+g)) with g the golden mean: the constant value of the
    entropy on the middle qumterval."""
    with working_precision(precision):
        g = (mpmath.sqrt(5) - 1) / 2
        return mpmath.pi**2 / (6 * mpmath.log(1 + g))


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
    with working_precision(None):
        h = entropy_at(Fraction(9, 20)).h
        checks.append(("plateau value", abs(h - plateau_entropy()) < mpmath.mpf(10) ** -20))
        sym = entropy_at(Fraction(11, 20)).h
        checks.append(("reflection", abs(h - sym) == 0))
    (l1, r1), (l2, r2) = corner_system_residues("00101")
    checks.append(("corner system", l1 == r1 and l2 == r2))
    return checks
