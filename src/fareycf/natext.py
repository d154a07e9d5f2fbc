"""Natural-extension attractors and the entropy function.

For a rational parameter inside a qumterval the planar natural extension has
an attractor made of finitely many axis-parallel rectangles.  Horizontal
levels are the exact endpoint orbits up to the matching time; the vertical
lines come from pushing the two corner abscissae (quadratic surds fixed by
the qumterval) through the extension map.  Every seam between consecutive
boundary segments is checked exactly; only the final mass integrals
(closed-form logs of the invariant density) are floating, at a configurable
precision with a stated error bound.

The exact pass is integer arithmetic throughout: the endpoint orbits step in
integers (`kdynamics.orbit`), each abscissa push is one surd reduction, the
density-pole test of a rectangle corner is one integer sign test, and the
rectangles come from one merge of the two level-sorted boundaries.  The mass
rounds each distinct coordinate once and is kept on the attractor, per
precision, for `density_slice` and `measure_interval`.

The entropy then follows from the identity  h * area = pi^2 / 3  where
"area" is the mass of the attractor under dx dy / (1 + x y)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise

import mpmath

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
from .precision import checked_precision, working_precision


class AttractorError(AssertionError):
    """A seam or corner condition failed; the construction data are wrong."""


@dataclass(frozen=True)
class Rect:
    x_lo: Exact
    x_hi: Exact
    y_lo: Exact
    y_hi: Exact

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError("degenerate rectangle")
        for xc in (self.x_lo, self.x_hi):
            for yc in (self.y_lo, self.y_hi):
                if not _pole_free(xc, yc):
                    raise ValueError("density pole inside rectangle")


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
class Segment:
    """Horizontal boundary piece at a given level."""

    level: Exact
    left: Exact
    right: Exact


@dataclass(frozen=True)
class Attractor:
    word: str
    alpha: Fraction
    rects: tuple[Rect, ...]
    corner_x: Exact
    corner_y: Exact
    h_levels_low: tuple[Exact, ...]
    h_levels_high: tuple[Exact, ...]
    lower_segments: tuple[Segment, ...]  # sorted by level, bound from below
    upper_segments: tuple[Segment, ...]  # sorted by level descending, bound from above
    # (mass, error bound) by precision in bits, filled by attractor_mass
    mass_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def v_levels(self) -> tuple[Exact, ...]:
        vals: list[Exact] = []
        for seg in self.lower_segments + self.upper_segments:
            vals.extend((seg.left, seg.right))
        out: list[Exact] = []
        for v in sorted(vals):
            if not out or out[-1] != v:
                out.append(v)
        return tuple(out)


@lru_cache(maxsize=1024)
def attractor_corners(w: str) -> tuple[Exact, Exact]:
    """Upper-right abscissa x and lower-left abscissa y of the attractor for
    any parameter in the qumterval of w (side-0 words only).

    x repeats the reversed block pattern (1, a_n, ..., 1, a_1); -y repeats
    the runlength string itself.  Both solve the corner fixed-point system.
    """
    if words.farey_side(w) != 0:
        raise ValueError("corners are built for side-0 words; reflect first")
    S_rl = cfs.runlength(w)
    if any(d != 1 for d in S_rl[1::2]):
        raise ValueError(f"runlength of {w!r} is not of the form (a1,1,...,an,1)")
    a = S_rl[0::2]
    period_x = tuple(v for ak in reversed(a) for v in (1, ak))
    x = surd_from_periodic_cf((), period_x)
    y = -surd_from_periodic_cf((), S_rl)
    return x, y


def _xi_step(c: int, xi: QuadSurd) -> Exact:
    """The abscissa update S T^-c of the extension map for branch digit c:
    xi -> 1/(c - xi).  With xi = (p + q sqrt d)/r and u = c r - p this is
    r (u + q sqrt d) / (u^2 - q^2 d), reduced once."""
    p, q, r, d = xi.p, xi.q, xi.r, xi.d
    u = c * r - p
    return QuadSurd._reduced(r * u, r * q, u * u - q * q * d, d)


def _push_segments(start: Segment, levels, digits) -> list[Segment]:
    segs = [start]
    left, right = start.left, start.right
    for level, c in zip(levels[1:], digits):
        left, right = _xi_step(c, left), _xi_step(c, right)  # increasing map
        segs.append(Segment(level, left, right))
    return segs


def build_attractor(alpha, word: str | None = None) -> Attractor:
    """Exact rectangle decomposition of the attractor at a rational parameter.

    Raises AttractorError with a diagnostic if any boundary seam fails to
    close, which would indicate wrong orbit-ordering data.
    """
    alpha = Fraction(alpha)
    q: Qumterval = locate_qumterval(alpha) if word is None else qumterval_of(word)
    if alpha not in q:
        raise ValueError(f"alpha={alpha} is not inside the qumterval of {q.word!r}")
    if words.farey_side(q.word) == 1:
        raise ValueError("parameters above 1/2: reflect with alpha -> 1 - alpha")
    x, y = attractor_corners(q.word)

    low = orbit(alpha, alpha - 1, q.m0)
    high = orbit(alpha, alpha, q.m1)
    if None in low.digits or None in high.digits:
        raise AttractorError("endpoint orbit hit zero before the matching time")

    lower = _push_segments(
        Segment(alpha - 1, y, x / (1 + x)), low.points, low.digits
    )
    upper = _push_segments(Segment(alpha, y / (1 - y), x), high.points, high.digits)

    lower.sort(key=lambda s: s.level)
    upper.sort(key=lambda s: s.level, reverse=True)

    if lower[0].level != alpha - 1 or upper[0].level != alpha:
        raise AttractorError("endpoint level is not extremal in its orbit")
    for prev, cur in zip(lower, lower[1:]):
        if cur.left != prev.right:
            raise AttractorError(
                f"lower seam open at level {cur.level}: {cur.left} != {prev.right}"
            )
    for prev, cur in zip(upper, upper[1:]):
        if cur.right != prev.left:
            raise AttractorError(
                f"upper seam open at level {cur.level}: {cur.right} != {prev.left}"
            )
    if lower[-1].right != x or upper[-1].left != y:
        raise AttractorError("staircase does not close at the far corner")

    rects = [
        Rect(left, right, lo_lvl, hi_lvl)
        for (lo_lvl, right, _), (hi_lvl, _, left) in pairwise(_staircase(lower, upper[::-1]))
    ]

    return Attractor(
        word=q.word,
        alpha=alpha,
        rects=tuple(rects),
        corner_x=x,
        corner_y=y,
        h_levels_low=tuple(low.points),
        h_levels_high=tuple(high.points),
        lower_segments=tuple(lower),
        upper_segments=tuple(upper),
    )


def _staircase(lower: list[Segment], upper: list[Segment]):
    """Merge two level-sorted boundaries (both ascending) into one staircase.

    Yields (level, right, left) for each distinct level: `right` is the
    right end of the last lower segment at or below the level, `left` the
    left end of the first upper segment at or above it.  A level in both
    lists is taken once.  Both exist at every level because the lowest
    level is lower[0]'s and the highest upper[-1]'s (checked by the caller).
    """
    i = j = 0
    n_lo, n_hi = len(lower), len(upper)
    while i < n_lo or j < n_hi:
        if j == n_hi or (i < n_lo and lower[i].level < upper[j].level):
            level = lower[i].level
        else:
            level = upper[j].level
        left = upper[j].left
        while i < n_lo and lower[i].level == level:
            i += 1
        while j < n_hi and upper[j].level == level:
            j += 1
        yield level, lower[i - 1].right, left


def corner_system_residues(w: str):
    """Exact residues of the two corner fixed-point equations (both must be
    equal pairs): checked at the pseudocenter of the qumterval of w."""
    q = qumterval_of(w)
    x, y = attractor_corners(w)
    j0, j1 = orbit_order_extremes(w)
    alpha = q.pseudocenter
    low = orbit(alpha, alpha - 1, j0)
    high = orbit(alpha, alpha, j1)
    xi = x
    for c in high.digits:
        xi = _xi_step(c, xi)
    lhs1 = mobius_apply(S * T * S, y)
    eta = y
    for c in low.digits:
        eta = _xi_step(c, eta)
    lhs2 = mobius_apply(S * T**-1 * S, x)
    return (lhs1, xi), (lhs2, eta)


# ---------------------------------------------------------------------------
# masses and entropy
# ---------------------------------------------------------------------------


def rect_mass(rect: Rect, precision: int | None = None) -> mpmath.mpf:
    """Mass of a rectangle under dx dy / (1+xy)^2: the closed form
    log((1+x_hi y_hi)(1+x_lo y_lo) / ((1+x_hi y_lo)(1+x_lo y_hi)))."""
    return _rect_mass_err(rect, precision)[0]


def _log_ratio(xl, xh, yl, yh) -> mpmath.mpf:
    return mpmath.log(((1 + xh * yh) * (1 + xl * yl)) / ((1 + xh * yl) * (1 + xl * yh)))


def _mass_err(unit, mass) -> mpmath.mpf:
    # a handful of exactly-rounded operations: crude outward bound
    return unit * (32 + 8 * abs(mass))


def _rect_mass_err(rect: Rect, precision: int | None = None):
    bits = checked_precision(precision)
    with working_precision(bits):
        mass = _log_ratio(to_mpf(rect.x_lo), to_mpf(rect.x_hi), to_mpf(rect.y_lo), to_mpf(rect.y_hi))
        return mass, _mass_err(mpmath.mpf(2) ** (-bits), mass)


def attractor_mass(attr: Attractor, precision: int | None = None):
    """(area integral, error bound) summed over the rectangles; computed once
    per precision and kept on the attractor.

    Rectangles share their coordinate objects, so each is rounded to mpf
    once, found by identity (hashing a Fraction with a large denominator
    costs a modular inverse); sqrt(d) is taken once per field.  The values
    are those of `to_mpf`, so every rectangle's mass is that of `rect_mass`.
    """
    bits = checked_precision(precision)
    cached = attr.mass_cache.get(bits)
    if cached is not None:
        return cached
    with working_precision(bits):
        mpf = mpmath.mpf
        roots: dict[int, mpmath.mpf] = {}
        values: dict[int, mpmath.mpf] = {}

        def value(v: Exact) -> mpmath.mpf:
            got = values.get(id(v))
            if got is None:
                if isinstance(v, QuadSurd):
                    root = roots.get(v.d)
                    if root is None:
                        root = roots[v.d] = mpmath.sqrt(mpf(v.d))
                    got = v.to_mpf(root)
                else:
                    got = to_mpf(v)
                values[id(v)] = got
            return got

        unit = mpf(2) ** (-bits)
        total = mpf(0)
        err = mpf(0)
        for rect in attr.rects:
            m = _log_ratio(value(rect.x_lo), value(rect.x_hi), value(rect.y_lo), value(rect.y_hi))
            total += m
            err += _mass_err(unit, m)
    mass = attr.mass_cache[bits] = total, err
    return mass


@dataclass(frozen=True)
class EntropySample:
    alpha: Fraction
    word: str
    m0: int
    m1: int
    A: mpmath.mpf
    h: mpmath.mpf
    err_bound: mpmath.mpf


def entropy_at(alpha, precision: int | None = None) -> EntropySample:
    """Metric entropy at a rational parameter through the exact attractor and
    h = pi^2 / (3 A); parameters above 1/2 are reflected (measurable
    conjugation), with the containing word reported on the original side."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("entropy is computed for parameters strictly inside (0, 1)")
    base = alpha if alpha <= Fraction(1, 2) else 1 - alpha
    attr = build_attractor(base)
    A, err = attractor_mass(attr, precision)
    with working_precision(precision):
        h = mpmath.pi**2 / (3 * A)
        h_err = h * (err / A) + mpmath.mpf(2) ** (8 - checked_precision(precision))
    word = attr.word if alpha <= Fraction(1, 2) else words.transpose(words.negate(attr.word))
    return EntropySample(
        alpha=alpha,
        word=word,
        m0=word.count("0"),
        m1=word.count("1"),
        A=A,
        h=h,
        err_bound=h_err,
    )


def density_slice(attr: Attractor, t, precision: int | None = None) -> mpmath.mpf:
    """Invariant density at height t: per-slice exact antiderivative
    (x_hi - x_lo)/((1+x_lo t)(1+x_hi t)) summed over the rectangles cut by t,
    normalized by the attractor mass."""
    if not isinstance(t, (int, Fraction, QuadSurd)):
        # quadrature callers pass floats; clamp their rounding slack
        t = min(max(Fraction(float(t)), attr.alpha - 1), attr.alpha)
    if not attr.alpha - 1 <= t <= attr.alpha:
        raise ValueError("height outside the interval")
    A, _ = attractor_mass(attr, precision)
    top = attr.alpha
    with working_precision(precision):
        tm = to_mpf(t)
        total = mpmath.mpf(0)
        for rect in attr.rects:
            if rect.y_lo <= t < rect.y_hi or (t == top and rect.y_hi == top):
                xl, xh = to_mpf(rect.x_lo), to_mpf(rect.x_hi)
                total += (xh - xl) / ((1 + xl * tm) * (1 + xh * tm))
        return total / A


def measure_interval(attr: Attractor, lo, hi, precision: int | None = None) -> mpmath.mpf:
    """Invariant measure of [lo, hi] (inside the map's interval), by clipping
    the rectangles and taking closed-form masses over the attractor mass."""
    if not (attr.alpha - 1 <= lo <= hi <= attr.alpha):
        raise ValueError("interval must sit inside [alpha-1, alpha]")
    A, _ = attractor_mass(attr, precision)
    with working_precision(precision):
        total = mpmath.mpf(0)
        for rect in attr.rects:
            ylo = rect.y_lo if rect.y_lo > lo else lo
            yhi = rect.y_hi if rect.y_hi < hi else hi
            if ylo < yhi:
                m, _ = _rect_mass_err(Rect(rect.x_lo, rect.x_hi, ylo, yhi), precision)
                total += m
        return total / A


# ---------------------------------------------------------------------------
# parameter sweeps and probes
# ---------------------------------------------------------------------------

_GRID_DEN = 2**19  # dyadic sample grid; denominators stay below 10**6


def _entropy_worker(args):
    alpha, precision = args
    return entropy_at(alpha, precision)


def entropy_grid(start, stop, samples: int) -> list[Fraction]:
    start, stop = Fraction(start), Fraction(stop)
    if not 0 < start < stop < 1:
        raise ValueError("need 0 < start < stop < 1")
    if samples < 2:
        raise ValueError("need at least two samples")
    grid = []
    for i in range(1, samples + 1):
        exact = start + (stop - start) * Fraction(i, samples + 1)
        r = Fraction(round(exact * _GRID_DEN), _GRID_DEN)
        if start < r < stop and (not grid or grid[-1] != r):
            grid.append(r)
    return grid


def entropy_curve(
    start, stop, samples: int, precision: int | None = None, jobs: int = 1
) -> list[EntropySample]:
    """Entropy along a rational grid in (start, stop), endpoints avoided."""
    grid = entropy_grid(start, stop, samples)
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which every cold start would pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(
                pool.map(
                    _entropy_worker,
                    [(a, precision) for a in grid],
                    chunksize=max(1, len(grid) // (4 * jobs)),
                )
            )
    return [entropy_at(a, precision) for a in grid]


def asymptotic_probe(n_values, precision: int | None = None) -> list[dict]:
    """Entropy against pi^2/(3 log(N+1)) at the parameters 1/(N+1) whose
    qumtervals have runlength (N, 1); the attractor mass grows like log N."""
    rows = []
    for n in n_values:
        if n < 2:
            raise ValueError("N must be at least 2")
        word = "0" * n + "1"
        q = qumterval_of(word)
        attr = build_attractor(q.pseudocenter, word)
        A, err = attractor_mass(attr, precision)
        with working_precision(precision):
            h = mpmath.pi**2 / (3 * A)
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


def slope_growth_probe(
    word: str,
    side: str = "plus",
    halvings: int = 8,
    delta0: Fraction = Fraction(1, 8),
    precision: int | None = None,
) -> list[dict]:
    """Max sampled entropy slope over qumtervals inside shrinking windows
    around one quadratic endpoint of the named qumterval.

    The windows halve; the mediant path toward the endpoint supplies the
    qumtervals, whose zero/one imbalance (hence slope) grows without bound.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    q0 = qumterval_of(word)
    target = q0.alpha_plus if side == "plus" else q0.alpha_minus
    w1, w2 = words.standard_factorization(word)
    u, v = (word, w2) if side == "plus" else (w1, word)

    rows = []
    mediant = u + v
    best = None
    for k in range(halvings + 1):
        delta = delta0 / 2**k
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
