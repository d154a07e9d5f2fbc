import concurrent.futures
import copy
import hashlib
import os
import pickle
import random
import re
import signal
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, pairwise
from math import gcd, isqrt, lcm
from operator import le

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareycf import bifurcation as bf
from fareycf import exactnum as ex
from fareycf import kdynamics as kd
from fareycf import natext as nx
from fareycf import words as wd
from fareycf.exactnum import (
    DEFAULT_PRECISION,
    QuadSurd,
    S,
    T,
    _slack,
    checked_precision,
    format_exact,
    make_surd,
    mobius_apply,
    pi_squared,
    surd_from_periodic_cf,
)
from fareycf.lyapunov import lyapunov_estimate
import mpf_oracle as oracle
from mpf_oracle import to_mpf, working_precision

G = surd_from_periodic_cf((), (1,))  # golden mean


def side0_words(max_len):
    return [w for w in wd.words_of_length_up_to(max_len) if wd.farey_side(w) == 0]


surds = st.builds(
    make_surd,
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30).filter(bool),
    st.integers(1, 10**30),
    st.sampled_from([2, 3, 5, 13, 21, 10**12 + 39]),
).filter(lambda v: isinstance(v, QuadSurd))
rationals = st.fractions(max_denominator=10**30).filter(lambda v: abs(v) < 10**6)


def fields(v):
    return (v.p, v.q, v.r, v.d)


def xi_step(c, xi):
    """The reference abscissa update xi -> 1/(c - xi): with xi = (p + q sqrt d)/r
    and u = c r - p, r (u + q sqrt d) / (u^2 - q^2 d), reduced in full."""
    p, q, r, d = xi.p, xi.q, xi.r, xi.d
    u = c * r - p
    return QuadSurd._reduced(r * u, r * q, u * u - q * q * d, d)


def reference_chain(xi, digits):
    """`nx._abscissae` by one full reduction per step."""
    chain = [xi]
    for c in digits:
        chain.append(xi_step(c, chain[-1]))
    return chain


def pushed(xi, digits):
    """The fields (p, q, r, d) of the chain `nx._abscissae` pushes as
    integer pairs over one Q, each pair reduced (`QuadSurd._reduced`)."""
    Q = nx._lift(xi)
    return [fields(QuadSurd._reduced(P, Q, R, xi.d)) for P, R in nx._abscissae(xi, digits, Q)]


def separating_scale(start, scale):
    """The oracle's key scale S = max(scale, 2 b + 2), b the bit length of
    the denominator of `start`.  With alpha = P/Q, every level of its
    endpoint orbits has denominator at most Q (the next denominator is
    |a| < b for the point a/b, as |a/b| < 1), so two distinct levels differ
    by at least 1/Q^2 > 4 / 2^S: their keys floor(y 2^S) differ, equal
    levels key alike, and keys of both orbits compare as their levels do."""
    return max(scale, 2 * start.denominator.bit_length() + 2)


def pair(x):
    """The pair (p, q) of a rational p/q, as the integer kernel takes it."""
    return x.numerator, x.denominator


def keys_at(points, scale):
    """floor(y 2^scale) for each exact level y."""
    return [(y.numerator << scale) // y.denominator for y in points]


def level_keys(points, scale):
    """The order keys of exact levels at the separating scale of the first:
    the oracle of the order the fit finds at the scale itself."""
    return keys_at(points, separating_scale(points[0], scale))


def kernel_orbits(alpha, q, scale):
    """Both endpoint orbits at alpha in q as `nx._fitted` takes them from
    the integer kernel: digits, order keys at `scale` and last point."""
    return tuple(kd.rational_orbit(pair(alpha), pair(start), steps, scale) for start, steps in ((alpha - 1, q.m0), (alpha, q.m1)))


def staircase(lo: list, hi: list, tie):
    """The merge oracle: the strictly ascending levels of the lower and the
    upper boundary merged into the rectangles between them; the levels may
    be given by their order keys (integers), with `tie(i, j)` the sign of
    lo[i] - hi[j] where they are equal.

    Yields (y_lo, y_hi, i, j, upper) for each pair of consecutive distinct
    levels: the rectangle's right end is that of lower segment i, the last
    at or below y_lo, and its left end that of upper segment j, the first at
    or above y_hi; `upper` tells that y_hi is hi[j], else it is lo[i + 1].
    A level in both lists is taken once, as hi[j]."""
    i = j = 0
    n_lo, n_hi = len(lo), len(hi)
    below = None
    while j < n_hi:
        if i == n_lo:
            side = 1
        else:
            a, b = lo[i], hi[j]
            side = -1 if a < b else 1 if a > b else tie(i, j)
        level = lo[i] if side < 0 else hi[j]
        if below is not None:
            yield below, level, i - 1, j, side >= 0
        if side <= 0:
            i += 1
        if side >= 0:
            j += 1
        below = level


def replayed(lo, hi, sides):
    """The steps of a fit (`nx._steps` over its sides), each with `upper`,
    that its top level is hi[j] (side 1 or 2), as `staircase` yields them."""
    return [(*step, side > 0) for step, side in zip(nx._steps(lo, hi, sides), sides, strict=True)]


def fit_staircase(skel, alpha, low, high, scale):
    """The fit's keys and its steps replayed from its sides, which are its
    keys merged with the fit's tie rule: tied keys ordered by the
    itineraries (`nx._Itineraries`)."""
    lo, hi, sides = skel.fit(pair(alpha), low, high, scale)
    steps = replayed(lo, hi, sides)
    ties = nx._Itineraries(pair(alpha), low, high, scale)
    assert steps == list(staircase(lo, hi, lambda i, j: ties.order(0, skel.low_order[i], 1, skel.high_order[j])))
    return lo, hi, steps


def equal(i, j):
    """The tie rule of exact levels, which tie only where they are equal."""
    return 0


class TestRewrittenSteps:
    @given(st.integers(-10**6, 10**6), surds)
    def test_xi_step_equals_mobius_action(self, c, xi):
        want = mobius_apply(S * T**-c, xi)
        got = xi_step(c, xi)
        assert isinstance(got, QuadSurd) and fields(got) == fields(want)
        got = pushed(xi, [c])[-1]
        assert got[1] != 0 and got == fields(want)

    @given(surds, st.one_of(rationals, surds), st.booleans())
    def test_pole_test_equals_arithmetic(self, x, y, swap):
        if isinstance(y, QuadSurd) and y.d != x.d:
            y = Fraction(y.p, y.r)  # surds of two fields do not multiply
        if swap:
            x, y = y, x
        assert nx._pole_free(x, y) == (1 + x * y > 0)

    @given(st.integers(-10**6, 10**6).filter(bool))
    def test_corner_on_the_pole_refused(self, k):
        # only rational corners can sit on the pole 1 + x y = 0
        assert not nx._pole_free(Fraction(-1, k), Fraction(k))
        with pytest.raises(ValueError):
            nx.Rect(Fraction(-1, abs(k)), Fraction(1), Fraction(0), Fraction(abs(k)))


def skeleton_pushes(word):
    """The two pushes of `nx._skeleton` for a side-0 word, at its pseudocenter:
    (start, digits) of the lower and of the upper boundary."""
    q = bf.qumterval_of(word)
    alpha = q.pseudocenter
    x, y = nx.attractor_corners(word)
    low = kd.orbit(alpha, alpha - 1, q.m0)
    high = kd.orbit(alpha, alpha, q.m1)
    return [((y, x / (1 + x)), low.digits), ((y / (1 - y), x), high.digits)]


def assert_pushes_field_identical(word):
    for start, digits in skeleton_pushes(word):
        got = list(zip(*(pushed(end, digits) for end in start)))
        want = list(zip(*(reference_chain(end, digits) for end in start)))
        assert len(got) == len(want) == len(digits) + 1
        assert got == [tuple(map(fields, ends)) for ends in want]


class TestAbscissaChain:
    # the recurrence yields the reduced surds of one full reduction per step
    @settings(max_examples=200, deadline=None)
    @given(surds, st.lists(st.integers(-50, 50), max_size=12))
    def test_random_chains(self, xi, digits):
        assert pushed(xi, digits) == list(map(fields, reference_chain(xi, digits)))

    def test_lifted_start(self):
        # r = 7 does not divide p^2 - q^2 d = 1 - 2: the chain starts lifted by 7
        xi = make_surd(1, 1, 7, 2)
        assert (xi.p**2 - xi.q**2 * xi.d) % xi.r
        digits = [3, -2, 5, 1, 1, -7]
        assert pushed(xi, digits) == list(map(fields, reference_chain(xi, digits)))

    @pytest.mark.parametrize("word", side0_words(14))
    def test_short_words(self, word):
        assert_pushes_field_identical(word)

    @pytest.mark.parametrize(
        "word",
        [lambda: "0" * 3000 + "1", lambda: wd.word_from_rational(Fraction(853, 2048))],
        ids=["N=3000", "slope-853/2048"],
    )
    def test_deep_words(self, word):
        assert_pushes_field_identical(word())


def near(value, j, d, scale):
    """value + (j + sqrt(d) - isqrt(d)) / 2^scale: an irrational within
    j to j + 1 units of 2^-scale of value."""
    return value + (j - isqrt(d) + make_surd(0, 1, 1, d)) / 2**scale


def end_pair(x):
    """An exact value as a skeleton end: (pair, Q, d) with x = (P + Q sqrt d)/R
    (`nx._abscissae`), Q = |q| for a surd (p + q sqrt d)/r, Q = 0 (any d) for a rational."""
    if isinstance(x, QuadSurd):
        sign = 1 if x.q > 0 else -1
        return (sign * x.p, sign * x.r), abs(x.q), x.d
    return (x.numerator, x.denominator), 0, 2


def shifted(end, k):
    """The pair of a skeleton end plus the integer k, in the same field."""
    P, R = end
    return P + k * R, R


def pole_decision(x, y, scale):
    """The fit's square test of an end x at `scale`, on a one-segment
    skeleton whose two boundaries are x over the level y: |X| + slack against
    2^scale, exactly where the integers cannot decide.  The test runs before
    the merge, which then finds the one rectangle, from y to y, empty."""
    end, Q, d = end_pair(x)
    skel = nx._Skeleton("", (), (), (0,), (0,), rights=(end,), lefts=(end,), Q=Q, d=d)
    orbit = (), keys_at([y], scale), (y.numerator, y.denominator)
    try:
        skel.fit(pair(y), orbit, orbit, scale)
    except nx.AttractorError as exc:
        return "density pole" not in str(exc)
    raise AssertionError("the fit accepted an empty rectangle")


levels = st.fractions(-1, 1, max_denominator=10**12)
scales = st.sampled_from([0, 1, 8, 64, 168])


class TestFilteredPredicates:
    # the integer filters of the fit give the exact tests' outcome
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(surds, rationals), levels, scales)
    def test_pole_random_pairs(self, x, y, scale):
        # the fit refuses exactly the ends outside (-1, 1); an end it keeps
        # is off the pole at any level of [-1, 1]
        got = pole_decision(x, y, scale)
        assert got == (-1 < x < 1)
        if got:
            assert nx._pole_free(x, y)

    @settings(max_examples=300, deadline=None)
    @given(levels.filter(bool), st.integers(-6, 5), st.sampled_from([2, 3, 5, 13]), scales)
    def test_pole_near_degenerate(self, y, j, d, scale):
        # x = -sign(y) + (j + theta) / 2^scale with 0 < theta < 1: an end
        # within j units of 2^-scale of the side of the square the level faces
        x = near(Fraction(-1 if y > 0 else 1), j, d, scale)
        got = pole_decision(x, y, scale)
        assert got == (-1 < x < 1)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(surds, rationals), st.one_of(surds, rationals), scales)
    def test_below_random_pairs(self, left, right, scale):
        if isinstance(left, QuadSurd) and isinstance(right, QuadSurd) and left.d != right.d:
            right = Fraction(right.p, right.r)  # surds of two fields do not compare cheaply
        X_left, X_right = nx._scaled([left, right], scale)
        got = nx._below(left, right, X_left, X_right, _slack([left, right]), lambda v: v)
        assert got == (left < right)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(surds, rationals), st.integers(-6, 5), st.sampled_from([2, 3, 5, 13]), scales)
    def test_below_near_degenerate(self, left, j, d, scale):
        # right - left = (j + theta) / 2^scale with 0 < theta < 1
        if isinstance(left, QuadSurd):
            d = left.d
        right = near(left, j, d, scale)
        X_left, X_right = nx._scaled([left, right], scale)
        got = nx._below(left, right, X_left, X_right, _slack([left, right]), lambda v: v)
        assert got == (left < right) == (j >= 0)

    @pytest.mark.parametrize("scale", [128 + nx._GUARD, 0], ids=["entropy-scale", "scale-0"])
    def test_exact_tests_only_where_the_margin_fails(self, monkeypatch, scale):
        # a 2048-letter short-run word: at the entropy's scale the integers
        # decide every test of the fit and the square; at scale 0 none
        alpha = bf.qumterval_of(wd.word_from_rational(Fraction(853, 2048))).pseudocenter
        q = bf.locate_qumterval(alpha)
        low, high = kernel_orbits(alpha, q, scale)
        skel = nx._skeleton(q)
        calls = []
        for name in ("__lt__", "__gt__"):
            compare = getattr(QuadSurd, name)

            def record(a, b, compare=compare):
                # every end is a surd: a comparison with an int is the square's
                calls.append(b if isinstance(b, int) else "below")
                return compare(a, b)

            monkeypatch.setattr(QuadSurd, name, record)
        _, _, sides = skel.fit(pair(alpha), low, high, scale)
        if scale:
            assert calls == []
        else:  # -1 < x < 1 for every end and one `_below` per rectangle
            ends = len(skel.rights) + len(skel.lefts)
            assert calls.count(-1) == calls.count(1) == ends and calls.count("below") == len(sides)


def corners_by_blocks(w):
    """The corners rebuilt from the word's own runs: x repeats the reversed
    block pattern (1, a_n, ..., 1, a_1), -y repeats the run-length string."""
    S_rl = wd.runlength(w)
    assert all(d == 1 for d in S_rl[1::2])
    period_x = tuple(v for ak in reversed(S_rl[0::2]) for v in (1, ak))
    return surd_from_periodic_cf((), period_x), -surd_from_periodic_cf((), S_rl)


side0_slopes = st.integers(3, 2048).flatmap(
    lambda q: st.integers(1, q // 2).map(lambda p: Fraction(p, q))
)


class TestEndPairs:
    # the skeleton keeps its ends as integer pairs over one Q; exact values
    # are made only where an exact test or a rectangle reads them

    @settings(max_examples=25, deadline=None)
    @given(side0_slopes)
    def test_rounded_pairs_equal_the_reduced_surds(self, r):
        # every end of the four chains of the word, at the pseudocenter
        word = wd.word_from_rational(r)
        q = bf.qumterval_of(word)
        x, y = nx.attractor_corners(word)
        orbits = kernel_orbits(q.pseudocenter, q, 0)
        starts = y, x / (1 + x), y / (1 - y), x  # two lower, then two upper chains
        Q = lcm(*map(nx._lift, starts))
        ends = [end for k, v in enumerate(starts) for end in nx._abscissae(v, orbits[k // 2][0], Q)]
        skel = nx._Skeleton("", (), (), (), (), rights=tuple(ends), lefts=(), Q=Q, d=x.d)
        values = [make_surd(P, Q, R, x.d) for P, R in ends]
        for scale in (0, 168, 552):
            X, _, slack = skel.rounded_ends(scale)
            assert X == nx._scaled(values, scale) and slack == _slack(values)

    def test_no_surd_on_the_entropy_path(self, monkeypatch):
        # a 2048-letter short-run word: its skeleton makes the surds of its
        # starts, as many as the word 001 does, and none for its 2050 ends;
        # at the entropy's scale the fit and the product make none
        scale = 128 + nx._GUARD
        made = []
        init = QuadSurd.__init__
        monkeypatch.setattr(QuadSurd, "__init__", lambda v, *args: made.append(args) or init(v, *args))
        counts = []
        for r in (Fraction(1, 3), Fraction(853, 2048)):
            alpha = bf.qumterval_of(wd.word_from_rational(r)).pseudocenter
            q = bf.locate_qumterval(alpha)
            nx.attractor_corners(q.word)
            low, high = kernel_orbits(alpha, q, scale)
            made.clear()
            skel = nx._skeleton(q)
            counts.append(len(made))
        made.clear()
        lo, hi, sides = skel.fit(pair(alpha), low, high, scale)
        skel.product(lo, hi, scale)
        assert made == [] and len(sides) == 2048 and counts[0] == counts[1] < 10


class TestRotationOrders:
    def test_rotation_orders_are_the_sorted_residues(self):
        # index k of the lower orbit has rank k m1 mod m0, of the upper one
        # rank k (m0 - m1) mod m1 counted down from alpha
        for m0 in range(1, 150):
            for m1 in range(1, m0 + 1):
                if gcd(m0, m1) == 1:
                    low = sorted(range(m0), key=lambda k: k * m1 % m0) + [m0]
                    high = sorted(range(m1), key=lambda k: k * (m0 - m1) % m1) + [m1]
                    assert kd.rotation_orders(m0, m1) == (tuple(low), tuple(high[::-1])), (m0, m1)

    @settings(max_examples=80, deadline=None)
    @given(side0_slopes, st.integers(1, 16), st.integers(0, 15), st.booleans())
    def test_key_sorted_orders_are_rotation_orders(self, r, n, k, at_minus):
        # a rational in a random n-th of the qumterval, and one within
        # 2^-100 of its width of an end
        q = bf.qumterval_of(wd.word_from_rational(r))
        width = q.alpha_plus - q.alpha_minus
        k %= n
        inside = bf.simplest_rational_between(q.alpha_minus + width * k / n, q.alpha_minus + width * (k + 1) / n)
        eps = width / 2**100
        end = (q.alpha_minus, q.alpha_minus + eps) if at_minus else (q.alpha_plus - eps, q.alpha_plus)
        for alpha in (inside, bf.simplest_rational_between(*end)):
            assert alpha in q
            orders = []
            for start, steps in ((alpha - 1, q.m0), (alpha, q.m1)):
                _, keys, _ = kd.rational_orbit(pair(alpha), pair(start), steps, separating_scale(alpha, 0))
                orders.append(tuple(sorted(range(len(keys)), key=keys.__getitem__)))
            assert tuple(orders) == kd.rotation_orders(q.m0, q.m1)


class TestCorners:
    def test_surds_of_the_qumterval_match_the_block_rebuild(self):
        for w in side0_words(199):
            assert [fields(v) for v in nx.attractor_corners(w)] == [
                fields(v) for v in corners_by_blocks(w)
            ], w

    @settings(max_examples=40, deadline=None)
    @given(side0_slopes)
    def test_long_words_match_the_block_rebuild(self, r):
        w = wd.word_from_rational(r)
        assert [fields(v) for v in nx.attractor_corners(w)] == [
            fields(v) for v in corners_by_blocks(w)
        ]

    @pytest.mark.parametrize("word", ["0", "0101001"])
    def test_degenerate_or_foreign_word_refused(self, word):
        with pytest.raises(ValueError, match="degenerate or invalid word"):
            nx.attractor_corners(word)

    def test_single_block_formula(self):
        for n in (1, 2, 3, 5):
            x, y = nx.attractor_corners("0" * n + "1")
            assert x == surd_from_periodic_cf((), (1, n))
            assert y == -surd_from_periodic_cf((), (n, 1))

    def test_middle_word(self):
        x, y = nx.attractor_corners("01")
        assert x == G and y == -G

    def test_001_explicit_surds(self):
        x, y = nx.attractor_corners("001")
        # oracle: positive root of x^2 + 2x - 2 = 0 is sqrt(3) - 1
        assert x == make_surd(-1, 1, 1, 3)
        assert y == make_surd(1, -1, 2, 3)

    def test_corner_fixed_point_system_level_6(self):
        for w in wd.farey_list(6):
            if len(w) == 1:
                continue
            if wd.farey_side(w) == 1:
                w = wd.transpose(wd.negate(w))  # reflected system, same equations
            (l1, r1), (l2, r2) = nx.corner_system_residues(w)
            assert l1 == r1 and l2 == r2


class TestBuild:
    def test_level_counts_at_figure_word(self):
        attr = nx.build_attractor(Fraction(3, 8))
        assert attr.word == "00101"
        assert len(attr.h_levels_low) == 4 and len(attr.h_levels_high) == 3

    def test_alpha_outside_rejected(self):
        with pytest.raises(ValueError):
            nx.build_attractor(Fraction(2, 3))  # reflect first

    def test_structure_in_middle_window(self):
        attr = nx.build_attractor(Fraction(1, 2))
        assert attr.word == "01"
        assert len(attr.rects) == 2  # the two symmetric rectangles
        g2 = G * G
        assert attr.rects[0].x_lo == -G and attr.rects[0].x_hi == g2
        assert attr.rects[1].x_lo == -g2 and attr.rects[1].x_hi == G

    def test_vertical_strip_inclusion_everywhere(self):
        rng = random.Random(42)
        for _ in range(40):
            alpha = Fraction(rng.randint(1, 499), 1000)
            attr = nx.build_attractor(alpha)
            for r in attr.rects:
                assert r.x_lo <= 0 and r.x_hi >= Fraction(1, 3)
            assert attr.rects[0].y_lo == alpha - 1
            assert attr.rects[-1].y_hi == alpha

    def test_vertical_data_constant_on_qumterval(self):
        q = bf.qumterval_of("00101")
        a1 = bf.simplest_rational_between(q.alpha_minus, q.pseudocenter)
        a2 = bf.simplest_rational_between(q.pseudocenter, q.alpha_plus)
        attr1, attr2 = nx.build_attractor(a1), nx.build_attractor(a2)
        assert attr1.word == attr2.word == "00101"
        assert attr1.v_levels == attr2.v_levels
        assert attr1.h_levels_low != attr2.h_levels_low

    def test_levels_are_exact_orbits(self):
        alpha = Fraction(4, 15)
        attr = nx.build_attractor(alpha)
        low = kd.orbit(alpha, alpha - 1, attr.word.count("0"))
        assert attr.h_levels_low == low.points

    def test_single_block_structure_at_one_fifth(self):
        attr = nx.build_attractor(Fraction(1, 5))
        assert attr.word == "00001"
        assert len(attr.h_levels_low) == 5 and len(attr.h_levels_high) == 2
        # lower-right corner chain: levels -(N-k)/(N-k+1)
        assert attr.h_levels_low == tuple(
            Fraction(-(4 - k), 4 - k + 1) for k in range(5)
        )
        x, y = attr.corner_x, attr.corner_y
        assert x == surd_from_periodic_cf((), (1, 4))
        # left end of the lowest boundary is the corner y = -[0;(4,1) repeated]
        assert attr.v_levels[0] == y == -surd_from_periodic_cf((), (4, 1))


def four_corner_verdict(x_lo, x_hi, y_lo, y_hi):
    """The pole test `Rect` made before it took two corners: all four."""
    return all(nx._pole_free(xc, yc) for xc in (x_lo, x_hi) for yc in (y_lo, y_hi))


@st.composite
def boxes(draw):
    """Sorted corners (x_lo, x_hi, y_lo, y_hi), each rational or a surd of one
    field; half of them with a corner on the pole 1 + x y = 0 or next to it."""
    d = draw(st.sampled_from([2, 3, 5, 13]))
    value = st.one_of(
        st.fractions(-4, 4, max_denominator=60),
        st.builds(make_surd, st.integers(-60, 60), st.integers(-30, 30).filter(bool), st.integers(1, 60), st.just(d)),
    )
    xs, ys = [draw(value), draw(value)], [draw(value), draw(value)]
    if draw(st.booleans()):
        y = draw(value.filter(bool))
        ys[0], xs[0] = y, -1 / y + draw(st.sampled_from([0, Fraction(1, 10**6), Fraction(-1, 10**6)]))
    xs.sort()
    ys.sort()
    assume(xs[0] != xs[1] and ys[0] != ys[1])
    return (*xs, *ys)


class TestLeanBuild:
    """`build_attractor` takes what its fit proved: two pole tests per
    rectangle and the vertical levels merged from the skeleton's two
    ascending staircases."""

    @settings(max_examples=300, deadline=None)
    @given(boxes())
    def test_two_corners_give_the_four_corner_verdict(self, box):
        try:
            nx.Rect(*box)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "density pole inside rectangle"
            accepted = False
        assert accepted == four_corner_verdict(*box)

    @staticmethod
    def assert_v_levels_merge_the_staircases(attr):
        skel = attr.skeleton
        rights, lefts = ([skel.value(end) for end in ends] for ends in (skel.rights, skel.lefts))
        assert all(a < b for ends in (rights, lefts) for a, b in pairwise(ends))
        assert list(attr.v_levels) == sorted(set(rights + lefts))

    def test_v_levels_on_the_sweep(self):
        for den in range(2, 90):
            for num in range(1, den // 2 + 1):
                if gcd(num, den) == 1:
                    self.assert_v_levels_merge_the_staircases(nx.build_attractor(Fraction(num, den)))

    @settings(max_examples=15, deadline=None)
    @given(side0_slopes)
    def test_v_levels_on_long_words(self, r):
        alpha = bf.qumterval_of(wd.word_from_rational(r)).pseudocenter
        self.assert_v_levels_merge_the_staircases(nx.build_attractor(alpha))

    def test_two_pole_tests_per_rectangle(self, monkeypatch):
        calls = []
        pole_free = nx._pole_free
        monkeypatch.setattr(nx, "_pole_free", lambda x, y: calls.append(1) or pole_free(x, y))
        attr = nx.build_attractor(Fraction(1, 3001))
        assert len(calls) == 2 * len(attr.rects) == 2 * 3001

    @pytest.mark.parametrize("alpha", [Fraction(9, 20), Fraction(67, 199)], ids=str)
    def test_each_endpoint_orbit_stepped_once(self, monkeypatch, alpha):
        # the fit reads the exact orbits that the rectangles are made of
        calls = []
        for module in (kd, nx):
            kernel = module.rational_orbit
            monkeypatch.setattr(module, "rational_orbit", lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
        nx.build_attractor(alpha)
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha", [Fraction(9, 20), Fraction(67, 199), Fraction(1, 3001)], ids=str)
    def test_one_staircase_merge_per_build(self, monkeypatch, alpha):
        # the rectangles are the steps the fit merged and checked, replayed
        # from its sides: once the fit is done, no two levels are compared
        # but by each Rect's own check y_lo < y_hi
        fits, compared = [], []
        fit = nx._Skeleton.fit
        monkeypatch.setattr(nx._Skeleton, "fit", lambda *args: fits.append(fit(*args)) or fits[-1])
        for name in ("__lt__", "__gt__", "__le__", "__ge__"):
            compare = getattr(Fraction, name)

            def record(a, b, compare=compare):
                if fits:  # the fit has returned
                    compared.append((a, b))
                return compare(a, b)

            monkeypatch.setattr(Fraction, name, record)
        attr = nx.build_attractor(alpha)
        after_fit = len(compared)
        monkeypatch.undo()
        assert len(fits) == 1 and after_fit == len(attr.rects)
        (lo, hi, sides), skel = fits[0], attr.skeleton
        steps = list(staircase(lo, hi, equal))
        want = [(skel.value(skel.lefts[j]), skel.value(skel.rights[i]), y_lo, y_hi) for y_lo, y_hi, i, j, _ in steps]
        assert list(attr.rects) == want and replayed(lo, hi, sides) == steps

    def test_surd_comparisons_linear(self, monkeypatch):
        alpha = Fraction(1, 3001)
        nx.build_attractor(alpha)  # the word's qumterval and corners are cached
        calls = []
        compare = QuadSurd._cmp
        monkeypatch.setattr(QuadSurd, "_cmp", lambda a, b: calls.append(1) or compare(a, b))
        attr = nx.build_attractor(alpha)
        ends = len(attr.skeleton.rights) + len(attr.skeleton.lefts)
        assert len(calls) <= 3 * (len(attr.rects) + ends)


def move_corner(monkeypatch, corner):
    """Move corner x (0) or y (1) up by 1e-6 in every qumterval natext
    locates: the skeleton reads x = q.tail and y = -q.alpha_plus."""
    locate, shift = nx.locate_qumterval, Fraction(1, 10**6)

    def moved(alpha):
        q = locate(alpha)
        return q._replace(tail=q.tail + shift) if corner == 0 else q._replace(alpha_plus=q.alpha_plus - shift)

    monkeypatch.setattr(nx, "locate_qumterval", moved)


class TestCheckedConstruction:
    @pytest.mark.parametrize("corner", [0, 1])
    def test_corrupted_corner_is_caught(self, monkeypatch, corner):
        # the seam and closure checks must see a corner moved by 1e-6
        nx.build_attractor(Fraction(337, 1000))  # the intact corners pass
        move_corner(monkeypatch, corner)
        with pytest.raises(nx.AttractorError):
            nx.build_attractor(Fraction(337, 1000))

    @pytest.mark.parametrize("corner", [0, 1])
    @pytest.mark.parametrize(
        "run",
        [
            lambda: nx.entropy_at(Fraction(337, 1000)),
            lambda: nx.entropy_curve(Fraction(33, 100), Fraction(34, 100), 5),
        ],
        ids=["entropy_at", "entropy_curve"],
    )
    def test_corrupted_corner_is_caught_on_the_entropy_path(self, monkeypatch, corner, run):
        run()  # the intact corners pass
        move_corner(monkeypatch, corner)
        with pytest.raises(nx.AttractorError):
            run()


def replaced(skel, **changes):
    """A new skeleton with the fields of `skel` but `changes`, an empty
    ends_cache and its own `follows` tables: no scale of `skel` is kept,
    and nothing derived from its orders and digits."""
    derived = {"ends_cache", "low_follows", "high_follows"}
    kept = {name: getattr(skel, name) for name in nx._Skeleton.__slots__ if name not in derived}
    return nx._Skeleton(**{**kept, **changes})


class TestSkeletonChecks:
    # a skeleton that does not belong to a sample is refused, never used
    alpha = Fraction(337, 1000)  # word 001: two lower levels above alpha - 1

    def sample_with(self, change):
        """The sample mass at alpha with its own skeleton, which fits, then
        with that skeleton changed."""
        skel = nx._skeleton(bf.locate_qumterval(self.alpha))
        nx._sample_mass(pair(self.alpha), skel, 128)
        return nx._sample_mass(pair(self.alpha), change(skel), 128)

    def test_changed_order_is_refused(self):
        def swap(skel):
            o = skel.low_order
            return replaced(skel, low_order=(o[0], o[2], o[1]))

        refused = r"orbit of alpha - 1 leaves the word's level order \(word 001, alpha = 337/1000\)"
        with pytest.raises(nx.AttractorError, match=refused):
            self.sample_with(swap)

    def test_changed_digits_are_refused(self):
        def bump(skel):
            return replaced(skel, high_digits=[skel.high_digits[0] + 1, *skel.high_digits[1:]])

        refused = r"orbit of alpha leaves the word's digits \(word 001, alpha = 337/1000\)"
        with pytest.raises(nx.AttractorError, match=refused):
            self.sample_with(bump)

    def test_empty_rectangle_is_refused(self):
        # the lowest rectangle's left end is the corner y: a right end at y empties it
        def shrink(skel):
            return replaced(skel, rights=(skel.lefts[0], *skel.rights[1:]))

        with pytest.raises(nx.AttractorError, match="empty rectangle"):
            self.sample_with(shrink)

    @pytest.mark.parametrize("alpha", [Fraction(337, 1000), Fraction(8, 21), Fraction(4, 15)], ids=str)
    def test_empty_rectangle_names_its_top_level(self, alpha):
        # each rectangle emptied in turn (its right end moved onto its left
        # end); at scales 0 to 8, where keys tie, the message names the
        # rectangle's top level as the exact levels do
        q = bf.locate_qumterval(alpha)
        skel = nx._skeleton(q)
        low, high = kd.orbit(alpha, alpha - 1, q.m0).points, kd.orbit(alpha, alpha, q.m1).points
        lo, hi = sorted(low), sorted(high)
        for _, y_hi, i, j, _ in staircase(lo, hi, equal):
            if hi[j] == y_hi:
                top = f"index {skel.high_order[j]} of the orbit of alpha"
            else:
                top = f"index {skel.low_order[i + 1]} of the orbit of alpha - 1"
            emptied = replaced(skel, rights=(*skel.rights[:i], skel.lefts[j], *skel.rights[i + 1 :]))
            refused = re.escape(f"empty rectangle below the level at {top} (word {q.word}, alpha = {alpha})")
            for scale in range(9):
                with pytest.raises(nx.AttractorError, match=refused):
                    emptied.fit(pair(alpha), *kernel_orbits(alpha, q, scale), scale)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_pole_on_the_boundary_is_refused(self, side):
        # 1 + x y < 0 at y = alpha - 1 for x = 10^6 plus the lowest right end
        # and at y = alpha for x = -10^6 plus the top left end, while every
        # rectangle only widens
        def widen(skel):
            if side == "lower":
                return replaced(skel, rights=(shifted(skel.rights[0], 10**6), *skel.rights[1:]))
            return replaced(skel, lefts=(*skel.lefts[:-1], shifted(skel.lefts[-1], -(10**6))))

        with pytest.raises(nx.AttractorError, match="density pole"):
            self.sample_with(widen)

    @pytest.mark.parametrize("fault", ["empty rectangle", "density pole"])
    def test_attractor_runs_the_fit_checks(self, monkeypatch, fault):
        # build_attractor fits its orbits as the entropy path does, so a bad
        # skeleton fails its checks before any Rect is made
        build = nx._skeleton

        def changed(*args):
            skel = build(*args)
            if fault == "empty rectangle":
                return replaced(skel, rights=(skel.lefts[0], *skel.rights[1:]))
            return replaced(skel, lefts=(*skel.lefts[:-1], shifted(skel.lefts[-1], -(10**6))))

        monkeypatch.setattr(nx, "_skeleton", changed)
        with pytest.raises(nx.AttractorError, match=fault):
            nx.build_attractor(self.alpha)


class TestConstructionChecks:
    # each check of `_skeleton` and of the fit refuses its own fault, named
    # in its message, on word 001 at 337/1000: lower orbit indices in level
    # order (0, 1, 2), upper (1, 0)
    alpha = Fraction(337, 1000)

    def skeleton(self):
        return nx._skeleton(bf.locate_qumterval(self.alpha))

    def build_with(self, monkeypatch, change):
        """`build_attractor` at alpha with the kernel's orbit of alpha - 1
        replaced by change(digits, levels, end)."""
        kernel = nx.rational_orbit

        def changed(alpha, x, steps, shift=None):
            orbit = kernel(alpha, x, steps, shift)
            return change(*orbit) if x != alpha else orbit  # the start (p - q, q): the orbit of alpha - 1

        monkeypatch.setattr(nx, "rational_orbit", changed)
        return nx.build_attractor(self.alpha)

    def test_orbit_hitting_zero_is_refused(self, monkeypatch):
        with pytest.raises(nx.AttractorError, match="orbit of alpha - 1 hits zero"):
            self.build_with(monkeypatch, lambda digits, levels, end: ([*digits[:-1], None], levels, end))

    def test_endpoint_level_not_extremal_is_refused(self, monkeypatch):
        # the start alpha - 1 raised above every other lower level
        with pytest.raises(nx.AttractorError, match="orbit of alpha - 1 leaves the word's level order"):
            self.build_with(monkeypatch, lambda digits, levels, end: (digits, [max(levels) + 1, *levels[1:]], end))

    def test_repeated_level_is_refused(self, monkeypatch):
        # every lower level set to alpha - 1, the end too: the digits hold,
        # the keys tie and the itineraries run out on equal points, so the
        # fit cannot order the levels
        start = (self.alpha - 1).as_integer_ratio()
        with pytest.raises(nx.AttractorError, match="orbit of alpha - 1 leaves the word's level order"):
            self.build_with(monkeypatch, lambda digits, levels, end: (digits, [levels[0]] * len(levels), start))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_open_seam_is_refused(self, monkeypatch, side):
        # a changed last digit of the word's pattern moves both ends of one segment
        name, step = ("expected_digits_low", 1) if side == "lower" else ("expected_digits_high", -1)
        pattern = getattr(nx, name)
        monkeypatch.setattr(nx, name, lambda S: (*pattern(S)[:-1], pattern(S)[-1] + step))
        with pytest.raises(nx.AttractorError, match=f"{side} seam open at index [0-9]+ of the orbit .*word 001"):
            self.skeleton()

    def test_open_closure_is_refused(self, monkeypatch):
        # only the right end of the top lower segment moves, so every seam holds;
        # the chain of right ends runs from x, two pushes before x/(1 + x)
        top = self.skeleton().low_order[-1]
        x, _ = nx.attractor_corners("001")
        abscissae = nx._abscissae

        def moved(xi, digits, Q):
            chain = abscissae(xi, digits, Q)
            if xi == x:
                P, R = chain[top + 2]
                chain[top + 2] = P + 1, R  # the end moved by 1/R
            return chain

        monkeypatch.setattr(nx, "_abscissae", moved)
        with pytest.raises(nx.AttractorError, match="does not close"):
            self.skeleton()

    @pytest.mark.parametrize("orders", [((1, 0, 2), (1, 0)), ((0, 1, 2), (0, 1))], ids=["lower", "upper"])
    def test_start_off_the_corner_is_refused(self, monkeypatch, orders):
        # the segments of index 0 start at y and end at x: alpha - 1 must be
        # the lowest level and alpha the highest
        monkeypatch.setattr(nx, "rotation_orders", lambda m0, m1: orders)
        with pytest.raises(nx.AttractorError, match="does not close at the far corner"):
            self.skeleton()

    def test_corners_of_two_fields_are_refused(self):
        # the seams compare triples, which only one field makes comparable
        q = bf.locate_qumterval(self.alpha)
        y = make_surd(-1, 1, 2, 5 if q.tail.d != 5 else 13) - 1  # in (-1, 0)
        with pytest.raises(nx.AttractorError, match="two quadratic fields"):
            nx._skeleton(q._replace(alpha_plus=-y))


def boundary_mass(alpha, bits):
    """(A, error bound) of the entropy path at a parameter up to 1/2."""
    q = bf.locate_qumterval(alpha)
    scale = bits + nx._GUARD
    low, high = kernel_orbits(alpha, q, scale)
    # the keys are those of the separating scale, rounded down to the mass's
    S = separating_scale(alpha, scale)
    for orbit, (digits, keys, end) in zip((low, high), kernel_orbits(alpha, q, S)):
        assert orbit == (digits, [K >> (S - scale) for K in keys], end)
    skel = nx._skeleton(q)
    lo, hi, sides = skel.fit(pair(alpha), low, high, scale)
    num, den = skel.product(lo, hi, scale)
    return tuple(map(mpmath.mp.make_mpf, nx._mass_of(num, den, len(sides), bits)))


def rect_mass(r, bits=None):
    """(mass, error bound) of a rectangle under dx dy / (1+xy)^2: the closed
    form log((1+x_hi y_hi)(1+x_lo y_lo) / ((1+x_hi y_lo)(1+x_lo y_hi))),
    a handful of exactly-rounded operations with a crude outward bound."""
    bits = checked_precision(bits)
    with working_precision(bits):
        xl, xh, yl, yh = (to_mpf(v) for v in (r.x_lo, r.x_hi, r.y_lo, r.y_hi))
        mass = mpmath.log(((1 + xh * yh) * (1 + xl * yl)) / ((1 + xh * yl) * (1 + xl * yh)))
        return mass, mpmath.mpf(2) ** (-bits) * (32 + 8 * abs(mass))


def rect_sum(attr, bits=None):
    """(A, error bound) as the ordered sum of the rectangles' closed forms:
    the oracle of the boundary mass (`_Skeleton.product`), which uses no
    rectangle."""
    bits = checked_precision(bits)
    with working_precision(bits):
        total = err = mpmath.mpf(0)
        for r in attr.rects:
            m, e = rect_mass(r, bits)
            total += m
            err += e
        return total, err


def rational_inside(q, toward_plus, depth, k):
    """A rational of q: `depth` simplest-rational steps from the pseudocenter
    toward one endpoint, then the dyadic point k/2^20 of the way between the
    last two rationals."""
    end = q.alpha_plus if toward_plus else q.alpha_minus
    inner = outer = q.pseudocenter
    for _ in range(depth + 1):
        lo, hi = (outer, end) if toward_plus else (end, outer)
        inner, outer = outer, bf.simplest_rational_between(lo, hi)
    return inner + (outer - inner) * Fraction(k, 2**20)


class TestBoundaryMass:
    @staticmethod
    def check(alpha):
        A, err = boundary_mass(alpha, 128)
        attr = nx.build_attractor(alpha)
        A_rects, err_rects = rect_sum(attr, 128)
        A_512, _ = rect_sum(attr, 512)
        with working_precision(512):
            assert abs(A - A_rects) <= err + err_rects
            assert abs(A - A_512) <= err
            assert abs(A_rects - A_512) <= err_rects

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(side0_words(14)),
        st.booleans(),
        st.integers(0, 6),
        st.integers(1, 2**20 - 1),
    )
    def test_random_qumtervals(self, word, toward_plus, depth, k):
        self.check(rational_inside(bf.qumterval_of(word), toward_plus, depth, k))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, 3000), st.booleans(), st.integers(0, 3), st.integers(1, 2**20 - 1))
    @example(3000, False, 0, 2**19)
    def test_single_block_family(self, n, toward_plus, depth, k):
        self.check(rational_inside(bf.qumterval_of("0" * n + "1"), toward_plus, depth, k))

    @pytest.mark.parametrize(
        "alpha",
        [
            lambda: rational_inside(bf.qumterval_of("0" * 3000 + "1"), False, 0, 2**19),
            # short runs: levels closer than 2^-168 to each other, denominators near 1400 bits
            lambda: bf.qumterval_of(wd.word_from_rational(Fraction(853, 2048))).pseudocenter,
        ],
        ids=["N=3000", "short-run-2048"],
    )
    def test_integer_product_far_inside_the_bound(self, alpha):
        # the guard bits of the integer product leave its rounding a
        # thousandth of the error bound; without them it is 0.003 to 0.1 of it
        alpha = alpha()
        A, err = boundary_mass(alpha, 128)
        A_512, _ = rect_sum(nx.build_attractor(alpha), 512)
        with working_precision(512):
            assert abs(A - A_512) <= err / 1000

    def test_entropy_takes_each_factor_once(self, monkeypatch):
        # the skeleton multiplies the boundary factors once, as it forms
        # them, and the mass takes the log of that one product
        built, logged = [], []
        product, mass_of = nx._Skeleton.product, nx._mass_of
        monkeypatch.setattr(nx._Skeleton, "product", lambda skel, *a: built.append(product(skel, *a)) or built[-1])
        monkeypatch.setattr(nx, "_mass_of", lambda num, den, *a: logged.append((num, den)) or mass_of(num, den, *a))
        nx.entropy_at(Fraction(337, 1000))
        assert len(built) == len(logged) == 1 and built[0] == logged[0]

    @pytest.mark.parametrize(
        "start, stop, samples",
        [
            (Fraction(1, 50), Fraction(49, 50), 400),  # 67 words, reflected above 1/2
            (Fraction(1, 200), Fraction(1, 20), 200),  # 91 words, up to 200 letters
            (Fraction(35, 100), Fraction(65, 100), 30),  # the plateau ends and 1/2
            (Fraction(36443, 100000), Fraction(36763, 100000), 100),  # zooms at alpha+ of 001
            (Fraction(36593, 100000), Fraction(36613, 100000), 100),
            (Fraction(63387, 100000), Fraction(63407, 100000), 100),  # and at its mirror image
            (Fraction(1, 50), Fraction(49, 50), 401),  # holds 1/2, its own mirror
        ],
    )
    def test_curve_equals_pointwise_entropy(self, start, stop, samples):
        grid = nx.entropy_grid(start, stop, samples)
        assert nx.entropy_curve(start, stop, samples) == [nx.entropy_at(a) for a in grid]

    @pytest.mark.parametrize(
        "start, stop, samples",
        [
            (Fraction(1, 50), Fraction(49, 50), 400),  # symmetric: every point has its mirror
            (Fraction(1, 3), Fraction(3, 4), 301),  # across 1/2, no point has its mirror
            (Fraction(1, 3), Fraction(3, 4), 299),  # 119 points with their mirrors, 61 without, 1/2
        ],
    )
    def test_curve_samples_each_reflected_pair_once(self, monkeypatch, start, stop, samples):
        # a parameter above 1/2 whose reflection the call has sampled takes
        # that sample's mass and entropy: one mass per reflected pair
        calls = []
        sample = nx._sample_mass
        monkeypatch.setattr(nx, "_sample_mass", lambda a, skel, bits: calls.append(a) or sample(a, skel, bits))
        grid = nx.entropy_grid(start, stop, samples)
        nx.entropy_curve(start, stop, samples)
        pairs = {(min(a.numerator, a.denominator - a.numerator), a.denominator) for a in grid}
        assert len(calls) == len(set(calls)) == len(pairs)
        assert len(calls) == {400: 200, 301: 301, 299: 180}[samples]

    def test_figure_pass_descends_once_per_qumterval_and_call(self, monkeypatch):
        # the figure job of scripts/entropy_figure.py: the full curve, whose
        # reflection above 1/2 re-enters the qumtervals of its first half,
        # and three zooms at alpha+ of 001 (79 descents when only the
        # previous parameter's qumterval was tried), with one mass per
        # reflected pair and call: 500 for its 700 samples
        words = []  # the words located, per call
        masses = []
        sample = nx._sample_mass

        def descend(alpha):
            q = bf.locate_qumterval(alpha)
            words[-1].append(q.word)
            return q

        monkeypatch.setattr(nx, "locate_qumterval", descend)
        monkeypatch.setattr(nx, "_sample_mass", lambda a, skel, bits: masses.append(a) or sample(a, skel, bits))
        jobs = [(Fraction(1, 50), Fraction(49, 50), 400)]
        jobs += [(Fraction(36603 - 160 // w, 100000), Fraction(36603 + 160 // w, 100000), 100) for w in (1, 4, 16)]
        for start, stop, samples in jobs:
            words.append([])
            nx.entropy_curve(start, stop, samples)
        assert all(len(set(call)) == len(call) for call in words)
        assert sum(map(len, words)) <= 46
        assert len(masses) == 500


class TestLevelKeys:
    # at scale 0 a level in [-1, 1) rounds to -1 or 0, yet the keys at the
    # scale itself, with ties ordered by the itineraries, order and merge
    # every level as the exact levels and their keys at the separating scale
    # (the oracle) do
    @staticmethod
    def orbits(alpha):
        q = bf.locate_qumterval(alpha)
        return q, kd.orbit(alpha, alpha - 1, q.m0), kd.orbit(alpha, alpha, q.m1)

    def test_tied_keys_order_and_merge_as_fractions(self):
        alpha = bf.qumterval_of(wd.word_from_rational(Fraction(107, 259))).pseudocenter
        q, low, high = self.orbits(alpha)
        lo_f, hi_f = sorted(low.points), sorted(high.points)
        fraction_run = list(staircase(lo_f, hi_f, equal))
        skel = nx._skeleton(q)
        for scale in (0, 168):
            orbits = kernel_orbits(alpha, q, scale)
            keys = tuple(keys for _, keys, _ in orbits)
            # the kernel's keys are those of the exact levels, and the
            # separating keys rounded down to the scale
            assert keys == (keys_at(low.points, scale), keys_at(high.points, scale))
            S = separating_scale(alpha, scale)
            oracle = level_keys(low.points, scale), level_keys(high.points, scale)
            assert keys == tuple([K >> (S - scale) for K in ks] for ks in oracle)
            if scale == 0:
                # the integers at scale 0 tie; the separating keys do not
                assert len(set(keys[0])) <= 2 < len(keys[0]) == len(set(oracle[0]))
            lo, hi, run = fit_staircase(skel, alpha, *orbits, scale)
            # the fit's order is the oracle's, and its keys those of the sorted levels
            assert [oracle[0][k] for k in skel.low_order] == sorted(oracle[0])
            assert [oracle[1][k] for k in skel.high_order] == sorted(oracle[1])
            assert lo == keys_at(lo_f, scale) and hi == keys_at(hi_f, scale)
            assert run == [(*keys_at([yl, yh], scale), i, j, up) for yl, yh, i, j, up in fraction_run]

    def test_shared_level_taken_once(self):
        lo = [Fraction(-1, 2), Fraction(1, 5), Fraction(1, 3)]
        hi = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)]
        want = list(staircase(lo, hi, equal))
        assert [(yl, yh) for yl, yh, *_ in want] == list(pairwise(sorted(set(lo + hi))))
        # keyed at the separating scale of the largest denominator no keys tie
        scale = separating_scale(Fraction(1, 5), 0)
        lo_keys, hi_keys = keys_at(lo, scale), keys_at(hi, scale)
        assert len(set(lo_keys + hi_keys)) == len(set(lo + hi))
        assert list(staircase(lo_keys, hi_keys, equal)) == [(*keys_at([yl, yh], scale), *rest) for yl, yh, *rest in want]
        # at scale 0 every key is -1 or 0, and the tie rule orders them
        lo_keys, hi_keys = keys_at(lo, 0), keys_at(hi, 0)

        def tie(i, j):
            return (lo[i] > hi[j]) - (lo[i] < hi[j])

        assert list(staircase(lo_keys, hi_keys, tie)) == [(*keys_at([yl, yh], 0), *rest) for yl, yh, *rest in want]

    def test_equal_levels_refused(self, monkeypatch):
        alpha = Fraction(337, 1000)
        q, low, _ = self.orbits(alpha)
        orbits = kernel_orbits(alpha, q, 0)
        skel = nx._skeleton(q)
        assert skel.fit(pair(alpha), *orbits, 0) is not None
        # the top lower level, the orbit's last point, set equal to the one
        # below it: the keys tie, and the walk compares the kept end with
        # that interior point, stepped again
        first, second = skel.low_order[1], skel.low_order[2]
        assert second == q.m0
        y = low.points[first]
        digits, keys, _ = orbits[0]
        keys = [*keys[:second], keys[first]]
        stepped = []
        kernel = nx.rational_orbit
        monkeypatch.setattr(nx, "rational_orbit", lambda *args: stepped.append(args) or kernel(*args))
        with pytest.raises(nx.AttractorError, match="orbit of alpha - 1 leaves the word's level order"):
            skel.fit(pair(alpha), (digits, keys, (y.numerator, y.denominator)), orbits[1], 0)
        assert stepped == [(pair(alpha), pair(alpha - 1), first, 0)]

    @pytest.mark.parametrize("scale", [0, 128 + nx._GUARD], ids=["scale-0", "entropy-scale"])
    def test_no_two_fractions_are_ordered(self, monkeypatch, scale):
        # a 2048-letter short-run word, whose levels lie closer than 2^-168:
        # the kernel's keys, the fit's order check, its itineraries and the
        # merge compare integers only
        alpha = bf.qumterval_of(wd.word_from_rational(Fraction(853, 2048))).pseudocenter
        q = bf.locate_qumterval(alpha)
        calls = []
        for name in ("__lt__", "__gt__", "__le__", "__ge__"):
            compare = getattr(Fraction, name)

            def record(a, b, compare=compare, name=name):
                calls.append(name)
                return compare(a, b)

            monkeypatch.setattr(Fraction, name, record)
        orbits = kernel_orbits(alpha, q, scale)
        skel = nx._skeleton(q)
        assert skel.fit(pair(alpha), *orbits, scale) is not None
        assert calls == []


@contextmanager
def alarm(seconds, message):
    """Raise TimeoutError(message) in the block after `seconds` of wall time,
    where the platform has an interval timer."""
    timer = getattr(signal, "setitimer", None)
    if not timer:
        yield
        return

    def expire(*_):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    timer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        timer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fibonacci_slopes(max_len):
    """F(k-2)/F(k) for the Fibonacci numbers 5 <= F(k) <= max_len: the
    slopes of the Fibonacci words, whose levels cluster the most."""
    a, b, c = 1, 2, 3
    out = []
    while c <= max_len:
        if c >= 5:
            out.append(Fraction(a, c))
        a, b, c = b, c, b + c
    return out


class TestItineraryOrder:
    # at scales 0 to 8 keys tie almost everywhere: the fit orders and merges
    # the levels by their itineraries as the sorted exact levels are
    scales = range(9)

    @staticmethod
    def check(alpha, q, all_pairs):
        """The fit's orders and staircase at each scale against the sorted
        exact levels; with `all_pairs`, the tie rule on every pair of levels
        against their exact order."""
        low, high = kd.orbit(alpha, alpha - 1, q.m0), kd.orbit(alpha, alpha, q.m1)
        lo_f, hi_f = sorted(low.points), sorted(high.points)
        want = [(i, j) for _, _, i, j, _ in staircase(lo_f, hi_f, equal)]
        skel = nx._skeleton(q)
        assert [low.points[k] for k in skel.low_order] == lo_f
        assert [high.points[k] for k in skel.high_order] == hi_f
        for scale in TestItineraryOrder.scales:
            orbits = kernel_orbits(alpha, q, scale)
            lo, hi, run = fit_staircase(skel, alpha, *orbits, scale)
            assert lo == keys_at(lo_f, scale) and hi == keys_at(hi_f, scale)
            assert [(i, j) for _, _, i, j, _ in run] == want, (alpha, scale)
            if all_pairs:
                ties = nx._Itineraries(pair(alpha), *orbits, scale)
                points = low.points, high.points
                for (u, k), (v, l) in combinations([(u, k) for u in (0, 1) for k in range(len(points[u]))], 2):
                    y, z = points[u][k], points[v][l]
                    assert ties.order(u, k, v, l) == (y > z) - (y < z), (alpha, scale, u, k, v, l)

    @pytest.mark.parametrize("word", side0_words(12))
    def test_short_words(self, word):
        # the pseudocenter and a rational within 2^-100 of the width of each end
        q = bf.qumterval_of(word)
        eps = (q.alpha_plus - q.alpha_minus) / 2**100
        ends = (q.alpha_minus, q.alpha_minus + eps), (q.alpha_plus - eps, q.alpha_plus)
        for alpha in (q.pseudocenter, *(bf.simplest_rational_between(*end) for end in ends)):
            assert alpha in q
            self.check(alpha, q, all_pairs=True)

    @pytest.mark.parametrize("slope", fibonacci_slopes(2584), ids=str)
    def test_fibonacci_words(self, slope):
        q = bf.qumterval_of(wd.word_from_rational(slope))
        self.check(q.pseudocenter, q, all_pairs=False)

    def test_interior_point_stepped_again(self, monkeypatch):
        # at 8/21, scale 0, a walk of the fit runs out on the orbit of alpha - 1
        # and compares its kept end with point 2 of the orbit of alpha, which
        # the kernel steps again
        alpha = Fraction(8, 21)
        q = bf.locate_qumterval(alpha)
        skel = nx._skeleton(q)
        stepped = []
        kernel = nx.rational_orbit
        monkeypatch.setattr(nx, "rational_orbit", lambda *args: stepped.append(args) or kernel(*args))
        nx._fitted(pair(alpha), skel, 0)
        a, a_1 = pair(alpha), pair(alpha - 1)
        assert stepped == [(a, a_1, q.m0, 0), (a, a, q.m1, 0), (a, a, 2, 0)]
        assert 2 < q.m1


def four_chain_skeleton(q):
    """The seam check without the induction, the oracle of `nx._skeleton`:
    both ends of every segment pushed from x/(1 + x), y, y/(1 - y) and x,
    four chains over one Q (`nx._abscissae`), and every seam and the
    closure compared on them.  Returns the kept ends (rights, lefts) and Q,
    or raises AttractorError naming the open seam or the closure.  It reads
    the digits and orders through `nx`, as `nx._skeleton` does."""
    x, y = q.tail, -q.alpha_plus
    low_digits, high_digits = list(nx.expected_digits_low(q.S)), list(nx.expected_digits_high(q.S))
    low_order, high_order = nx.rotation_orders(q.m0, q.m1)
    starts = y, x / (1 + x), y / (1 - y), x
    Q = lcm(*map(nx._lift, starts))
    low_lefts, rights = ([ends[k] for k in low_order] for ends in (nx._abscissae(v, low_digits, Q) for v in starts[:2]))
    lefts, high_rights = ([ends[k] for k in high_order] for ends in (nx._abscissae(v, high_digits, Q) for v in starts[2:]))
    if rights[:-1] != low_lefts[1:]:
        raise nx.AttractorError("lower seam open")
    if high_rights[:-1] != lefts[1:]:
        raise nx.AttractorError("upper seam open")
    if rights[-1] != high_rights[-1] or lefts[0] != low_lefts[0]:
        raise nx.AttractorError("staircase does not close at the far corner")
    return tuple(rights), tuple(lefts), Q


def follows_by_definition(order, digits):
    """The table `follows` of one boundary, pair by pair from its definition:
    (j, i) = (order[p], order[p + 1]) follows when (j - 1, i - 1) are
    neighbours in that order and digits[j - 1] == digits[i - 1]."""
    rank = {k: p for p, k in enumerate(order)}
    return bytes(
        j > 0 and i > 0 and rank[i - 1] == rank[j - 1] + 1 and digits[j - 1] == digits[i - 1]
        for j, i in pairwise(order)
    )


def refused(build, q):
    """Whether build(q) raises AttractorError."""
    try:
        build(q)
    except nx.AttractorError:
        return True
    return False


def induction_words():
    """Every side-0 word of up to 12 letters, and longer words: Fibonacci
    words, the words of 853/2048 and 1031/2069 and long-run words 0^n 1."""
    long_words = [wd.word_from_rational(r) for r in [*fibonacci_slopes(2584), Fraction(853, 2048), Fraction(1031, 2069)]]
    return side0_words(12) + long_words + ["0" * n + "1" for n in (2, 7, 300)]


class TestSeamInduction:
    # `_skeleton` pushes two chains and compares only the base seams, the
    # pairs of neighbours that do not follow from their predecessors' pair; the
    # fit walks only the tied pairs that do not follow

    @pytest.mark.parametrize("word", induction_words(), ids=lambda w: w if len(w) <= 12 else f"len{len(w)}")
    def test_skeleton_is_the_four_chain_skeleton(self, word):
        q = bf.qumterval_of(word)
        skel = nx._skeleton(q)
        assert (skel.rights, skel.lefts, skel.Q) == four_chain_skeleton(q)
        # the tables are their definition, with at most two base pairs per boundary
        for order, digits, follows in (
            (skel.low_order, skel.low_digits, skel.low_follows),
            (skel.high_order, skel.high_digits, skel.high_follows),
        ):
            assert follows == follows_by_definition(order, digits)
            assert follows.count(0) <= 2

    def test_follows_on_changed_digits_and_orders(self):
        # 0^5 1: the lower order is 0, 1, ..., 5, and every pair but the first
        # follows; a changed digit breaks the two pairs whose predecessors'
        # digits it makes differ, and an order that is not a rotation has no
        # pair that follows
        order = (0, 1, 2, 3, 4, 5)
        assert nx._follows(order, [2] * 5) == bytes([0, 1, 1, 1, 1])
        assert nx._follows(order, [2, 2, 3, 2, 2]) == follows_by_definition(order, [2, 2, 3, 2, 2]) == bytes([0, 1, 0, 0, 1])
        assert nx._follows((0, 2, 1, 3, 4, 5), [2] * 5) == bytes(5)
        assert nx._follows((0, 1, 2, 3, 5, 4), [2] * 5) == bytes(5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_refuses_where_the_four_chains_refuse(self, data):
        # a side-0 word of up to 512 letters with one lower or upper digit
        # moved by one (the sign and |c| >= 2 kept), or one neighbour pair
        # of an order swapped
        L = data.draw(st.integers(3, 512), label="length")
        p = data.draw(st.integers(1, (L - 1) // 2).filter(lambda p: gcd(p, L) == 1), label="ones")
        q = bf.qumterval_of(wd.word_from_rational(Fraction(p, L)))
        change = data.draw(st.sampled_from(["low digit", "high digit", "low order", "high order"]), label="change")
        if change.endswith("digit"):
            name = "expected_digits_" + change.split()[0]
            digits = list(getattr(nx, name)(q.S))
            k = data.draw(st.integers(0, len(digits) - 1), label="position")
            step = data.draw(st.sampled_from([1, -1] if abs(digits[k]) > 2 else [1]), label="step")
            digits[k] += step if digits[k] > 0 else -step
            target, value = name, lambda S: tuple(digits)
        else:
            orders = [list(o) for o in nx.rotation_orders(q.m0, q.m1)]
            order = orders[change == "high order"]
            k = data.draw(st.integers(0, len(order) - 2), label="position")
            order[k], order[k + 1] = order[k + 1], order[k]
            target, value = "rotation_orders", lambda m0, m1: tuple(map(tuple, orders))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nx, target, value)
            want = refused(four_chain_skeleton, q)
            assert refused(nx._skeleton, q) == want, (q.word, change, k)
            if not want:
                skel = nx._skeleton(q)
                assert (skel.rights, skel.lefts, skel.Q) == four_chain_skeleton(q)
            # the tables never claim a pair that does not follow, and on a
            # rotation order they are their definition
            digits = list(nx.expected_digits_low(q.S)), list(nx.expected_digits_high(q.S))
            skel = nx._Skeleton(q.word, *digits, *nx.rotation_orders(q.m0, q.m1), (), (), 0, 1)
            for follows, order, digits in (
                (skel.low_follows, skel.low_order, skel.low_digits),
                (skel.high_follows, skel.high_order, skel.high_digits),
            ):
                oracle = follows_by_definition(order, digits)
                assert follows == oracle if change.endswith("digit") else all(map(le, follows, oracle))

    def test_deep_short_run_word_walks_few_ties(self, monkeypatch):
        # the pseudocenter of the 2069-letter word of 1031/2069: 1827 tied
        # neighbour pairs were walked before the tables, and four chains pushed
        q = bf.qumterval_of(wd.word_from_rational(Fraction(1031, 2069)))
        walks, chains = [], []
        order, abscissae = nx._Itineraries.order, nx._abscissae
        monkeypatch.setattr(nx._Itineraries, "order", lambda self, *args: walks.append(args) or order(self, *args))
        monkeypatch.setattr(nx, "_abscissae", lambda xi, digits, Q: chains.append(len(digits)) or abscissae(xi, digits, Q))
        nx.entropy_at(q.pseudocenter)
        assert len(walks) <= 8
        assert chains == [q.m0 + 2, q.m1 + 2]


class TestPins:
    # the printed strings of reprs recorded before the integer orbit, the
    # one-reduction abscissa update, the integer pole test, the merged
    # staircase, the cached conversions and the boundary mass; the full reprs
    # moved in their last digits when the mass became one log of the
    # boundary product
    @pytest.mark.parametrize(
        "alpha, word_start, pins",
        [
            (
                Fraction(1, 259),
                "0" * 20,
                ("4.57028484447519874963813639074", "0.719838750898298801652740227783", "4.6054e-36"),
            ),
            (
                # pseudocenter of the word of slope 107/259
                Fraction(
                    2558211997996751098631242859837758125077741899063613,
                    6735751276583987121998828910203031785614683891743592,
                ),
                "00101001010010101001",
                ("0.964197292943771526943452167552", "3.41202797163246754294295045952", "8.7023e-35"),
            ),
        ],
    )
    def test_entropy_reprs(self, alpha, word_start, pins):
        s = nx.entropy_at(alpha)
        assert len(s.word) == 259 and s.word.startswith(word_start)
        with working_precision(None):
            printed = (
                mpmath.nstr(s.A, 30, strip_zeros=False),
                mpmath.nstr(s.h, 30, strip_zeros=False),
                mpmath.nstr(s.err_bound, 5),
            )
        assert printed == pins
        A512, _ = rect_sum(nx.build_attractor(alpha), 512)
        with working_precision(512):
            assert abs(s.h - mpmath.pi**2 / (3 * A512)) <= s.err_bound


    def test_curve_raw_values(self):
        # SHA-256 of the raw (sign, mantissa, exponent, bitcount) of A, h and
        # err_bound along a 60-point curve at 128 bits, recorded when the
        # float tail was written as mpf expressions in a precision context
        samples = nx.entropy_curve(Fraction(1, 50), Fraction(49, 50), 60, 128)
        raw = [
            tuple((sign, int(man), exp, bc) for sign, man, exp, bc in (s.A._mpf_, s.h._mpf_, s.err_bound._mpf_))
            for s in samples
        ]
        assert len(raw) == 60
        assert (
            hashlib.sha256(repr(raw).encode()).hexdigest()
            == "b8dc3703b01ed3733f28028cccbae9e0fb6df0497b89e8168491e05864499305"
        )

    def test_attractor_geometry_sweep(self):
        # SHA-256 of the exact text of both corners, every vertical level and
        # every rectangle end, one line per reduced p/q <= 1/2 with q < 90,
        # recorded while the skeleton stored both ends of every segment
        digest = hashlib.sha256()
        count = 0
        for den in range(2, 90):
            for num in range(1, den // 2 + 1):
                if gcd(num, den) != 1:
                    continue
                attr = nx.build_attractor(Fraction(num, den))
                count += 1
                ends = [v for r in attr.rects for v in (r.x_lo, r.x_hi)]
                values = [attr.corner_x, attr.corner_y, *attr.v_levels, *ends]
                digest.update((" ".join(map(format_exact, values)) + "\n").encode())
        assert count == 1228
        assert digest.hexdigest() == "3837a6732082779cea043caef81c7ce52c853e646d822e532490bd63ce4a17d4"


class TestMasses:
    def test_skeleton_is_not_part_of_the_value(self):
        # two builds keep two skeletons; they compare, hash and print alike,
        # and each keeps the raw mass it gives from its own
        attr = nx.build_attractor(Fraction(337, 1000))
        twin = nx.build_attractor(Fraction(337, 1000))
        assert attr.skeleton is not twin.skeleton
        assert attr == twin and hash(attr) == hash(twin) and repr(attr) == repr(twin)
        assert "skeleton" not in repr(attr)
        first = nx.attractor_mass(attr)
        kept = attr.masses[DEFAULT_PRECISION]
        assert nx.attractor_mass(attr) == first and attr.masses[DEFAULT_PRECISION] is kept
        second = nx.attractor_mass(twin)
        assert second == first and twin.masses[DEFAULT_PRECISION] is not kept

    def test_records_stay_frozen_and_copyable(self):
        # no field, cached value or kept companion is reassigned after construction
        attr = nx.build_attractor(Fraction(337, 1000))
        q = bf.qumterval_of(attr.word)
        assert attr.alpha in q and "_bounds" in vars(q)
        sample = nx.entropy_at(attr.alpha)
        orbit = kd.orbit(attr.alpha, attr.alpha - 1, q.m0)
        assert not hasattr(orbit, "__dict__") and not hasattr(orbit, "matrices")
        pairs = ((attr, "skeleton"), (attr, "masses"), (attr, "word"), (q, "m0"), (q, "_bounds"), (sample, "A"))
        for record, name in (*pairs, (orbit, "points"), (orbit, "matrices")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for copied in (pickle.loads(pickle.dumps(orbit)), copy.deepcopy(orbit)):
            assert copied == orbit and type(copied) is kd.OrbitRecord
        # a copy keeps the skeleton and the masses taken so far
        A = nx.attractor_mass(attr)
        for copied in (pickle.loads(pickle.dumps(attr)), copy.deepcopy(attr)):
            assert copied == attr and copied.masses == attr.masses and nx.attractor_mass(copied) == A

    @pytest.mark.parametrize("alpha", [Fraction(9, 20), Fraction(337, 1000), Fraction(1, 40)])
    @pytest.mark.parametrize("bits", [64, 128, 300])
    def test_mass_is_the_ordered_sum_of_rect_masses(self, alpha, bits):
        # the attractor's mass is the entropy's A bit for bit, and within the
        # two bounds of the ordered sum of the rectangles' closed forms
        attr = nx.build_attractor(alpha)
        A, E = nx.attractor_mass(attr, bits)
        s = nx.entropy_at(alpha, bits)
        assert (A.man, A.exp) == (s.A.man, s.A.exp)
        total, err = rect_sum(attr, bits)
        with working_precision(bits):
            assert abs(A - total) <= E + err

    def test_unit_square(self):
        r = nx.Rect(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
        with working_precision(None):
            assert abs(rect_mass(r)[0] - mpmath.log(2)) < mpmath.mpf(10) ** -30

    def test_symmetric_square(self):
        t = Fraction(3, 5)
        r = nx.Rect(Fraction(0), t, -t, Fraction(0))
        with working_precision(None):
            expected = -mpmath.log(1 - mpmath.mpf(9) / 25)
            assert abs(rect_mass(r)[0] - expected) < mpmath.mpf(10) ** -30

    def test_against_numeric_quadrature(self):
        rng = random.Random(6)
        with working_precision(None):
            for _ in range(5):
                xl, xh = sorted(Fraction(rng.randint(-40, 90), 100) for _ in range(2))
                yl, yh = sorted(Fraction(rng.randint(-90, 40), 100) for _ in range(2))
                if xl == xh or yl == yh:
                    continue
                try:
                    r = nx.Rect(xl, xh, yl, yh)
                except ValueError:
                    continue
                numeric = mpmath.quad(
                    lambda x: mpmath.quad(
                        lambda y: (1 + x * y) ** -2, [to_mpf(yl), to_mpf(yh)]
                    ),
                    [to_mpf(xl), to_mpf(xh)],
                )
                assert abs(rect_mass(r)[0] - numeric) < mpmath.mpf(10) ** -15

    def test_density_pole_rejected(self):
        with pytest.raises(ValueError):
            nx.Rect(Fraction(-2), Fraction(2), Fraction(-1), Fraction(1))

    def test_error_bound_covers_two_precisions(self):
        attr = nx.build_attractor(Fraction(4, 15))
        a1, e1 = nx.attractor_mass(attr, 80)
        a2, _ = nx.attractor_mass(attr, 160)
        assert abs(a1 - a2) < e1


class TestEntropy:
    def test_plateau_value_and_constancy(self):
        with working_precision(None):
            target = nx.plateau_entropy()
            for num in (39, 45, 50, 55, 61):
                s = nx.entropy_at(Fraction(num, 100))
                assert s.word in ("01", "10")  # reflected report keeps the word
                assert abs(s.h - target) < mpmath.mpf(10) ** -25
            assert abs(target - mpmath.mpf("3.4183159706112")) < mpmath.mpf(10) ** -12

    def test_plateau_area(self):
        with working_precision(None):
            s = nx.entropy_at(Fraction(9, 20))
            expected = 2 * mpmath.log(1 + to_mpf(G))
            assert abs(s.A - expected) < mpmath.mpf(10) ** -30

    def test_symmetry_through_reflection(self):
        for num in (13, 77, 311):
            a = Fraction(num, 1000)
            h1 = nx.entropy_at(a).h
            h2 = nx.entropy_at(1 - a).h
            assert h1 == h2

    def test_entropy_varies_off_the_plateau(self):
        q = bf.qumterval_of("001")
        a1 = bf.simplest_rational_between(q.alpha_minus, q.pseudocenter)
        a2 = bf.simplest_rational_between(q.pseudocenter, q.alpha_plus)
        h1, h2 = nx.entropy_at(a1).h, nx.entropy_at(a2).h
        assert h1 < h2  # strictly increasing on a zero-heavy window

    def test_mirrored_word_reported(self):
        s = nx.entropy_at(Fraction(2, 3))
        assert s.word == "011" and (s.m0, s.m1) == (1, 2)

    def test_rohlin_cross_check(self):
        s = nx.entropy_at(Fraction(2, 5))
        est = lyapunov_estimate(Fraction(2, 5), steps=400_000, seed=5)
        assert abs(est - float(s.h)) / float(s.h) < 0.02


class TestDensityAndMeasure:
    def test_normalization_by_quadrature(self):
        attr = nx.build_attractor(Fraction(337, 1000))
        levels = sorted({r.y_lo for r in attr.rects} | {r.y_hi for r in attr.rects})
        with working_precision(None):
            total = mpmath.mpf(0)
            for lo, hi in zip(levels, levels[1:]):
                total += mpmath.quad(
                    lambda t: nx.density_slice(attr, t), [to_mpf(lo), to_mpf(hi)]
                )
            assert abs(total - 1) < mpmath.mpf(10) ** -10

    def test_mass_taken_once_per_attractor_and_precision(self, monkeypatch):
        # the density, the measure and direct calls read one mass per
        # attractor and precision, the entropy's own, kept on the attractor
        attr = nx.build_attractor(Fraction(337, 1000))
        calls = []
        sample = nx._sample_mass
        monkeypatch.setattr(nx, "_sample_mass", lambda a, skel, bits: calls.append(bits) or sample(a, skel, bits))
        for bits in (80, 128, 80, 128):
            for t in (attr.alpha - 1, Fraction(1, 7), attr.alpha):
                nx.density_slice(attr, t, bits)
            nx.measure_interval(attr, attr.alpha - 1, Fraction(1, 7), bits)
            nx.attractor_mass(attr, bits)
        assert calls == [80, 128]
        twin = nx.build_attractor(Fraction(337, 1000))
        kept = {bits: tuple(v._mpf_ for v in nx.attractor_mass(twin, bits)) for bits in (80, 128)}
        assert {bits: attr.masses[bits] for bits in (80, 128)} == kept

    def test_density_rounds_as_to_mpf_once_per_precision(self):
        # at alpha - 1, every level, 1/7 and alpha: bit for bit the scan of
        # every rectangle in which t = alpha takes the top one
        for alpha in (Fraction(337, 1000), Fraction(4, 15)):
            attr = nx.build_attractor(alpha)
            levels = sorted({r.y_lo for r in attr.rects} | {r.y_hi for r in attr.rects})
            assert levels[0] == alpha - 1 and levels[-1] == alpha
            A, _ = nx.attractor_mass(attr)
            for t in levels + [Fraction(1, 7)]:
                got = nx.density_slice(attr, t)
                assert nx.density_slice(attr, t) == got
                with working_precision(None):
                    tm, total = to_mpf(t), mpmath.mpf(0)
                    for r in attr.rects:
                        if r.y_lo <= t < r.y_hi or (t == alpha and r.y_hi == alpha):
                            xl, xh = to_mpf(r.x_lo), to_mpf(r.x_hi)
                            total += (xh - xl) / ((1 + xl * tm) * (1 + xh * tm))
                    assert got == total / A, (alpha, t)

    def test_density_lower_bound(self):
        attr = nx.build_attractor(Fraction(4, 15))
        s = nx.entropy_at(Fraction(4, 15))
        bound = float(s.h) / (4 * float(mpmath.pi) ** 2)
        rng = random.Random(8)
        for _ in range(50):
            t = Fraction(rng.randint(-733, 266), 1000)
            assert float(nx.density_slice(attr, t)) >= bound

    def test_density_at_zero_is_plain_length_over_area(self):
        attr = nx.build_attractor(Fraction(4, 15))
        with working_precision(None):
            a, _ = nx.attractor_mass(attr)
            for r in attr.rects:
                if r.y_lo <= 0 < r.y_hi:
                    expected = (to_mpf(r.x_hi) - to_mpf(r.x_lo)) / a
                    assert abs(nx.density_slice(attr, Fraction(0)) - expected) < mpmath.mpf(10) ** -30

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(side0_words(14)),
        st.booleans(),
        st.integers(0, 6),
        st.integers(1, 2**20 - 1),
        st.data(),
    )
    def test_measure_matches_the_clipped_rect_oracle(self, word, toward_plus, depth, k, data):
        # between two cuts, each a level of the attractor or a random
        # rational, against the 512-bit sum of the clipped rectangles'
        # closed-form masses over the sum of all of them
        alpha = rational_inside(bf.qumterval_of(word), toward_plus, depth, k)
        attr = nx.build_attractor(alpha)
        levels = sorted({r.y_lo for r in attr.rects} | {r.y_hi for r in attr.rects})
        cut = st.one_of(
            st.sampled_from(levels), st.fractions(0, 1, max_denominator=10**6).map(lambda t: alpha - 1 + t)
        )
        lo, hi = sorted([data.draw(cut), data.draw(cut)])
        mu = nx.measure_interval(attr, lo, hi, 128)
        with working_precision(512):
            band = mpmath.mpf(0)
            for r in attr.rects:
                ylo, yhi = max(r.y_lo, lo), min(r.y_hi, hi)
                if ylo < yhi:
                    band += rect_mass(nx.Rect(r.x_lo, r.x_hi, ylo, yhi), 512)[0]
            mu_512 = band / rect_sum(attr, 512)[0]
            assert abs(mu - mu_512) <= mpmath.mpf(2) ** -100

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(side0_words(12)), st.integers(0, 15))
    def test_log_derivative_is_the_excess_times_the_density_at_alpha(self, word, k):
        # (log h)' = (m0 - m1) rho(alpha): at the simplest rational of one
        # sixteenth of the qumterval, the central difference over 2^-130 at
        # 512 bits is h (m0 - m1) times the density at height alpha
        q = bf.qumterval_of(word)
        width = q.alpha_plus - q.alpha_minus
        alpha = bf.simplest_rational_between(q.alpha_minus + width * k / 16, q.alpha_minus + width * (k + 1) / 16)
        eps = Fraction(1, 2**130)
        assume(q.alpha_minus < alpha - eps and alpha + eps < q.alpha_plus)
        below, above, h = (nx.entropy_at(a, 512).h for a in (alpha - eps, alpha + eps, alpha))
        with working_precision(512):
            lhs = (above - below) * 2**129
            rhs = h * (q.m0 - q.m1) * nx.density_slice(nx.build_attractor(alpha), alpha, 512)
            assert abs(lhs - rhs) <= mpmath.mpf(2) ** -200 * max(1, abs(rhs))

    @pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(337, 1000), Fraction(4, 15)])
    def test_measure_is_the_sum_of_clipped_rect_masses(self, alpha):
        # between every two of five cuts (the ends, a level, a point between
        # two levels and 1/7), within four units of 2^-128 of the 512-bit sum
        # of the clipped rectangles' closed-form masses over the sum of all
        attr = nx.build_attractor(alpha)
        levels = sorted({r.y_lo for r in attr.rects} | {r.y_hi for r in attr.rects})
        cuts = sorted({alpha - 1, levels[1], (levels[1] + levels[2]) / 2, Fraction(1, 7), alpha})
        A_512, _ = rect_sum(attr, 512)
        for lo, hi in combinations(cuts, 2):
            mu = nx.measure_interval(attr, lo, hi, 128)
            with working_precision(512):
                band = mpmath.mpf(0)
                for r in attr.rects:
                    ylo, yhi = max(r.y_lo, lo), min(r.y_hi, hi)
                    if ylo < yhi:
                        band += rect_mass(nx.Rect(r.x_lo, r.x_hi, ylo, yhi), 512)[0]
                assert abs(mu - band / A_512) <= mpmath.mpf(2) ** -126, (lo, hi)

    def test_measure_bounds_rational_and_inside(self):
        attr = nx.build_attractor(Fraction(337, 1000))
        with pytest.raises(ValueError, match=r"rational, got QuadSurd\(-3, 1, 2, 5\)"):
            nx.measure_interval(attr, attr.alpha - 1, G - 1)
        with pytest.raises(ValueError, match="inside"):
            nx.measure_interval(attr, attr.alpha - 2, attr.alpha)

    def test_full_interval_measure(self):
        attr = nx.build_attractor(Fraction(2, 5))
        with working_precision(None):
            m = nx.measure_interval(attr, attr.alpha - 1, attr.alpha)
            assert abs(m - 1) < mpmath.mpf(10) ** -30

    def test_entropy_ratio_identity_both_directions(self):
        # same-side parameter pairs tie the two entropies through the measure
        # of the sandwiched interval (and mirrored through the shifted one)
        pairs = [
            (Fraction(33, 100), Fraction(337, 1000)),
            (Fraction(343, 1000), Fraction(347, 1000)),
        ]
        with working_precision(None):
            for a_small, a_big in pairs:
                s_small, s_big = nx.entropy_at(a_small), nx.entropy_at(a_big)
                attr_big = nx.build_attractor(a_big)
                mu = nx.measure_interval(attr_big, a_small, a_big)
                assert abs(s_big.h - (1 + mu) * s_small.h) < mpmath.mpf(10) ** -20
                attr_small = nx.build_attractor(a_small)
                mu2 = nx.measure_interval(attr_small, a_small - 1, a_big - 1)
                assert abs(s_small.h - (1 - mu2) * s_big.h) < mpmath.mpf(10) ** -20


def tail_oracle(num, den, rects, bits):
    """A, err, h and h_err as mpf expressions at `bits`: the reference of the
    raw float tail (`_mass_of`, `_entropy_of`)."""
    with mpmath.workprec(bits):
        A = mpmath.log(mpmath.mpf(num) / mpmath.mpf(den))
        err = mpmath.mpf(2) ** (-bits) * (32 * rects + 8 * A)
        h = mpmath.pi**2 / (3 * A)
        h_err = h * (err / A) + mpmath.mpf(2) ** (8 - bits)
    return A, err, h, h_err


@st.composite
def raw_tails(draw):
    """(num, den, rects, bits) as the boundary product leaves them: num and
    den at the scale W = bits + _GUARD, and A = log(num / den) from about 2^-8
    to 16 log 2 (the entropy's A is near 1 or above)."""
    bits = draw(st.integers(64, 400))
    scale = bits + nx._GUARD
    den = draw(st.integers(1 << scale, 1 << 2 * scale))
    num = draw(st.integers(den + (den >> 8), den << 16))
    return num, den, draw(st.integers(1, 10**4)), bits


def raw_op_chain(num, den, rects, bits):
    """A, err, h and h_err by the raw-op chain, one `exactnum.raw_*` call per
    operation on raw floats: the reference of the float tail on
    mantissa/exponent pairs (`_mass_of`, `_entropy_of`); h and h_err are
    None for A = 0."""
    A = ex.raw_log(ex.raw_div(ex.raw_int(num, bits), ex.raw_int(den, bits), bits), bits)
    err = ex.raw_shift(ex.raw_add(ex.raw_shift(A, 3), ex.raw_int(32 * rects), bits), -bits)
    if not A[1]:
        return A, err, None, None
    h = ex.raw_div(pi_squared(bits), ex.raw_mul(A, ex.raw_int(3), bits), bits)
    rel = ex.raw_div(err, A, bits)
    return A, err, h, ex.raw_add(ex.raw_mul(h, rel, bits), (0, 1, 8 - bits, 1), bits)


@st.composite
def wide_tails(draw):
    """(num, den, rects, bits) at 53 to 3000 bits, num and den at the scale
    W = bits + _GUARD: num = den (A = 0), num within a few units of den (A
    near 0, of either sign), or A up to about 2000 log 2; rects from 0."""
    bits = draw(st.integers(53, 3000))
    scale = bits + nx._GUARD
    den = draw(st.integers(1 << scale, 1 << 2 * scale))
    num = draw(
        st.one_of(
            st.just(den),
            st.integers(den - 8, den + 8),
            st.integers(den + 1, den << 8),
            st.integers(den << 8, den << 2000),
        )
    )
    return num, den, draw(st.one_of(st.just(0), st.integers(0, 10**6))), bits


def fraction_grid(start, stop, samples):
    """`entropy_grid` as `Fraction` arithmetic per point: the reference of
    its integer loop."""
    grid = []
    for i in range(1, samples + 1):
        exact = start + (stop - start) * Fraction(i, samples + 1)
        r = Fraction(round(exact * 2**19), 2**19)
        if start < r < stop and (not grid or grid[-1] != r):
            grid.append(r)
    return grid


class TestLeanSample:
    W = DEFAULT_PRECISION + nx._GUARD

    @settings(max_examples=300, deadline=None)
    @given(raw_tails())
    @example(((7 << W) + 12345, (3 << W) + 1, 42, DEFAULT_PRECISION))
    def test_float_tail_bit_identical_to_mpf_expressions(self, tail):
        num, den, rects, bits = tail
        A, err = nx._mass_of(num, den, rects, bits)
        h, h_err = nx._entropy_of(A, err, pi_squared(bits), bits)
        got = [A, err, h, h_err]  # raw (sign, man, exp, bc) tuples
        assert got == [v._mpf_ for v in tail_oracle(num, den, rects, bits)]

    @settings(max_examples=300, deadline=None)
    @given(wide_tails())
    @example((1 << 200, 1 << 200, 0, 64))  # num = den: A = 0 and err = 0
    @example(((1 << 200) + 1, 1 << 200, 0, 64))  # A rounds to 2^-200
    @example(((1 << 3040) + 1, (1 << 3040) - 1, 7, 3000))
    @example(((5 << 93) + 3, 3 << 93, 0, 53))
    def test_float_tail_equals_the_raw_op_chain(self, tail):
        num, den, rects, bits = tail
        A, err = nx._mass_of(num, den, rects, bits)
        got = [A, err, *(nx._entropy_of(A, err, pi_squared(bits), bits) if A[1] else (None, None))]
        assert got == list(raw_op_chain(num, den, rects, bits))

    @pytest.mark.parametrize("alpha", [Fraction(337, 1000), Fraction(4, 15), Fraction(9, 20)], ids=str)
    @pytest.mark.parametrize("bits", [64, 128, 3000])
    def test_zero_width_band_is_the_raw_op_chain(self, monkeypatch, alpha, bits):
        # the band [y, y] clamps every level to one key: each factor pair is
        # equal, num = den, and the measure is 0 as the raw-op chain gives it
        attr = nx.build_attractor(alpha)
        logged = []
        mass_of = nx._mass_of
        monkeypatch.setattr(nx, "_mass_of", lambda *args: logged.append(args) or mass_of(*args))
        y = alpha - Fraction(1, 3)
        assert nx.measure_interval(attr, y, y, bits) == 0
        num, den, rects, _ = logged[-1]  # after the mass A, taken first
        assert num == den and rects == 0
        assert mass_of(num, den, 0, bits) == raw_op_chain(num, den, 0, bits)[:2] == (ex.ZERO, ex.ZERO)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(Fraction(1, 100), Fraction(49, 100), max_denominator=10**4),
        st.fractions(Fraction(51, 100), Fraction(99, 100), max_denominator=10**4),
        st.integers(2, 12),
    )
    @example(Fraction(9, 20), Fraction(11, 20), 3)  # 1/2 itself, on the plateau
    @example(Fraction(1, 3), Fraction(2, 3), 4)
    def test_run_across_one_half_equals_entropy_at(self, start, stop, samples):
        # the loop's integer reflection p/q -> (q - p)/q, its reuse of the
        # qumterval, skeleton and labels, against a fresh call per point and
        # against the reflection taken in Fractions
        grid = nx.entropy_grid(start, stop, samples)
        got = nx._entropy_run(grid, None)
        assert got == [nx.entropy_at(a) for a in grid]
        for s in got:
            if s.alpha > Fraction(1, 2):
                mirror = nx.entropy_at(1 - s.alpha)
                assert (s.word, s.m0, s.m1) == (wd.transpose(wd.negate(mirror.word)), mirror.m1, mirror.m0)
                assert (s.raw_A, s.raw_h, s.raw_err) == (mirror.raw_A, mirror.raw_h, mirror.raw_err)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(0, 1, max_denominator=10**12),
        st.fractions(0, 1, max_denominator=10**12),
        st.integers(2, 400),
    )
    def test_grid_equals_fraction_loop(self, a, b, samples):
        start, stop = min(a, b), max(a, b)
        if not 0 < start < stop < 1:
            return
        assert nx.entropy_grid(start, stop, samples) == fraction_grid(start, stop, samples)

    def test_grid_rounds_half_to_even(self):
        # every point sits half-way between two grid points: 1.5, 2.5, ...,
        # 8.5 units of 2^-19 round to 2, 2, 4, 4, ..., 8, 8
        unit = Fraction(1, 2**19)
        start, stop = unit / 2, unit * 19 / 2
        want = [k * unit for k in (2, 4, 6, 8)]
        assert nx.entropy_grid(start, stop, 8) == fraction_grid(start, stop, 8) == want

    def test_grid_denser_than_its_step_collapses(self):
        start = Fraction(1, 3)
        stop = start + Fraction(1, 2**17)
        grid = nx.entropy_grid(start, stop, 50)
        assert grid == fraction_grid(start, stop, 50)
        assert len(grid) == 4 and all(a < b for a, b in pairwise(grid))

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=10**9),
        st.fractions(Fraction(1, 2**19), Fraction(1, 2**10), max_denominator=10**9),
        st.integers(-3, 300),
    )
    @example(Fraction(1, 3), Fraction(7, 2**19), -1)  # (stop - start) 2^19 = samples + 1: the loop
    @example(Fraction(1, 3), Fraction(7, 2**19), 0)  # one sample more: no loop
    @example(Fraction(1, 4), Fraction(3, 2**19), 0)  # both ends on the grid, no loop
    def test_grid_past_its_step_equals_fraction_loop(self, start, span, extra):
        # near and past (stop - start) 2^19 = samples + 1, where the kept
        # points are one range of grid steps, taken with no loop
        stop = start + span
        samples = max(2, int(span * 2**19) + extra)
        assert nx.entropy_grid(start, stop, samples) == fraction_grid(start, stop, samples)

    def test_grid_of_10_11_samples_takes_no_loop(self):
        # 10^11 samples on (1/50, 49/50) are every grid point from the
        # rounding of the first point to that of the last; a loop over the
        # samples would not end within the alarm
        with alarm(30, "entropy_grid stepped through the samples"):
            grid = nx.entropy_grid(Fraction(1, 50), Fraction(49, 50), 10**11)
        assert len(grid) == 503_317
        assert [g.numerator * (2**19 // g.denominator) for g in grid] == list(range(10_486, 513_803))

    def test_grid_drops_endpoints(self):
        # the first and last points round onto the dyadic endpoints
        unit = Fraction(1, 2**19)
        start, stop = Fraction(1, 4), Fraction(1, 4) + 3 * unit
        grid = nx.entropy_grid(start, stop, 20)
        assert grid == fraction_grid(start, stop, 20) == [start + unit, start + 2 * unit]


class TestCurveAndProbes:
    def test_grid_avoids_endpoints(self):
        grid = nx.entropy_grid(Fraction(1, 10), Fraction(2, 10), 25)
        assert all(Fraction(1, 10) < a < Fraction(2, 10) for a in grid)
        assert len(grid) == 25

    def test_curve_monotone_on_increasing_branch(self):
        rows = nx.entropy_curve(Fraction(5, 100), Fraction(38, 100), 40)
        hs = [float(s.h) for s in rows]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_curve_parallel_matches_serial(self):
        # whole samples, all eight fields; the second grid crosses 1/2, so
        # the chunks split mirror pairs that the serial loop samples once
        for start, stop, samples in [(Fraction(1, 5), Fraction(3, 10), 8), (Fraction(1, 5), Fraction(4, 5), 41)]:
            serial = nx.entropy_curve(start, stop, samples)
            parallel = nx.entropy_curve(start, stop, samples, jobs=2)
            assert [tuple(s) for s in serial] == [tuple(s) for s in parallel]

    def test_pool_has_at_most_one_worker_per_chunk_and_cpu(self, monkeypatch):
        # a forked pool starts every worker it is allowed at its first
        # submit: it gets min(jobs, chunks, CPUs) workers, the grid about
        # four chunks per worker, and the samples stay the serial loop's;
        # the stub pool maps serially
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks, *rest):
                asked.append(len(chunks))
                return map(fn, chunks, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = nx.entropy_curve(Fraction(1, 5), Fraction(3, 10), 8)
        assert len(serial) == 8  # so at most 8 chunks
        for cpus, jobs, workers, chunks in ((3, 2, 2, 8), (3, 10**5, 3, 8), (64, 10**5, 8, 8), (None, 10**5, 1, 4)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            asked.clear()
            assert nx.entropy_curve(Fraction(1, 5), Fraction(3, 10), 8, jobs=jobs) == serial
            assert asked == [workers, chunks], (cpus, jobs)
        # an empty grid takes no pool and gives what one job gives
        asked.clear()
        empty = Fraction(1000000, 3000001), Fraction(1000001, 3000001)
        assert nx.entropy_curve(*empty, 2, jobs=2) == nx.entropy_curve(*empty, 2) == [] and asked == []

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize(
        "start, stop, samples", [(Fraction(1, 50), Fraction(49, 50), 400), (Fraction(1, 3), Fraction(3, 4), 299)], ids=str
    )
    def test_chunks_hold_whole_reflected_pairs(self, monkeypatch, start, stop, samples, jobs):
        # each reflected pair p/q, (q - p)/q goes to one chunk, and the
        # samples come back in grid order; the stub pool maps serially and
        # keeps the chunks
        chunks = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, parts, *rest):
                chunks.extend(parts)
                return map(fn, parts, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert nx.entropy_curve(start, stop, samples, jobs=jobs) == nx.entropy_curve(start, stop, samples)
        assert len(chunks) == 4 * jobs
        grid = nx.entropy_grid(start, stop, samples)
        assert sorted(alpha for chunk in chunks for alpha in chunk) == grid
        owner = {}
        for n, chunk in enumerate(chunks):
            for alpha in chunk:
                assert owner.setdefault(min(alpha, 1 - alpha), n) == n
        assert len(owner) < len(grid)  # the grid holds pairs

    def test_asymptotic_rows(self):
        rows = nx.asymptotic_probe([2, 10, 40])
        assert float(rows[0]["h"]) > 0  # smallest admissible case exists
        assert rows[1]["ratio"] > rows[2]["ratio"] > 1
        for row in rows:
            # inner/outer bounds from the square inclusion argument
            assert row["A_minus_log"] > -float(mpmath.log(4))
            assert row["A_minus_log"] < 1.0

    def test_asymptotic_mass_is_the_entropy_mass(self):
        # one production A: the probe's is that of entropy_at, inside the
        # rectangle oracle's bound
        rows = nx.asymptotic_probe([2, 10, 100, 1000])
        for row in rows:
            alpha = Fraction(1, row["N"] + 1)
            s = nx.entropy_at(alpha)
            assert row["alpha"] == alpha and (row["A"], row["h"]) == (s.A, s.h)
            A_rects, err_rects = rect_sum(nx.build_attractor(alpha))
            with working_precision(None):
                assert abs(row["A"] - A_rects) <= row["err_bound"] + err_rects

    def test_asymptotic_rows_hold_one_skeleton_at_a_time(self):
        # a row's skeleton and fit are dropped before the next N is sampled,
        # so three N cost the peak of one (about 3 times as much if kept)
        peaks = []
        nx._asymptotic_rows([5], None)
        for ns in ([5000], [5000, 5001, 5002]):
            tracemalloc.start()
            try:
                nx._asymptotic_rows(ns, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("n", [10**6 + 1, 10**8])
    def test_asymptotic_rows_keep_to_the_step_budget(self, n):
        # 1/(N+1) is located by the descent, which refuses N above its budget at once
        with alarm(1, "the probe ran past the descent's step budget"):
            with pytest.raises(ValueError, match="step budget of 1000000 mediant steps"):
                nx._asymptotic_rows([n], None)

    def test_slope_probe_monotone_data(self):
        rows = nx.slope_growth_probe("001", "plus", 4)
        assert rows[-1]["excess_zeros"] >= rows[0]["excess_zeros"]
        assert abs(rows[-1]["slope"]) >= abs(rows[0]["slope"])

    def test_slope_probe_refuses_negative_halvings(self):
        # no window at all is no probe
        with pytest.raises(ValueError, match="halvings"):
            nx.slope_growth_probe("001", "plus", -1)

    def test_slope_on_a_2048_letter_word(self):
        # endpoints with more than a thousand continued-fraction digits; at
        # 128 bits the two entropies differ by about 1e-38 against error
        # bounds near 7e-34 each, so the slope is refused, but not at 3000
        q = bf.qumterval_of(wd.word_from_rational(Fraction(853, 2048)))
        assert bf.simplest_rational_between(q.alpha_minus, q.alpha_plus) == q.pseudocenter
        with pytest.raises(ValueError, match="below its error bound at 128 bits"):
            nx.qumterval_slope(q, 128)
        info = nx.qumterval_slope(q, 3000)
        assert q.alpha_minus < info["a"] < info["b"] < q.alpha_plus
        assert f"{info['slope']:.9f}" == "979.517269976"
        # without a precision given, the slope works at 2 b + 64 = 2796 bits
        assert f"{nx.qumterval_slope(q)['slope']:.9f}" == "979.517269976"

    def test_plateau_slope_is_zero(self):
        info = nx.qumterval_slope(bf.qumterval_of("01"))
        assert abs(info["slope"]) < 1e-12

    def test_left_plateau_edge_slopes_bounded_below(self):
        # approaching the left edge of the plateau the interval labels keep a
        # unit digit imbalance: slopes stay above a positive constant instead
        # of growing
        rows = nx.slope_growth_probe("01", "minus", 4)
        assert all(r["excess_zeros"] == 1 for r in rows)
        assert all(r["slope"] > 0.5 for r in rows)
        assert abs(rows[-1]["slope"]) < 4 * abs(rows[0]["slope"])


def slope_samples(q):
    """The two entropy samples of `qumterval_slope` at its default precision."""
    info = nx.qumterval_slope(q)
    bits = max(DEFAULT_PRECISION, 2 * q.pseudocenter.denominator.bit_length() + 64)
    return info, nx.entropy_at(info["a"], bits), nx.entropy_at(info["b"], bits)


class TestMpfOracles:
    # the library's float paths, computed on raw floats, against the mpf
    # expressions they repeat (`mpf_oracle`), bit for bit

    @pytest.mark.parametrize("bits", [64, 128, 300])
    def test_density_slice(self, bits):
        # at every level, every midpoint of two levels, 0 and random
        # rationals of the attractors at the pseudocenters of side-0 words
        rng = random.Random(bits)
        for w in side0_words(8):
            attr = nx.build_attractor(bf.qumterval_of(w).pseudocenter)
            levels = sorted({r.y_lo for r in attr.rects} | {r.y_hi for r in attr.rects})
            ts = levels + [(a + b) / 2 for a, b in pairwise(levels)] + [Fraction(0)]
            ts += [attr.alpha - Fraction(rng.randint(0, 10**6), 10**6) for _ in range(5)]
            for t in ts:
                assert nx.density_slice(attr, t, bits)._mpf_ == oracle.density_slice(attr, t, bits)._mpf_, (w, t)

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_asymptotic_probe(self, bits):
        for row in nx.asymptotic_probe([*range(2, 41), 1000], bits):
            target, ratio, A_minus_log = oracle.asymptotic_row(row, bits)
            assert row["target"]._mpf_ == target._mpf_
            assert (row["ratio"], row["A_minus_log"]) == (ratio, A_minus_log)

    @pytest.mark.parametrize("bits", [64, 80, 128, 200, 256, 512, 1000])
    def test_plateau_entropy(self, bits):
        assert nx.plateau_entropy(bits)._mpf_ == oracle.plateau_entropy(bits)._mpf_

    @settings(max_examples=200, deadline=None)
    @given(surds)
    def test_surd_float(self, x):
        assert float(x) == oracle.surd_float(x)

    def test_float_of_atlas_lengths(self):
        for q in bf.atlas(12):
            assert float(q.length) == oracle.surd_float(q.length), q.word

    def test_selftest(self):
        checks = dict(nx.selftest())
        assert {name: checks[name] for name in ("plateau value", "reflection")} == oracle.selftest_checks()

    def test_slope_is_the_correctly_rounded_quotient(self):
        # on the side-0 qumtervals of up to 11 letters; the former quotient,
        # each step rounded at 53 bits, prints the same 9 decimals
        for w in side0_words(11):
            info, s1, s2 = slope_samples(bf.qumterval_of(w))
            assert info["slope"] == oracle.slope(s1, s2), w
            assert f"{info['slope']:.9f}" == f"{oracle.slope_at_53_bits(s1, s2):.9f}", w

    @pytest.mark.parametrize("word", ["00101", "001", "0001001"])
    def test_slope_ignores_the_mpmath_context(self, word):
        # the slope once divided at whatever mpmath.mp.prec its caller had set
        q = bf.qumterval_of(word)
        want = nx.qumterval_slope(q)["slope"]
        for prec in (12, 300):
            with mpmath.workprec(prec):
                assert nx.qumterval_slope(q)["slope"] == want, prec


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: nx.Rect(Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)), ValueError, "degenerate rectangle", id="Rect-degenerate"),
            pytest.param(lambda: nx.attractor_corners("011"), ValueError, "built for side-0 words", id="attractor_corners-side-1"),
            pytest.param(lambda: nx.density_slice(nx.build_attractor(Fraction(1, 3)), 1), ValueError, "height outside the interval", id="density_slice-height"),
            pytest.param(lambda: nx.entropy_grid(Fraction(1, 2), Fraction(1, 3), 5), ValueError, "need 0 < start < stop < 1", id="entropy_grid-range"),
            pytest.param(lambda: nx._asymptotic_rows([1], None), ValueError, "N must be at least 2", id="asymptotic_rows-1"),
            pytest.param(lambda: nx.slope_growth_probe("001", side="up"), ValueError, "side must be 'plus' or 'minus'", id="slope_growth_probe-side"),
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
