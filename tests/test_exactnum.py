import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from functools import reduce

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    round_down,
    round_nearest,
    round_up,
    to_float,
    to_str,
)

from fareycf import exactnum as ex

from fareycf.exactnum import (
    INF,
    IDENTITY,
    E,
    Mobius,
    QuadSurd,
    S,
    T,
    _FULL_FACTOR_BOUND,
    _PARTIAL_PRIME_BOUND,
    _squarefree_split,
    digits_matrix,
    floor_exact,
    format_exact,
    make_surd,
    mobius_apply,
    parse_fraction,
    surd_from_periodic_cf,
)


def _is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


_SMALL_PRIMES = [p for p in range(2, _PARTIAL_PRIME_BOUND) if _is_prime(p)]
_ALL_PRIMES = _SMALL_PRIMES + [p for p in range(_PARTIAL_PRIME_BOUND, 16000) if _is_prime(p)]


def _split_by_the_full_table(n):
    """n = s*s*d as `_squarefree_split` splits it, by trial division over
    every prime below 16000 with p**3 <= the cofactor below
    `_FULL_FACTOR_BOUND`, and over the primes below `_PARTIAL_PRIME_BOUND`
    with p**2 <= the cofactor at and above it."""
    if n == 0:
        return 1, 0
    primes, power = (_ALL_PRIMES, 3) if n < _FULL_FACTOR_BOUND else (_SMALL_PRIMES, 2)
    s = d = 1
    for p in primes:
        if p**power > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    root = math.isqrt(n)
    return (s * root, d) if root * root == n else (s, d * n)


def mpf_value(p, q, r, d, dps=100):
    with mpmath.workdps(dps):
        return (mpmath.mpf(p) + mpmath.mpf(q) * mpmath.sqrt(d)) / r


class TestSurdConstruction:
    def test_periodic_cf_known_values(self):
        # alpha^+ of the word 001 and alpha^- reached through the preperiod (3,)
        assert surd_from_periodic_cf((), (2, 1)) == make_surd(-1, 1, 2, 3)
        assert surd_from_periodic_cf((3,), (1, 2)) == make_surd(2, -1, 1, 3)

    def test_golden_mean(self):
        # oracle: positive root of x = 1/(1+x), i.e. x^2 + x - 1 = 0
        g = QuadSurd.from_quadratic(1, 1, -1)
        assert surd_from_periodic_cf((), (1, 1)) == g
        assert g == make_surd(-1, 1, 2, 5)
        assert 0 < g < 1 and g * g + g == 1

    def test_rational_collapse(self):
        assert make_surd(3, 0, 6, 7) == Fraction(1, 2)
        assert make_surd(1, 2, 2, 9) == Fraction(7, 2)  # sqrt(9) folds in
        assert make_surd(0, 2, 4, 8) == make_surd(0, 1, 1, 2)  # sqrt(8) = 2 sqrt(2)

    def test_reject_bad_input(self):
        with pytest.raises(ValueError):
            surd_from_periodic_cf((), ())
        with pytest.raises(ValueError):
            surd_from_periodic_cf((), (0, 1))
        with pytest.raises(ZeroDivisionError):
            make_surd(1, 1, 0, 2)

    def test_reexpansion_reproduces_digit_stream(self):
        rng = random.Random(7)
        for _ in range(60):
            pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
            period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            x = surd_from_periodic_cf(pre, period)
            got_pre, got_per = x.cf_expansion()

            def stream(p, c, n):
                out = list(p)
                while len(out) < n:
                    out.extend(c)
                return out[:n]

            n = len(pre) + 3 * len(period) + 3
            assert stream(got_pre, got_per, n) == stream(pre, period, n)


class TestArithmeticAndOrder:
    def test_field_operations(self):
        s2 = make_surd(0, 1, 1, 2)
        assert (1 + s2) * (1 - s2) == Fraction(-1)
        assert s2 * s2 == Fraction(2)
        assert (s2 / 2) * 2 == s2
        assert 1 / s2 == s2 / 2

    def test_cross_field_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            make_surd(0, 1, 1, 2) + make_surd(0, 1, 1, 3)

    def test_cross_field_comparison(self):
        s2, s3 = make_surd(0, 1, 1, 2), make_surd(0, 1, 1, 3)
        assert s2 < s3
        assert s3 > s2
        assert make_surd(1, 1, 1, 2) < make_surd(0, 2, 1, 3)  # 2.414 < 3.46
        assert make_surd(0, 5, 1, 2) > make_surd(0, 4, 1, 3)  # 7.07 > 6.93

    def test_floor_examples(self):
        assert floor_exact(Fraction(5, 2)) == 2
        assert floor_exact(make_surd(-1, 1, 2, 3)) == 0  # (sqrt3-1)/2 in (0,1)
        g = make_surd(-1, 1, 2, 5)
        assert floor_exact(-g) == -1

    def test_floor_matches_100_digit_numeric(self):
        rng = random.Random(20240809)
        for _ in range(10_000):
            p = rng.randint(-10**6, 10**6)
            q = rng.randint(-10**6, 10**6)
            r = rng.randint(1, 10**6)
            d = rng.randint(2, 10**4)
            x = make_surd(p, q, r, d)
            if isinstance(x, Fraction):
                continue
            assert floor_exact(x) == int(mpmath.floor(mpf_value(x.p, x.q, x.r, x.d)))

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50).filter(bool),
        st.integers(1, 50),
        st.sampled_from([2, 3, 5, 6, 7, 10, 11]),
        st.fractions(min_value=-5, max_value=5),
    )
    def test_order_consistent_with_floats(self, p, q, r, d, f):
        x = make_surd(p, q, r, d)
        if isinstance(x, Fraction):
            return
        approx = (p + q * math.sqrt(d)) / r
        if abs(approx - float(f)) > 1e-6:
            assert (x < f) == (approx < float(f))


class TestMobius:
    def test_generator_actions(self):
        assert mobius_apply(S, Fraction(-1)) == Fraction(1)
        g = make_surd(-1, 1, 2, 5)
        assert mobius_apply(T, g) == g + 1
        assert mobius_apply(Mobius(1, 1, 1, 2), Fraction(0)) == Fraction(1, 2)

    def test_infinity_handling(self):
        assert mobius_apply(T, INF) is INF
        assert mobius_apply(S, INF) == Fraction(0)
        assert mobius_apply(S, Fraction(0)) is INF

    def test_group_relations(self):
        assert (S * T) ** 3 == IDENTITY
        assert S * S == IDENTITY
        assert T * S * T == S * T**-1 * S
        assert all(m * m.inverse() == IDENTITY for m in (S, T, Mobius(1, 1, 1, 2), Mobius(2, -1, 3, -1)))

    def test_projective_equality_and_hash(self):
        m = Mobius(2, -1, 3, -1)
        assert m == Mobius(-2, 1, -3, 1)
        assert hash(m) == hash(Mobius(-2, 1, -3, 1))
        assert m != Mobius(2, 1, 1, 1)

    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            Mobius(2, 0, 0, 1)

    def test_composition_is_action_composition(self):
        rng = random.Random(3)
        gens = [S, T, T**-1]
        for _ in range(300):
            m1 = IDENTITY
            m2 = IDENTITY
            for _ in range(rng.randint(1, 8)):
                m1 = m1 * rng.choice(gens)
                m2 = m2 * rng.choice(gens)
            x = make_surd(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]), rng.randint(1, 9), 7)
            lhs = mobius_apply(m1 * m2, x)
            inner = mobius_apply(m2, x)
            assert lhs == mobius_apply(m1, inner)


mobius_matrices = st.lists(st.sampled_from([S, T, T**-1, E]), min_size=1, max_size=12).map(
    lambda ms: reduce(Mobius.__mul__, ms)
)


class TestMobiusOnSurds:
    @given(
        mobius_matrices,
        st.integers(-10**20, 10**20),
        st.integers(-10**20, 10**20).filter(bool),
        st.integers(1, 10**20),
        st.sampled_from([2, 3, 5, 13, 10**12 + 39]),
    )
    def test_one_reduction_equals_surd_arithmetic(self, m, p, q, r, d):
        # the image of a surd in one reduction is, field for field, the
        # quotient (a x + b) / (c x + d) of surd arithmetic
        x = make_surd(p, q, r, d)
        got = mobius_apply(m, x)
        want = (m.a * x + m.b) / (m.c * x + m.d)
        assert isinstance(got, QuadSurd) and isinstance(want, QuadSurd)
        assert (got.p, got.q, got.r, got.d) == (want.p, want.q, want.r, want.d)


class TestTextForms:
    def test_canonical_strings(self):
        assert format_exact(Fraction(9, 62)) == "9/62"
        assert format_exact(Fraction(3)) == "3/1"
        assert format_exact(make_surd(-1, 1, 2, 3)) == "(-1+1*sqrt(3))/2"
        assert format_exact(make_surd(2, -1, 1, 3)) == "(2-1*sqrt(3))/1"
        assert format_exact(INF) == "inf"

    def test_beyond_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        digits = "7" + "0" * (limit + 499) + "1"
        big = 7 * 10 ** (limit + 500) + 1
        assert format_exact(Fraction(big, 3)) == digits + "/3"
        assert format_exact(make_surd(big, 1, 2, 5)) == f"({digits}+1*sqrt(5))/2"
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError, match="Exceeds the limit"):  # parsing keeps the limit, and says so
            parse_fraction("1" * (limit + 1))

    def test_parse_fraction(self):
        assert parse_fraction("4/15") == Fraction(4, 15)
        assert parse_fraction(" 3 ") == Fraction(3)
        assert parse_fraction("0.45") == Fraction(9, 20)
        assert parse_fraction("1e-3") == Fraction(1, 1000)
        assert parse_fraction(" 2/5 ") == Fraction(2, 5)


class _Record(ex.Frozen, namedtuple("_Record", "value")):
    """A frozen record as the package declares one."""


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: delattr(_Record(1), "value"), AttributeError, "cannot delete 'value'", id="frozen-delete"),
            pytest.param(lambda: make_surd(0, 1, 1, -2), ValueError, "negative radicand", id="make_surd-radicand"),
            pytest.param(lambda: QuadSurd(1, 0, 1, 2), ValueError, "not a normalized irrational surd", id="QuadSurd-q"),
            pytest.param(lambda: QuadSurd(0, 1, 1, 1), ValueError, "not a normalized irrational surd", id="QuadSurd-d"),
            pytest.param(lambda: QuadSurd(0, 1, -1, 2), ValueError, "not a normalized irrational surd", id="QuadSurd-r"),
            pytest.param(lambda: make_surd(1, 1, 1, 2).cf_expansion(), ValueError, r"expects a value in \(0, 1\)", id="cf_expansion-range"),
            pytest.param(lambda: ex.checked_precision(63), ValueError, "must be >= 64", id="checked_precision-63"),
            pytest.param(lambda: ex._quotient(1, 0, 0, 0, 64), ZeroDivisionError, "zero raw float", id="quotient-by-zero"),
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize(
        "value, want",
        [
            pytest.param(lambda: mobius_apply(S, 2), Fraction(-1, 2), id="mobius_apply-int"),
            pytest.param(lambda: QuadSurd(0, 1, 1, 8), QuadSurd(0, 2, 1, 2), id="QuadSurd-eq-across-radicands"),
        ],
    )
    def test_value(self, value, want):
        got = value()
        assert got == want and type(got) is type(want)


class TestSquarefreeSplit:
    @given(st.integers(0, 10**300))
    def test_split_reassembles_with_nonsquare_radicand(self, n):
        s, d = _squarefree_split(n)
        assert s * s * d == n
        if n:
            assert (d == 1) == (math.isqrt(n) ** 2 == n)
            assert d == 1 or math.isqrt(d) ** 2 != d

    def test_squarefree_below_a_million_by_brute_force(self):
        N = 10**6
        core = list(range(N))  # n with every square factor divided out
        for k in range(2, math.isqrt(N - 1) + 1):
            sq = k * k
            for m in range(sq, N, sq):
                while core[m] % sq == 0:
                    core[m] //= sq
        for n in range(1, N):
            s, d = _squarefree_split(n)
            assert d == core[n] and s * s * d == n, n

    def test_square_of_a_prime_above_the_cube_root(self):
        # p^2 q with p > (p^2 q)^(1/3): trial division stops before reaching p
        cases = [(range(20_000, 20_100), [2053, 7919]),
                 (range(40_000, 40_100), [2053, 2477]),
                 (range(100_000, 100_100), [2, 3, 6, 7, 30, 97, 398, 399]),
                 (range(1_000_000, 1_000_100), [2, 3]),
                 (range(1_999_000, 1_999_990), [1])]
        for ps, qs in cases:
            for p in filter(_is_prime, ps):
                for q in qs:
                    n = p * p * q
                    assert n < _FULL_FACTOR_BOUND and p**3 > n
                    assert _squarefree_split(n) == (p, q)
        big = [p for p in range(16001, 16200) if _is_prime(p)]
        for p, r in zip(big, big[1:]):
            assert _squarefree_split(p * r * 11 * 11) == (11, p * r)
            # p^2 r is past the bound, where only squares of small primes go
            assert p * p * r >= _FULL_FACTOR_BOUND
            assert _squarefree_split(p * p * r) == (1, p * p * r)

    _CUBE = _PARTIAL_PRIME_BOUND**3  # below it no prime past the small table divides out

    @given(
        st.one_of(
            st.integers(0, _CUBE - 1),
            st.integers(_CUBE, _FULL_FACTOR_BOUND - 1),
            st.integers(_FULL_FACTOR_BOUND, 10**40),
            # a power of a prime about the end of the small table or of the full one
            st.builds(lambda p, e, m: p**e * m, st.sampled_from(_ALL_PRIMES[-200:] + _ALL_PRIMES[300:320]),
                      st.integers(1, 3), st.integers(1, 10**9)),
        )
    )
    @example(_CUBE - 1)
    @example(_CUBE)
    @example(_FULL_FACTOR_BOUND - 1)
    @example(_FULL_FACTOR_BOUND)
    @example(2053**3)  # the cube of the least prime past the small table
    @example(15859**3)  # the cube of the largest prime that the full table must hold
    def test_split_equals_trial_division_by_the_full_table(self, n):
        # the tables are sized to the radicand; the split is that of the full table
        assert _squarefree_split(n) == _split_by_the_full_table(n)

    def test_a_small_radicand_builds_the_small_table_only(self, monkeypatch):
        monkeypatch.setattr(ex, "_PRIME_TABLES", {})
        assert _squarefree_split(5) == (1, 5)  # the radicand of word 01
        assert _squarefree_split(self._CUBE - 1) == _split_by_the_full_table(self._CUBE - 1)
        assert list(ex._PRIME_TABLES) == [_PARTIAL_PRIME_BOUND]
        assert _squarefree_split(self._CUBE) == _split_by_the_full_table(self._CUBE)
        assert sorted(ex._PRIME_TABLES) == [_PARTIAL_PRIME_BOUND, 16000]
        assert ex._PRIME_TABLES[16000] == _ALL_PRIMES

    @given(st.integers(_FULL_FACTOR_BOUND, 10**400), st.integers(1, 10**6))
    def test_small_prime_squares_removed_above_the_bound(self, m, k):
        n = m * k * k
        s, d = _squarefree_split(n)
        assert s * s * d == n
        assert d == 1 or math.isqrt(d) ** 2 != d
        for p in _SMALL_PRIMES:
            assert d % (p * p), p


class TestDigitsMatrix:
    @given(st.lists(st.integers(1, 10**6), max_size=70))
    def test_equals_left_to_right_product(self, ds):
        m = IDENTITY
        for a in ds:
            m = m * Mobius(0, 1, 1, a)
        got = digits_matrix(tuple(ds))
        assert (got.a, got.b, got.c, got.d) == (m.a, m.b, m.c, m.d)

    def test_long_preperiod_matches_digit_by_digit(self):
        rng = random.Random(5)
        for _ in range(20):
            pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(40, 120)))
            period = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 30)))
            y = surd_from_periodic_cf((), period)
            for a in reversed(pre):
                y = mobius_apply(Mobius(0, 1, 1, a), y)
            x = surd_from_periodic_cf(pre, period)
            assert x == y and str(x) == str(y)


# ---------------------------------------------------------------------------
# binary floats in integers, against mpmath.libmp as the oracle
# ---------------------------------------------------------------------------


@st.composite
def raw_values(draw, positive=False, max_bits=400, max_exp=600):
    """A raw float (sign, man, exp, bc) with up to `max_bits` bits of
    mantissa and an exponent up to `max_exp` in size, or 0."""
    man = draw(st.integers(0, 2**max_bits - 1))
    if positive:
        man = man or 1
    exp = draw(st.integers(-max_exp, max_exp))
    sign = 0 if positive else draw(st.integers(0, 1))
    return from_man_exp(-man if sign else man, exp)


def mpf_expression(x, bits):
    """`to_raw`'s reference: the exact value as mpf expressions at `bits`."""
    with mpmath.workprec(bits):
        if isinstance(x, QuadSurd):
            v = (mpmath.mpf(x.p) + mpmath.mpf(x.q) * mpmath.sqrt(mpmath.mpf(x.d))) / mpmath.mpf(x.r)
        else:
            v = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return v._mpf_


class TestIntegerFloats:
    @settings(max_examples=200, deadline=None)
    @given(raw_values(positive=True, max_bits=300, max_exp=400), st.integers(60, 900))
    @example(from_man_exp(2**200 + 1, -200), 128)  # 1 + 2^-200: the series' leading bits cancel
    @example(from_man_exp(2**200 - 1, -201), 128)  # just below 1/2 ... below 1
    @example(from_man_exp(1, 3), 64)  # a power of two: k ln 2 alone
    def test_log_within_its_bound(self, x, wp):
        # the fixed-point sum of `raw_log` is within its stated E units of a 1024-bit log
        if x == ex.ONE:
            return
        R, E = ex._log_fixed(ex._log_parts(x[1], x[2]), wp)
        with mpmath.workprec(1024):
            exact = mpmath.log(mpmath.mp.make_mpf(x)) * mpmath.mpf(2) ** wp
            assert abs(R - exact) <= E

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(53, 3000))
    def test_log_rounds_as_mpf_log(self, data, bits):
        x = data.draw(raw_values(positive=True, max_bits=bits + 64, max_exp=2 * bits))
        assert ex.raw_log(x, bits) == mpf_log(x, bits, round_nearest)

    def test_log_of_one_and_of_nonpositive_values(self):
        assert ex.raw_log(ex.ONE, 128) == ex.ZERO
        for x in (ex.ZERO, ex.raw_int(-3)):
            with pytest.raises(ValueError):
                ex.raw_log(x, 128)

    def test_log_refines_an_undecided_rounding(self, monkeypatch):
        # x = exp(m) for a midpoint m of the 64-bit grid, rounded at 400
        # bits: log x lies within 2^-390 of m, inside the first sum's error
        # interval, so Ziv's test fails once and the sum is redone wider
        bits = 64
        calls = []
        fixed = ex._log_fixed
        monkeypatch.setattr(ex, "_log_fixed", lambda parts, wp: calls.append(wp) or fixed(parts, wp))
        rng = random.Random(12)
        for _ in range(5):
            midpoint = (2 * rng.getrandbits(bits - 1) + 2**bits + 1, -bits - 1)  # in (1, 2)
            with mpmath.workprec(400):
                x = mpmath.exp(mpmath.mp.make_mpf(from_man_exp(*midpoint)))._mpf_
            calls.clear()
            got = ex.raw_log(x, bits)
            assert len(calls) >= 2 and calls[1] > calls[0]
            with mpmath.workprec(1024):
                want = mpf_pos(mpmath.log(mpmath.mp.make_mpf(x))._mpf_, bits, round_nearest)
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(53, 3000))
    @example(53)
    @example(128)
    def test_pi_squared_as_mpmath(self, bits):
        assert ex.pi_squared(bits) == mpf_pow_int(mpf_pi(bits, round_nearest), 2, bits, round_nearest)

    @settings(max_examples=300, deadline=None)
    @given(raw_values(max_bits=3100), raw_values(max_bits=3100), st.integers(2, 3000), st.integers(-(2**3100), 2**3100))
    @example(ex.ZERO, from_man_exp(3, -2), 53, 0)
    @example(from_man_exp(2**60 - 1, 0), from_man_exp(1, -1), 53, 2**54 + 3)  # ties and carries
    def test_raw_operations_as_libmp(self, x, y, prec, n):
        # each operation exact and then rounded once (`_near`, `_quotient`, `_round`)
        # is mpmath's own, bit for bit
        assert ex.raw_add(x, y, prec) == mpf_add(x, y, prec, round_nearest)
        assert ex.raw_mul(x, y, prec) == mpf_mul(x, y, prec, round_nearest)
        assert ex.raw_int(n, prec) == from_int(n, prec, round_nearest)
        if y[1]:
            for mode, rnd in (("n", round_nearest), ("d", round_down), ("u", round_up)):
                assert ex.raw_div(x, y, prec, mode) == mpf_div(x, y, prec, rnd)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(raw_values(), raw_values(max_exp=1200), raw_values(max_bits=60, max_exp=1100)))
    @example(from_man_exp(2**54 - 1, 970))  # rounds up past the largest double: inf
    @example(from_man_exp(-(2**53 - 1), 971))  # the largest double, negated
    @example(from_man_exp(3, -1076))  # below the least normal double
    def test_float_and_negation_as_libmp(self, x):
        assert ex.raw_neg(x) == mpf_neg(x)
        got, want = ex.raw_float(x), to_float(x, rnd=round_nearest)  # as float(mpf) calls it
        assert got == want and math.copysign(1, got) == math.copysign(1, want)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(raw_values(), raw_values(max_exp=20000), raw_values(max_bits=4000, max_exp=10)),
        st.integers(1, 200),
        st.booleans(),
    )
    @example(ex.ZERO, 30, False)  # an exact zero prints as 0.0
    @example(from_man_exp(-7, -3), 30, False)  # -0.875
    @example(mpmath.mpf("1.8347e-36")._mpf_, 5, True)  # scientific notation
    @example(mpmath.mpf("0.99999999")._mpf_, 5, False)  # the carry of a run of 9s
    @example(mpmath.mpf("9.9999999e5")._mpf_, 5, True)  # ... into the exponent
    def test_decimal_text_as_nstr(self, x, dps, strip_zeros):
        want = mpmath.nstr(mpmath.mp.make_mpf(x), dps, strip_zeros=strip_zeros)
        assert ex.decimal_text(x, dps, strip_zeros) == to_str(x, dps, strip_zeros) == want

    def test_decimal_text_pins(self):
        assert ex.decimal_text(ex.ZERO, 50) == "0.0"
        assert ex.decimal_text(mpmath.mpf("1.8347e-36")._mpf_, 5) == "1.8347e-36"
        assert ex.decimal_text(mpmath.mpf("0.99999999")._mpf_, 5, strip_zeros=False) == "1.0000"
        assert ex.decimal_text(mpmath.mpf("9.9999999e5")._mpf_, 5) == "1.0e+6"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**80), 10**80),
        st.integers(1, 10**80),
        st.integers(1, 10**12),
        st.sampled_from([2, 3, 5, 13, 10**15 + 37]),
        st.integers(64, 2000),
    )
    def test_to_raw_as_mpf_expressions(self, p, q, r, d, bits):
        for x in (Fraction(p, q), make_surd(p, q, r, d)):
            assert ex.to_raw(x, bits) == mpf_expression(x, bits)
