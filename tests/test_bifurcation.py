import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareycf import bifurcation as bf
from fareycf import words as wd
from fareycf.exactnum import QuadSurd, make_surd, surd_from_periodic_cf
import paper_oracle as po

_WORDS_UP_TO_11 = list(wd.words_of_length_up_to(11))


class TestBinIntervals:
    def test_worked_example(self):
        b = bf.bin_interval("00101")
        assert b.a_plus == Fraction(5, 31)
        assert b.a_minus == Fraction(9, 62)

    def test_middle_word(self):
        b = bf.bin_interval("01")
        assert b.a_plus == Fraction(1, 3)
        assert b.a_minus == Fraction(2, 3) - Fraction(1, 2) == Fraction(1, 6)

    def test_length_formula_up_to_14(self):
        for w in wd.words_of_length_up_to(14):
            assert bf.bin_interval(w).length == Fraction(1, 2 * (2 ** len(w) - 1))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            bf.bin_interval("0")

    def test_endpoints_in_set_interior_not(self):
        for w in wd.words_of_length_up_to(8):
            b = bf.bin_interval(w)
            assert bf.eb_membership(b.a_plus)
            assert bf.eb_membership(b.a_minus)
            mid = (b.a_minus + b.a_plus) / 2
            assert not bf.eb_membership(mid)

    def test_membership_basics(self):
        assert bf.eb_membership(Fraction(0))
        assert bf.eb_membership(Fraction(1, 2))
        assert bf.eb_membership(Fraction(5, 31))
        assert not bf.eb_membership(Fraction(1, 4))


class TestPhiAndQuestionMark:
    def test_phi_examples(self):
        assert bf.phi_map(Fraction(3, 8)) == Fraction(2, 3)
        assert bf.phi_map(Fraction(1, 4)) == Fraction(1, 2)
        assert bf.phi_map(Fraction(0)) == 0
        assert bf.phi_map(Fraction(1, 2)) == 1
        g = surd_from_periodic_cf((), (1,))
        assert bf.phi_map(Fraction(1, 3)) == g
        assert bf.phi_map(Fraction(1, 6)) == g * g  # left edge of the middle window

    def test_question_mark_examples(self):
        assert bf.minkowski_q(Fraction(1, 2)) == Fraction(1, 2)
        assert bf.minkowski_q(Fraction(2, 3)) == Fraction(3, 4)
        assert bf.minkowski_q(Fraction(0)) == 0
        assert bf.minkowski_q(Fraction(1)) == 1
        g = surd_from_periodic_cf((), (1,))
        assert bf.minkowski_q(g) == Fraction(2, 3)

    def test_inverse_identity_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            q = rng.randint(2, 500)
            p = rng.randint(0, q // 2)
            x = Fraction(p, q)
            if x > Fraction(1, 2):
                continue
            assert bf.minkowski_q(bf.phi_map(x)) == 2 * x

    def test_phi_order_preserving(self):
        rng = random.Random(17)
        pts = sorted(Fraction(rng.randint(0, 500), 1000) for _ in range(60))
        images = [bf.phi_map(x) for x in pts]
        for a, b, fa, fb in zip(pts, pts[1:], images, images[1:]):
            if a != b:
                assert fa < fb

    def test_phi_maps_binary_endpoints_to_qumterval_endpoints(self):
        for w in wd.words_of_length_up_to(12):
            b = bf.bin_interval(w)
            q = bf.qumterval_of(w)
            assert bf.phi_map(b.a_plus) == q.alpha_plus
            assert bf.phi_map(b.a_minus) == q.alpha_minus


def per_step_descent(alpha, limit=None):
    """The former descent, one mediant per step: the word of the qumterval
    of alpha, or None past `limit` steps (default `bf._LOCATE_LIMIT`)."""
    digits = wd.cf_of_fraction(alpha)
    u, v = ((1,), "0"), ((1,), "1")
    for _ in range(bf._LOCATE_LIMIT if limit is None else limit):
        mid = bf._concat_runs(u, v)
        S = mid[0]
        if bf.compare_periodic(digits, (), S) > 0:
            u = mid
        elif bf.compare_periodic(digits, po.right_conjugate(S), po.transpose_string(S)) < 0:
            v = mid
        else:
            return po.runlength_inverse(S, "0")
    return None


class TestQumtervals:
    def test_worked_examples(self):
        q = bf.qumterval_of("001")
        assert q.alpha_plus == make_surd(-1, 1, 2, 3)
        assert q.alpha_minus == make_surd(2, -1, 1, 3)
        assert q.pseudocenter == Fraction(1, 3)
        q2 = bf.qumterval_of("01")
        g = surd_from_periodic_cf((), (1,))
        assert q2.alpha_plus == g and q2.alpha_minus == g * g
        assert q2.pseudocenter == Fraction(1, 2)
        q3 = bf.qumterval_of("0001")
        assert q3.S == (3, 1)
        assert q3.alpha_plus == surd_from_periodic_cf((), (3, 1))
        assert q3.alpha_minus == surd_from_periodic_cf((4,), (1, 3))

    @staticmethod
    def assert_one_product(w):
        # the surds and the pseudocenter of one digit-matrix product are,
        # field for field, those of the periodic expansions
        q = bf.qumterval_of.__wrapped__(w)  # a cold call, past the cache
        S = q.S
        want = (
            surd_from_periodic_cf((), S),
            surd_from_periodic_cf(po.right_conjugate(S), po.transpose_string(S)),
            surd_from_periodic_cf((), po.transpose_string(S)),
        )
        for got, v in zip((q.alpha_plus, q.alpha_minus, q.tail), want):
            assert isinstance(got, QuadSurd) and (got.p, got.q, got.r, got.d) == (v.p, v.q, v.r, v.d)
        p = po.value_of(S)
        assert (q.pseudocenter.numerator, q.pseudocenter.denominator) == (p.numerator, p.denominator)

    def test_one_product_per_word_on_the_farey_list(self):
        # every nondegenerate word of the level-10 list (1023 words)
        words = [w for w in wd.farey_list(10) if wd.is_nondegenerate_farey(w)]
        assert len(words) == 1023
        for w in words:
            self.assert_one_product(w)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 4000).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))))
    def test_one_product_per_word_on_long_words(self, r):
        self.assert_one_product(wd.word_from_rational(r))

    def test_left_endpoint_reflection(self):
        for w in wd.words_of_length_up_to(10):
            q = bf.qumterval_of(w)
            assert 1 - q.alpha_minus == surd_from_periodic_cf((), po.transpose_string(q.S))

    def test_pseudocenter_is_simplest(self):
        for w in wd.words_of_length_up_to(10):
            q = bf.qumterval_of(w)
            assert bf.simplest_rational_between(q.alpha_minus, q.alpha_plus) == q.pseudocenter
            assert q.alpha_minus < q.pseudocenter < q.alpha_plus

    def test_disjoint_and_ordered(self):
        qs = bf.atlas(10)
        for a, b in zip(qs, qs[1:]):
            assert a.pseudocenter < b.pseudocenter
            assert a.alpha_plus < b.alpha_minus  # cross-field exact comparison

    @pytest.mark.parametrize("max_len", [0, -3, wd.WORD_LENGTH_CAP + 1])
    def test_atlas_length_range(self, max_len):
        with pytest.raises(ValueError, match="max_len must lie in"):
            bf.atlas(max_len)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(wd.words_of_length_up_to(30)),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        st.integers(80, 120),
    )
    def test_containment_near_the_endpoints(self, w, plus, j, bits):
        # a rational within 2^-80 of an endpoint: the integer bounds decide
        # as the exact comparisons do, and refer the close calls to them
        q = bf.qumterval_of(w)
        end = q.alpha_plus if plus else q.alpha_minus
        half = Fraction(1, 2 ** (bits + 1))
        alpha = bf.simplest_rational_between(end - half, end + half) + Fraction(j, 2 ** (bits + 42))
        assert -Fraction(1, 2**80) < alpha - end < Fraction(1, 2**80)
        assert (alpha in q) == (q.alpha_minus < alpha < q.alpha_plus)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(wd.words_of_length_up_to(30)), st.fractions(0, 1, max_denominator=2**70))
    def test_containment_equals_exact_comparisons(self, w, alpha):
        q = bf.qumterval_of(w)
        assert (alpha in q) == (q.alpha_minus < alpha < q.alpha_plus)

    def test_containment_decided_on_integers_away_from_the_endpoints(self, monkeypatch):
        # the exact comparison only within a few units of 2^-64 of an endpoint
        q = bf.qumterval_of("001")
        near = bf.simplest_rational_between(q.alpha_plus - Fraction(1, 2**70), q.alpha_plus)
        compared = []
        compare = QuadSurd._cmp
        monkeypatch.setattr(QuadSurd, "_cmp", lambda a, b: compared.append(b) or compare(a, b))
        assert Fraction(1, 3) in q and Fraction(1, 2) not in q and Fraction(1, 5) not in q
        assert compared == []
        assert near in q and compared == [near]

    def test_locate_examples(self):
        assert bf.locate_qumterval(Fraction(1, 3)).word == "001"
        assert bf.locate_qumterval(Fraction(1, 2)).word == "01"
        assert bf.locate_qumterval(Fraction(9, 20)).word == "01"
        assert bf.locate_qumterval(Fraction(4, 15)).word == "0001001"
        assert bf.locate_qumterval(Fraction(3, 8)).word == "00101"

    def test_locate_rejects_endpoints(self):
        for bad in (Fraction(0), Fraction(1)):
            with pytest.raises(ValueError):
                bf.locate_qumterval(bad)

    def test_locate_over_its_step_budget_is_a_validation_error(self, monkeypatch):
        # the word of 1/100 is 0^99 1, about a hundred mediant steps deep
        monkeypatch.setattr(bf, "_LOCATE_LIMIT", 50)
        with pytest.raises(ValueError, match="50 mediant steps"):
            bf.locate_qumterval(Fraction(1, 100))

    def test_word_checked_binary_once_beyond_the_family_check(self, monkeypatch):
        # the family check strips the word itself; only `wd.runlength`, a
        # public function, checks its input again
        calls = []
        check = wd._check_binary
        monkeypatch.setattr(wd, "_check_binary", lambda w: calls.append(w) or check(w))
        w = wd.word_from_rational(Fraction(37, 1001))
        q = bf.qumterval_of.__wrapped__(w)  # a cold call, past the cache
        assert q.word == w and calls == [w]

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(0, 1, max_denominator=10**4).filter(lambda x: 0 < x < 1))
    @example(Fraction(1, 259))  # the long-run and the short-run 256-letter rung of the seed-0 `deep` benchmark
    @example(Fraction("2558211997996751098631242859837758125077741899063613/6735751276583987121998828910203031785614683891743592"))
    def test_descent_answer_is_the_qumterval_of_its_word(self, alpha):
        # the descent builds its answer from its own run tuple, unchecked: its
        # word is in the family, spells those runs and counts, and gives the
        # same qumterval, field for field
        q = bf.locate_qumterval(alpha)
        assert wd.is_nondegenerate_farey(q.word) and alpha in q
        assert (q.S, q.m0, q.m1) == (wd.runlength(q.word), q.word.count("0"), q.word.count("1"))
        assert [(type(v), v) for v in q] == [(type(v), v) for v in bf.qumterval_of(q.word)]

    def test_run_descent_equals_one_step_descent(self):
        # every reduced p/q with q <= 300
        for q in range(2, 301):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    alpha = Fraction(p, q)
                    assert bf.locate_qumterval(alpha).word == per_step_descent(alpha), alpha

    @staticmethod
    def assert_same_descent(alpha, limit):
        # under a budget of `limit` steps the descent fails exactly where the
        # one-step descent runs out of steps, and finds its word elsewhere
        want = per_step_descent(alpha, limit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bf, "_LOCATE_LIMIT", limit)
            if want is None:
                with pytest.raises(ValueError, match=f"{limit} mediant steps"):
                    bf.locate_qumterval(alpha)
            else:
                assert bf.locate_qumterval(alpha).word == want

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(0, 1, max_denominator=10**12).filter(lambda x: 0 < x < 1))
    def test_run_descent_equals_one_step_descent_hypothesis(self, alpha):
        # a budget of 10^4 steps keeps the oracle fast on digits up to 10^12
        self.assert_same_descent(alpha, 10**4)

    @pytest.mark.parametrize("limit", [1, 2, 3, 49, 50, 97, 98, 99])
    @pytest.mark.parametrize("alpha", [Fraction(1, 100), Fraction(99, 100), Fraction(3, 301), Fraction(37, 100)])
    def test_run_descent_keeps_the_step_budget(self, limit, alpha):
        self.assert_same_descent(alpha, limit)

    @staticmethod
    def _endpoint_digits(w):
        """(pre, period) of the digits of alpha_plus and of alpha_minus."""
        s = wd.runlength(w)
        return ((), s), (po.right_conjugate(s), po.transpose_string(s))

    @staticmethod
    def _sign_of_difference(x, surd):
        return (surd < x) - (x < surd)

    def _assert_digit_signs(self, w, x):
        q = bf.qumterval_of(w)
        plus, minus = self._endpoint_digits(w)
        digits = wd.cf_of_fraction(x)
        assert bf.compare_periodic(digits, *plus) == self._sign_of_difference(x, q.alpha_plus)
        assert bf.compare_periodic(digits, *minus) == self._sign_of_difference(x, q.alpha_minus)

    def test_digit_comparison_matches_endpoints(self):
        # the tree descent compares digits; the signs must agree with the
        # exact surd endpoints of the qumterval
        rng = random.Random(55)
        for w in wd.words_of_length_up_to(9):
            for _ in range(8):
                self._assert_digit_signs(w, Fraction(rng.randint(1, 999), 1000))

    def test_digit_comparison_on_truncations(self):
        # x is a truncation of an endpoint's own digits: the digits agree
        # until x ends, so the parity of the truncation length decides
        for w in wd.words_of_length_up_to(7):
            q = bf.qumterval_of(w)
            for (pre, period), surd in zip(self._endpoint_digits(w), (q.alpha_plus, q.alpha_minus)):
                stream = pre + period * 4
                for n in range(1, len(pre) + 2 * len(period) + 2):
                    head = stream[:n]
                    x = po.value_of(head)
                    if x == 1:
                        continue
                    want = self._sign_of_difference(x, surd)
                    assert want == (1 if n % 2 else -1)
                    assert bf.compare_periodic(head, pre, period) == want
                    assert bf.compare_periodic(wd.cf_of_fraction(x), pre, period) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, len(_WORDS_UP_TO_11) - 1),
        st.integers(1, 10**9),
        st.integers(1, 10**9),
    )
    def test_digit_comparison_hypothesis(self, index, a, b):
        assume(a != b)
        self._assert_digit_signs(_WORDS_UP_TO_11[index], Fraction(min(a, b), max(a, b)))

    def test_locate_consistent_with_membership(self):
        rng = random.Random(4)
        alphas = [Fraction(rng.randint(1, 999), 1000) for _ in range(200)]
        alphas += [Fraction(p, q) for q in range(2, 121) for p in range(1, q)]
        for alpha in alphas:
            q = bf.locate_qumterval(alpha)
            assert alpha in q

    def test_thickened_interval_contained(self):
        rng = random.Random(23)
        for _ in range(200):
            r = Fraction(rng.randint(1, 499), 500)
            left, right = po.beta_thickening(r)
            q = bf.locate_qumterval(r)
            assert left < right
            assert q.alpha_minus <= left and right <= q.alpha_plus

    def test_unbounded_imbalance_toward_the_set(self):
        # follow an aperiodic descent pattern below the 1/6 image; the
        # zero/one imbalance of the nested interval labels must blow up
        # (frozen expected floor: > 50 within depth 60).  Only digit counts
        # are tracked: the words themselves grow exponentially.
        import math

        pattern = bin(int(math.pi * 2**70))[3:]
        u, v = (1, 0), (2, 1)  # (zeros, ones) of the pair ("0", "001")
        imbalance = 0
        for k in range(60):
            mid = (u[0] + v[0], u[1] + v[1])
            if pattern[k] == "0":
                v = mid
            else:
                u = mid
            imbalance = mid[0] - mid[1]
        assert imbalance > 50


class TestCardioidAngles:
    def test_worked_examples(self):
        assert bf.cardioid_angles(Fraction(2, 5)) == (Fraction(9, 31), Fraction(10, 31))
        assert bf.cardioid_angles(Fraction(1, 2)) == (Fraction(1, 3), Fraction(2, 3))
        assert bf.cardioid_angles(Fraction(1, 3)) == (Fraction(1, 7), Fraction(2, 7))

    def test_halved_angles_in_binary_set(self):
        for q in range(2, 21):
            for p in range(1, q):
                r = Fraction(p, q)
                if r.denominator != q:
                    continue
                tm, tp = bf.cardioid_angles(r)
                assert bf.eb_membership(tm / 2)
                assert bf.eb_membership(tp / 2)


class TestZeta:
    def test_binary_total_approaches_half(self):
        total20 = bf.zeta_partial(1.0, 20, variant="binary")
        assert abs(total20 - 0.5) < 1e-4

    def test_binary_exact_tail_bound(self):
        # oracle: the exact sum over lengths <= 20 against the closed form
        exact = sum(
            bf.bin_interval(w).length for w in wd.words_of_length_up_to(20)
        )
        assert Fraction(1, 2) - exact < Fraction(1, 10**4)

    def test_windowed_lengths_decay_exponentially(self):
        # inside [1/(N+1), 1/N] every interval obeys |J_w| < 2 * b^{|w|} with
        # b = N^(-2/(N+1)); this is the actual dimension-zero mechanism
        for n_win in (2, 3):
            lo, hi = Fraction(1, n_win + 1), Fraction(1, n_win)
            b = float(n_win) ** (-2.0 / (n_win + 1))
            for w in wd.words_of_length_up_to(14):
                q = bf.qumterval_of(w)
                if q.alpha_minus < hi and q.alpha_plus > lo:
                    assert float(q.length) < 2 * b ** len(w)

    def test_windowed_per_length_sums_decrease(self):
        window = (Fraction(1, 3), Fraction(1, 2))
        per_len = {}
        for w in wd.words_of_length_up_to(16):
            q = bf.qumterval_of(w)
            if q.alpha_minus < window[1] and q.alpha_plus > window[0]:
                per_len[len(w)] = per_len.get(len(w), 0.0) + float(q.length) ** 0.25
        blocks = [
            sum(per_len.get(n, 0.0) for n in range(lo, lo + 4))
            for lo in (5, 9, 13)
        ]
        assert blocks[0] > blocks[1] > blocks[2]

    def test_window_restriction(self):
        full = bf.zeta_partial(1.0, 8)
        windowed = bf.zeta_partial(1.0, 8, window=(Fraction(1, 3), Fraction(1, 2)))
        assert 0 < windowed < full

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_raises(self, depth):
        # an empty sum is no partial sum
        for variant in ("qumterval", "binary"):
            with pytest.raises(ValueError, match="depth"):
                bf.zeta_partial(0.25, depth, variant=variant)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
    def test_exponent_outside_zero_to_infinity_raises(self, s):
        # nan compares false both ways and inf sums every length to 0
        with pytest.raises(ValueError, match="exponent"):
            bf.zeta_partial(s, 3)

    def test_bad_variant_or_window_raises_before_any_word(self):
        # depth 1 has no words, so a check inside the loop would never run;
        # a reversed window is empty and would sum to 0.0
        for option, match in (
            ({"variant": "bogus"}, "variant"),
            ({"window": (Fraction(1, 2), Fraction(1, 3))}, "window"),
            ({"window": (Fraction(0), Fraction(3, 2))}, "window"),
        ):
            with pytest.raises(ValueError, match=match):
                bf.zeta_partial(1.0, 1, **option)


class TestSimplestRational:
    def test_examples(self):
        assert bf.simplest_rational_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
        assert bf.simplest_rational_between(Fraction(2, 7), Fraction(1, 2)) == Fraction(1, 3)
        assert bf.simplest_rational_between(Fraction(5, 2), Fraction(7, 2)) == 3

    def test_strictly_inside_with_surd_endpoints(self):
        rng = random.Random(31)
        for _ in range(200):
            d = rng.choice([2, 3, 5, 7])
            a = make_surd(rng.randint(-4, 4), rng.choice([-1, 1]), rng.randint(1, 9), d)
            width = Fraction(1, rng.randint(2, 10**6))
            if isinstance(a, QuadSurd):
                r = bf.simplest_rational_between(a, a + width)
                assert a < r < a + width


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: bf.eb_membership(Fraction(2, 3)), ValueError, r"rationals in \[0, 1/2\]", id="eb_membership-range"),
            pytest.param(lambda: bf.binary_expansion(1), ValueError, r"rational in \[0, 1\)", id="binary_expansion-range"),
            pytest.param(lambda: bf.phi_map(Fraction(3, 4)), ValueError, r"rational in \[0, 1/2\]", id="phi_map-range"),
            pytest.param(lambda: bf.minkowski_q(make_surd(1, 1, 1, 2)), ValueError, r"value in \[0, 1\]", id="minkowski_q-surd-range"),
            pytest.param(lambda: bf.minkowski_q(Fraction(3, 2)), ValueError, r"value in \[0, 1\]", id="minkowski_q-rational-range"),
            pytest.param(lambda: po.beta_thickening(1), ValueError, "strictly between 0 and 1", id="beta_thickening-range"),
            pytest.param(lambda: bf.cardioid_angles(0), ValueError, "strictly between 0 and 1", id="cardioid_angles-range"),
            pytest.param(lambda: bf.zeta_partial(0.25, wd.WORD_LENGTH_CAP + 1), ValueError, "depth above cap 20", id="zeta_partial-depth-cap"),
            pytest.param(lambda: bf.simplest_rational_between(Fraction(1, 2), Fraction(1, 3)), ValueError, "empty interval", id="simplest_rational_between-empty"),
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
