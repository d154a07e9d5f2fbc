import random
from fractions import Fraction
from itertools import product

import pytest

from fareycf import cfstrings as cfs
from fareycf import words as wd
from fareycf.exactnum import surd_from_periodic_cf


def random_string(rng, max_len=12, max_digit=9):
    return tuple(rng.randint(1, max_digit) for _ in range(rng.randint(1, max_len)))


class TestConjugates:
    def test_known_conjugate_displays(self):
        assert cfs.right_conjugate((3, 1, 3)) == (3, 1, 2, 1)
        assert cfs.left_conjugate((3, 1, 3)) == (1, 2, 1, 3)
        assert cfs.right_conjugate((2, 1)) == (3,)  # both expand 1/3

    def test_involutive_and_value_preserving(self):
        rng = random.Random(11)
        for _ in range(10_000):
            s = random_string(rng, max_len=8, max_digit=6)
            if s == (1,):
                continue
            rc = cfs.right_conjugate(s)
            assert cfs.right_conjugate(rc) == s
            assert cfs.value_of(rc) == cfs.value_of(s)
            lc = cfs.left_conjugate(s)
            assert cfs.left_conjugate(lc) == s
            assert cfs.value_of(lc) == 1 - cfs.value_of(s)

    def test_shift(self):
        assert cfs.partial_shift((3, 1, 2)) == (2, 1, 2)
        assert cfs.partial_shift((1, 5)) == (5,)
        assert cfs.partial_shift(cfs.partial_shift((2, 1))) == (1,)


class TestDenominators:
    def test_examples(self):
        assert cfs.denominator((2, 1)) == 3
        assert cfs.denominator((1,)) == 1
        # oracle: evaluate the fraction directly
        s = (3, 1, 2, 1, 2, 1)
        assert cfs.denominator(s) == cfs.value_of(s).denominator

    def test_value_matches_back_to_front_fold(self):
        rng = random.Random(29)
        for s in [()] + [random_string(rng, max_len=60, max_digit=50) for _ in range(2000)]:
            v = Fraction(0)
            for a in reversed(s):
                v = 1 / (a + v)
            assert cfs.value_of(s) == v

    def test_supermultiplicative_bounds(self):
        rng = random.Random(5)
        for _ in range(500):
            s = random_string(rng, max_len=6, max_digit=5)
            t = random_string(rng, max_len=6, max_digit=5)
            qs, qt, qst = cfs.denominator(s), cfs.denominator(t), cfs.denominator(s + t)
            assert qs * qt <= qst <= 2 * qs * qt

    def test_cylinder_size_bounds(self):
        rng = random.Random(6)
        for _ in range(500):
            s = random_string(rng, max_len=12, max_digit=4)
            a, b = cfs.cylinder_interval(s)
            q = cfs.denominator(s)
            assert Fraction(1, 2 * q * q) <= b - a <= Fraction(1, q * q)


class TestOrders:
    def test_alt_lex_matches_values(self):
        assert not cfs.alt_lex_lt((2, 1), (3, 1))  # 1/3 > 1/4
        assert cfs.alt_lex_lt((1, 2), (1, 3))  # 2/3 < 3/4
        rng = random.Random(8)
        for _ in range(2000):
            n = rng.randint(1, 6)
            s = tuple(rng.randint(1, 4) for _ in range(n))
            t = tuple(rng.randint(1, 4) for _ in range(n))
            assert cfs.alt_lex_lt(s, t) == (cfs.value_of(s) < cfs.value_of(t))

    def test_alt_lex_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            cfs.alt_lex_lt((1,), (1, 2))

    def test_truncation_order_properties(self):
        assert not cfs.string_ll((1, 2), (1, 2, 5, 5))  # prefix case
        # equal lengths: matches the total order
        assert cfs.string_ll((1, 2), (1, 3)) == cfs.alt_lex_lt((1, 2), (1, 3))
        # appending anything preserves it
        assert cfs.string_ll((2, 1), (1, 9)) and cfs.string_ll((2, 1, 7), (1, 9))

    def test_compare_periodic_examples(self):
        # [0; 1, 1, 1, ...] = 0.618...
        assert cfs.compare_periodic((2,), (), (1,)) == -1  # 1/2
        assert cfs.compare_periodic((1, 2), (), (1,)) == 1  # 2/3
        # a string that ends first: even length below, odd length above
        assert cfs.compare_periodic((1, 1), (), (1,)) == -1  # 1/2
        assert cfs.compare_periodic((1, 1, 1), (), (1,)) == 1  # 2/3
        # the preperiod is read before the period: [0; 3, 1, 2, 1, 2, ...]
        assert cfs.compare_periodic((3,), (3,), (1, 2)) == 1
        assert cfs.compare_periodic((3, 1, 2, 2), (3,), (1, 2)) == 1
        with pytest.raises(ValueError):
            cfs.compare_periodic((1, 2), (1,), ())

    def test_string_ll_bounds_values(self):
        rng = random.Random(9)
        for _ in range(1000):
            s = random_string(rng, max_len=5, max_digit=4)
            t = random_string(rng, max_len=5, max_digit=4)
            if cfs.string_ll(s, t):
                z = Fraction(rng.randint(1, 9), 10)
                w = Fraction(rng.randint(1, 9), 10)
                sv = cfs.matrix_of(s)
                tv = cfs.matrix_of(t)
                from fareycf.exactnum import mobius_apply

                assert mobius_apply(sv, z) < mobius_apply(tv, w)


class TestStringLemma:
    def test_exhaustive_small(self):
        # all pairs with digits <= 3 and length <= 4: concatenation order
        # iff periodic-value order (checked with exact surds)
        strings = [
            tuple(s)
            for n in range(1, 5)
            for s in product((1, 2, 3), repeat=n)
        ]
        for s in strings:
            vs = surd_from_periodic_cf((), s)
            for t in strings:
                vt = surd_from_periodic_cf((), t)
                lhs = cfs.string_lemma_check(s, t)
                if s + t == t + s:
                    assert not lhs and vs == vt
                else:
                    assert lhs == (vs < vt)

    def test_worked_example(self):
        s, t = (2, 1), (1, 1)
        assert cfs.value_of(s + t) < cfs.value_of(t + s)
        assert cfs.string_lemma_check(s, t)
        assert surd_from_periodic_cf((), s) < surd_from_periodic_cf((), t)


class TestRunlength:
    def test_examples(self):
        assert cfs.runlength("0001001001") == (3, 1, 2, 1, 2, 1)
        assert cfs.runlength("1110110110") == (3, 1, 2, 1, 2, 1)
        assert cfs.runlength("01") == (1, 1)
        assert cfs.runlength("00101") == (2, 1, 1, 1)

    def test_inverse(self):
        rng = random.Random(12)
        for _ in range(300):
            s = random_string(rng, max_len=8, max_digit=4)
            w = cfs.runlength_inverse(s, "0")
            assert cfs.runlength(w) == s
            assert cfs.runlength(wd.negate(w)) == s

    def test_monotone_on_zero_led_words(self):
        ws = sorted(wd.words_of_length_up_to(9))
        for u, v in zip(ws, ws[1:]):
            if wd.strong_order_ll(u, v):
                assert cfs.string_ll(cfs.runlength(u), cfs.runlength(v)) or cfs.runlength(
                    u
                ) == cfs.runlength(v)[: len(cfs.runlength(u))]

    def test_vee_conjugate_identities(self):
        for w in wd.words_of_length_up_to(12):
            s = cfs.runlength(w)
            if len(w) < 2:
                continue
            assert cfs.runlength(wd.vee_first(w)) == cfs.left_conjugate(s)
            assert cfs.runlength(wd.vee_last(w)) == cfs.right_conjugate(s)
            assert cfs.runlength(wd.transpose(wd.negate(w))) == cfs.left_conjugate(
                cfs.right_conjugate(s)
            )
            assert cfs.left_conjugate(cfs.right_conjugate(s)) == cfs.transpose_string(s)


class TestFamilyRunlengths:
    def test_even_length(self):
        for w in wd.words_of_length_up_to(14):
            assert len(cfs.runlength(w)) % 2 == 0

    def test_suffix_orders(self):
        for w in wd.words_of_length_up_to(14):
            s = cfs.runlength(w)
            n = len(s)
            for k in range(1, n // 2):
                suffix = s[2 * k :]
                assert cfs.string_ll(s, suffix)
            if wd.farey_side(w) == 0:
                for k in range(1, n // 2):
                    prefix, suffix = s[: 2 * k], s[2 * k :]
                    assert cfs.string_ll(suffix + prefix, cfs.partial_shift(s))

    def test_structure_examples(self):
        fs = cfs.farey_structure((2, 1, 1, 1))
        assert (fs.a, fs.skeleton, fs.side, fs.unique) == (1, "01", 0, True)
        assert fs.reassemble() == (2, 1, 1, 1)
        fs2 = cfs.farey_structure((2, 1))
        assert (fs2.a, fs2.skeleton, fs2.side) == (1, "0", 0) and not fs2.unique
        fs3 = cfs.farey_structure((1, 1))
        assert (fs3.a, fs3.skeleton, fs3.side) == (1, "1", 0) and not fs3.unique

    def test_structure_roundtrip_and_rejection(self):
        for w in wd.words_of_length_up_to(12):
            fs = cfs.farey_structure(cfs.runlength(w))
            assert fs.reassemble() == cfs.runlength(w)
            assert wd.is_farey(fs.skeleton)
        with pytest.raises(ValueError):
            cfs.farey_structure((2, 2))
        with pytest.raises(ValueError):
            cfs.farey_structure((3, 1, 1, 1))  # spread 2: no block split


class TestEvenNormalization:
    def test_even_expansions(self):
        assert cfs.cf_of_fraction(Fraction(4, 15)) == (3, 1, 3)
        assert cfs.cf_of_fraction(Fraction(4, 15), even_length=True) == (3, 1, 2, 1)
        assert cfs.cf_of_fraction(Fraction(1, 3), even_length=True) == (2, 1)
        assert cfs.cf_of_fraction(Fraction(1, 4), even_length=True) == (3, 1)
        assert cfs.cf_of_fraction(Fraction(2, 5), even_length=True) == (2, 2)
        for q in range(2, 80):
            for p in range(1, q):
                r = Fraction(p, q)
                if r.denominator != q:
                    continue
                s = cfs.cf_of_fraction(r, even_length=True)
                assert len(s) % 2 == 0 and cfs.value_of(s) == r
