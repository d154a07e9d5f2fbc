from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareycf import words as wd


def all_farey_pairs(max_q):
    """Neighbour pairs (r, r') with den(r) + den(r') <= max_q, by tree descent."""
    stack = [(Fraction(0), Fraction(1))]
    while stack:
        a, b = stack.pop()
        yield a, b
        m = Fraction(a.numerator + b.numerator, a.denominator + b.denominator)
        if m.denominator + a.denominator <= max_q:
            stack.append((a, m))
        if m.denominator + b.denominator <= max_q:
            stack.append((m, b))


class TestOrders:
    def test_order_examples(self):
        assert wd.word_order_lt("0", "01")
        assert not wd.word_order_lt("01", "01")
        # oracle: compare the concatenations directly
        assert ("011" + "01" < "01" + "011") is wd.word_order_lt("011", "01")
        assert not wd.word_order_lt("011", "01")

    def test_strong_order_examples(self):
        assert wd.strong_order_ll("00", "01")
        assert not wd.strong_order_ll("0", "00")
        assert wd.strong_order_ll("0010", "01")

    @given(st.text(alphabet="01", min_size=1, max_size=8), st.text(alphabet="01", min_size=1, max_size=8))
    def test_strong_implies_weak(self, u, v):
        if wd.strong_order_ll(u, v):
            assert wd.word_order_lt(u, v)

    @given(st.text(alphabet="01", min_size=1, max_size=6), st.text(alphabet="01", min_size=1, max_size=6))
    def test_order_matches_repeated_expansions(self, u, v):
        # oracle: 0.uuu... < 0.vvv... compared through long finite prefixes
        n = len(u) * len(v) * 4
        ru = (u * (n // len(u) + 1))[:n]
        rv = (v * (n // len(v) + 1))[:n]
        if ru != rv:
            assert wd.word_order_lt(u, v) == (ru < rv)


class TestFareyLists:
    def test_level_displays(self):
        assert wd.farey_list(0) == ["0", "1"]
        assert wd.farey_list(2) == ["0", "001", "01", "011", "1"]
        f3 = wd.farey_list(3)
        assert f3 == ["0", "0001", "001", "00101", "01", "01011", "011", "0111", "1"]

    def test_sizes_and_cap(self):
        assert len(wd.farey_list(6)) == 2**6 + 1
        with pytest.raises(ValueError, match=r"level 17 above cap 16: its list would hold 3\^17 \+ 1 letters"):
            wd.farey_list(wd.FAREY_LEVEL_CAP + 1)

    def test_lists_strictly_increasing_up_to_12(self):
        for n in range(13):
            level = wd.farey_list(n)
            assert all(wd.word_order_lt(u, v) for u, v in zip(level, level[1:]))

    def test_list_members_are_farey(self):
        assert all(wd.is_farey(w) for w in wd.farey_list(7))


class TestSlopeBijection:
    def test_examples(self):
        assert wd.word_from_rational(Fraction(2, 5)) == "00101"
        assert wd.word_from_rational(Fraction(1, 1)) == "1"
        assert wd.word_from_rational(Fraction(3, 5)) == "01011"

    @staticmethod
    def word_by_letters(r):
        """Letter k of the word of slope p/q is floor(k p/q) - floor((k-1) p/q)."""
        p, q = r.numerator, r.denominator
        return "".join(str((k * p) // q - ((k - 1) * p) // q) for k in range(1, q + 1))

    def test_runs_equal_letters_up_to_300(self):
        for q in range(1, 301):
            for p in range(q + 1):
                r = Fraction(p, q)
                if r.denominator == q:
                    assert wd.word_from_rational(r) == self.word_by_letters(r), r

    @settings(deadline=None)
    @given(st.integers(1, 10**4).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))))
    def test_runs_equal_letters(self, r):
        assert wd.word_from_rational(r) == self.word_by_letters(r)

    def test_slope_inverse_up_to_200(self):
        for q in range(1, 201):
            for p in range(q + 1):
                r = Fraction(p, q)
                if r.denominator != q:
                    continue
                assert wd.rho(wd.word_from_rational(r)) == r

    def test_concatenation_along_neighbour_pairs(self):
        for a, b in all_farey_pairs(100):
            m = Fraction(a.numerator + b.numerator, a.denominator + b.denominator)
            assert wd.word_from_rational(m) == wd.word_from_rational(a) + wd.word_from_rational(b)

    def test_tree_construction_agrees(self):
        for q in range(1, 60):
            for p in range(q + 1):
                r = Fraction(p, q)
                if r.denominator == q:
                    assert wd.word_by_tree(r) == wd.word_from_rational(r)
        # a loop, not a frame per Stern-Brocot step: 2000 steps down to
        # 1/2000, and the Fibonacci slope 1597/2584 of 2584 letters
        for r in (Fraction(1, 2000), Fraction(1597, 2584)):
            assert wd.word_by_tree(r) == wd.word_from_rational(r)

    @pytest.mark.parametrize("r", [Fraction(3, 2), Fraction(-1, 2), Fraction(5, 3)])
    def test_both_constructions_refuse_slopes_outside_the_unit_interval(self, r):
        for build in (wd.word_from_rational, wd.word_by_tree):
            with pytest.raises(ValueError, match=r"slope must lie in \[0, 1\]"):
                build(r)


class TestCoding:
    def test_plus_and_minus_sides(self):
        assert wd.phi_r_coding(Fraction(2, 5), "+") == "00101"
        assert wd.phi_r_coding(Fraction(2, 5), "-") == "10100"
        assert wd.phi_r_coding(Fraction(1, 2), "+") == "01"

    def test_minus_side_is_transpose(self):
        for q in range(2, 40):
            for p in range(1, q):
                r = Fraction(p, q)
                if r.denominator == q:
                    assert wd.phi_r_coding(r, "-") == wd.transpose(wd.word_from_rational(r))

    def test_negated_word_coding(self):
        # the (1-r) coding from the minus side equals the digit negation
        for p, q in [(1, 3), (2, 5), (3, 7), (4, 9)]:
            r = Fraction(p, q)
            w = wd.word_from_rational(r)
            assert wd.phi_r_coding(1 - r, "-") == wd.negate(w)


class TestSymmetries:
    def words_up_to(self, n):
        return [w for w in wd.words_of_length_up_to(n)]

    def test_symmetries_up_to_16(self):
        for w in self.words_up_to(16):
            r = wd.rho(w)
            assert wd.transpose(wd.negate(w)) == wd.word_from_rational(1 - r)
            assert wd.vee_first(w) == wd.transpose(wd.vee_first(w))
            assert wd.vee_last(w) == wd.transpose(wd.vee_last(w))
            assert wd.word_order_lt(wd.transpose(w), wd.vee_first(w))

    def test_worked_example(self):
        w = "00101"
        assert wd.vee_first(w) == "10101"
        assert wd.vee_last(w) == "00100"
        assert wd.vee_first(wd.vee_last(w)) == "10100" == wd.transpose(w)
        assert wd.is_farey(wd.transpose(wd.negate(w)))


class TestCyclicStructure:
    def test_lyndon_property_and_suffix_order(self):
        for w in wd.words_of_length_up_to(14):
            shifts = [wd.tau(w, k) for k in range(len(w))]
            assert min(shifts) == w
            for cut in range(1, len(w)):
                assert wd.strong_order_ll(w, w[cut:])

    def test_extremes_against_enumeration(self):
        for w in wd.words_of_length_up_to(12):
            shifts = sorted(wd.tau(w, k) for k in range(len(w)))
            lo, second, hi = wd.cyclic_extremes(w)
            assert lo == shifts[0]
            assert second == shifts[1]
            assert hi == shifts[-1]
            assert hi == wd.transpose(w)

    def test_examples(self):
        assert wd.cyclic_extremes("00101") == ("00101", "01001", "10100")
        assert wd.cyclic_extremes("01") == ("01", "10", "10")
        assert wd.cyclic_extremes("001") == ("001", "010", "100")


class TestStandardFactorization:
    def test_examples(self):
        assert wd.standard_factorization("00101") == ("001", "01")
        assert wd.standard_factorization("01") == ("0", "1")
        assert wd.standard_factorization("011") == ("01", "1")

    def test_rejects_degenerate(self):
        for w in ("0", "1"):
            with pytest.raises(ValueError):
                wd.standard_factorization(w)

    def test_parts_are_farey_and_unique(self):
        for w in wd.words_of_length_up_to(12):
            w1, w2 = wd.standard_factorization(w)
            assert w1 + w2 == w and wd.is_farey(w1) and wd.is_farey(w2)
            # oracle: the only split into two family words is the standard one
            splits = [
                k
                for k in range(1, len(w))
                if wd.is_farey(w[:k]) and wd.is_farey(w[k:])
            ]
            assert splits == [len(w1)]

    def test_farey_parents_are_neighbours_with_mediant_r(self):
        for q in range(2, 61):
            for p in range(1, q):
                r = Fraction(p, q)
                if r.denominator != q:
                    continue
                r1, r2 = wd.farey_parents(r)
                p1, q1 = r1.numerator, r1.denominator
                p2, q2 = r2.numerator, r2.denominator
                assert r1 < r < r2
                assert (p1 + p2, q1 + q2) == (p, q)
                assert q1 * p - p1 * q == 1
                assert p2 * q1 - p1 * q2 == 1

    def test_farey_parents_reject_integers(self):
        for r in (0, 1, Fraction(2)):
            with pytest.raises(ValueError):
                wd.farey_parents(r)


class TestRotationSets:
    def test_examples(self):
        assert wd.rotation_set("00101") == tuple(Fraction(n, 31) for n in (5, 9, 10, 18, 20))
        assert wd.rotation_set("01") == (Fraction(1, 3), Fraction(2, 3))
        assert wd.rotation_set("001") == (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))

    def test_doubling_rotates_by_slope(self):
        for w in wd.words_of_length_up_to(10):
            angles = wd.rotation_set(w)
            q = len(w)
            p = wd.rho(w).numerator
            for i, theta in enumerate(angles):
                doubled = 2 * theta
                if doubled >= 1:
                    doubled -= 1
                assert doubled == angles[(i + p) % q]


class TestSubstitutions:
    def test_examples(self):
        assert wd.substitute("01", *wd.U0) == "001"
        assert wd.substitute("01", *wd.U1) == "011"
        assert wd.substitute(wd.substitute("01", *wd.U1), *wd.U0) == "00101"

    def test_associativity(self):
        u = wd.compose_substitutions(wd.U1, wd.U0)
        for w in ("0", "01", "0011", "0101"):
            assert wd.substitute(wd.substitute(w, *wd.U1), *wd.U0) == wd.substitute(w, *u)

    def test_generates_all_nondegenerate_words(self):
        # compositions of length < 8 applied to 01 give exactly the level-8 interior
        n = 8
        generated = {"01"}
        frontier = {"01"}
        for _ in range(n - 1):
            frontier = {wd.substitute(w, *u) for w in frontier for u in (wd.U0, wd.U1)}
            generated |= frontier
        expected = set(wd.farey_list(n)) - {"0", "1"}
        assert generated == expected

    def test_substitution_images_split_by_side(self):
        for w in wd.words_of_length_up_to(8):
            assert wd.farey_side(wd.substitute(w, *wd.U0)) == 0
            assert wd.farey_side(wd.substitute(w, *wd.U1)) in (0, 1)
            if w != "0":
                assert wd.substitute(w, *wd.U1).count("1") >= wd.substitute(w, *wd.U1).count("0")


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: wd.rho("0120"), ValueError, "not a nonempty binary word", id="check_binary"),
            pytest.param(lambda: wd.phi_r_coding(1), ValueError, "strictly between 0 and 1", id="phi_r_coding-range"),
            pytest.param(lambda: wd.phi_r_coding(Fraction(2, 5), "x"), ValueError, "side must be", id="phi_r_coding-side"),
            pytest.param(lambda: wd.farey_list(-1), ValueError, "level must be nonnegative", id="farey_list-negative"),
            pytest.param(lambda: wd.rotation_set("0011"), ValueError, "nondegenerate word of the family", id="rotation_set-outside"),
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
