import functools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareycf import bifurcation as bf
from fareycf import kdynamics as kd
from fareycf import words as wd
from fareycf.exactnum import IDENTITY, Mobius, S, T, matrix_product, mobius_apply


def entries(m):
    """The raw entries of a matrix; `Mobius` equality is up to sign."""
    return m.a, m.b, m.c, m.d


def alphas_inside(q, per_side=2):
    """Pseudocenter plus `per_side` rationals strictly inside on each side."""
    out = [q.pseudocenter]
    lo = q.alpha_minus
    for _ in range(per_side):
        r = bf.simplest_rational_between(lo, out[0])
        out.append(r)
        lo = max(lo, r) if isinstance(lo, Fraction) else r  # march toward the center
    hi = q.alpha_plus
    for _ in range(per_side):
        r = bf.simplest_rational_between(out[0], hi)
        out.append(r)
        hi = r
    return sorted(set(out))


def prefix_products(digits):
    """The running products of the inverse branches (0, -1, 1, c), one
    `Mobius` product per digit, up to the first None: the reference of
    `branch_product` over each prefix."""
    out = []
    for c in digits:
        if c is None:
            break
        m = Mobius(0, -1, 1, c)
        out.append(out[-1] * m if out else m)
    return tuple(out)


def k_step_fold(alpha, x, steps):
    """Reference orbit: `k_step` applied `steps` times, with the running
    product of the digit matrices and whether the start or a point stepped
    from was 0."""
    points, digits = [x], []
    for _ in range(steps):
        nxt, c = kd.k_step(alpha, points[-1])
        points.append(nxt)
        digits.append(c)
    return tuple(points), tuple(digits), prefix_products(digits), x == 0 or 0 in points[:-1]


def prefix_branch_products(digits, count):
    """`branch_product` over the first 1, ..., count digits."""
    return tuple(kd.branch_product(digits[:k]) for k in range(1, count + 1))


@st.composite
def rational_start(draw):
    """A parameter in (0, 1) and a point of [alpha - 1, alpha]; small
    denominators make orbits that reach 0 within the steps drawn."""
    big = draw(st.booleans())
    q = draw(st.integers(2, 10**40 if big else 60))
    alpha = Fraction(draw(st.integers(1, q - 1)), q)
    b = draw(st.integers(1, 10**40 if big else 60))
    x = alpha - Fraction(draw(st.integers(0, b)), b)
    return alpha, x


class TestStep:
    def test_middle_window_endpoints(self):
        alpha = Fraction(9, 20)  # inside the middle window
        nxt, c = kd.k_step(alpha, alpha)
        assert c == -2 and nxt == (2 * alpha - 1) / alpha
        nxt, c = kd.k_step(alpha, alpha - 1)
        assert c == 2 and nxt == (2 * alpha - 1) / (1 - alpha)

    def test_zero_is_fixed(self):
        assert kd.k_step(Fraction(1, 3), Fraction(0)) == (0, None)

    def test_half(self):
        nxt, c = kd.k_step(Fraction(1, 2), Fraction(1, 2))
        assert nxt == 0 and c == -2

    def test_range_and_rejection(self):
        rng = random.Random(2)
        for _ in range(500):
            alpha = Fraction(rng.randint(1, 99), 100)
            x = alpha - Fraction(rng.randint(0, 1000), 1000)
            if x == 0:
                continue
            nxt, _ = kd.k_step(alpha, x)
            assert alpha - 1 <= nxt < alpha
        with pytest.raises(ValueError):
            kd.k_step(Fraction(1, 3), Fraction(1, 2))

    def test_surd_points(self):
        alpha = bf.qumterval_of("001").alpha_plus  # quadratic parameter
        nxt, c = kd.k_step(alpha, alpha)
        assert alpha - 1 <= nxt < alpha
        assert nxt == -1 / alpha - c


class TestOrbit:
    @given(rational_start(), st.integers(0, 40))
    def test_rational_orbit_equals_k_step_fold(self, start, steps):
        alpha, x = start
        rec = kd.orbit(alpha, x, steps)
        points, digits, matrices, hit_zero = k_step_fold(alpha, x, steps)
        assert rec.points == points
        # lowest terms with a positive denominator, as Fraction builds them
        assert [(p.numerator, p.denominator) for p in rec.points] == [
            (p.numerator, p.denominator) for p in points
        ]
        assert rec.digits == digits
        assert rec.hit_zero == hit_zero
        assert prefix_branch_products(rec.digits, len(matrices)) == matrices

    @given(
        st.fractions(-4, 4, max_denominator=60),
        st.integers(0, 60),
        st.integers(1, 60),
        st.integers(0, 12),
        st.one_of(st.none(), st.integers(0, 80)),
    )
    def test_any_rational_parameter_equals_k_step_fold(self, alpha, j, b, steps, shift):
        # outside (0, 1) too, where a digit is not floor(-1/x) or one more
        x = alpha - Fraction(min(j, b), b)
        rec = kd.orbit(alpha, x, steps)
        points, digits, _, hit_zero = k_step_fold(alpha, x, steps)
        assert (rec.points, rec.digits, rec.hit_zero) == (points, digits, hit_zero)
        got_digits, levels, end = kd.rational_orbit((alpha.numerator, alpha.denominator), (x.numerator, x.denominator), steps, shift)
        assert tuple(got_digits) == digits
        assert end == (points[-1].numerator, points[-1].denominator)
        if shift is not None:
            assert levels == [(y.numerator << shift) // y.denominator for y in points]

    @given(rational_start(), st.integers(0, 40), st.one_of(st.none(), st.integers(0, 300)))
    def test_integer_kernel_equals_orbit(self, start, steps, shift):
        # the kernel's digits are the orbit's, its levels the orbit's points
        # or their keys floor(y 2^shift), exact at every shift, and its end
        # the last point in lowest terms
        alpha, x = start
        rec = kd.orbit(alpha, x, steps)
        digits, levels, end = kd.rational_orbit((alpha.numerator, alpha.denominator), (x.numerator, x.denominator), steps, shift)
        assert tuple(digits) == rec.digits and len(levels) == steps + 1
        assert end == (rec.points[-1].numerator, rec.points[-1].denominator)
        if shift is None:
            assert levels == list(rec.points)
            assert [(y.numerator, y.denominator) for y in levels] == [
                (y.numerator, y.denominator) for y in rec.points
            ]
        else:
            assert levels == [(y.numerator << shift) // y.denominator for y in rec.points]

    def test_orbits_reaching_zero(self):
        rec = kd.orbit(Fraction(2, 5), Fraction(-3, 5), 6)
        assert rec.hit_zero and rec.points[-1] == 0 and rec.digits[-1] is None
        points, digits, matrices, hit_zero = k_step_fold(Fraction(2, 5), Fraction(-3, 5), 6)
        assert (rec.points, rec.digits, hit_zero) == (points, digits, True)
        assert prefix_branch_products(rec.digits, len(matrices)) == matrices
        assert kd.orbit(Fraction(1, 3), 0, 2).hit_zero
        assert kd.orbit(Fraction(1, 3), Fraction(0), 0).hit_zero
        assert not kd.orbit(Fraction(1, 2), Fraction(1, 2), 1).hit_zero

    def test_quadratic_orbit_equals_k_step_fold(self):
        alpha = bf.qumterval_of("001").alpha_plus
        rec = kd.orbit(alpha, alpha - 1, 6)
        points, digits, matrices, hit_zero = k_step_fold(alpha, alpha - 1, 6)
        assert (rec.points, rec.digits, rec.hit_zero) == (points, digits, hit_zero)
        assert prefix_branch_products(rec.digits, 6) == matrices

    def test_point_outside_rejected(self):
        # one start check per orbit, with the same text for Fraction and int
        # starts and parameters, and with or without a step
        for alpha, x in [
            (Fraction(1, 3), Fraction(1, 2)),  # above alpha
            (Fraction(1, 3), Fraction(-5, 6)),  # below alpha - 1
            (Fraction(1, 3), Fraction(2)),  # an integer-valued Fraction
            (Fraction(1, 3), 1),
            (Fraction(1, 3), -1),
            (1, Fraction(3, 2)),
        ]:
            for steps in (0, 1, 3):
                with pytest.raises(ValueError) as info:
                    kd.orbit(alpha, x, steps)
                assert str(info.value) == f"point {x} outside [alpha-1, alpha] for alpha={alpha}", (x, steps)

    def test_inverse_property(self):
        rng = random.Random(14)
        for _ in range(100):
            alpha = Fraction(rng.randint(1, 199), 200)
            x = alpha - Fraction(rng.randint(1, 999), 1000)
            if x == 0:
                continue
            rec = kd.orbit(alpha, x, 12)
            for k, m in enumerate(k_step_fold(alpha, x, 12)[2], start=1):
                assert mobius_apply(m, rec.points[k]) == x

    def test_level_maps_send_the_start_to_each_level(self):
        # the adjugate of the inverse-branch product over the first k digits
        # is the level map M_k: it sends each endpoint orbit's start to its
        # point k, at every k on the side-0 atlas up to 14 letters (three
        # parameters each), and at each power of two and the last k on the
        # Fibonacci words up to 2584 letters at their pseudocenters
        cases = [
            (alpha, q.m0, q.m1, range(max(q.m0, q.m1) + 1))
            for q in bf.atlas(14)
            if wd.farey_side(q.word) == 0
            for alpha in alphas_inside(q, per_side=1)
        ]
        assert len(cases) == 32 * 3
        a, b = 1, 1
        while a + b <= 2584:
            q = bf.qumterval_of(wd.word_from_rational(Fraction(a, a + b)))
            cases.append((q.pseudocenter, q.m0, q.m1, [1 << j for j in range(q.m0.bit_length())]))
            a, b = b, a + b
        assert len(q.word) == 2584
        for alpha, m0, m1, ks in cases:
            for start, steps in ((alpha - 1, m0), (alpha, m1)):
                rec = kd.orbit(alpha, start, steps)
                for k in [k for k in ks if k < steps] + [steps]:
                    assert mobius_apply(kd.branch_product(rec.digits[:k]).inverse(), start) == rec.points[k]

    def test_zero_truncation_flag(self):
        rec = kd.orbit(Fraction(1, 2), Fraction(1, 2), 4)
        assert rec.hit_zero
        assert rec.points[1:] == (Fraction(0),) * 4
        assert rec.digits == (-2, None, None, None)

    def test_pseudocenter_digit_patterns_up_to_10(self):
        # both orbits follow the block pattern of the runlength string, for
        # three parameters per side of the pseudocenter
        for w in wd.words_of_length_up_to(10):
            if wd.farey_side(w) != 0:
                continue
            q = bf.qumterval_of(w)
            s = q.S
            for alpha in alphas_inside(q, per_side=3):
                low = kd.orbit(alpha, alpha - 1, q.m0)
                high = kd.orbit(alpha, alpha, q.m1)
                assert low.digits == kd.expected_digits_low(s)
                assert high.digits == kd.expected_digits_high(s)

    def test_order_of_low_orbit_constant_across_parameters(self):
        for w in wd.words_of_length_up_to(8):
            if wd.farey_side(w) != 0:
                continue
            q = bf.qumterval_of(w)
            perms = set()
            perms_high = set()
            for alpha in alphas_inside(q, per_side=2):
                low = kd.orbit(alpha, alpha - 1, q.m0)
                order = tuple(sorted(range(q.m0 + 1), key=lambda j: low.points[j]))
                perms.add(order)
                high = kd.orbit(alpha, alpha, q.m1)
                perms_high.add(
                    tuple(sorted(range(q.m1 + 1), key=lambda j: high.points[j]))
                )
            assert len(perms) == 1 and len(perms_high) == 1
            assert (*perms, *perms_high) == kd.rotation_orders(q.m0, q.m1)


class TestMatchingCertificates:
    def test_middle_word_display(self):
        cert = kd.matching_matrices("01")
        assert cert.M == S * T**2
        assert cert.M_prime == S * T**-2
        assert T * cert.M == Mobius(1, 1, 1, 2)
        assert T * cert.M == cert.M_prime * S * T**-1 * S

    def test_single_block_words(self):
        cert = kd.matching_matrices("001")
        assert cert.M == (S * T**2) ** 2
        assert cert.M_prime == S * T**-3
        cert5 = kd.matching_matrices("00101")
        assert cert5.M == (S * T**2) ** 2 * T * (S * T**2)
        assert cert5.M_prime == S * T**-3 * S * T**-3

    def test_identity_on_level_8(self):
        words8 = [w for w in wd.farey_list(8) if len(w) > 1]
        assert len(words8) == 255
        for w in words8:
            assert kd.matching_matrices(w).identity_holds()

    def test_certificate_is_the_closed_form(self):
        # the paper's closed form over the zero runs a0, ..., an of the word:
        # M = (S T^2)^a0 prod T (S T^2)^ak and M' = S T^(-a0-1) prod S T^(-ak-2),
        # entry for entry; 0^N 1 has one run of N digits 2 in its pattern
        side0 = [w for w in wd.words_of_length_up_to(16) if wd.farey_side(w) == 0]
        assert len(side0) == 40
        for w in side0 + ["0" * N + "1" for N in (17, 1000, 10**5)]:
            a = [len(run) for run in w.split("1") if run]
            M, M_prime = (S * T**2) ** a[0], S * T ** (-a[0] - 1)
            for ak in a[1:]:
                M, M_prime = M * T * (S * T**2) ** ak, M_prime * S * T ** (-ak - 2)
            cert = kd.matching_matrices(w)
            assert entries(cert.M) == entries(M) and entries(cert.M_prime) == entries(M_prime), w

    @given(st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(-9, 9)), max_size=40))
    def test_matrix_product_is_the_left_to_right_product(self, factors):
        # digit matrices (0, 1, 1, a) and inverse branches (0, -1, 1, c)
        tuples = [(0, b, 1, c) for b, c in factors]
        expected = functools.reduce(operator.mul, (Mobius(*t) for t in tuples), IDENTITY)
        assert entries(matrix_product(tuples)) == entries(expected)
        assert entries(matrix_product([])) == entries(IDENTITY)

    def test_certificate_of_a_long_word(self):
        # 28657 letters, far beyond the words the closed-form check reaches
        w = wd.word_from_rational(Fraction(10946, 28657))
        assert len(w) == 28657 and wd.farey_side(w) == 0
        assert kd.matching_matrices(w).identity_holds()

    @pytest.mark.parametrize("word", ["0", "0101001"])
    def test_degenerate_or_foreign_word_refused(self, word):
        with pytest.raises(ValueError, match="degenerate or invalid word"):
            kd.matching_matrices(word)

    def test_concatenation_of_left_sides(self):
        # the left side T*M of the identity concatenates along the standard
        # factorization
        for w in wd.words_of_length_up_to(10):
            if wd.farey_side(w) != 0:
                continue
            w1, w2 = wd.standard_factorization(w)
            if w1 == "0" or w2 == "1" or wd.farey_side(w1) + wd.farey_side(w2):
                continue
            lhs = T * kd.matching_matrices(w).M
            assert lhs == (T * kd.matching_matrices(w1).M) * (T * kd.matching_matrices(w2).M)


class TestVerifyMatching:
    def test_exact_collision_small_words(self):
        for w in wd.words_of_length_up_to(8):
            q = bf.qumterval_of(w)
            report = kd.verify_matching(w, alphas_inside(q, per_side=2))
            assert report["all_exact"], w

    def test_constancy_is_the_orbits_prefix_product(self, monkeypatch):
        # the constancy verdict against the orbits' prefix products
        # (`prefix_products`), on side-0 and side-1 words: an orbit on the
        # word's digit pattern takes no product, and a mutated digit is
        # multiplied out; a wrong M in the pattern fails the certificate's
        # identity (on 0110111, of side 1)
        products = []
        product = kd.branch_product
        monkeypatch.setattr(kd, "branch_product", lambda digits: products.append(digits) or product(digits))
        sides = set()
        for w in wd.words_of_length_up_to(8):
            # the certificate's own products are taken once, outside the count (`_word_pattern` is cached)
            q, cert = bf.qumterval_of(w), kd.matching_matrices(w)
            sides.add(wd.farey_side(w))
            for alpha in alphas_inside(q, per_side=1):
                low = k_step_fold(alpha, alpha - 1, q.m0 + 1)[2][q.m0 - 1]
                high = k_step_fold(alpha, alpha, q.m1 + 1)[2][q.m1 - 1]
                want = low == cert.M and high == cert.M_prime
                products.clear()
                [entry] = kd.verify_matching(w, [alpha])["alphas_checked"]
                assert entry["matrices_constant"] is want is True, (w, alpha)
                assert products == [], (w, alpha)
        assert sides == {0, 1}
        # one digit of one orbit changed, its last point kept: that orbit alone
        # is multiplied out, and its prefix product is not the certificate's
        kernel = kd.rational_orbit
        for w in ("001", "00101", "0001001", "011", "01011", "0110111"):
            q, cert = bf.qumterval_of(w), kd.matching_matrices(w)
            for orbit in (0, 1):

                def mutated(alpha, x, steps, shift=None):
                    digits, levels, end = kernel(alpha, x, steps, shift)
                    if (x == alpha) == bool(orbit):
                        digits[0] += 1 if digits[0] > 0 else -1
                    return digits, levels, end

                steps = (q.m0, q.m1)[orbit]
                for alpha in alphas_inside(q, per_side=1):
                    start = alpha if orbit else alpha - 1
                    with monkeypatch.context() as m:
                        m.setattr(kd, "rational_orbit", mutated)
                        rec = kd.orbit(alpha, start, steps)
                        products.clear()
                        [entry] = kd.verify_matching(w, [alpha])["alphas_checked"]
                    assert products == [list(rec.digits)], (w, orbit, alpha)
                    assert entry["matrices_constant"] is (prefix_products(rec.digits)[-1] == (cert.M, cert.M_prime)[orbit]) is False
                    assert (entry["collision"], entry["status"]) == (True, "failed")
        low, high, M, M_prime = kd._word_pattern(w)
        monkeypatch.setattr(kd, "_word_pattern", lambda word: (low, high, M * T, M_prime))
        report = kd.verify_matching(w, [alpha])
        assert (report["M"], report["identity_holds"]) == (M * T, False)

    def test_report_equals_the_exact_orbits(self):
        # the kernel's digits and last points give the report that the
        # exact orbits give, meet point included, on the side-0 atlas up to
        # 14 letters: at the pseudocenter, both ends' neighbours and 1/2
        for q in bf.atlas(14):
            if wd.farey_side(q.word) != 0:
                continue
            alphas = alphas_inside(q, per_side=1) + [Fraction(1, 2)]
            cert = kd.matching_matrices(q.word)
            want = []
            for alpha in alphas:
                if alpha not in q:
                    want.append({"alpha": alpha, "status": "outside"})
                    continue
                low, high = kd.orbit(alpha, alpha - 1, q.m0 + 1), kd.orbit(alpha, alpha, q.m1 + 1)
                collision = low.points[-1] == high.points[-1]
                constant = (
                    None not in low.digits[: q.m0] + high.digits[: q.m1]
                    and kd.branch_product(low.digits[: q.m0]) == cert.M
                    and kd.branch_product(high.digits[: q.m1]) == cert.M_prime
                )
                want.append(
                    {
                        "alpha": alpha,
                        "status": "exact" if collision and constant else "failed",
                        "collision": collision,
                        "matrices_constant": constant,
                        "meet_point": low.points[-1],
                    }
                )
            got = kd.verify_matching(q.word, alphas)["alphas_checked"]
            assert got == want, q.word
            for entry in got:
                if "meet_point" in entry:
                    y = entry["meet_point"]
                    assert type(y) is Fraction and gcd(y.numerator, y.denominator) == 1 and y.denominator > 0

    def test_collision_values_are_reduced_rationals(self):
        rep = kd.verify_matching("001", [Fraction(1, 3), Fraction(7, 20)])
        for entry in rep["alphas_checked"]:
            assert isinstance(entry["meet_point"], Fraction)

    def test_outside_parameters_reported(self):
        rep = kd.verify_matching("01", [Fraction(1, 5)])
        assert rep["alphas_checked"][0]["status"] == "outside"
        assert not rep["all_exact"]
        # no parameter checks nothing: refused, not reported as all exact
        with pytest.raises(ValueError, match="no parameter"):
            kd.verify_matching("01", [])

    def test_figure_parameter(self):
        # 4/15 sits in the qumterval of 0001001 (not of 00101)
        q = bf.locate_qumterval(Fraction(4, 15))
        assert q.word == "0001001"
        rep = kd.verify_matching("0001001", [Fraction(4, 15)])
        assert rep["all_exact"] and rep["m0"] == 5 and rep["m1"] == 2


class TestOrderExtremes:
    def test_examples(self):
        assert kd.orbit_order_extremes("00101") == (2, 1)
        assert kd.orbit_order_extremes("01") == (1, 1)
        assert kd.orbit_order_extremes("001") == (1, 1)

    def test_against_exhaustive_orbit_comparison(self):
        for w in wd.words_of_length_up_to(10):
            if wd.farey_side(w) != 0:
                continue
            q = bf.qumterval_of(w)
            j0, j1 = kd.orbit_order_extremes(w)
            for alpha in alphas_inside(q, per_side=1):
                low = kd.orbit(alpha, alpha - 1, q.m0)
                assert min(range(1, q.m0 + 1), key=lambda j: low.points[j]) == j0
                high = kd.orbit(alpha, alpha, q.m1)
                assert max(range(1, q.m1 + 1), key=lambda j: high.points[j]) == j1


class TestSymmetry:
    def test_conjugation(self):
        a, x = Fraction(1, 3), Fraction(1, 4)
        a2, x2 = kd.symmetry_conjugate(a, x)
        assert (a2, x2) == (Fraction(2, 3), Fraction(-1, 4))
        assert kd.k_step(a, x)[0] == -kd.k_step(a2, x2)[0]

    def test_digit_negation(self):
        rng = random.Random(77)
        done = 0
        while done < 1000:
            alpha = Fraction(rng.randint(1, 199), 200)
            x = alpha - Fraction(rng.randint(1, 1999), 2000)
            if x == 0:
                continue
            try:
                a2, x2 = kd.symmetry_conjugate(alpha, x)
            except ValueError:
                continue  # exceptional set
            assert kd.k_step(alpha, x)[1] == -kd.k_step(a2, x2)[1]
            done += 1

    def test_exceptional_points_flagged(self):
        alpha = Fraction(1, 3)
        x = 1 / (3 - alpha)  # digit-boundary point
        with pytest.raises(ValueError):
            kd.symmetry_conjugate(alpha, x)


class TestSlowMap:
    def test_agrees_with_fast_step(self):
        cases = [
            (Fraction(1, 3), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(-1, 4)),
            (Fraction(2, 5), Fraction(7, 20)),
        ]
        for alpha, x in cases:
            assert kd.slow_first_return(alpha, x) == kd.k_step(alpha, x)[0]

    def test_translation_count_matches_digit(self):
        alpha, x = Fraction(4, 15), Fraction(-2, 3)
        y = -1 / x
        count = 0
        while not alpha - 1 <= y < alpha:
            y += -1 if y >= alpha else 1
            count += 1
        assert count == abs(kd.k_step(alpha, x)[1])


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: kd.digit_of(Fraction(1, 3), 0), ZeroDivisionError, "fixed point 0", id="digit_of-zero"),
            pytest.param(lambda: kd.orbit(Fraction(1, 3), Fraction(0), -1), ValueError, "steps must be nonnegative", id="orbit-negative-steps"),
            pytest.param(lambda: kd.orbit_order_extremes("011"), ValueError, "defined on side-0 words", id="orbit_order_extremes-side-1"),
            # 1/x + alpha = 11/3 + 1/3 = 4
            pytest.param(lambda: kd.symmetry_conjugate(Fraction(1, 3), Fraction(3, 11)), ValueError, "exceptional point: .* k = 4", id="symmetry_conjugate-exceptional"),
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
