"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`).

Criterion 14 checks the zeta sum of qumterval gaps, `zeta_partial` at
s = 0.25 between depths 10 and 14, in the two ways the dimension-zero
argument supports.  Inside the windows W_N = [1/(N+1), 1/N], N = 2, 3, every
gap the deeper sum adds obeys |J_w| <= 2 * b_N^|w| with b_N = N^(-2/(N+1)),
so the difference of the two partial sums is at most the block
sum_{n=11..14} phi(n) * (2 * b_N^n)^s of a series that converges for every
s > 0.  Without a window the same bound fails, on the cusp words 0^k 1 and
0 1^k, whose gaps shrink only like 1/k^2.  An earlier version asserted
|z14 - z10| < 1e-3 on the global sum, which no correct program can meet:
the global sum diverges at s = 0.25 (|z14 - z10| = 4.31), and even on
[1/3, 1/2] the partial sums move by 0.385 between depths 10 and 14 and by
0.017-0.064 per length at depths 17-20, the deepest the word list allows.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from fareycf import bifurcation as bf
from fareycf import kdynamics as kd
from fareycf import natext as nx
from fareycf import words as wd
from fareycf.exactnum import surd_from_periodic_cf
from fareycf.lyapunov import lyapunov_estimate
from mpf_oracle import working_precision

_G = surd_from_periodic_cf((), (1,))
G2 = _G * _G  # left edge of the plateau window


def _report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} -- {detail} ({time.perf_counter() - t0:.2f}s)")
    assert ok, f"criterion {num}: {name}: {detail}"


def interior_rationals(q, per_side):
    out = [q.pseudocenter]
    lo = q.alpha_minus
    for _ in range(per_side):
        r = bf.simplest_rational_between(lo, out[0])
        out.append(r)
        lo = r
    hi = q.alpha_plus
    for _ in range(per_side):
        r = bf.simplest_rational_between(out[0], hi)
        out.append(r)
        hi = r
    return sorted(set(out))


def test_criterion_01_matching_identity():
    t0 = time.perf_counter()
    words8 = [w for w in wd.farey_list(8) if len(w) > 1]
    failures = [w for w in words8 if not kd.matching_matrices(w).identity_holds()]
    _report(
        1,
        "group identity over level 8",
        len(words8) == 255 and not failures,
        f"{len(words8)} words, {len(failures)} failures",
        t0,
    )


def test_criterion_02_orbit_matching():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for w in wd.words_of_length_up_to(8):
        q = bf.qumterval_of(w)
        alphas = interior_rationals(q, per_side=2)
        assert len(alphas) == 5
        report = kd.verify_matching(w, alphas)
        ok = ok and report["all_exact"]
        checked += len(alphas)
    _report(2, "exact orbit collision", ok, f"{checked} parameters over 21 words", t0)


def test_criterion_03_plateau():
    t0 = time.perf_counter()
    with working_precision(None):
        target = nx.plateau_entropy()
        worst = mpmath.mpf(0)
        count = 0
        for k in range(385, 618, 24):
            alpha = Fraction(k, 1000)
            if not G2 < alpha < 1 - G2:
                continue
            worst = max(worst, abs(nx.entropy_at(alpha).h - target))
            count += 1
        ok = count >= 10 and worst <= mpmath.mpf(10) ** -9
    _report(3, "entropy plateau", ok, f"{count} parameters, worst |h - target| = {mpmath.nstr(worst, 3)}", t0)


def test_criterion_04_symmetry():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    worst = 0.0
    for _ in range(100):
        alpha = Fraction(rng.randint(1, 9972), 9973)
        h1 = nx.entropy_at(alpha).h
        h2 = nx.entropy_at(1 - alpha).h
        worst = max(worst, abs(float(h1 - h2)))
    _report(4, "reflection symmetry of the entropy", worst <= 1e-9, f"100 pairs, worst diff {worst:.2e}", t0)


def test_criterion_05_monotonicity():
    t0 = time.perf_counter()
    grid = nx.entropy_grid(Fraction(1, 50), Fraction(381966, 10**6), 1000)
    assert len(grid) == 1000
    samples = [nx.entropy_at(a) for a in grid]
    hs = [float(s.h) for s in samples]
    min_inc = min(b - a for a, b in zip(hs, hs[1:]))
    strict_ok = True
    for s1, s2 in zip(samples, samples[1:]):
        if s1.word == s2.word and s1.m0 > s1.m1:
            strict_ok = strict_ok and float(s2.h) - float(s1.h) > 0
    ok = min_inc >= -1e-10 and strict_ok
    _report(5, "monotone increasing branch", ok, f"1000 samples, min increment {min_inc:.2e}", t0)


def test_criterion_06_asymptotics():
    t0 = time.perf_counter()
    rows = nx.asymptotic_probe([100, 1000, 10000])
    ratios = [row["ratio"] for row in rows]
    in_band = all(0.7 <= r <= 1.3 for r in ratios)
    toward_one = abs(ratios[0] - 1) > abs(ratios[1] - 1) > abs(ratios[2] - 1)
    _report(
        6,
        "entropy asymptotics near 0",
        in_band and toward_one,
        "ratios " + ", ".join(f"{r:.4f}" for r in ratios),
        t0,
    )


def test_criterion_07_corner_system():
    t0 = time.perf_counter()
    count = 0
    ok = True
    for w in wd.farey_list(6):
        if len(w) == 1:
            continue
        probe = w if wd.farey_side(w) == 0 else wd.transpose(wd.negate(w))
        (l1, r1), (l2, r2) = nx.corner_system_residues(probe)
        ok = ok and l1 == r1 and l2 == r2
        count += 1
    _report(7, "corner fixed-point system", ok and count == 63, f"{count} words, exact", t0)


def test_criterion_08_cardioid_angles():
    t0 = time.perf_counter()
    ok = bf.cardioid_angles(Fraction(2, 5)) == (Fraction(9, 31), Fraction(10, 31))
    checked = 0
    for q in range(2, 21):
        for p in range(1, q):
            r = Fraction(p, q)
            if r.denominator != q:
                continue
            tm, tp = bf.cardioid_angles(r)
            ok = ok and bf.eb_membership(tm / 2) and bf.eb_membership(tp / 2)
            checked += 1
    _report(8, "cardioid ray angles", ok, f"2/5 exact, {checked} halved angles in the set", t0)


def test_criterion_09_question_mark_dictionary():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    done = 0
    ok = True
    while done < 1000:
        q = rng.randint(2, 500)
        p = rng.randint(0, q // 2)
        x = Fraction(p, q)
        if x > Fraction(1, 2):
            continue
        ok = ok and bf.minkowski_q(bf.phi_map(x)) == 2 * x
        done += 1
    _report(9, "question-mark dictionary", ok, "1000 exact round-trips", t0)


def test_criterion_10_interval_geometry():
    t0 = time.perf_counter()
    exact_ok = all(
        bf.bin_interval(w).length == Fraction(1, 2 * (2 ** len(w) - 1))
        for w in wd.words_of_length_up_to(14)
    )
    total = sum(bf.bin_interval(w).length for w in wd.words_of_length_up_to(20))
    gap = Fraction(1, 2) - total
    _report(
        10,
        "binary interval geometry",
        exact_ok and 0 < gap < Fraction(1, 10**4),
        f"lengths exact, total within {float(gap):.2e} of 1/2",
        t0,
    )


def test_criterion_11_entropy_ratio_formula():
    t0 = time.perf_counter()
    pairs = [
        (Fraction(325, 1000), Fraction(33, 100)),
        (Fraction(33, 100), Fraction(333, 1000)),
        (Fraction(334, 1000), Fraction(337, 1000)),
        (Fraction(34, 100), Fraction(343, 1000)),
        (Fraction(35, 100), Fraction(354, 1000)),
    ]
    q = bf.qumterval_of("001")
    worst = 0.0
    with working_precision(None):
        for a_small, a_big in pairs:
            assert a_small in q and a_big in q
            assert (a_small < q.pseudocenter) == (a_big < q.pseudocenter)
            h_small = nx.entropy_at(a_small).h
            h_big = nx.entropy_at(a_big).h
            mu = nx.measure_interval(nx.build_attractor(a_big), a_small, a_big)
            worst = max(worst, abs(float(h_big - (1 + mu) * h_small)))
    _report(11, "entropy ratio across nearby parameters", worst <= 1e-8, f"worst residual {worst:.2e}", t0)


def test_criterion_12_rohlin_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(2, 12):
        alpha = Fraction(k, 23)
        h = float(nx.entropy_at(alpha).h)
        est = lyapunov_estimate(alpha, steps=10**6, seed=k)
        worst = max(worst, abs(est - h) / h)
    _report(12, "orbit-average cross-check", worst <= 0.02, f"10 parameters, worst rel dev {worst:.3%}", t0)


def test_criterion_13_slope_growth():
    t0 = time.perf_counter()
    rows = nx.slope_growth_probe("001", "plus", 8)
    first, last = abs(rows[0]["slope"]), abs(rows[-1]["slope"])
    growth = last / first
    plateau = abs(nx.qumterval_slope(bf.qumterval_of("01"))["slope"])
    ok = growth >= 2.0 and plateau < 1e-9
    _report(
        13,
        "unbounded slopes at the bifurcation set",
        ok,
        f"max slope x{growth:.2f} over 8 halvings; plateau slope {plateau:.1e}",
        t0,
    )


def _gaps_between(d0, d1, window):
    """(word, gap length) for every word of length d0 < |w| <= d1 whose
    qumterval meets the window (None: all words), as `zeta_partial` filters
    them."""
    out = []
    for w in wd.words_of_length_up_to(d1):
        if len(w) <= d0:
            continue
        q = bf.qumterval_of(w)
        if window is None or (q.alpha_minus < window[1] and q.alpha_plus > window[0]):
            out.append((w, float(q.length)))
    return out


def test_criterion_14_zeta_convergence():
    t0 = time.perf_counter()
    s, d0, d1 = 0.25, 10, 14
    ok = True
    details = []
    for n_win in (2, 3):  # the mirrors 1 - W_N give the same numbers
        window = (Fraction(1, n_win + 1), Fraction(1, n_win))
        # A word whose qumterval meets W_N has slope in [1/(N+1), 1/N], so at
        # least |w|/(N+1) of its letters are 1s, each a branch with |K'| >= N^2
        # on W_N: |J_w| <= 2 * b_N^|w| with b_N = N^(-2/(N+1)), the factor 2
        # for the bounded distortion of those branches.
        b = float(n_win) ** (-2.0 / (n_win + 1))
        gaps = _gaps_between(d0, d1, window)
        over = [w for w, length in gaps if length > 2 * b ** len(w)]
        # At most phi(n) words have length n (one per reduced slope p/n), so the
        # terms the deeper sum adds are bounded by a block of the convergent
        # series sum_n phi(n) * (2 * b_N^n)^s.
        tail = sum(
            sum(1 for p in range(1, n) if math.gcd(p, n) == 1) * (2 * b**n) ** s
            for n in range(d0 + 1, d1 + 1)
        )
        diff = bf.zeta_partial(s, d1, window) - bf.zeta_partial(s, d0, window)
        # The difference is the sum of exactly these terms, up to double rounding.
        same_terms = math.isclose(diff, sum(length**s for _, length in gaps), rel_tol=1e-9)
        ok = ok and not over and same_terms and diff <= tail
        details.append(f"W_{n_win}: {len(over)} gaps over 2 * b_N^|w|, z14 - z10 = {diff:.4f} <= {tail:.4f}")
    # Without a window no fixed b < 1 bounds the gaps: those of the cusp words
    # 0^k 1 and 0 1^k shrink only like 1/k^2, so the global sum diverges for
    # s <= 1/2.  With b_2 the bound already fails at lengths 13 and 14.
    b2 = 2.0 ** (-2.0 / 3)
    cusp_over = [w for w, length in _gaps_between(d0, d1, None) if length > 2 * b2 ** len(w)]
    cusps_only = all(w.count("1") == 1 or w.count("0") == 1 for w in cusp_over)
    ok = ok and bool(cusp_over) and cusps_only
    details.append(f"no window: {len(cusp_over)} cusp gaps exceed 2 * b_2^|w|")
    _report(14, "zeta sum converges inside windows", ok, "; ".join(details), t0)
