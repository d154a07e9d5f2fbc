"""Bifurcation combinatorics: the doubling-map constraint set, its intervals,
the runlength homeomorphism to continued fractions, qumtervals and their
location by a descent on continued-fraction digits, exterior-ray angles of
the main cardioid, and the geometric zeta partial sums.

Everything except the zeta sums is exact: interval endpoints are rationals
over 2^n - 1 on the binary side and quadratic surds on the parameter side.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, cycle

from . import words
from .exactnum import (
    Exact,
    Frozen,
    Mobius,
    QuadSurd,
    _scaled,
    _slack,
    digits_matrix,
    floor_exact,
    make_surd,
    mobius_apply,
    surd_from_periodic_cf,
)

# ---------------------------------------------------------------------------
# binary side
# ---------------------------------------------------------------------------


class BinInterval(namedtuple("BinInterval", "word a_minus a_plus")):
    """Gap of the doubling-map constraint set labelled by a word w: the open
    interval (0.(transpose w repeated) - 1/2, 0.(w repeated))."""

    __slots__ = ()

    @property
    def length(self) -> Fraction:
        return self.a_plus - self.a_minus


def bin_interval(w: str) -> BinInterval:
    if not words.is_nondegenerate_farey(w):
        raise ValueError(f"degenerate or invalid word: {w!r}")
    den = 2 ** len(w) - 1
    a_plus = Fraction(int(w, 2), den)
    a_minus = Fraction(int(words.transpose(w), 2), den) - Fraction(1, 2)
    return BinInterval(w, a_minus, a_plus)


def eb_membership(x) -> bool:
    """Exact doubling-orbit test: every iterate of x stays in the closed
    circle arc from x to x + 1/2."""
    x = Fraction(x)
    if not 0 <= x <= Fraction(1, 2):
        raise ValueError("membership test is for rationals in [0, 1/2]")
    hi = x + Fraction(1, 2)
    y = x
    seen = set()
    while y not in seen:
        seen.add(y)
        if not (x <= y <= hi or x <= y + 1 <= hi):
            return False
        y = 2 * y
        if y >= 1:
            y -= 1
    return True


def binary_expansion(x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, cycle) of the binary digits of a rational in [0, 1)."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("binary_expansion expects a rational in [0, 1)")
    seen: dict[Fraction, int] = {}
    bits: list[int] = []
    while x not in seen:
        seen[x] = len(bits)
        x *= 2
        bit = 1 if x >= 1 else 0
        if bit:
            x -= 1
        bits.append(bit)
    i = seen[x]
    return tuple(bits[:i]), tuple(bits[i:])


# ---------------------------------------------------------------------------
# the runlength homeomorphism and its inverse
# ---------------------------------------------------------------------------


def _bits_str(bits) -> str:
    return "".join(map(str, bits))


def _eventually_periodic_runs(pre, cyc):
    """Run-length decomposition (preperiod runs, cycle runs) of the infinite
    bit stream pre + cyc + cyc + ...; requires a non-constant cycle."""
    n_pre, n_cyc = len(pre), len(cyc)

    def bit(i: int) -> int:
        return pre[i] if i < n_pre else cyc[(i - n_pre) % n_cyc]

    i0 = None
    for i in range(n_pre + 1, n_pre + n_cyc + 2):
        if bit(i) != bit(i - 1):
            i0 = i
            break
    assert i0 is not None, "constant cycle has no periodic run structure"
    head = [bit(i) for i in range(i0)]
    window = [bit(i) for i in range(i0, i0 + n_cyc)]
    return words.runlength(_bits_str(head)), words.runlength(_bits_str(window))


def phi_map(x) -> Exact:
    """Order isomorphism [0, 1/2] -> [0, 1]: reads the binary expansion of x
    and reinterprets its run lengths as continued-fraction digits.  Dyadic
    rationals map to rationals (both expansions are evaluated and must
    agree); other rationals map to quadratic surds."""
    x = Fraction(x)
    if not 0 <= x <= Fraction(1, 2):
        raise ValueError("phi_map expects a rational in [0, 1/2]")
    if x == 0:
        return Fraction(0)
    pre, cyc = binary_expansion(x)
    if all(b == 0 for b in cyc):  # dyadic: terminating expansion
        bits = _bits_str(pre).rstrip("0")
        v1 = mobius_apply(digits_matrix(words.runlength(bits)), 0)  # [0; S] is M(S) applied to 0
        # the other expansion ends 0111...; the infinite block truncates away
        alt = bits[:-1] + "0"
        v2 = mobius_apply(digits_matrix(words.runlength(alt)), 0)
        assert v1 == v2, "the two dyadic expansions must agree"
        return v1
    pre_runs, cyc_runs = _eventually_periodic_runs(pre, cyc)
    return surd_from_periodic_cf(pre_runs, cyc_runs)


def minkowski_q(x) -> Fraction:
    """Minkowski question-mark: continued-fraction digits become binary run
    blocks.  Exact on rationals and on quadratic surds (periodic digits give
    an eventually periodic bit stream, hence a rational)."""
    if isinstance(x, QuadSurd):
        if not 0 < x < 1:
            raise ValueError("expects a value in [0, 1]")
        pre, per = x.cf_expansion()
        head = list(pre) + list(per)
        cyc = list(per) if len(per) % 2 == 0 else list(per) + list(per)
        head_bits: list[str] = []
        for k, a in enumerate(head, start=1):
            head_bits.append(("0" if k % 2 else "1") * (a - 1 if k == 1 else a))
        k0 = len(head)
        cyc_bits: list[str] = []
        for j, a in enumerate(cyc, start=k0 + 1):
            cyc_bits.append(("0" if j % 2 else "1") * a)
        hb, cb = "".join(head_bits), "".join(cyc_bits)
        v = Fraction(int(hb, 2) if hb else 0, 2 ** len(hb))
        v += Fraction(int(cb, 2), (2 ** len(cb) - 1) * 2 ** len(hb))
        return v
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("expects a value in [0, 1]")
    total = Fraction(0)
    exponent = 0
    for k, a in enumerate(words.cf_of_fraction(x), start=1):
        exponent += a
        term = Fraction(1, 2**exponent)
        total += term if k % 2 else -term
    return 2 * total


# ---------------------------------------------------------------------------
# qumtervals
# ---------------------------------------------------------------------------


_CONTAINS_SCALE = 64  # binary scale of the integer bounds of `Qumterval.__contains__`


class Qumterval(Frozen, namedtuple("Qumterval", "word S alpha_minus alpha_plus pseudocenter m0 m1 tail")):
    """Maximal parameter interval locked to a word: quadratic endpoints, a
    least-denominator rational pseudocenter, the digit counts of the word
    and the periodic tail x = [0; S^T, S^T, ...] of alpha_minus (the
    attractor's corner x, `natext.attractor_corners`)."""

    def __contains__(self, alpha) -> bool:
        """alpha_minus < alpha < alpha_plus; a rational is decided by `holds`."""
        if not isinstance(alpha, (int, Fraction)):
            return self.alpha_minus < alpha < self.alpha_plus
        return self.holds(alpha.numerator, alpha.denominator)

    def holds(self, n: int, d: int) -> bool:
        """alpha_minus < n/d < alpha_plus for a rational n/d, d > 0, decided
        on the integers of its floor at `_CONTAINS_SCALE` against the
        endpoints' (`_bounds`): with every value within s units, a gap of 2 s
        decides either way; only a rational closer to an endpoint is
        compared exactly."""
        X_minus, X_plus, slack = self._bounds
        A = (n << _CONTAINS_SCALE) // d
        if A - X_minus >= slack:
            above = True
        elif X_minus - A >= slack:
            return False
        else:
            above = self.alpha_minus < Fraction(n, d)
        if X_plus - A >= slack:
            return above
        if A - X_plus >= slack:
            return False
        return above and Fraction(n, d) < self.alpha_plus

    @cached_property
    def _bounds(self) -> tuple[int, int, int]:
        """alpha_minus and alpha_plus times 2^`_CONTAINS_SCALE`, rounded down
        (`_scaled`), and twice the bound on their rounding (`_slack`)."""
        ends = [self.alpha_minus, self.alpha_plus]
        X_minus, X_plus = _scaled(ends, _CONTAINS_SCALE)
        return X_minus, X_plus, 2 * _slack(ends)

    @property
    def length(self):
        return self.alpha_plus - self.alpha_minus


@lru_cache(maxsize=1024)
def qumterval_of(w: str) -> Qumterval:
    """The qumterval of a nondegenerate word of the family: the one place
    where a word from outside is checked; `_qumterval` builds it from the
    word's run-length string."""
    if not words.is_nondegenerate_farey(w):
        raise ValueError(f"degenerate or invalid word: {w!r}")
    return _qumterval(words.runlength(w))


def _qumterval(S: words.CFString) -> Qumterval:
    """The qumterval of the nondegenerate family word whose run-length
    string is S, the one place where its word, endpoint surds and digit
    counts are made; consumers read them from here.  The word starts with 0
    and ends with 1, so S has even length, the word is spelled once, and
    m0 and m1 are the sums of the even and of the odd runs.

    One digit-matrix product M = M(S) = [[a, b], [c, d]] gives the rest:
    alpha_plus = [0; S, S, ...] is the fixed point of M in (0, 1), the root
    (a - d + sqrt D)/(2 c) of c y^2 + (d - a) y - b, and the pseudocenter
    [0; S] is b/d.  Digit matrices are symmetric, so M(S^T) = M^T and the
    tail x = [0; S^T, S^T, ...] is (a - d + sqrt D)/(2 b), D = (d - a)^2 +
    4 b c for both.  alpha_minus = [0; S', S^T, S^T, ...], with S' the right
    conjugate of S (`_right_conjugate`), is M(S') applied to x, and
    M(S') = M [[-1, 0], [1, 1]] whichever way S ends."""
    M = digits_matrix(S)
    a, b, c, d = M.a, M.b, M.c, M.d
    root = make_surd(a - d, 1, 1, (d - a) ** 2 + 4 * b * c)
    tail = root / (2 * b)
    zeros, ones = S[0::2], S[1::2]
    return Qumterval(
        word="".join("0" * k + "1" * n for k, n in zip(zeros, ones)),
        S=S,
        alpha_minus=mobius_apply(Mobius(b - a, b, d - c, d), tail),
        alpha_plus=root / (2 * c),
        pseudocenter=Fraction(b, d),
        m0=sum(zeros),
        m1=sum(ones),
        tail=tail,
    )


def _right_conjugate(S: words.CFString) -> words.CFString:
    """The other string with the value of S, for S other than (1,): swaps a
    final (..., a) and (..., a - 1, 1)."""
    if S[-1] >= 2:
        return S[:-1] + (S[-1] - 1, 1)
    return S[:-2] + (S[-2] + 1,)


def _first_difference(S, T) -> int:
    """The alternate order read at the first differing digit: -1 when S is
    below T there, +1 when above (a larger digit lowers the value at even,
    0-based, positions and raises it at odd ones); 0 when one digit sequence
    is a prefix of the other."""
    for i, (a, b) in enumerate(zip(S, T)):
        if a != b:
            return -1 if (a > b) == (i % 2 == 0) else 1
    return 0


def compare_periodic(S, pre, period) -> int:
    """Sign of [0; S] - [0; pre, period, period, ...] for a finite string S.

    Never 0, because the periodic value is irrational.  If S ends first, its
    value is the limit of a digit growing without bound at index len(S), so
    it lies below the periodic value when len(S) is even and above it when
    len(S) is odd."""
    if not period:
        raise ValueError("period must be nonempty")
    return _first_difference(S, chain(pre, cycle(period))) or (1 if len(S) % 2 else -1)


def _concat_runs(u, v):
    """Run-length string of the concatenated words, carried as (runs, first)."""
    runs_u, first_u = u
    runs_v, first_v = v
    last_u = first_u if len(runs_u) % 2 else ("1" if first_u == "0" else "0")
    if last_u == first_v:
        merged = runs_u[:-1] + (runs_u[-1] + runs_v[0],) + runs_v[1:]
    else:
        merged = runs_u + runs_v
    return merged, first_u


def _power(w, k: int):
    """The word w of the descent repeated k >= 1 times, as (runs, first).
    Every word of the descent but 0 and 1 starts with 0 and ends with 1, so
    its copies never merge; 0 and 1 are one run each."""
    runs, first = w
    return ((runs[0] * k,) if len(runs) == 1 else runs * k, first)


def _run_end(candidate, moves, first, budget: int):
    """The end of a run of one-direction mediant moves.

    The candidates candidate(k), k = 1, 2, ..., are the mediants the one-step
    descent would visit while it keeps moving the same way; `moves` holds
    for a prefix of them (it is monotone in k) and holds at first =
    candidate(1).  Returns (k, candidate(k - 1), candidate(k)) for the least
    k with `moves` false, found by an exponential and then a binary search;
    None when `moves` still holds at k = budget.
    """
    lo, at_lo = 1, first
    while True:  # moves(at_lo) holds
        hi = min(2 * lo, budget)
        if hi == lo:
            return None
        at_hi = candidate(hi)
        if not moves(at_hi):
            break
        lo, at_lo = hi, at_hi
    while hi - lo > 1:  # moves(at_lo) holds, moves(at_hi) does not
        mid = (lo + hi) // 2
        at_mid = candidate(mid)
        if moves(at_mid):
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    return hi, at_lo, at_hi


_LOCATE_LIMIT = 10**6  # work budget of one descent, in mediant steps


def locate_qumterval(alpha) -> Qumterval:
    """The unique qumterval whose closure contains a rational parameter.

    Rational parameters never hit the quadratic endpoints, so the answer is
    always an interior point.  The search descends the mediant tree from
    the Farey neighbours u = 0 and v = 1 and compares the digits of alpha
    with those of the candidate u v's endpoints alpha_plus = [0; S, S, ...]
    and alpha_minus = [0; S', S^T, S^T, ...] (`compare_periodic`); only the
    answer builds its surds, from the run tuple the descent holds
    (`_qumterval`).  Moves in one direction come in runs:
    moving right visits u v^k and moving left u^k v, monotone in k, so each
    run ends where an exponential and then a binary search on k find it
    (`_run_end`), with the powers as run repetitions (`_power`).  The steps
    are still counted one per mediant of the one-step descent, and a
    descent longer than `_LOCATE_LIMIT` steps raises ValueError.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("0 and 1 belong to the bifurcation set, not to any qumterval")
    digits = words.cf_of_fraction(alpha)

    def above(w) -> bool:  # alpha above the qumterval of w
        return compare_periodic(digits, (), w[0]) > 0

    def below(w) -> bool:  # alpha below the qumterval of w: alpha_minus = [0; S', S^T, ...]
        S = w[0]
        return compare_periodic(digits, _right_conjugate(S), S[::-1]) < 0

    u = ((1,), "0")
    v = ((1,), "1")
    steps = 0
    while steps < _LOCATE_LIMIT:
        mid = _concat_runs(u, v)
        if above(mid):  # moving right: u v^k while alpha lies above it
            run = _run_end(lambda k: _concat_runs(u, _power(v, k)), above, mid, _LOCATE_LIMIT - steps)
            turn = below
        elif below(mid):  # moving left: u^k v while alpha lies below it
            run = _run_end(lambda k: _concat_runs(_power(u, k), v), below, mid, _LOCATE_LIMIT - steps)
            turn = above
        else:
            return _qumterval(mid[0])
        if run is None:
            break
        k, prev, mid = run
        if not turn(mid):
            return _qumterval(mid[0])
        u, v = (prev, mid) if turn is below else (mid, prev)
        steps += k
    raise ValueError(f"locating alpha={alpha} needs more than the step budget of {_LOCATE_LIMIT} mediant steps")


def atlas(max_len: int) -> list[Qumterval]:
    """All qumtervals with |word| <= max_len, ordered by pseudocenter;
    `max_len` runs from 1 to `words.WORD_LENGTH_CAP`."""
    if not 1 <= max_len <= words.WORD_LENGTH_CAP:
        raise ValueError(f"max_len must lie in [1, {words.WORD_LENGTH_CAP}]")
    out = [qumterval_of(w) for w in words.words_of_length_up_to(max_len)]
    out.sort(key=lambda q: q.pseudocenter)
    return out


# ---------------------------------------------------------------------------
# cardioid angles and zeta sums
# ---------------------------------------------------------------------------


def cardioid_angles(r) -> tuple[Fraction, Fraction]:
    """Angles of the parameter rays landing at internal angle r on the main
    cardioid: one cyclic shift of the transpose and of the word itself."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("expects a rational strictly between 0 and 1")
    w = words.word_from_rational(r)
    den = 2 ** len(w) - 1
    theta_minus = Fraction(int(words.tau(words.transpose(w)), 2), den)
    theta_plus = Fraction(int(words.tau(w), 2), den)
    return theta_minus, theta_plus


def _outward(x: Exact) -> float:
    return math.nextafter(float(x), math.inf)


def zeta_partial(
    s: float,
    depth: int,
    window: tuple[Fraction, Fraction] | None = None,
    variant: str = "qumterval",
) -> float:
    """Partial geometric zeta sum of interval lengths**s over words of length
    <= depth, each length rounded outward; plain double accumulation (only
    the convergence behaviour is meaningful, not the last digits).

    For the qumterval variant without a window the sum diverges with depth
    for every s <= 1/2: the gaps of the cusp words 0^k 1 and 0 1^k shrink
    only like 1/k^2.  A window (lo, hi), 0 <= lo < hi <= 1, keeps only the
    words whose interval meets it; it must stay away from 0 and 1 for the
    sum to converge (inside [1/(N+1), 1/N] the gaps decay like
    N^(-2|w|/(N+1))).  The binary gaps 1/(2(2^n - 1)) decay exponentially
    everywhere.  `depth` runs from 1 to `words.WORD_LENGTH_CAP`."""
    if not 0 < s < math.inf:  # also refuses nan
        raise ValueError("exponent must be positive and finite")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > words.WORD_LENGTH_CAP:
        raise ValueError(f"depth above cap {words.WORD_LENGTH_CAP}")
    if variant not in ("qumterval", "binary"):
        raise ValueError("variant must be 'qumterval' or 'binary'")
    if window is not None and not 0 <= window[0] < window[1] <= 1:
        raise ValueError("window needs 0 <= LO < HI <= 1")
    total = 0.0
    for w in words.words_of_length_up_to(depth):
        if variant == "qumterval":
            q = qumterval_of(w)
            lo, hi = q.alpha_minus, q.alpha_plus
            length = _outward(q.length)
        else:
            b = bin_interval(w)
            lo, hi = b.a_minus, b.a_plus
            length = _outward(b.length)
        if window is not None and not (lo < window[1] and hi > window[0]):
            continue
        total += length**s
    return total


# ---------------------------------------------------------------------------
# simplest rational in an interval
# ---------------------------------------------------------------------------


def simplest_rational_between(lo, hi) -> Fraction:
    """Least-denominator rational strictly inside the open interval (lo, hi);
    endpoints may be rationals or quadratic surds (hi=None means +infinity).

    One continued-fraction digit per pass: while both ends share the floor
    f, the answer is f + 1/x for the simplest x in (1/(hi - f), 1/(lo - f));
    the last digit is floor(lo) + 1, and the digits fold into one fraction."""
    if hi is not None and not lo < hi:
        raise ValueError("empty interval")
    digits = []
    while True:
        fl = floor_exact(lo)
        if hi is None or fl + 1 < hi:
            digits.append(fl + 1)  # fl + 1 > lo always holds
            break
        digits.append(fl)
        lo2 = lo - fl  # in [0, 1)
        hi2 = hi - fl  # in (lo2, 1]
        lo, hi = 1 / hi2, None if lo2 == 0 else 1 / lo2
    num, den = 1, 0
    for a in reversed(digits):
        num, den = a * num + den, num
    return Fraction(num, den)


def selftest() -> list[tuple[str, bool]]:
    checks = []
    b = bin_interval("00101")
    checks.append(("binary interval", (b.a_minus, b.a_plus) == (Fraction(9, 62), Fraction(5, 31))))
    checks.append(("set membership", eb_membership(Fraction(5, 31)) and not eb_membership(Fraction(1, 4))))
    checks.append(("phi at 3/8", phi_map(Fraction(3, 8)) == Fraction(2, 3)))
    checks.append(("question mark inverse", minkowski_q(phi_map(Fraction(5, 31))) == Fraction(10, 31)))
    q = qumterval_of("001")
    checks.append(
        (
            "qumterval of 001",
            q.alpha_plus == surd_from_periodic_cf((), (2, 1))
            and q.alpha_minus == surd_from_periodic_cf((3,), (1, 2))
            and q.pseudocenter == Fraction(1, 3),
        )
    )
    checks.append(("locate 1/2", locate_qumterval(Fraction(1, 2)).word == "01"))
    checks.append(("locate 1/3", locate_qumterval(Fraction(1, 3)).word == "001"))
    checks.append(("cardioid 2/5", cardioid_angles(Fraction(2, 5)) == (Fraction(9, 31), Fraction(10, 31))))
    checks.append(("simplest rational", simplest_rational_between(q.alpha_minus, q.alpha_plus) == Fraction(1, 3)))
    return checks
