"""Binary-word combinatorics for the mediant-insertion word family, and
the run-length bridge to continued-fraction strings.

Words are plain str over the alphabet {'0', '1'}.  The family is generated
by inserting the concatenation of neighbours into successive lists, which
puts it in bijection with the rationals of [0, 1] through the slope
(ones count) / (length); these are the Christoffel/standard words and every
one of them is Lyndon.  Strings are tuples of positive integers, read as the
digits of [0; a1, a2, ...]; the run lengths of a word are its string.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

Word = str
CFString = tuple[int, ...]

_NEG = str.maketrans("01", "10")

WORD_LENGTH_CAP = 20  # longest word of `bifurcation.atlas` and `zeta_partial`: 127 words up to 20 letters
FAREY_LEVEL_CAP = 16  # the level-n list holds 2^n + 1 words of 3^n + 1 letters in all


def _check_binary(w: Word) -> None:
    if not w or w.strip("01"):
        raise ValueError(f"not a nonempty binary word: {w!r}")


def transpose(w: Word) -> Word:
    return w[::-1]


def negate(w: Word) -> Word:
    return w.translate(_NEG)


def tau(w: Word, k: int = 1) -> Word:
    """Cyclic shift moving the first k digits to the end."""
    k %= len(w)
    return w[k:] + w[:k]


def vee_first(w: Word) -> Word:
    """Flip the first digit."""
    return negate(w[0]) + w[1:]


def vee_last(w: Word) -> Word:
    """Flip the last digit."""
    return w[:-1] + negate(w[-1])


def rho(w: Word) -> Fraction:
    """Slope of the word: (number of ones) / length."""
    _check_binary(w)
    return Fraction(w.count("1"), len(w))


def word_from_rational(r) -> Word:
    """The word of slope r (reduced p/q), of length exactly q, one run at a
    time: the j-th one sits at ceil(j q/p), letter k being
    floor(k p/q) - floor((k-1) p/q)."""
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("slope must lie in [0, 1]")
    p, q = r.numerator, r.denominator
    if q == 1:
        return "1" if p == 1 else "0"
    ones = [-(-j * q // p) for j in range(p + 1)]
    return "".join("0" * (b - a - 1) + "1" for a, b in zip(ones, ones[1:]))


def phi_r_coding(r, side: str = "+") -> Word:
    """Rotation coding of the circle rotation by r started at 0 from the
    chosen side; the '+' side gives word_from_rational(r), the '-' side its
    transpose."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("rotation number must lie strictly between 0 and 1")
    p, q = r.numerator, r.denominator
    if side == "+":
        return word_from_rational(r)
    if side == "-":
        return "".join(
            str((k * p - 1) // q - ((k - 1) * p - 1) // q) for k in range(1, q + 1)
        )
    raise ValueError("side must be '+' or '-'")


def is_farey(w: Word) -> bool:
    if not w or w.strip("01"):
        return False
    return word_from_rational(Fraction(w.count("1"), len(w))) == w


def is_nondegenerate_farey(w: Word) -> bool:
    return len(w) > 1 and is_farey(w)


def farey_side(w: Word) -> int:
    """0 for the zero-heavy half, 1 for the one-heavy half; the balanced word
    '01' gets side 0 by convention."""
    m0, m1 = w.count("0"), w.count("1")
    if m0 == m1:
        return 0
    return 0 if m0 > m1 else 1


def farey_list(n: int) -> list[Word]:
    """Level-n list: 2^n + 1 words, built by mediant insertion from ('0', '1'),
    for n from 0 to `FAREY_LEVEL_CAP`."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > FAREY_LEVEL_CAP:
        raise ValueError(f"level {n} above cap {FAREY_LEVEL_CAP}: its list would hold 3^{n} + 1 letters")
    level = ["0", "1"]
    for _ in range(n):
        nxt = []
        for u, v in zip(level, level[1:]):
            nxt.append(u)
            nxt.append(u + v)
        nxt.append(level[-1])
        level = nxt
    return level


def words_of_length_up_to(max_len: int):
    """All nondegenerate words of the family with length <= max_len, ordered
    by slope."""
    slopes = sorted(
        Fraction(p, q)
        for q in range(2, max_len + 1)
        for p in range(1, q)
        if Fraction(p, q).denominator == q
    )
    return [word_from_rational(r) for r in slopes]


def farey_parents(r) -> tuple[Fraction, Fraction]:
    """The unique neighbour pair (r1, r2) with r1 < r < r2 whose mediant is r."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    if q == 1:
        raise ValueError("degenerate slope has no parents")
    q1 = pow(p, -1, q)
    p1 = (q1 * p - 1) // q
    return Fraction(p1, q1), Fraction(p - p1, q - q1)


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split w = w1 w2 into the two neighbour words that created it."""
    if not is_nondegenerate_farey(w):
        raise ValueError(f"no standard factorization: {w!r} is degenerate or not in the family")
    r1, r2 = farey_parents(rho(w))
    w1, w2 = word_from_rational(r1), word_from_rational(r2)
    assert w1 + w2 == w
    return w1, w2


def rotation_set(w: Word) -> tuple[Fraction, ...]:
    """Angles 0.(shift of w repeated) for all cyclic shifts, sorted.

    The doubling map permutes this set as the rotation by rho(w)."""
    if not is_nondegenerate_farey(w):
        raise ValueError("rotation set needs a nondegenerate word of the family")
    q = len(w)
    den = 2**q - 1
    return tuple(sorted(Fraction(int(tau(w, k), 2), den) for k in range(q)))


def substitute(w: Word, u0: Word, u1: Word) -> Word:
    """Digit-wise substitution 0 -> u0, 1 -> u1."""
    return "".join(u0 if ch == "0" else u1 for ch in w)


U0 = ("0", "01")
U1 = ("01", "1")


def word_by_tree(r) -> Word:
    """Tree-walk construction of word_from_rational (second, independent
    path): from the ends 0/1 and 1/1, of words 0 and 1, each Stern-Brocot
    step replaces the end on the far side of r by the mediant, whose word is
    the left end's word followed by the right end's, until it is r."""
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("slope must lie in [0, 1]")
    p, q = r.numerator, r.denominator
    if q == 1:
        return "1" if p else "0"
    left, right = (0, 1, "0"), (1, 1, "1")
    while True:
        a, b, w = left[0] + right[0], left[1] + right[1], left[2] + right[2]
        if (a, b) == (p, q):
            return w
        if a * q < p * b:
            left = a, b, w
        else:
            right = a, b, w


def runlength(w: Word) -> CFString:
    """Sizes of the maximal blocks of equal digits of a binary word."""
    _check_binary(w)
    return tuple(len(list(grp)) for _, grp in groupby(w))


def cf_of_fraction(x) -> CFString:
    """Digits of [0; ...] for a rational x in [0, 1]."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("expects a rational in [0, 1]")
    p, q = x.numerator, x.denominator
    S: list[int] = []
    while p:
        a, rem = divmod(q, p)
        S.append(a)
        q, p = p, rem
    return tuple(S)


def format_cfstring(S: CFString) -> str:
    return "[" + ",".join(map(str, S)) + "]"


def selftest() -> list[tuple[str, bool]]:
    checks = []
    checks.append(("level-2 list", farey_list(2) == ["0", "001", "01", "011", "1"]))
    f3 = farey_list(3)
    checks.append(("level-3 list", len(f3) == 9 and f3[3] == "00101"))
    checks.append(("slope inverse", word_from_rational(Fraction(2, 5)) == "00101"))
    checks.append(("coding minus side", phi_r_coding(Fraction(2, 5), "-") == "10100"))
    checks.append(("standard factorization", standard_factorization("00101") == ("001", "01")))
    w = "00101"
    checks.append(("palindromes", vee_first(w) == transpose(vee_first(w)) and vee_last(w) == transpose(vee_last(w))))
    checks.append(
        (
            "rotation set",
            rotation_set(w)
            == tuple(Fraction(n, 31) for n in (5, 9, 10, 18, 20)),
        )
    )
    checks.append(("substitutions", substitute("01", *U1) == "011" and substitute(substitute("01", *U1), *U0) == "00101"))
    checks.append(("tree equals formula", all(word_by_tree(Fraction(p, q)) == word_from_rational(Fraction(p, q)) for q in range(1, 30) for p in range(q + 1) if Fraction(p, q).denominator == q)))
    return checks
