"""The lemmas of arXiv:1312.6845 that the package does not run, kept as the
oracles of the tests that check them: the steps by which E_KU is
parametrized by Farey words through the run-length bridge to
continued-fraction strings (`fareycf.words.runlength`).  Strings are tuples
of positive integers, the digits of [0; a1, a2, ...]."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from fareycf import words
from fareycf.bifurcation import _first_difference, _right_conjugate
from fareycf.exactnum import digits_matrix, surd_from_periodic_cf


def _check(S, nonempty: bool = True):
    S = tuple(S)
    if nonempty and not S:
        raise ValueError("string must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in S):
        raise ValueError(f"digits must be positive integers: {S!r}")
    return S


def value_of(S) -> Fraction:
    """[0; S] as an exact rational (empty string gives 0)."""
    m = digits_matrix(_check(S, nonempty=False))  # [0; S] is m applied to 0; det +-1 keeps b/d reduced
    return Fraction(m.b, m.d)


def denominator(S) -> int:
    """q(S): the reduced denominator of [0; S]."""
    return digits_matrix(_check(S)).d


def right_conjugate(S):
    """The other string with the same value; swaps final (..., a) and (..., a-1, 1)."""
    S = _check(S)
    if S == (1,):
        raise ValueError("(1,) has no distinct conjugate")
    return _right_conjugate(S)


def left_conjugate(S):
    """Acts on the leading digits; sends the value x to 1 - x."""
    S = _check(S)
    if S[0] >= 2:
        return (1, S[0] - 1) + S[1:]
    if len(S) == 1:
        raise ValueError("(1,) has no left conjugate")
    return (1 + S[1],) + S[2:]


def partial_shift(S):
    """Decrement the first digit, dropping it when it reaches zero."""
    S = _check(S)
    return (S[0] - 1,) + S[1:] if S[0] > 1 else S[1:]


def transpose_string(S):
    return tuple(reversed(_check(S)))


def string_ll(S, T) -> bool:
    """Partial order through truncations: some equal-length prefixes already
    compare strictly, so appending anything preserves the value order."""
    return _first_difference(_check(S), _check(T)) < 0


def alt_lex_lt(S, T) -> bool:
    """Alternate lexicographic order on equal-length strings: S < T iff
    [0; S] < [0; T] (descending at odd positions, ascending at even)."""
    S, T = _check(S), _check(T)
    if len(S) != len(T):
        raise ValueError("alternate order compares equal lengths only")
    return string_ll(S, T)


def string_lemma_check(S, T) -> bool:
    """The string lemma: whether ST < TS in the alternate order (equivalent
    to comparing the two purely periodic values)."""
    S, T = _check(S), _check(T)
    return alt_lex_lt(S + T, T + S)


def cylinder_interval(S) -> tuple[Fraction, Fraction]:
    """Endpoints of the set of values whose expansion starts with S, sorted."""
    S = _check(S)
    a = value_of(S)
    b = value_of(S[:-1] + (S[-1] + 1,))
    return (a, b) if a <= b else (b, a)


def runlength_inverse(S, first_digit: str = "0") -> str:
    """Binary word with the given block sizes, starting with first_digit."""
    S = _check(S)
    if first_digit not in ("0", "1"):
        raise ValueError("first_digit must be '0' or '1'")
    bit = first_digit
    out = []
    for a in S:
        out.append(bit * a)
        bit = "1" if bit == "0" else "0"
    return "".join(out)


def even_length_cf(x):
    """Digits of [0; ...] for a rational x in [0, 1), of even length: an odd
    expansion ends in a digit a >= 2, which splits into a - 1, 1."""
    S = words.cf_of_fraction(x)
    if S == (1,):  # Euclid's last digit is at least 2, except for x = 1
        raise ValueError("1 has no even-length expansion")
    return S if len(S) % 2 == 0 else _right_conjugate(S)


class FareyStructure(namedtuple("FareyStructure", "a skeleton side unique")):
    """Block decomposition of the runlength string of a word of the family;
    `side` (0 or 1) is the half of the family the source word lives in."""

    __slots__ = ()

    @property
    def blocks(self):
        if self.side == 0:
            return (self.a + 1, 1), (self.a, 1)
        return (1, self.a), (1, self.a + 1)

    def reassemble(self):
        b0, b1 = self.blocks
        out: list[int] = []
        for ch in self.skeleton:
            out.extend(b0 if ch == "0" else b1)
        return tuple(out)


def farey_structure(S) -> FareyStructure:
    """Decompose a runlength string of the family into two-digit blocks.

    Single-block strings admit two readings; the convention here fixes
    skeleton '0' with a = N - 1 (so the string is one (N, 1) block), except
    for (1, 1) where only skeleton '1' with a = 1 works.
    """
    S = _check(S)
    if len(S) % 2:
        raise ValueError("runlength strings of the family have even length")

    def _result(values, side):
        lo, hi = min(values), max(values)
        if hi - lo > 1:
            return None
        if lo == hi:
            if len(values) > 1:
                return None  # constant skeleton longer than one digit is not in the family
            if lo == 1 and side == 0:
                return FareyStructure(1, "1", 0, unique=False)
            digit = "0" if side == 0 else "1"
            return FareyStructure(lo - 1, digit, side, unique=False)
        if side == 0:
            skeleton = "".join("0" if v == hi else "1" for v in values)
        else:
            skeleton = "".join("0" if v == lo else "1" for v in values)
        if not words.is_farey(skeleton):
            return None
        return FareyStructure(lo, skeleton, side, unique=True)

    if all(d == 1 for d in S[1::2]):
        res = _result(S[0::2], 0)
        if res is not None:
            return res
    if all(d == 1 for d in S[0::2]):
        res = _result(S[1::2], 1)
        if res is not None:
            return res
    raise ValueError(f"no block decomposition: {S!r}")


def word_order_lt(u, v) -> bool:
    """Strict order: u < v iff the concatenation uv precedes vu; equivalently
    the infinite repetitions satisfy 0.uuu... < 0.vvv..."""
    words._check_binary(u)
    words._check_binary(v)
    return u + v < v + u


def strong_order_ll(u, v) -> bool:
    """u << v: some equal-length prefixes already differ in u's favour, so
    every extension of u precedes every extension of v."""
    words._check_binary(u)
    words._check_binary(v)
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return False


def cyclic_extremes(w):
    """(min, second smallest, max) of the cyclic shifts of w: the word itself,
    the swapped standard factorization, and the transpose."""
    w1, w2 = words.standard_factorization(w)
    return w, w2 + w1, words.transpose(w)


def compose_substitutions(U, V):
    """Pair composition: applying the result equals applying U then V."""
    return words.substitute(U[0], *V), words.substitute(U[1], *V)


def beta_thickening(r):
    """The quadratic interval around a rational r: (sigma beta(sigma r), beta(r))
    where beta repeats the even-length expansion."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("expects a rational strictly between 0 and 1")
    right = surd_from_periodic_cf((), even_length_cf(r))
    left = 1 - surd_from_periodic_cf((), even_length_cf(1 - r))
    return left, right
