"""Continued-fraction string calculus.

Strings are tuples of positive integers, read as the digits of [0; a1, a2,
...].  The module provides the conjugation and shift operators on strings,
exact denominators through digit-matrix products, the alternate
lexicographic orders that mirror value comparison, and the runlength bridge
between binary words and strings.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, cycle, groupby

from . import words
from .exactnum import Mobius, digits_matrix

CFString = tuple[int, ...]


def _check(S, nonempty: bool = True) -> CFString:
    S = tuple(S)
    if nonempty and not S:
        raise ValueError("string must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in S):
        raise ValueError(f"digits must be positive integers: {S!r}")
    return S


def matrix_of(S) -> Mobius:
    """Product of the digit matrices [[0,1],[1,a]]; identity for the empty string."""
    return digits_matrix(_check(S, nonempty=False))


def value_of(S) -> Fraction:
    """[0; S] as an exact rational (empty string gives 0)."""
    m = matrix_of(S)  # [0; S] is m applied to 0; det +-1 keeps b/d reduced
    return Fraction(m.b, m.d)


def denominator(S) -> int:
    """q(S): the reduced denominator of [0; S]."""
    return matrix_of(_check(S)).d


def right_conjugate(S) -> CFString:
    """The other string with the same value; swaps final (..., a) and (..., a-1, 1)."""
    S = _check(S)
    if S == (1,):
        raise ValueError("(1,) has no distinct conjugate")
    return _right_conjugate(S)


def _right_conjugate(S: CFString) -> CFString:
    """`right_conjugate` of a checked string other than (1,)."""
    if S[-1] >= 2:
        return S[:-1] + (S[-1] - 1, 1)
    return S[:-2] + (S[-2] + 1,)


def left_conjugate(S) -> CFString:
    """Acts on the leading digits; sends the value x to 1 - x."""
    S = _check(S)
    if S[0] >= 2:
        return (1, S[0] - 1) + S[1:]
    if len(S) == 1:
        raise ValueError("(1,) has no left conjugate")
    return (1 + S[1],) + S[2:]


def partial_shift(S) -> CFString:
    """Decrement the first digit, dropping it when it reaches zero."""
    S = _check(S)
    return (S[0] - 1,) + S[1:] if S[0] > 1 else S[1:]


def transpose_string(S) -> CFString:
    return tuple(reversed(_check(S)))


def alt_lex_lt(S, T) -> bool:
    """Alternate lexicographic order on equal-length strings: S < T iff
    [0; S] < [0; T] (descending at odd positions, ascending at even)."""
    S, T = _check(S), _check(T)
    if len(S) != len(T):
        raise ValueError("alternate order compares equal lengths only")
    return string_ll(S, T)


def _first_difference(S, T) -> int:
    """The alternate order read at the first differing digit: -1 when S is
    below T there, +1 when above (a larger digit lowers the value at even,
    0-based, positions and raises it at odd ones); 0 when one digit sequence
    is a prefix of the other."""
    for i, (a, b) in enumerate(zip(S, T)):
        if a != b:
            return -1 if (a > b) == (i % 2 == 0) else 1
    return 0


def string_ll(S, T) -> bool:
    """Partial order through truncations: some equal-length prefixes already
    compare strictly, so appending anything preserves the value order."""
    return _first_difference(_check(S), _check(T)) < 0


def compare_periodic(S, pre, period) -> int:
    """Sign of [0; S] - [0; pre, period, period, ...] for a finite string S.

    Never 0, because the periodic value is irrational.  If S ends first, its
    value is the limit of a digit growing without bound at index len(S), so
    it lies below the periodic value when len(S) is even and above it when
    len(S) is odd."""
    if not period:
        raise ValueError("period must be nonempty")
    return _first_difference(S, chain(pre, cycle(period))) or (1 if len(S) % 2 else -1)


def string_lemma_check(S, T) -> bool:
    """Whether ST < TS in the alternate order (equivalent to comparing the
    two purely periodic values)."""
    S, T = _check(S), _check(T)
    return alt_lex_lt(S + T, T + S)


def cylinder_interval(S) -> tuple[Fraction, Fraction]:
    """Endpoints of the set of values whose expansion starts with S, sorted."""
    S = _check(S)
    a = value_of(S)
    b = value_of(S[:-1] + (S[-1] + 1,))
    return (a, b) if a <= b else (b, a)


def runlength(w: str) -> CFString:
    """Sizes of the maximal blocks of equal digits of a binary word."""
    words._check_binary(w)
    return tuple(len(list(grp)) for _, grp in groupby(w))


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


def cf_of_fraction(x, even_length: bool = False) -> CFString:
    """Digits of [0; ...] for a rational x in [0, 1]; optionally normalized to
    even length by splitting an odd expansion's final digit a into a - 1, 1."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("expects a rational in [0, 1]")
    p, q = x.numerator, x.denominator
    S: list[int] = []
    while p:
        a, rem = divmod(q, p)
        S.append(a)
        q, p = p, rem
    if even_length and len(S) % 2:
        if S[-1] == 1:  # Euclid's last digit is at least 2, except for x = 1, whose digits are (1,)
            raise ValueError("1 has no even-length expansion")
        S[-1] -= 1
        S.append(1)
    return tuple(S)


class FareyStructure(namedtuple("FareyStructure", "a skeleton side unique")):
    """Block decomposition of the runlength string of a word of the family;
    `side` (0 or 1) is the half of the family the source word lives in."""

    __slots__ = ()

    @property
    def blocks(self) -> tuple[CFString, CFString]:
        if self.side == 0:
            return (self.a + 1, 1), (self.a, 1)
        return (1, self.a), (1, self.a + 1)

    def reassemble(self) -> CFString:
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


def format_cfstring(S) -> str:
    return "[" + ",".join(str(a) for a in _check(S, nonempty=False)) + "]"
