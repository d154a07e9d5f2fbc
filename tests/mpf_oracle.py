"""mpmath oracles of the package's floats.

The package computes its floats in integers, as raw floats (sign, man,
exp, bc) that repeat mpmath's rounding (`exactnum`), and wraps only its
results into mpmath.mpf.  These helpers are the same values written as
mpf expressions and evaluated by mpmath at a working precision, so that a
test can compare the two bit for bit.
"""

from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.libmp import from_rational, mpf_shift, round_nearest, to_float

from fareycf import natext as nx
from fareycf.exactnum import QuadSurd
from fareycf.precision import checked_precision


@contextmanager
def working_precision(bits=None):
    """mpmath's context at `bits`, or at the default precision for None
    (`checked_precision`)."""
    with mpmath.workprec(checked_precision(bits)):
        yield mpmath.mp


def to_mpf(x):
    """An exact value at the current working precision, as mpf expressions:
    n/m as mpf(n) / mpf(m), (p + q sqrt d)/r as (mpf(p) + mpf(q)
    sqrt(mpf(d))) / mpf(r) (`exactnum.to_raw` rounds the same)."""
    mpf = mpmath.mpf
    if isinstance(x, QuadSurd):
        return (mpf(x.p) + mpf(x.q) * mpmath.sqrt(mpf(x.d))) / mpf(x.r)
    x = Fraction(x)
    return mpf(x.numerator) / mpf(x.denominator)


def surd_float(x):
    """float(x) of an exact value through an 80-bit mpf."""
    with mpmath.workprec(80):
        return float(to_mpf(x))


def density_slice(attr, t, bits=None):
    """The density at a height t of the attractor as mpf expressions: the
    antiderivative of the rectangle with y_lo <= t < y_hi (the top one at
    t = alpha) over the mass."""
    bits = checked_precision(bits)
    A = nx.attractor_mass(attr, bits)[0]
    rect = attr.rects[bisect_right(attr.rects, t, key=lambda r: r.y_lo) - 1]
    with working_precision(bits):
        tm, xl, xh = to_mpf(t), to_mpf(rect.x_lo), to_mpf(rect.x_hi)
        return (xh - xl) / ((1 + xl * tm) * (1 + xh * tm)) / A


def asymptotic_row(row, bits=None):
    """The target pi^2 / (3 log(N+1)) of a row of `asymptotic_probe`, and
    its ratio and A_minus_log, from the row's h and A, as mpf expressions."""
    with working_precision(bits):
        log_n1 = mpmath.log(row["N"] + 1)
        target = mpmath.pi**2 / (3 * log_n1)
        return target, float(row["h"] / target), float(row["A"] - log_n1)


def plateau_entropy(bits=None):
    """pi^2 / (6 log(1+g)), g the golden mean, as mpf expressions."""
    with working_precision(bits):
        g = (mpmath.sqrt(5) - 1) / 2
        return mpmath.pi**2 / (6 * mpmath.log(1 + g))


def selftest_checks():
    """The float checks of `natext.selftest` as mpf expressions at the
    default precision."""
    with working_precision(None):
        h = nx.entropy_at(Fraction(9, 20)).h
        return {
            "plateau value": abs(h - plateau_entropy()) < mpmath.mpf(10) ** -20,
            "reflection": abs(h - nx.entropy_at(Fraction(11, 20)).h) == 0,
        }


def slope(s1, s2):
    """The double nearest to (h2 - h1) / (b - a) of two entropy samples at
    a and b: the difference exact, then mpmath's correctly rounded quotient
    of two integers (`from_rational`) and its exact power of two."""
    sign, man, exp, _ = mpmath.fsub(s2.h, s1.h, exact=True)._mpf_
    width = s2.alpha - s1.alpha
    q = from_rational((-man if sign else man) * width.denominator, width.numerator, 53, round_nearest)
    return to_float(mpf_shift(q, exp))


def slope_at_53_bits(s1, s2):
    """(h2 - h1) / (b - a) as mpf expressions at 53 bits: each step
    rounded, then the double."""
    with mpmath.workprec(53):
        return float((s2.h - s1.h) / (s2.alpha - s1.alpha))
