"""Monte Carlo Lyapunov exponents for the interval maps.

The metric entropy equals the integral of log |K'| = -2 log |x| against the
invariant measure; a long double-precision orbit estimates it independently
of the exact attractor geometry, which makes a useful cross-check.

The kernel is plain Python.  Each step is ``u = -1/x; x = u - floor(u + 1 -
alpha)``, and instead of one log per step it multiplies the points of a
block of 16 steps and takes one log per block.  The product cannot
underflow: off 0 every point has |u| = 1/|x| > 1, so x = u - n is exact and
|x| >= 2^-53, and 16 points multiply to at least 2^-848, still a normal
float.  The 16 steps of a block are written out, so that Python runs one
loop iteration per block; the fewer than 16 steps left at the end run as
one plain loop.

The orbit restarts from a fresh random start, with the burn-in run again
and not counted, in two cases.  It hits 0 exactly: ``-1/x`` raises before
the 0 joins the product, so the block's points before it are counted as
they are, and their number is found by stepping again from the block's
start.  Or it enters a float cycle, seen when a block ends at its own
start or at an anchor; full blocks run in sweeps of up to 64, and the
anchor is where the sweep before ended.  A cycle of floats is an
artefact of rounding, and averaging over it gives a wrong number (at
alpha = 23/146 a 4-cycle near +-2^-12 would read 5.83 against h = 2.48).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

# Read by perfbench/run.py and perfbench/worker.py; there is no compiled kernel.
HAVE_FAST_ORBIT = False

_BLOCK = 16  # steps per log: 16 points of size >= 2^-53 cannot underflow
_ANCHOR_EVERY = 64  # blocks per sweep, between anchors of the cycle test
_TINY = 2.0**-53  # off 0, no point the map produces is closer to 0


def _random_start(rng: random.Random, alpha: float) -> float:
    """A uniform start in [alpha - 1, alpha), at least 1e-6 away from 0."""
    x = 0.0
    while abs(x) < 1e-6:
        x = rng.uniform(alpha - 1.0, alpha)
    return x


def _count(value, name: str) -> int:
    """`value` as an int; a bool or a non-integer raises TypeError naming `name`."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def birkhoff_log_deriv(
    alpha: float, x0: float, steps: int, burn_in: int = 1000, *, rng: random.Random | None = None
) -> float:
    """Mean of -2 log |x| over `steps` points of the float orbit from x0, after `burn_in` steps.

    Restarts (see the module docstring) draw their start from `rng`
    (default ``random.Random(0)``).  A start closer to 0 than 2^-53 is
    treated like a hit of 0.
    """
    steps = _count(steps, "steps")
    burn_in = _count(burn_in, "burn_in")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must not be negative")
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    if rng is None:
        rng = random.Random(0)
    floor, log = math.floor, math.log
    acc = 0.0
    left = steps  # steps still to count, as of the start of the current block
    x = x0 if abs(x0) >= _TINY else _random_start(rng, alpha)
    while True:
        start = None  # the start of the current counted block
        try:
            for _ in range(burn_in):
                u = -1.0 / x
                x = u - floor(u + 1.0 - alpha)
            anchor = math.nan
            while left >= _BLOCK:  # a sweep of up to _ANCHOR_EVERY full blocks
                for left in range(left, max(left - _ANCHOR_EVERY * _BLOCK, _BLOCK - 1), -_BLOCK):
                    start = x
                    p = 1.0
                    # written out, nothing hoisted: (u + 1.0) - alpha rounds unlike u + (1 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    u = -1.0 / x; p *= x; x = u - floor(u + 1.0 - alpha)
                    acc += log(abs(p))
                    if x == start or x == anchor:  # a float cycle
                        break
                else:  # the sweep ran through: its end is the next anchor
                    left -= _BLOCK
                    anchor = x
                    continue
                break  # a float cycle: restart, below
            else:  # the last fewer than _BLOCK steps
                start = x
                p = 1.0
                for _ in range(left):
                    u = -1.0 / x
                    p *= x
                    x = u - floor(u + 1.0 - alpha)
                acc += log(abs(p))
                return -2.0 * acc / steps
            left -= _BLOCK  # the block that closed the cycle is counted
            if not left:
                return -2.0 * acc / steps
        except ZeroDivisionError:  # an exact hit of 0 in the block from start
            if start is not None:  # p holds the points before it: count them again
                while start:
                    u = -1.0 / start
                    start = u - floor(u + 1.0 - alpha)
                    left -= 1
                acc += log(abs(p))
        x = _random_start(rng, alpha)


def lyapunov_estimate(alpha, steps: int = 10**6, seed: int = 0, burn_in: int = 1000) -> float:
    """Birkhoff estimate of the entropy of the map at `alpha` from one typical orbit."""
    a = float(Fraction(alpha))
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    rng = random.Random(seed)
    return birkhoff_log_deriv(a, _random_start(rng, a), steps, burn_in, rng=rng)


def selftest() -> list[tuple[str, bool]]:
    est = lyapunov_estimate(Fraction(1, 2), steps=200_000, seed=1)
    plateau = math.pi**2 / (6 * math.log((1 + math.sqrt(5)) / 2))
    return [("lyapunov near plateau at 1/2", abs(est - plateau) / plateau < 0.05)]
