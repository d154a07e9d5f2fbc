"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts: the same fixed piece of work
can take up to twice as long for a minute at a time while other tenants are
busy, and CPU time drifts with it.  No statistic over one run removes that.
So every timed piece of work of the program is followed by a calibration
unit, a fixed piece of work that uses only the standard library and never
the program.  A time is reported at the reference speed:

    time * REFERENCE_S[kind] / (mean time of the calibration units next to it)

which is the time the work would have taken had the host run the unit in
its reference time.  The raw wall times stay in the run's JSON file.

Contention does not slow every kind of code alike, so there are three units,
each matched to the work it calibrates:

- ``compute``: an in-process mix of a float map, exact rationals with big
  integers and dict/str work, like the exact pipeline;
- ``float``: an in-process float loop of the same shape as the Lyapunov
  kernel's pure-Python fallback;
- ``startup``: a fresh interpreter importing a fixed set of standard-library
  modules, like a cold ``python -m fareycf`` call or ``import fareycf``.

REFERENCE_S are the 10th percentiles of 200 units of each kind on a quiet
2-vCPU KVM guest (Intel Xeon, family 6 model 207) with Python 3.11.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = {"compute": 0.0314, "float": 0.0225, "startup": 0.104}

SHARE = 0.2  # calibration time after a piece of work, as a share of the piece's time
_CF_DIGITS = [1, 2, 1, 1, 3, 1, 2, 5, 1] * 40
_STARTUP = (
    "import argparse, asyncio, dataclasses, decimal, email.message, fractions,"
    " http.client, inspect, json, statistics, unittest, xml.etree.ElementTree"
)


def compute_unit() -> float:
    """Seconds taken by one compute unit."""
    t0 = time.perf_counter()
    for _ in range(3):
        _compute()
    return time.perf_counter() - t0


def _compute() -> None:
    x = 0.3141
    for _ in range(60000):
        u = -1.0 / x
        x = u - math.floor(u + 0.5)
        if x == 0.0:
            x = 0.1
    v = Fraction(0)
    for a in _CF_DIGITS:
        v = 1 / (a + v)
    n = v.numerator
    for i in range(300):
        m = n * (n + i)
        math.gcd(m, n + 2 * i + 1)
        m //= n + 7
    d = {}
    for i in range(6000):
        d["k%d" % i] = (i, str(i) * 2)
    sorted(d, key=lambda k: d[k][1])


def float_unit() -> float:
    """Seconds taken by one float unit."""
    t0 = time.perf_counter()
    x, acc = 0.3141, 0.0
    floor, log = math.floor, math.log
    for _ in range(80000):
        if x == 0.0:
            x = 1e-13
        acc += -2.0 * log(abs(x))
        u = -1.0 / x
        x = u - floor(u + 0.6)
    return time.perf_counter() - t0


UNITS = {"compute": compute_unit, "float": float_unit}


def startup_unit(env: dict) -> float:
    """Seconds taken by one startup unit: a fresh interpreter that imports
    standard-library modules and exits."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", _STARTUP], capture_output=True, env=env, timeout=60)
    dt = time.perf_counter() - t0
    if p.returncode != 0:
        raise RuntimeError("startup calibration failed: " + p.stderr.decode()[-300:])
    return dt


def after(kind: str, seconds: float) -> list[float]:
    """Times of the calibration units run after a piece of work of `kind`
    that took `seconds`: enough units to take about SHARE of its time, and
    at least one."""
    n = max(1, round(SHARE * seconds / REFERENCE_S[kind]))
    return [UNITS[kind]() for _ in range(n)]


def at_reference(pieces: list) -> float:
    """Seconds at the reference speed of the pieces [kind, seconds, unit
    times], each scaled by the mean of its own units."""
    return sum(s * REFERENCE_S[k] * len(units) / sum(units) for k, s, units in pieces)


if __name__ == "__main__":
    # Print the 10th percentile of N units of each kind: the reference times.
    import os
    import statistics

    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for kind, unit in UNITS.items():
        for _ in range(3):
            unit()
        print(kind, statistics.quantiles([unit() for _ in range(n)], n=10)[0])
    env = dict(os.environ)
    print("startup", statistics.quantiles([startup_unit(env) for _ in range(n)], n=10)[0])
