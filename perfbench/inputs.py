"""Seeded inputs for the benchmark workloads.

Only the standard library is used: inputs, and the words some of them must
produce, are made without the program under test.  The same seed gives the
same inputs on every machine (``random.Random`` seeded with a string).

Each generator returns more inputs than a run is expected to use; a run
takes them in order and records how many it used.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import groupby

DEFAULT_SEED = 0

CLI_PAIRS = 200  # alphas; each gives one `entropy point` and one `attractor --json` call
CLI_MAX_Q = 200

FIGURE_SAMPLES = 400  # the default of scripts/entropy_figure.py
FIGURE_HALF_WIDTHS = (160, 40, 10)  # zoom half-widths in units of 1e-5
FIGURE_ZOOM_SAMPLES = max(60, FIGURE_SAMPLES // 4)

DEEP_RUNGS = (256, 512, 1024, 2048)
DEEP_LADDERS = 30

CROSS_ALPHAS = 4
CROSS_PAIRS = 1000
CROSS_STEPS = 10**6
CROSS_RANGE = (Fraction(2, 23), Fraction(21, 23))  # the span of criterion 12's parameters


def christoffel(p: int, q: int) -> str:
    """The word of slope p/q (p ones among q letters), fareycf's convention."""
    return "".join(str((k * p) // q - ((k - 1) * p) // q) for k in range(1, q + 1))


def runlength(w: str) -> tuple[int, ...]:
    return tuple(len(list(g)) for _, g in groupby(w))


def cf_value(digits) -> Fraction:
    """[0; digits] as an exact rational."""
    v = Fraction(0)
    for a in reversed(digits):
        v = 1 / (a + v)
    return v


def pseudocenter(w: str) -> Fraction:
    """The rational [0; runlength(w)], which lies inside the qumterval of w."""
    return cf_value(runlength(w))


def periodic_cf_float(period) -> float:
    """[0; period, period, ...] to double precision, by convergents."""
    digits = list(period)
    while True:
        v = cf_value(digits)
        if v.denominator > 10**9:
            return float(v)
        digits += list(period)


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"fareycf-bench:{workload}:{seed}")


def _rational(rng: random.Random, max_q: int, lo: Fraction, hi: Fraction) -> Fraction:
    while True:
        q = rng.randrange(2, max_q + 1)
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1 and lo < Fraction(p, q) < hi:
            return Fraction(p, q)


def cli_inputs(seed: int) -> dict:
    """Distinct rationals in (0, 1) with denominator at most CLI_MAX_Q."""
    rng = _rng("cli", seed)
    alphas: list[Fraction] = []
    while len(alphas) < CLI_PAIRS:
        a = _rational(rng, CLI_MAX_Q, Fraction(0), Fraction(1))
        if a not in alphas:
            alphas.append(a)
    return {"alphas": [fmt(a) for a in alphas]}


def cli_calls(alpha: str) -> list[list[str]]:
    """The two CLI calls made at one alpha, in order."""
    return [["entropy", "point", "--alpha", alpha], ["attractor", "--alpha", alpha, "--json"]]


def curve_inputs(seed: int) -> dict:
    """The figure job of scripts/entropy_figure.py: the full curve over
    (1/50, 49/50) plus three zooms around the right endpoint of the
    qumterval of 001, where the slope blows up.

    The default seed gives exactly the script's job.  Other seeds narrow
    the full curve by a seeded k/100000 (k < 100) at both ends, which moves
    every sample, and zoom either at that endpoint or at its mirror image,
    the left endpoint of the qumterval of 011.  Both keep the cost of a pass
    the same, so runs on different seeds are comparable.
    """
    k, mirror = 0, False
    if seed != DEFAULT_SEED:
        rng = _rng("curve", seed)
        k, mirror = rng.randrange(100), rng.random() < 0.5
    center = round(periodic_cf_float(runlength("001")) * 100000)
    if mirror:
        center = 100000 - center
    jobs = [[fmt(Fraction(1, 50) + Fraction(k, 100000)), fmt(Fraction(49, 50) - Fraction(k, 100000)), FIGURE_SAMPLES]]
    for half in FIGURE_HALF_WIDTHS:
        jobs.append([f"{center - half}/100000", f"{center + half}/100000", FIGURE_ZOOM_SAMPLES])
    return {"word": "011" if mirror else "001", "jobs": jobs}


def deep_inputs(seed: int) -> dict:
    """Ladders of fresh deep words, so that no cache can hit across inputs.

    Each rung of a ladder has a long-run input 1/L (word 0^(L-1) 1) and a
    short-run input, the pseudocenter of the word of slope p/L with
    L/3 < p < L/2 (many runs of length one or two).  The words each input
    must produce are part of the inputs.  In ladder k, L is the rung length
    plus a seeded offset below a 64th of it plus k: distinct across
    ladders, and growing by only one letter per ladder.
    """
    rng = _rng("deep", seed)
    offsets = [rng.randrange(base // 64) for base in DEEP_RUNGS]
    ladders = []
    for k in range(DEEP_LADDERS):
        ladder = []
        for base, offset in zip(DEEP_RUNGS, offsets):
            L = base + offset + k
            while True:
                p = rng.randrange(L // 3 + 1, L // 2)
                if math.gcd(p, L) == 1:
                    break
            short_word = christoffel(p, L)
            ladder.append(
                {
                    "rung": base,
                    "L": L,
                    "p": p,
                    "long": fmt(Fraction(1, L)),
                    "long_word": "0" * (L - 1) + "1",
                    "short": fmt(pseudocenter(short_word)),
                    "short_word": short_word,
                }
            )
        ladders.append(ladder)
    return {"rungs": list(DEEP_RUNGS), "ladders": ladders}


def cross_inputs(seed: int) -> dict:
    """A few rationals in criterion 12's span; the Monte Carlo seed changes
    with every pair, the alphas repeat in turn."""
    rng = _rng("crosscheck", seed)
    alphas: list[Fraction] = []
    while len(alphas) < CROSS_ALPHAS:
        a = _rational(rng, CLI_MAX_Q, *CROSS_RANGE)
        if a not in alphas:
            alphas.append(a)
    pairs = [[fmt(alphas[i % CROSS_ALPHAS]), seed * 100003 + i] for i in range(CROSS_PAIRS)]
    return {"alphas": [fmt(a) for a in alphas], "steps": CROSS_STEPS, "pairs": pairs}


GENERATORS = {
    "cli": cli_inputs,
    "curve": curve_inputs,
    "deep": deep_inputs,
    "crosscheck": cross_inputs,
}
