"""In-process workloads, run in a fresh interpreter by run.py.

Usage: worker.py WORKLOAD INPUTS.json SECONDS TRACE OUT.json REFERENCE

TRACE and REFERENCE are 0 or 1; REFERENCE=1 compares the outputs with the
reference recorded for the default seed.

Runs operations closed-loop (one caller, the next operation starts when the
previous one ends) until SECONDS have passed; an operation that has started
is finished.  An operation is made of timed pieces (one entropy_curve job,
one entropy_at call, one Lyapunov estimate); in an untraced run each piece
is followed by calibration units of its kind (calibrate.py), timed apart
from the piece.  With TRACE=1, untraced and traced operations alternate: the
traced ones give the per-layer figures and the pair gives the tracing
overhead.  Every output is checked; checks run between operations, outside
the timed region.  The result goes to OUT.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

import mpmath

import calibrate
import checks
import tracer as tr

import fareycf
from fareycf import lyapunov, natext

perf_counter = time.perf_counter


def record(s) -> dict:
    """The benchmark's view of an EntropySample: CLI-printed strings plus h
    with every digit of its working precision."""
    return {
        "alpha": f"{s.alpha.numerator}/{s.alpha.denominator}",
        "word": s.word,
        "m0": str(s.m0),
        "m1": str(s.m1),
        "A": mpmath.nstr(s.A, 30, strip_zeros=False),
        "h": mpmath.nstr(s.h, 30, strip_zeros=False),
        "h_full": mpmath.nstr(s.h, 50, strip_zeros=False),
        "err_bound": mpmath.nstr(s.err_bound, 5),
    }


def package_caches() -> list:
    """Every lru_cache held by a loaded fareycf module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "fareycf" or name.startswith("fareycf."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


class Run:
    def __init__(self, seconds: float, trace: bool):
        self.deadline = perf_counter() + seconds
        self.trace = trace
        self.tracer = tr.Tracer() if trace else None
        # {"s": wall seconds, "pieces": [[kind, seconds, [unit seconds]]], "work": units, "traced": bool}
        self.ops: list[dict] = []
        self.pieces: list = []  # the pieces of the current operation
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.used = 0  # inputs consumed

    def more(self) -> bool:
        return perf_counter() < self.deadline

    def context(self):
        """Alternate traced and untraced operations in a traced run, traced
        first so that even a short run has a traced operation."""
        traced = self.trace and self.used % 2 == 0
        self.pieces = []
        return traced, (self.tracer.op() if traced else nullcontext())

    def piece(self, fn, kind: str = "compute"):
        """(fn(), its wall time); the time counts towards the current
        operation.  In an untraced run calibration units of `kind` follow."""
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
        self.pieces.append([kind, dt, [] if self.trace else calibrate.after(kind, dt)])
        return out, dt

    def op(self, work: int, traced: bool, **extra):
        self.ops.append({"s": sum(p[1] for p in self.pieces), "pieces": self.pieces,
                         "work": work, "traced": traced, **extra})
        self.used += 1

    def check(self, n: int, bad: int, errs: list[str]):
        self.attempted += n
        self.failed += bad
        self.errors += errs[: max(0, 20 - len(self.errors))]

    def fail(self, n: int, message: str):
        """An operation that raised: all its outputs count as failed."""
        self.used += 1
        self.check(n, n, [message])


def run_curve(run: Run, inp: dict, ref: dict | None):
    """One operation is one figure pass: entropy_curve(jobs=1) over the full
    curve and the three zooms.  Caches are emptied before each pass, as in a
    fresh run of scripts/entropy_figure.py."""
    caches = package_caches()
    jobs = [(Fraction(lo), Fraction(hi), n) for lo, hi, n in inp["jobs"]]
    while run.more():
        for c in caches:
            c.cache_clear()
        traced, ctx = run.context()
        samples = []
        try:
            with ctx:
                for lo, hi, n in jobs:
                    samples += run.piece(lambda: natext.entropy_curve(lo, hi, n, jobs=1))[0]
        except Exception as exc:  # counted as failures of every sample of the pass
            run.fail(sum(n for _, _, n in jobs), f"figure pass raised {exc!r}")
            continue
        run.op(len(samples), traced)
        recs = [record(s) for s in samples]
        bad, errs = checks.check_curve(recs, ref and ref["rows"])
        run.check(len(recs), bad, errs)


def run_deep(run: Run, inp: dict, ref: dict | None):
    """One operation is one ladder: entropy_at on the long-run and the
    short-run input of every rung, all fresh words."""
    for k, ladder in enumerate(inp["ladders"]):
        if not run.more():
            break
        alphas = [entry[kind] for entry in ladder for kind in ("long", "short")]
        expected = [entry[kind + "_word"] for entry in ladder for kind in ("long", "short")]
        refs = ref["ladders"][k] if ref and k < len(ref["ladders"]) else [None] * len(alphas)
        traced, ctx = run.context()
        samples, times = [], []
        try:
            with ctx:
                for alpha in alphas:
                    s, dt = run.piece(lambda: natext.entropy_at(Fraction(alpha)))
                    samples.append(s)
                    times.append(dt)
        except Exception as exc:
            run.fail(len(alphas), f"ladder {k} raised {exc!r}")
            continue
        lengths = [len(s.word) for s in samples]
        run.op(sum(lengths), traced, times=times, lengths=lengths)
        bad, errs = 0, []
        for s, word, r in zip(samples, expected, refs):
            e = checks.check_record(record(s), word, r)
            bad += bool(e)
            errs += e
        run.check(len(samples), bad, errs)


def run_crosscheck(run: Run, inp: dict, ref: dict | None):
    """One operation is one pair: a Monte Carlo Lyapunov estimate beside the
    exact entropy at the same parameter."""
    steps = inp["steps"]
    for alpha, mc_seed in inp["pairs"]:
        if not run.more():
            break
        traced, ctx = run.context()
        try:
            with ctx:
                est = run.piece(lambda: lyapunov.lyapunov_estimate(Fraction(alpha), steps=steps, seed=mc_seed), "float")[0]
                s = run.piece(lambda: natext.entropy_at(Fraction(alpha)))[0]
        except Exception as exc:
            run.fail(1, f"{alpha}: raised {exc!r}")
            continue
        run.op(steps, traced)
        rec = record(s)
        errs = checks.check_record(rec, ref=ref and ref["h"][alpha])
        errs += checks.check_cross(rec["h_full"], est, alpha)
        run.check(1, bool(errs), errs)


WORKLOADS = {"curve": run_curve, "deep": run_deep, "crosscheck": run_crosscheck}


def main(argv: list[str]) -> int:
    workload, inputs_path, seconds, trace, out_path, use_ref = argv
    ref = checks.load_reference()[workload] if use_ref == "1" else None
    inp = json.loads(open(inputs_path).read())
    for unit in calibrate.UNITS.values():  # warm-up of the calibration units
        unit()
        unit()
    run = Run(float(seconds), trace == "1")
    WORKLOADS[workload](run, inp, ref)
    out = {
        "fareycf_file": fareycf.__file__,
        "compiled": lyapunov.HAVE_FAST_ORBIT,
        "ops": run.ops,
        "used": run.used,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if run.tracer is not None:
        out["trace"] = run.tracer.summary()
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
