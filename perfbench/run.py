#!/usr/bin/env python3
"""Benchmark of the exact entropy pipeline of fareycf.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,curve,deep,crosscheck} \\
        --seed N --seconds S --trace {0,1}

Builds nothing but bytecode: the package is imported from ``src/`` of the
same checkout.  Inputs are made from the seed (inputs.py) and written to
``perfbench/out/``; the program receives only those inputs.  End-to-end
times are given at a reference host speed: each timed piece of work is
followed by calibration units (calibrate.py), and its time is scaled by
the units' reference time over their measured time.  Every workload
runs in fresh Python processes started one at a time from this script
(``cli``: one ``python -m fareycf`` process per call; the others: one worker
process running worker.py).  Every output is checked (checks.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
The full result of the run, with the inputs it used and the environment,
goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import inputs as gen
import tracer as tr

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
WORKLOADS = ("cli", "curve", "deep", "crosscheck")
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 150  # seconds; any single child process
PROBE = (
    "import time; t0 = time.perf_counter(); import fareycf; t1 = time.perf_counter()\n"
    "import json; from fareycf import lyapunov\n"
    "print(json.dumps({'import_s': t1 - t0, 'file': fareycf.__file__,"
    " 'compiled': lyapunov.HAVE_FAST_ORBIT}))"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """Environment of every child: the package from this checkout's src/,
    a fixed hash seed and no stray precision setting (precision.py reads
    FAREYCF_PRECISION at import, which would change every mass)."""
    env = {k: v for k, v in os.environ.items() if k not in ("FAREYCF_PRECISION", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)


def prepare(env: dict) -> None:
    if not (SRC / "fareycf" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'fareycf'}; run from the root of a checkout")
    OUT.mkdir(exist_ok=True)
    # bytecode is compiled before anything is timed
    p = run_child([PY, "-m", "compileall", "-q", str(SRC), str(BENCH)], env)
    if p.returncode != 0:
        raise BenchError("compileall failed:\n" + p.stdout.decode() + p.stderr.decode())


def probe(env: dict) -> dict:
    p = run_child([PY, "-c", PROBE], env)
    if p.returncode != 0:
        raise BenchError("import fareycf failed:\n" + p.stderr.decode())
    info = json.loads(p.stdout)
    if pathlib.Path(info["file"]).resolve().parent != SRC / "fareycf":
        raise BenchError(f"fareycf imported from {info['file']}, not from {SRC}")
    return info


def import_times_ms(env: dict) -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, medians in ms:
    the package, and sympy and mpmath where they are first imported."""
    runs: dict[str, list[float]] = {"fareycf": [], "sympy": [], "mpmath": []}
    for _ in range(IMPORTTIME_REPEATS):
        p = run_child([PY, "-X", "importtime", "-c", "import fareycf"], env)
        seen = {}
        for line in p.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in runs:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1000)
        for name in runs:
            runs[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in runs.items()}


def environment(info: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    git = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        git = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fareycf").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "mpmath": version("mpmath"),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "have_fast_orbit": info["compiled"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
    }


def p50_p75(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=4)[2]


def deep_growth(ops: list[dict]) -> float:
    """Log-log slope of per-rung time (long-run plus short-run input, at the
    reference speed) against word length, fitted on per-rung medians."""
    xs, ys = [], []
    scale = [calibrate.at_reference(op["pieces"]) / op["s"] for op in ops]
    for j in range(len(ops[0]["lengths"]) // 2):
        xs.append(math.log(statistics.median(op["lengths"][2 * j] for op in ops)))
        ys.append(math.log(statistics.median(
            (op["times"][2 * j] + op["times"][2 * j + 1]) * f for op, f in zip(ops, scale))))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_cli(inp: dict, seconds: float, trace: bool, ref: dict | None, env: dict) -> dict:
    """Cold `python -m fareycf` calls, closed loop: at each alpha, `entropy
    point` then `attractor --json`.  In a traced run each call is followed
    by the same call traced in a fresh interpreter (cli_child.py), whose
    stdout must be byte-identical."""
    deadline = time.perf_counter() + seconds
    ops, traced_walls, summaries = [], [], []
    attempted = failed = used = 0
    errors: list[str] = []
    for k, alpha in enumerate(inp["alphas"]):
        if time.perf_counter() >= deadline:
            break
        used += 1
        outs, call_errs = [], []
        for argv in gen.cli_calls(alpha):
            t0 = time.perf_counter()
            p = run_child([PY, "-m", "fareycf", *argv], env)
            wall = time.perf_counter() - t0
            units = [] if trace else [calibrate.startup_unit(env)]
            ops.append({"s": wall, "pieces": [["startup", wall, units]], "work": 1, "traced": False})
            out = p.stdout.decode()
            outs.append(out)
            errs = []
            if p.returncode != 0:
                errs.append(f"{' '.join(argv)}: exit {p.returncode}: {p.stderr.decode()[-300:]}")
            if trace:
                t0 = time.perf_counter()
                q = run_child([PY, str(BENCH / "cli_child.py"), *argv], env)
                traced_walls.append(time.perf_counter() - t0)
                child = json.loads(q.stdout.decode().splitlines()[-1]) if q.returncode == 0 else None
                if child is None or child["code"] != p.returncode or child["stdout"] != out:
                    errs.append(f"{' '.join(argv)}: traced output differs from the untraced one")
                else:
                    summaries.append(child["trace"])
            call_errs.append(errs)
        for errs, more in zip(call_errs, checks.check_cli_pair(alpha, *outs, ref and ref["pairs"][k])):
            errs += more
            attempted += 1
            failed += bool(errs)
            errors += errs
    result = {
        "ops": ops,
        "used": used,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if trace:
        result["trace"] = tr.merge(summaries)
        result["traced_walls"] = traced_walls
    return result


def run_worker(workload: str, inputs_path: pathlib.Path, seconds: float, trace: bool, use_ref: bool, env: dict) -> dict:
    out_path = OUT / f"{inputs_path.stem}-worker.json"
    argv = [PY, str(BENCH / "worker.py"), workload, str(inputs_path), str(seconds),
            str(int(trace)), str(out_path), str(int(use_ref))]
    p = run_child(argv, env)
    if p.returncode != 0:
        raise BenchError(f"{workload} worker failed:\n{p.stderr.decode()[-2000:]}")
    result = json.loads(out_path.read_text())
    if pathlib.Path(result["fareycf_file"]).resolve().parent != SRC / "fareycf":
        raise BenchError(f"worker imported fareycf from {result['fareycf_file']}")
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, res: dict, setup: list[dict]) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, the same figures under workload-specific
    names, with the sample count, the failed fraction, the 75th percentile
    of the operation time, the raw wall-clock figures and the host's
    slowdown against the reference speed)."""
    ops = res["ops"]
    times = [calibrate.at_reference(op["pieces"]) for op in ops]
    walls = [op["s"] for op in ops]
    p50, p75 = p50_p75(times)
    rate = statistics.median(op["work"] / t for op, t in zip(ops, times))
    metrics = {
        "setup_s": (statistics.median(calibrate.at_reference([p]) for p in setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ref_op_ms_p50": (1000 * p50, "ms"),
        "ref_work_per_s": (rate, "1/s"),
    }
    named = {
        "fail_frac": res["failed"] / max(res["attempted"], 1),
        "ops": len(ops),
        "ref_op_ms_p75": 1000 * p75,
        "wall_op_ms_p50": 1000 * statistics.median(walls),
        "wall_op_ms_p75": 1000 * p50_p75(walls)[1],
        "wall_work_per_s": statistics.median(op["work"] / op["s"] for op in ops),
        "wall_setup_s": statistics.median(p[1] for p in setup),
        "host_slowdown": statistics.median(w / t for w, t in zip(walls, times)),
    }
    if workload == "cli":
        named.update(cli_ms_p50=1000 * p50, cli_ms_p75=1000 * p75)
    elif workload == "curve":
        named.update(curve_samples_per_s=rate)
    elif workload == "deep":
        named.update(deep_letters_per_s=rate, deep_growth=deep_growth(res["ops"]))
    else:
        named.update(lyap_msteps_per_s=rate / 1e6)
    return metrics, named


def per_layer(workload: str, res: dict, imports: dict) -> dict:
    metrics = tr.layer_metrics(res["trace"], res["compiled"])
    metrics["import.total_ms"] = (imports["fareycf"], "ms")
    metrics["import.sympy_ms"] = (imports["sympy"], "ms")
    metrics["import.mpmath_ms"] = (imports["mpmath"], "ms")
    if workload == "cli":
        traced, plain = res["traced_walls"], [op["s"] for op in res["ops"]]
    else:
        traced = [op["s"] for op in res["ops"] if op["traced"]]
        plain = [op["s"] for op in res["ops"] if not op["traced"]]
    overhead = statistics.median(traced) / statistics.median(plain) - 1 if traced and plain else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = child_env()
    try:
        prepare(env)
        info = probe(env)
        inp = gen.GENERATORS[args.workload](args.seed)
        tag = f"{args.workload}-seed{args.seed}"
        inputs_path = OUT / f"{tag}-inputs.json"
        inputs_path.write_text(json.dumps(inp))
        use_ref = args.seed == gen.DEFAULT_SEED
        setup = []
        if args.trace:
            imports = import_times_ms(env)
        else:
            calibrate.startup_unit(env)  # warm-up
            for _ in range(SETUP_REPEATS):
                setup.append(["startup", probe(env)["import_s"], [calibrate.startup_unit(env)]])
        if args.workload == "cli":
            ref = checks.load_reference()["cli"] if use_ref else None
            res = run_cli(inp, args.seconds, bool(args.trace), ref, env)
            res["compiled"] = info["compiled"]
        else:
            res = run_worker(args.workload, inputs_path, args.seconds, bool(args.trace), use_ref, env)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not res["ops"]:
        print("error: no operation completed", *res["errors"], sep="\n", file=sys.stderr)
        return 2
    if args.trace:
        metrics, named = per_layer(args.workload, res, imports), {}
    else:
        metrics, named = end_to_end(args.workload, res, setup)
    correct = res["failed"] == 0 and res["attempted"] > 0
    used = {"cli": "alphas", "curve": None, "deep": "ladders", "crosscheck": "pairs"}[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(info),
        "inputs": inp if used is None else {**inp, used: inp[used][: res["used"]]},
        "reference_checked": use_ref,
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": res["errors"],
        "setup_import": setup,
        "ops": res["ops"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": named,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for e in res["errors"]:
        print(f"check failed: {e}")
    for k, v in named.items():
        print(f"{k} = {v}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
