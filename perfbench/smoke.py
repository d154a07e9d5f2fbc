#!/usr/bin/env python3
"""Smoke self-test of the benchmark itself.

Usage (from the root of a checkout, about a minute):

    python3 perfbench/smoke.py

1. Runs every workload of BENCHMARK.json untraced and traced with a
   one-second budget on the default seed (one or two operations each) and
   checks that the result line is well formed, correct, and names every
   end-to-end or per-layer metric with its unit.
2. Checks that the correctness gates reject a hand-edited reference.
3. Checks that the benchmark refuses to run, without printing a result, in
   a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import checks
import inputs as gen

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
PY = sys.executable


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [PY, "perfbench/run.py", "--workload", workload, "--seed", str(gen.DEFAULT_SEED),
                    "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
            res = result_line(p.stdout)
            tag = f"{workload} trace={trace}"
            if p.returncode != 0 or res is None:
                problems.append(f"{tag}: exit {p.returncode}, no result: {p.stderr[-500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{tag}: not correct: {p.stdout[-1500:]}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units {[(k, got[k]) for k in got if k in want and got[k] != want[k]]}")
            if any(not isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            print(f"ok {tag}: {len(got)} metrics, attempted {res['attempted']}")
    return problems


def check_edited_reference() -> list[str]:
    """Every gate that reads the reference must fail once it is edited."""
    problems = []
    ref = checks.load_reference()

    def must_fail(name, errs):
        if not errs:
            problems.append(f"an edited reference passed: {name}")

    row = ref["curve"]["rows"][0]
    if checks.check_record(row, ref=row):
        problems.append("a curve sample fails against itself")
    for key, value in (("h", "9" + row["h"][1:]), ("A", row["A"][:-1] + "7"), ("word", "0" + row["word"])):
        must_fail(f"curve {key}", checks.check_record(row, ref={**row, key: value}))
    h_far = str(checks._mpf(row["h_full"]) * (1 + checks._mpf("1e-33")))
    must_fail("curve h_full beyond err_bound", checks.check_record(row, ref={**row, "h_full": h_far}))

    pair = ref["cli"]["pairs"][0]
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0", "PATH": ""}
    outs = [subprocess.run([PY, "-m", "fareycf", *argv], capture_output=True, text=True, cwd=ROOT,
                           env=env, timeout=120).stdout for argv in gen.cli_calls(pair["alpha"])]
    errs = checks.check_cli_pair(pair["alpha"], *outs, pair)
    if errs[0] or errs[1]:
        problems.append(f"CLI outputs fail against their reference: {errs}")
    edited = copy.deepcopy(pair)
    edited["point"] = edited["point"].replace("m0=", "m0=1", 1)
    must_fail("cli point", checks.check_cli_pair(pair["alpha"], *outs, edited)[0])
    must_fail("cli attractor", checks.check_cli_pair(pair["alpha"], *outs, {**pair, "attractor_sha256": "0" * 64})[1])
    print("ok edited references are rejected")
    return problems


def check_bare_directory() -> list[str]:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        argv = [PY, "perfbench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or result_line(p.stdout) is not None:
        return [f"ran without the package: exit {p.returncode}, stdout {p.stdout[-300:]!r}"]
    print("ok refuses to run without the package")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_edited_reference() + check_bare_directory() + check_runs(spec)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
