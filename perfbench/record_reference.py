#!/usr/bin/env python3
"""Record the reference outputs of the default seed: reference/seed0.json.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every input the default seed can give each workload through the
program, untimed, and stores what the checks compare against: CLI stdout
(`entropy point` as text, `attractor --json` as a SHA-256), and for entropy
samples word, m0, m1, A and h to the printed 30 digits plus h with every
digit of the working precision.  Deep samples keep only what is compared:
their inputs already fix the word, and their alphas are long.  Re-record
only when an output changes on purpose.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import checks
import inputs as gen
from worker import record

from fareycf import cli, natext


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fareycf {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> int:
    if "FAREYCF_PRECISION" in os.environ:
        raise SystemExit("unset FAREYCF_PRECISION: the reference is for the default precision")
    seed = gen.DEFAULT_SEED
    pairs = []
    for alpha in gen.cli_inputs(seed)["alphas"]:
        point, attractor = (cli_stdout(argv) for argv in gen.cli_calls(alpha))
        h_full = record(natext.entropy_at(Fraction(alpha)))["h_full"]
        pairs.append({"alpha": alpha, "point": point, "h_full": h_full, "attractor_sha256": checks.sha256(attractor)})

    rows = []
    for lo, hi, n in gen.curve_inputs(seed)["jobs"]:
        rows += [record(s) for s in natext.entropy_curve(Fraction(lo), Fraction(hi), n, jobs=1)]

    ladders = []
    for ladder in gen.deep_inputs(seed)["ladders"]:
        recs = []
        for entry in ladder:
            for kind in ("long", "short"):
                rec = record(natext.entropy_at(Fraction(entry[kind])))
                for key in ("alpha", "word", "err_bound"):
                    del rec[key]
                recs.append(rec)
        ladders.append(recs)
        print(f"deep ladder {len(ladders)} recorded", file=sys.stderr)

    h = {a: record(natext.entropy_at(Fraction(a))) for a in gen.cross_inputs(seed)["alphas"]}

    ref = {"cli": {"pairs": pairs}, "curve": {"rows": rows}, "deep": {"ladders": ladders}, "crosscheck": {"h": h}}
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    checks.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {checks.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
