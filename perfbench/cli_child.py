"""One traced CLI call in a fresh interpreter.

Usage: cli_child.py ARG...   (the arguments of `python -m fareycf`)

Imports fareycf, installs the tracer, calls `fareycf.cli.main(argv)` with
stdout captured, and prints one JSON line: the exit code, the captured
stdout and the tracer's raw totals.  run.py compares the captured stdout
byte for byte with an untraced `python -m fareycf` call.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import tracer as tr

import fareycf.cli


def main(argv: list[str]) -> int:
    t = tr.Tracer()
    buf = io.StringIO()
    with redirect_stdout(buf), t.op():
        code = fareycf.cli.main(argv)
    print(json.dumps({"code": code, "stdout": buf.getvalue(), "trace": t.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
