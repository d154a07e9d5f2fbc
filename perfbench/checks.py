"""Correctness gates for every benchmark output.

The checks use mpmath and the standard library only; nothing here calls the
program under test.  An entropy output is a *record*: a dict with the
strings the CLI prints (``alpha``, ``word``, ``m0``, ``m1``, ``A`` and
``h`` to 30 digits, ``err_bound``) and, for in-process outputs, ``h_full``
with every digit of the working precision.

Every check returns a list of error messages; an empty list means the
output passed.  The default seed is also compared against reference outputs
recorded from the program (``reference/seed0.json``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from fractions import Fraction

import mpmath

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference" / "seed0.json"
PREC = 256  # checking precision, far above the program's default of 128 bits
LYAPUNOV_TOL = 0.02  # criterion 12: Monte Carlo estimate within 2% of the exact h
_SURD = re.compile(r"^\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/(\d+)$")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mpf(text: str) -> mpmath.mpf:
    with mpmath.workprec(PREC):
        return mpmath.mpf(text)


def exact_to_mpf(text: str) -> mpmath.mpf:
    """Value of the CLI's exact text form, "p/q" or "(p+q*sqrt(d))/r"."""
    with mpmath.workprec(PREC):
        m = _SURD.match(text)
        if m:
            p, sign, q, d, r = m.groups()
            q_val = int(q) if sign == "+" else -int(q)
            return (int(p) + q_val * mpmath.sqrt(int(d))) / int(r)
        x = Fraction(text)
        return mpmath.mpf(x.numerator) / x.denominator


def reflect_word(w: str) -> str:
    """Word on the other side of 1/2: reversed with 0 and 1 swapped."""
    return w[::-1].translate(str.maketrans("01", "10"))


def in_plateau(alpha: Fraction) -> bool:
    """alpha inside the qumterval of 01, (g^2, g) with g the golden mean:
    alpha < g iff alpha^2 + alpha < 1, and alpha > g^2 iff 1 - alpha < g."""
    b = 1 - alpha
    return alpha * alpha + alpha < 1 and b * b + b < 1


def plateau_value() -> mpmath.mpf:
    with mpmath.workprec(PREC):
        g = (mpmath.sqrt(5) - 1) / 2
        return mpmath.pi**2 / (6 * mpmath.log(1 + g))


def parse_point(stdout: str) -> dict:
    """Record from the stdout of `entropy point`; raises ValueError."""
    lines = stdout.splitlines()
    keys = ["alpha", "word", "m0 m1", "A", "h", "err_bound"]
    if len(lines) != len(keys):
        raise ValueError(f"expected {len(keys)} lines, got {len(lines)}")
    rec = {}
    for key, line in zip(keys, lines):
        if key == "m0 m1":
            m = re.fullmatch(r"m0=(\d+) m1=(\d+)", line)
            if not m:
                raise ValueError(f"bad line {line!r}")
            rec["m0"], rec["m1"] = m.groups()
            continue
        prefix = key + "="
        if not line.startswith(prefix):
            raise ValueError(f"bad line {line!r}")
        rec[key] = line[len(prefix):]
    return rec


def check_record(rec: dict, expected_word: str | None = None, ref: dict | None = None) -> list[str]:
    """Invariants of one entropy output, plus the reference when given.

    Against a reference, word (when the reference holds it), m0 and m1 match
    exactly and A and h match to the printed 30 digits.  err_bound is checked as a bound on the distance
    to the reference h, never as a string.
    """
    errs = []
    w = rec["word"]
    if not w or w.strip("01"):
        return [f"{rec['alpha']}: word {w!r} is not binary"]
    if (str(w.count("0")), str(w.count("1"))) != (str(rec["m0"]), str(rec["m1"])):
        errs.append(f"{rec['alpha']}: m0/m1 do not count the word")
    if expected_word is not None and w != expected_word:
        errs.append(f"{rec['alpha']}: word of length {len(w)} differs from the expected one")
    with mpmath.workprec(PREC):
        A, h, err = _mpf(rec["A"]), _mpf(rec["h"]), _mpf(rec["err_bound"])
        if not (A > 0 and h > 0 and 0 < err < 1e-20):
            errs.append(f"{rec['alpha']}: A, h or err_bound out of range")
        elif abs(h * A / (mpmath.pi**2 / 3) - 1) > mpmath.mpf(10) ** -28:
            errs.append(f"{rec['alpha']}: h * A != pi^2/3")
        if ref is not None:
            for key in ("word", "m0", "m1", "A", "h"):
                if key in ref and str(rec[key]) != str(ref[key]):
                    errs.append(f"{rec['alpha']}: {key} differs from the reference")
            h_ref = _mpf(ref["h_full"])
            if "h_full" in rec:
                gap, slack = abs(_mpf(rec["h_full"]) - h_ref), 0
            else:  # printed to 30 digits only: allow half a unit of the last one
                gap, slack = abs(h - h_ref), h * mpmath.mpf(10) ** -29 / 2
            if gap > err + slack:
                errs.append(f"{rec['alpha']}: |h - h_ref| = {mpmath.nstr(gap, 3)} exceeds err_bound")
    return errs


def rect_mass_sum(rects) -> mpmath.mpf:
    """Mass under dx dy / (1 + x y)^2 of rectangles given in exact text form."""
    with mpmath.workprec(PREC):
        total = mpmath.mpf(0)
        for r in rects:
            xl, xh = exact_to_mpf(r["x_lo"]["exact"]), exact_to_mpf(r["x_hi"]["exact"])
            yl, yh = exact_to_mpf(r["y_lo"]["exact"]), exact_to_mpf(r["y_hi"]["exact"])
            total += mpmath.log((1 + xh * yh) * (1 + xl * yl) / ((1 + xh * yl) * (1 + xl * yh)))
        return total


def check_cli_pair(alpha: str, point_out: str, attractor_out: str, ref: dict | None = None) -> tuple[list[str], list[str]]:
    """Check one `entropy point` / `attractor --json` pair at the same alpha.

    Returns the errors of each call.  Against a reference, the
    `entropy point` lines are compared as check_record does and the
    attractor stdout by its SHA-256.  The attractor's rectangles
    must carry exactly the mass A that `entropy point` printed, and its word
    must be the point's word on the side at or below 1/2.
    """
    errs_point: list[str] = []
    errs_attr: list[str] = []
    rec = None
    try:
        rec = parse_point(point_out)
    except ValueError as exc:
        errs_point.append(f"{alpha}: entropy point output: {exc}")
    if rec is not None:
        if rec["alpha"] != alpha:
            errs_point.append(f"{alpha}: entropy point echoed alpha {rec['alpha']}")
        ref_rec = None if ref is None else {**parse_point(ref["point"]), "h_full": ref["h_full"]}
        errs_point += check_record(rec, ref=ref_rec)
    try:
        payload = json.loads(attractor_out)
    except json.JSONDecodeError as exc:
        errs_attr.append(f"{alpha}: attractor output is not JSON: {exc}")
        payload = None
    if payload is not None:
        a = Fraction(alpha)
        base = a if a <= Fraction(1, 2) else 1 - a
        if payload.get("alpha") != f"{base.numerator}/{base.denominator}":
            errs_attr.append(f"{alpha}: attractor alpha {payload.get('alpha')}")
        if payload.get("reflected") != (a != base):
            errs_attr.append(f"{alpha}: attractor reflected flag is wrong")
        if rec is not None:
            word = rec["word"] if a == base else reflect_word(rec["word"])
            if payload.get("word") != word:
                errs_attr.append(f"{alpha}: attractor word differs from entropy point's")
            with mpmath.workprec(PREC):
                A = _mpf(rec["A"])
                mass = rect_mass_sum(payload.get("rects", []))
                if abs(mass / A - 1) > mpmath.mpf(10) ** -28:
                    errs_attr.append(f"{alpha}: rectangles carry mass {mpmath.nstr(mass, 12)} != A")
        if ref is not None and sha256(attractor_out) != ref["attractor_sha256"]:
            errs_attr.append(f"{alpha}: attractor stdout differs from the reference")
    return errs_point, errs_attr


def check_curve(records: list[dict], ref_rows: list[dict] | None = None) -> tuple[int, list[str]]:
    """Invariants of one figure pass, and the reference when given.

    Plateau samples (inside the qumterval of 01) must lie in that
    qumterval and equal pi^2 / (6 log(1+g)) within err_bound; h(alpha) and
    h(1 - alpha) must agree within their bounds wherever both are sampled.
    Returns (number of failed samples, errors).
    """
    bad: set[int] = set()
    errs: list[str] = []
    if ref_rows is not None and len(ref_rows) != len(records):
        errs.append(f"pass has {len(records)} samples, the reference {len(ref_rows)}")
        bad.update(range(len(records)))
        ref_rows = None
    plateau = plateau_value()
    index = {rec["alpha"]: i for i, rec in enumerate(records)}
    for i, rec in enumerate(records):
        e = check_record(rec, ref=ref_rows[i] if ref_rows else None)
        alpha = Fraction(rec["alpha"])
        with mpmath.workprec(PREC):
            if in_plateau(alpha):
                if rec["word"] != "01":
                    e.append(f"{rec['alpha']}: plateau sample has word {rec['word']!r}")
                if abs(_mpf(rec["h_full"]) - plateau) > _mpf(rec["err_bound"]):
                    e.append(f"{rec['alpha']}: plateau sample differs from pi^2/(6 log(1+g))")
            j = index.get(f"{(1 - alpha).numerator}/{(1 - alpha).denominator}")
            if j is not None and j > i:
                other = records[j]
                gap = abs(_mpf(rec["h_full"]) - _mpf(other["h_full"]))
                if gap > _mpf(rec["err_bound"]) + _mpf(other["err_bound"]):
                    e.append(f"{rec['alpha']}: h(alpha) != h(1 - alpha)")
                    bad.add(j)
                if other["word"] != reflect_word(rec["word"]):
                    e.append(f"{rec['alpha']}: word at 1 - alpha is not the reflected word")
                    bad.add(j)
        if e:
            bad.add(i)
            errs += e
    return len(bad), errs


def check_cross(h_full: str, estimate: float, alpha: str) -> list[str]:
    h = float(_mpf(h_full))
    rel = abs(estimate - h) / h
    if rel > LYAPUNOV_TOL:
        return [f"{alpha}: Lyapunov estimate {estimate:.6f} is {rel:.2%} from h = {h:.6f}"]
    return []
