"""Command-line surface.

Deterministic, scriptable output: exact values by default (canonical text
forms), decimal columns on request, no timestamps.  Exit codes: 0 success,
2 validation error, 1 failed internal check, 141 closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction

from . import bifurcation as bf
from . import cfstrings as cfs
from . import exactnum as ex
from . import kdynamics as kd
from . import lyapunov as ly
from . import natext as nx
from . import words as wd


def _emit(args, text: str) -> None:
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:  # a path that cannot be written is bad input
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with out as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _emit_json(args, payload) -> None:
    import json  # only the actions that print JSON load it

    _emit(args, json.dumps(payload, indent=2))


def _nstr(x, digits: int) -> str:
    """`digits` significant digits of an exact value, rounded to a binary
    float of max(DEFAULT_PRECISION, 3.4 digits + 16) bits first."""
    bits = max(ex.DEFAULT_PRECISION, int(digits * 3.4) + 16)
    return ex.decimal_text(ex.to_raw(x, bits), digits, strip_zeros=False)


def _mobius_json(m: ex.Mobius) -> list[list[int]]:
    return [[m.a, m.b], [m.c, m.d]]


class _Selftest(argparse.Action):
    """`--selftest`: run the invariant suites of the modules in `const` and
    exit while parsing, as `--version` does, so no action word or required
    option blocks it."""

    def __call__(self, parser, namespace, values, option_string=None):
        ok = True
        for mod in self.const:
            for name, passed in mod.selftest():
                print(f"[{'ok' if passed else 'FAIL'}] {mod.__name__.split('.')[-1]}: {name}")
                ok = ok and passed
        parser.exit(0 if ok else 1)


def precision_bits(text: str) -> int:
    """The type of `--precision`: whole bits, at least `MIN_PRECISION`."""
    bits = int(text)
    if bits < ex.MIN_PRECISION:
        raise argparse.ArgumentTypeError(f"precision must be >= {ex.MIN_PRECISION}")
    return bits


def decimal_digits(text: str) -> int:
    """The type of `--decimals`: a whole number of digits, at least 1."""
    digits = int(text)
    if digits < 1:
        raise argparse.ArgumentTypeError("decimals must be >= 1")
    return digits


# ---------------------------------------------------------------------------
# action handlers
# ---------------------------------------------------------------------------


def cmd_farey_list(args) -> int:
    _emit(args, " ".join(wd.farey_list(args.level)))
    return 0


def cmd_farey_word(args) -> int:
    _emit(args, wd.word_from_rational(ex.parse_fraction(args.rational)))
    return 0


def cmd_qumterval_atlas(args) -> int:
    rows = bf.atlas(args.max_len)
    if args.format == "json":
        payload = [
            {
                "word": q.word,
                "S": cfs.format_cfstring(q.S),
                "alpha_minus": ex.format_exact(q.alpha_minus),
                "alpha_plus": ex.format_exact(q.alpha_plus),
                "pseudocenter": ex.format_exact(q.pseudocenter),
                "m0": q.m0,
                "m1": q.m1,
            }
            for q in rows
        ]
        _emit_json(args, payload)
    else:
        lines = ["word,S,alpha_minus,alpha_plus,pseudocenter,m0,m1"]
        for q in rows:
            lines.append(
                f'{q.word},"{cfs.format_cfstring(q.S)}",{_nstr(q.alpha_minus, 50)},{_nstr(q.alpha_plus, 50)},'
                f"{ex.format_exact(q.pseudocenter)},{q.m0},{q.m1}"
            )
        _emit(args, "\n".join(lines))
    return 0


def cmd_qumterval_info(args) -> int:
    if args.word is not None:
        q = bf.qumterval_of(args.word)
    else:
        q = bf.locate_qumterval(ex.parse_fraction(args.alpha))
    lines = [
        f"word={q.word}",
        f"S={cfs.format_cfstring(q.S)}",
        f"alpha_minus={ex.format_exact(q.alpha_minus)}",
        f"alpha_plus={ex.format_exact(q.alpha_plus)}",
        f"pseudocenter={ex.format_exact(q.pseudocenter)}",
        f"m0={q.m0} m1={q.m1}",
    ]
    if args.decimals:
        lines.insert(3, f"alpha_minus~{_nstr(q.alpha_minus, args.decimals)}")
        lines.insert(5, f"alpha_plus~{_nstr(q.alpha_plus, args.decimals)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_ebif_check(args) -> int:
    member = bf.eb_membership(ex.parse_fraction(args.x))
    _emit(args, "member" if member else "not-member")
    return 0


def cmd_ebif_interval(args) -> int:
    b = bf.bin_interval(args.word)
    _emit(
        args,
        f"word={b.word} a_minus={ex.format_exact(b.a_minus)} "
        f"a_plus={ex.format_exact(b.a_plus)} length={ex.format_exact(b.length)}",
    )
    return 0


def cmd_cardioid(args) -> int:
    tm, tp = bf.cardioid_angles(ex.parse_fraction(args.rational))
    _emit(args, f"theta_minus={ex.format_exact(tm)} theta_plus={ex.format_exact(tp)}")
    return 0


def cmd_orbit(args) -> int:
    alpha = ex.parse_fraction(args.alpha)
    rec = kd.orbit(alpha, ex.parse_fraction(args.x), args.steps)
    digits = args.decimals or 50
    zero = "0" + _nstr(1, digits)[1:]  # `decimal_text` prints an exact 0 as 0.0 at any digits
    lines = [f"step,point_exact,point_decimal{digits},digit"]
    for k, pt in enumerate(rec.points):
        digit = "" if k == 0 or rec.digits[k - 1] is None else str(rec.digits[k - 1])
        lines.append(f"{k},{ex.format_exact(pt)},{_nstr(pt, digits) if pt else zero},{digit}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_match_verify(args) -> int:
    report = kd.verify_matching(args.word, [ex.parse_fraction(a) for a in args.alpha])
    payload = {
        "word": report["word"],
        "M": _mobius_json(report["M"]),
        "M_prime": _mobius_json(report["M_prime"]),
        "TM": _mobius_json(ex.T * report["M"]),
        "m0": report["m0"],
        "m1": report["m1"],
        "identity_holds": report["identity_holds"],
        "alphas_checked": [
            {
                "alpha": ex.format_exact(entry["alpha"]),
                "status": entry["status"],
                **(
                    {"meet_point": ex.format_exact(entry["meet_point"])}
                    if "meet_point" in entry
                    else {}
                ),
            }
            for entry in report["alphas_checked"]
        ],
        "all_exact": report["all_exact"],
    }
    _emit_json(args, payload)
    return 0 if report["all_exact"] else 1


def cmd_attractor(args) -> int:
    if args.decimals is not None and not args.json:
        raise ValueError("--decimals needs --json: the text form prints exact values only")
    alpha = ex.parse_fraction(args.alpha)
    base = alpha if alpha <= Fraction(1, 2) else 1 - alpha
    attr = nx.build_attractor(base)
    if not args.json:
        lines = [f"word={attr.word} rects={len(attr.rects)}"]
        for r in attr.rects:
            lines.append(
                f"[{ex.format_exact(r.x_lo)}, {ex.format_exact(r.x_hi)}] x "
                f"[{ex.format_exact(r.y_lo)}, {ex.format_exact(r.y_hi)}]"
            )
        _emit(args, "\n".join(lines))
        return 0
    digits = args.decimals or 50

    def cell(v):
        return {"exact": ex.format_exact(v), "decimal": _nstr(v, digits)}

    payload = {
        "word": attr.word,
        "alpha": ex.format_exact(attr.alpha),
        "reflected": alpha != base,
        "corner_x": cell(attr.corner_x),
        "corner_y": cell(attr.corner_y),
        "h_levels_low": [cell(v) for v in attr.h_levels_low],
        "h_levels_high": [cell(v) for v in attr.h_levels_high],
        "v_levels": [cell(v) for v in attr.v_levels],
        "rects": [{k: cell(getattr(r, k)) for k in ("x_lo", "x_hi", "y_lo", "y_hi")} for r in attr.rects],
    }
    _emit_json(args, payload)
    return 0


def _sample_fields(s: nx.EntropySample) -> dict:
    """The printed fields of an entropy sample, in output order; the digit
    counts stay integers."""
    return {
        "alpha": ex.format_exact(s.alpha),
        "word": s.word,
        "m0": s.m0,
        "m1": s.m1,
        "A": ex.decimal_text(s.raw_A, 30, strip_zeros=False),
        "h": ex.decimal_text(s.raw_h, 30, strip_zeros=False),
        "err_bound": ex.decimal_text(s.raw_err, 5),
    }


def cmd_entropy_point(args) -> int:
    f = _sample_fields(nx.entropy_at(ex.parse_fraction(args.alpha), args.precision))
    lines = [f"alpha={f['alpha']}", f"word={f['word']}", f"m0={f['m0']} m1={f['m1']}"]
    lines += [f"{k}={f[k]}" for k in ("A", "h", "err_bound")]
    _emit(args, "\n".join(lines))
    return 0


def cmd_entropy_curve(args) -> int:
    rows = nx.entropy_curve(
        ex.parse_fraction(args.start),
        ex.parse_fraction(args.stop),
        args.samples,
        args.precision,
        jobs=args.jobs,
    )
    fields = [_sample_fields(s) for s in rows]
    if args.format == "json":
        _emit_json(args, fields)
    else:
        header = "alpha,word,m0,m1,A,h,err_bound"
        _emit(args, "\n".join([header] + [",".join(map(str, f.values())) for f in fields]))
    return 0


def cmd_probe_asymptotic(args) -> int:
    rows = nx._asymptotic_rows(args.N, args.precision)
    lines = ["N,alpha,h,target,ratio,A,A_minus_log"]
    for r in rows:
        lines.append(
            f"{r['N']},{ex.format_exact(r['alpha'])},"
            f"{ex.decimal_text(r['h'], 20)},{ex.decimal_text(r['target'], 20)},"
            f"{r['ratio']:.12f},{ex.decimal_text(r['A'], 20)},{r['A_minus_log']:.12f}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_probe_slope(args) -> int:
    rows = nx.slope_growth_probe(
        args.word, args.side, args.halvings, precision=args.precision
    )
    lines = ["halving,delta,word_length,excess_zeros,slope"]
    for r in rows:
        lines.append(
            f"{r['halving']},{ex.format_exact(r['delta'])},{r['word_length']},"
            f"{r['excess_zeros']},{r['slope']:.9f}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_probe_zeta(args) -> int:
    window, label = None, args.variant
    if args.window is not None:
        lo, hi = window = tuple(ex.parse_fraction(t) for t in args.window)
        label += f", window=[{ex.format_exact(lo)}, {ex.format_exact(hi)}]"
    total = bf.zeta_partial(args.s, args.depth, window, variant=args.variant)
    _emit(args, f"zeta_partial(s={args.s}, depth={args.depth}, {label})={total!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """The parser of a command or an action, built when argparse first
    reaches it: `add_parser` makes one per name, but `__init__` only keeps
    its arguments, and the first `parse_known_args` runs
    ArgumentParser.__init__ on them and then `declare(parser)`, which adds
    its options, actions or both.  argparse reads nothing else of a parser
    it has not reached: the parent's help and usage list the names."""

    def __init__(self, *args, declare, **kwargs):
        self._pending = args, kwargs, declare

    def _parse_optional(self, arg_string):
        # a minus and a digit open a value, such as the fraction -6/7 that
        # argparse would take for an option: no option here starts so
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def parse_known_args(self, args=None, namespace=None):
        pending = vars(self).pop("_pending", None)
        if pending is not None:
            init_args, init_kwargs, declare = pending
            super().__init__(*init_args, **init_kwargs)
            declare(self)
        return super().parse_known_args(args, namespace)


def _option(*flags, **kwargs):
    """The declaration of one option of an action."""
    return lambda p: p.add_argument(*flags, **kwargs)


def _one_of(*flags):
    """The declaration of a required choice of one option among `flags`."""

    def declare(p):
        group = p.add_mutually_exclusive_group(required=True)
        for flag in flags:
            group.add_argument(flag)

    return declare


def build_parser() -> argparse.ArgumentParser:
    """The parser: each action is one leaf, which registers only the options
    its handler reads and names that handler as `run`.  The commands are
    declared here; the rest of each is declared when it is parsed
    (`_Parser`), so a call builds the parsers and options of its own path."""
    parser = argparse.ArgumentParser(
        prog="fareycf",
        description="Exact Farey-word combinatorics, matching intervals and entropy",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help, modules, declare):
        """A subcommand: its --selftest runs the suites of `modules`, then
        `declare` adds its actions or its options."""

        def declare_command(p):
            p.add_argument(
                "--selftest", action=_Selftest, nargs=0, const=modules, default=argparse.SUPPRESS,
                help="run the module invariant suites and exit",
            )
            declare(p)

        sub.add_parser(name, help=help, declare=declare_command)

    def actions(**leaves):
        """The actions of a subcommand, each a leaf of its own."""

        def declare(p):
            group = p.add_subparsers(dest="action", required=True)
            for name, declare_leaf in leaves.items():
                group.add_parser(name, declare=declare_leaf)

        return declare

    def leaf(run, *options, precision=False, decimals=False):
        """An action: its handler, --out, and --precision or --decimals
        where the handler reads them, then `options`."""

        def declare(p):
            p.set_defaults(run=run)
            p.add_argument("--out", help="write output to a file instead of stdout")
            if precision:
                p.add_argument("--precision", type=precision_bits, help="working precision in bits (>= 64)")
            if decimals:
                p.add_argument("--decimals", type=decimal_digits, help="append decimal approximations")
            for option in options:
                option(p)

        return declare

    command("farey", "word lists and the slope bijection", (wd,), actions(
        list=leaf(cmd_farey_list, _option("--level", type=int, required=True)),
        word=leaf(cmd_farey_word, _option("--rational", required=True)),
    ))
    command("qumterval", "parameter intervals of the matching words", (bf,), actions(
        info=leaf(cmd_qumterval_info, _one_of("--word", "--alpha"), decimals=True),
        atlas=leaf(
            cmd_qumterval_atlas,
            _option("--max-len", type=int, required=True),
            _option("--format", choices=["json", "csv"], default="json"),
        ),
    ))
    command("ebif", "the doubling-map constraint set", (bf,), actions(
        check=leaf(cmd_ebif_check, _option("--x", required=True)),
        interval=leaf(cmd_ebif_interval, _option("--word", required=True)),
    ))
    command("cardioid", "angles of parameter rays on the main cardioid", (bf,), leaf(
        cmd_cardioid, _option("--rational", required=True),
    ))
    command("orbit", "exact orbit of a point (CSV)", (kd,), leaf(
        cmd_orbit,
        _option("--alpha", required=True),
        _option("--x", required=True),
        _option("--steps", type=int, required=True),
        decimals=True,
    ))
    command("match", "matching certificates", (kd,), actions(
        verify=leaf(cmd_match_verify, _option("--word", required=True), _option("--alpha", action="append", required=True)),
    ))
    command("attractor", "exact rectangle decomposition", (nx,), leaf(
        cmd_attractor, _option("--alpha", required=True), _option("--json", action="store_true"), decimals=True,
    ))
    command("entropy", "entropy at a point or along a curve", (nx,), actions(
        point=leaf(cmd_entropy_point, _option("--alpha", required=True), precision=True),
        curve=leaf(
            cmd_entropy_curve,
            _option("--from", dest="start", required=True),
            _option("--to", dest="stop", required=True),
            _option("--samples", type=int, required=True),
            _option("--jobs", type=int, default=1),
            _option("--format", choices=["csv", "json"], default="csv"),
            precision=True,
        ),
    ))
    command("probe", "asymptotic, slope-growth and zeta probes", (nx, ly), actions(
        asymptotic=leaf(cmd_probe_asymptotic, _option("--N", action="append", type=int, required=True), precision=True),
        slope=leaf(
            cmd_probe_slope,
            _option("--word", required=True),
            _option("--side", choices=["plus", "minus"], default="plus"),
            _option("--halvings", type=int, default=8),
            precision=True,
        ),
        zeta=leaf(
            cmd_probe_zeta,
            _option("--s", type=float, default=0.25),
            _option("--depth", type=int, default=12),
            _option("--variant", choices=["qumterval", "binary"], default="qumterval"),
            _option("--window", nargs=2, metavar=("LO", "HI"), default=None, help="keep intervals meeting (LO, HI)"),
        ),
    ))
    return parser


def main(argv=None) -> int:
    """One call of the command line on `argv` (default: the process's
    arguments); returns its exit code and leaves the process running."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed usage, or --selftest ran
        return int(exc.code or 0)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the final
        # flush at exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of `python -m fareycf` and the `fareycf` script:
    `main()`, then flush stdout and stderr and leave by `os._exit`, which
    skips the interpreter's teardown.  Nothing is lost: `--out` files are
    closed by `_emit`, a `--jobs` pool is joined before `main` returns, and
    the package registers no atexit handler.  An exception that escapes
    `main` exits as Python exits on it.  A closed stdout at the flush exits
    141 quietly; any other failed flush is left to the interpreter's exit,
    which reports it."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 141  # the reader left before the end: the buffer is dropped
    except OSError:
        sys.exit(code)  # the interpreter's exit reports the failed flush
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
