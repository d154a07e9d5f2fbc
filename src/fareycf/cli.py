"""Command-line surface.

Deterministic, scriptable output: exact values by default (canonical text
forms), decimal columns on request, no timestamps.  Exit codes: 0 success,
2 validation error, 1 failed internal check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from . import bifurcation as bf
from . import cfstrings as cfs
from . import exactnum as ex
from . import kdynamics as kd
from . import lyapunov as ly
from . import natext as nx
from . import precision as prec
from . import words as wd


def _parse_word(text: str) -> str:
    if not wd.is_farey(text):
        raise ValueError(f"{text!r} is not a word of the family")
    return text


def _open_out(args):
    return open(args.out, "w") if args.out else sys.stdout


def _emit(args, text: str) -> None:
    out = _open_out(args)
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")
    if out is not sys.stdout:
        out.close()


def _nstr(x, digits: int) -> str:
    with prec.working_precision(max(prec.checked_precision(None), int(digits * 3.4) + 16)):
        return mpmath.nstr(ex.to_mpf(x), digits, strip_zeros=False)


def _mobius_json(m: ex.Mobius) -> list[list[int]]:
    return [[m.a, m.b], [m.c, m.d]]


def _run_selftest(modules) -> int:
    ok = True
    for mod in modules:
        for name, passed in mod.selftest():
            print(f"[{'ok' if passed else 'FAIL'}] {mod.__name__.split('.')[-1]}: {name}")
            ok = ok and passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_farey(args) -> int:
    if args.selftest:
        return _run_selftest([wd])
    if args.action == "list":
        if args.level is None:
            raise ValueError("farey list needs --level")
        _emit(args, " ".join(wd.farey_list(args.level)))
    elif args.action == "word":
        if args.rational is None:
            raise ValueError("farey word needs --rational")
        _emit(args, wd.word_from_rational(ex.parse_fraction(args.rational)))
    return 0


def cmd_qumterval(args) -> int:
    if args.selftest:
        return _run_selftest([bf])
    if args.action == "atlas":
        if args.max_len is None:
            raise ValueError("qumterval atlas needs --max-len")
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
            _emit(args, json.dumps(payload, indent=2))
        else:
            lines = ["word,S,alpha_minus,alpha_plus,pseudocenter,m0,m1"]
            for q in rows:
                lines.append(
                    ",".join(
                        [
                            q.word,
                            '"' + cfs.format_cfstring(q.S) + '"',
                            _nstr(q.alpha_minus, 50),
                            _nstr(q.alpha_plus, 50),
                            ex.format_exact(q.pseudocenter),
                            str(q.m0),
                            str(q.m1),
                        ]
                    )
                )
            _emit(args, "\n".join(lines))
        return 0
    if args.word:
        q = bf.qumterval_of(_parse_word(args.word))
    elif args.alpha:
        q = bf.locate_qumterval(ex.parse_fraction(args.alpha))
    else:
        raise ValueError("qumterval info needs --word or --alpha")
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


def cmd_ebif(args) -> int:
    if args.selftest:
        return _run_selftest([bf])
    if args.action == "check":
        if args.x is None:
            raise ValueError("ebif check needs --x")
        member = bf.eb_membership(ex.parse_fraction(args.x))
        _emit(args, "member" if member else "not-member")
    elif args.action == "interval":
        if args.word is None:
            raise ValueError("ebif interval needs --word")
        b = bf.bin_interval(_parse_word(args.word))
        _emit(
            args,
            f"word={b.word} a_minus={ex.format_exact(b.a_minus)} "
            f"a_plus={ex.format_exact(b.a_plus)} length={ex.format_exact(b.length)}",
        )
    return 0


def cmd_cardioid(args) -> int:
    if args.selftest:
        return _run_selftest([bf])
    if args.rational is None:
        raise ValueError("cardioid needs --rational")
    tm, tp = bf.cardioid_angles(ex.parse_fraction(args.rational))
    _emit(args, f"theta_minus={ex.format_exact(tm)} theta_plus={ex.format_exact(tp)}")
    return 0


def cmd_orbit(args) -> int:
    if args.selftest:
        return _run_selftest([kd])
    if args.alpha is None or args.x is None or args.steps is None:
        raise ValueError("orbit needs --alpha, --x and --steps")
    alpha = ex.parse_fraction(args.alpha)
    rec = kd.orbit(alpha, ex.parse_fraction(args.x), args.steps)
    digits = args.decimals or 50
    lines = ["step,point_exact,point_decimal50,digit"]
    for k, pt in enumerate(rec.points):
        digit = "" if k == 0 or rec.digits[k - 1] is None else str(rec.digits[k - 1])
        lines.append(f"{k},{ex.format_exact(pt)},{_nstr(pt, digits)},{digit}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_match(args) -> int:
    if args.selftest:
        return _run_selftest([kd])
    if args.word is None or not args.alpha:
        raise ValueError("match verify needs --word and at least one --alpha")
    report = kd.verify_matching(
        _parse_word(args.word), [ex.parse_fraction(a) for a in args.alpha]
    )
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
    _emit(args, json.dumps(payload, indent=2))
    return 0 if report["all_exact"] else 1


def cmd_attractor(args) -> int:
    if args.selftest:
        return _run_selftest([nx])
    if args.alpha is None:
        raise ValueError("attractor needs --alpha")
    alpha = ex.parse_fraction(args.alpha)
    base = alpha if alpha <= Fraction(1, 2) else 1 - alpha
    attr = nx.build_attractor(base)
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
        "rects": [
            {
                "x_lo": cell(r.x_lo),
                "x_hi": cell(r.x_hi),
                "y_lo": cell(r.y_lo),
                "y_hi": cell(r.y_hi),
            }
            for r in attr.rects
        ],
    }
    if args.json:
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"word={attr.word} rects={len(attr.rects)}"]
        for r in attr.rects:
            lines.append(
                f"[{ex.format_exact(r.x_lo)}, {ex.format_exact(r.x_hi)}] x "
                f"[{ex.format_exact(r.y_lo)}, {ex.format_exact(r.y_hi)}]"
            )
        _emit(args, "\n".join(lines))
    return 0


def _sample_fields(s: nx.EntropySample) -> dict:
    """The printed fields of an entropy sample, in output order; the digit
    counts stay integers."""
    return {
        "alpha": ex.format_exact(s.alpha),
        "word": s.word,
        "m0": s.m0,
        "m1": s.m1,
        "A": mpmath.nstr(s.A, 30, strip_zeros=False),
        "h": mpmath.nstr(s.h, 30, strip_zeros=False),
        "err_bound": mpmath.nstr(s.err_bound, 5),
    }


def cmd_entropy(args) -> int:
    if args.selftest:
        return _run_selftest([nx])
    precision = args.precision
    if args.action == "point":
        if args.alpha is None:
            raise ValueError("entropy point needs --alpha")
        f = _sample_fields(nx.entropy_at(ex.parse_fraction(args.alpha), precision))
        lines = [f"alpha={f['alpha']}", f"word={f['word']}", f"m0={f['m0']} m1={f['m1']}"]
        lines += [f"{k}={f[k]}" for k in ("A", "h", "err_bound")]
        _emit(args, "\n".join(lines))
        return 0
    if args.action == "curve":
        if args.start is None or args.stop is None or args.samples is None:
            raise ValueError("entropy curve needs --from, --to and --samples")
        rows = nx.entropy_curve(
            ex.parse_fraction(args.start),
            ex.parse_fraction(args.stop),
            args.samples,
            precision,
            jobs=args.jobs,
        )
        fields = [_sample_fields(s) for s in rows]
        if args.format == "json":
            _emit(args, json.dumps(fields, indent=2))
        else:
            header = "alpha,word,m0,m1,A,h,err_bound"
            _emit(args, "\n".join([header] + [",".join(map(str, f.values())) for f in fields]))
        return 0
    raise ValueError("entropy needs an action: point or curve")


def cmd_probe(args) -> int:
    if args.selftest:
        return _run_selftest([nx, ly])
    if args.action == "asymptotic":
        if not args.N:
            raise ValueError("probe asymptotic needs --N (repeatable)")
        rows = nx.asymptotic_probe(args.N, args.precision)
        lines = ["N,alpha,h,target,ratio,A,A_minus_log"]
        for r in rows:
            lines.append(
                f"{r['N']},{ex.format_exact(r['alpha'])},"
                f"{mpmath.nstr(r['h'], 20)},{mpmath.nstr(r['target'], 20)},"
                f"{r['ratio']:.12f},{mpmath.nstr(r['A'], 20)},{r['A_minus_log']:.12f}"
            )
        _emit(args, "\n".join(lines))
        return 0
    if args.action == "slope":
        if args.word is None:
            raise ValueError("probe slope needs --word")
        rows = nx.slope_growth_probe(
            _parse_word(args.word), args.side, args.halvings, precision=args.precision
        )
        lines = ["halving,delta,word_length,excess_zeros,slope"]
        for r in rows:
            lines.append(
                f"{r['halving']},{ex.format_exact(r['delta'])},{r['word_length']},"
                f"{r['excess_zeros']},{r['slope']:.9f}"
            )
        _emit(args, "\n".join(lines))
        return 0
    if args.action == "zeta":
        window, label = None, args.variant
        if args.window is not None:
            lo, hi = (ex.parse_fraction(t) for t in args.window)
            if not 0 <= lo < hi <= 1:
                raise ValueError("--window needs 0 <= LO < HI <= 1")
            window = (lo, hi)
            label += f", window=[{ex.format_exact(lo)}, {ex.format_exact(hi)}]"
        total = bf.zeta_partial(args.s, args.depth, window, variant=args.variant)
        _emit(args, f"zeta_partial(s={args.s}, depth={args.depth}, {label})={total!r}")
        return 0
    raise ValueError("probe needs an action: asymptotic, slope or zeta")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareycf",
        description="Exact Farey-word combinatorics, matching intervals and entropy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, precision=False, decimals=False):
        """The flags of every subcommand, plus --precision and --decimals
        where the handler reads them."""
        if precision:
            p.add_argument("--precision", type=int, default=None, help="working precision in bits (>= 64)")
        if decimals:
            p.add_argument("--decimals", type=int, default=None, help="append decimal approximations")
        p.add_argument("--selftest", action="store_true", help="run the module invariant suite")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("farey", help="word lists and the slope bijection")
    p.add_argument("action", nargs="?", choices=["list", "word"])
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--rational", default=None)
    common(p)

    p = sub.add_parser("qumterval", help="parameter intervals of the matching words")
    p.add_argument("action", nargs="?", choices=["info", "atlas"], default="info")
    p.add_argument("--word", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p, decimals=True)

    p = sub.add_parser("ebif", help="the doubling-map constraint set")
    p.add_argument("action", nargs="?", choices=["check", "interval"])
    p.add_argument("--x", default=None)
    p.add_argument("--word", default=None)
    common(p)

    p = sub.add_parser("cardioid", help="angles of parameter rays on the main cardioid")
    p.add_argument("--rational", default=None)
    common(p)

    p = sub.add_parser("orbit", help="exact orbit of a point (CSV)")
    p.add_argument("--alpha", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--steps", type=int, default=None)
    common(p, decimals=True)

    p = sub.add_parser("match", help="matching certificates")
    p.add_argument("action", nargs="?", choices=["verify"], default="verify")
    p.add_argument("--word", default=None)
    p.add_argument("--alpha", action="append", default=[])
    common(p)

    p = sub.add_parser("attractor", help="exact rectangle decomposition")
    p.add_argument("--alpha", default=None)
    p.add_argument("--json", action="store_true")
    common(p, decimals=True)

    p = sub.add_parser("entropy", help="entropy at a point or along a curve")
    p.add_argument("action", nargs="?", choices=["point", "curve"])
    p.add_argument("--alpha", default=None)
    p.add_argument("--from", dest="start", default=None)
    p.add_argument("--to", dest="stop", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p, precision=True)

    p = sub.add_parser("probe", help="asymptotic, slope-growth and zeta probes")
    p.add_argument("action", nargs="?", choices=["asymptotic", "slope", "zeta"])
    p.add_argument("--N", action="append", type=int, default=[])
    p.add_argument("--word", default=None)
    p.add_argument("--side", choices=["plus", "minus"], default="plus")
    p.add_argument("--halvings", type=int, default=8)
    p.add_argument("--s", type=float, default=0.25)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--variant", choices=["qumterval", "binary"], default="qumterval")
    p.add_argument("--window", nargs=2, metavar=("LO", "HI"), default=None, help="zeta: keep intervals meeting (LO, HI)")
    common(p, precision=True)

    return parser


_HANDLERS = {
    "farey": cmd_farey,
    "qumterval": cmd_qumterval,
    "ebif": cmd_ebif,
    "cardioid": cmd_cardioid,
    "orbit": cmd_orbit,
    "match": cmd_match,
    "attractor": cmd_attractor,
    "entropy": cmd_entropy,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    if getattr(args, "precision", None) is not None and args.precision < prec.MIN_PRECISION:
        print(f"error: precision must be >= {prec.MIN_PRECISION}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
