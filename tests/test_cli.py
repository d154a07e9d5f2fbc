import hashlib
import json
import os
import shlex
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

import fareycf
from fareycf import bifurcation as bf
from fareycf import words as wd
from fareycf.cli import build_parser, main
from fareycf.exactnum import format_exact


def child_env(**extra):
    """The environment of a child interpreter: this checkout's `src` ahead of
    the inherited PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(fareycf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_farey_list_display(self, capsys):
        code, out, _ = run(capsys, "farey", "list", "--level", "2")
        assert code == 0 and out.strip() == "0 001 01 011 1"

    def test_farey_word(self, capsys):
        code, out, _ = run(capsys, "farey", "word", "--rational", "2/5")
        assert code == 0 and out.strip() == "00101"

    def test_cardioid_example(self, capsys):
        code, out, _ = run(capsys, "cardioid", "--rational", "2/5")
        assert code == 0 and out.strip() == "theta_minus=9/31 theta_plus=10/31"

    def test_match_certificate(self, capsys):
        code, out, _ = run(capsys, "match", "verify", "--word", "01", "--alpha", "1/2")
        assert code == 0
        payload = json.loads(out)
        # T * M is [[1,1],[1,2]]: with M = [[0,-1],[1,2]] stored here
        assert payload["M"] == [[0, -1], [1, 2]]
        assert payload["identity_holds"] and payload["all_exact"]
        assert payload["alphas_checked"][0]["status"] == "exact"

    def test_match_outside_alpha_fails(self, capsys):
        code, out, _ = run(capsys, "match", "verify", "--word", "01", "--alpha", "1/5")
        assert code == 1
        assert json.loads(out)["alphas_checked"][0]["status"] == "outside"

    def test_ebif(self, capsys):
        assert run(capsys, "ebif", "check", "--x", "5/31")[1].strip() == "member"
        assert run(capsys, "ebif", "check", "--x", "1/4")[1].strip() == "not-member"
        _, out, _ = run(capsys, "ebif", "interval", "--word", "00101")
        assert "a_minus=9/62" in out and "a_plus=5/31" in out

    def test_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", "--alpha", "1/3", "--x=-2/3", "--steps", "2")
        lines = out.strip().splitlines()
        assert lines[0] == "step,point_exact,point_decimal50,digit"
        assert lines[1].startswith("0,-2/3,")
        assert lines[2].startswith("1,-1/2,") and lines[2].endswith(",2")
        _, out, _ = run(capsys, "orbit", "--alpha", "1/3", "--x=-2/3", "--steps", "2", "--decimals", "3")
        assert out.splitlines() == [
            "step,point_exact,point_decimal3,digit",
            "0,-2/3,-0.667,",
            "1,-1/2,-0.500,2",
            "2,0/1,0.00,2",  # an exact zero takes the column's digits
        ]

    def test_qumterval_info_and_locate(self, capsys):
        _, out, _ = run(capsys, "qumterval", "info", "--word", "001")
        assert "alpha_plus=(-1+1*sqrt(3))/2" in out
        assert "alpha_minus=(2-1*sqrt(3))/1" in out
        assert "pseudocenter=1/3" in out
        _, out, _ = run(capsys, "qumterval", "info", "--alpha", "4/15")
        assert "word=0001001" in out

    def test_qumterval_atlas_json(self, capsys):
        code, out, _ = run(capsys, "qumterval", "atlas", "--max-len", "3", "--format", "json")
        rows = json.loads(out)
        assert [r["word"] for r in rows] == ["001", "01", "011"]
        assert rows[1]["pseudocenter"] == "1/2"

    def test_qumterval_atlas_csv(self, capsys):
        code, out, _ = run(capsys, "qumterval", "atlas", "--max-len", "3", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "word,S,alpha_minus,alpha_plus,pseudocenter,m0,m1"
        assert lines[1].startswith('001,"[2,1]",0.2679491924311227064725536584941276330571947461896')
        assert lines[1].endswith(",1/3,2,1")

    def test_attractor_json(self, capsys):
        code, out, _ = run(capsys, "attractor", "--alpha", "9/20", "--json")
        payload = json.loads(out)
        assert payload["word"] == "01"
        assert len(payload["rects"]) == 3
        assert payload["corner_x"]["exact"] == "(-1+1*sqrt(5))/2"

    def test_entropy_point(self, capsys):
        code, out, _ = run(capsys, "entropy", "point", "--alpha", "9/20")
        assert code == 0
        assert "h=3.4183159706112438529" in out

    def test_entropy_curve_csv(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "entropy",
            "curve",
            "--from",
            "2/5",
            "--to",
            "3/5",
            "--samples",
            "5",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "alpha,word,m0,m1,A,h,err_bound"
        assert len(lines) == 6

    def test_entropy_curve_of_an_empty_grid(self, capsys):
        # both points round onto the same grid point outside the range: the
        # header alone, with or without worker processes
        argv = ("entropy", "curve", "--from", "1000000/3000001", "--to", "1000001/3000001", "--samples", "2")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "alpha,word,m0,m1,A,h,err_bound\n", "")
        assert run(capsys, *argv, "--jobs", "2") == (code, out, err)

    def test_probe_asymptotic(self, capsys):
        code, out, _ = run(capsys, "probe", "asymptotic", "--N", "10", "--N", "20")
        lines = out.strip().splitlines()
        assert lines[0].startswith("N,alpha,h,target,ratio")
        assert lines[1].startswith("10,1/11,")

    def test_probe_slope_on_a_1500_letter_word(self, capsys):
        # endpoints with more than a thousand continued-fraction digits; the
        # default precision follows the 2099-letter mediant, whose entropy
        # difference 128 bits cannot resolve: the probe says so instead of
        # printing 0
        word = wd.word_from_rational(Fraction(601, 1500))
        code, out, _ = run(capsys, "probe", "slope", "--word", word, "--halvings", "0")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("halving,") and row == "0,1/8,2099,417,1194.322569450"
        code, out, err = run(capsys, "probe", "slope", "--word", word, "--halvings", "0", "--precision", "128")
        assert code == 2 and out == "" and "error bound at 128 bits" in err

    def test_probe_zeta(self, capsys):
        code, out, _ = run(capsys, "probe", "zeta", "--s", "1.0", "--depth", "10", "--variant", "binary")
        assert code == 0 and "zeta_partial" in out

    def test_probe_zeta_window(self, capsys):
        code, out, _ = run(capsys, "probe", "zeta", "--s", "0.25", "--depth", "14", "--window", "1/3", "1/2")
        assert code == 0
        assert out == "zeta_partial(s=0.25, depth=14, qumterval, window=[1/3, 1/2])=2.486031236895033\n"
        assert run(capsys, "probe", "zeta", "--window", "1/2", "1/3")[0] == 2
        assert run(capsys, "probe", "zeta", "--window", "0", "3/2")[0] == 2


class TestBehaviour:
    def test_deterministic_reruns(self, capsys):
        a = run(capsys, "entropy", "point", "--alpha", "4/15")
        b = run(capsys, "entropy", "point", "--alpha", "4/15")
        assert a == b

    def test_validation_errors_exit_2(self, capsys, tmp_path):
        assert run(capsys, "farey", "list", "--level", "99")[0] == 2
        assert run(capsys, "entropy", "point", "--alpha", "3/2")[0] == 2
        assert run(capsys, "qumterval", "info", "--word", "0011")[0] == 2
        assert run(capsys, "entropy", "point")[0] == 2
        for argv in (
            ("farey",),
            ("farey", "--level", "3"),
            ("ebif", "--x", "1/3"),
            ("qumterval", "info", "--alpha", "1/3", "--word", "01"),
            ("entropy", "curve", "--from", "1/5", "--to", "1/4", "--samples", "2", "--jobs", "0"),
            ("entropy", "curve", "--from", "1/5", "--to", "1/4", "--samples", "2", "--jobs", "-4"),
            ("qumterval", "info", "--alpha", "1/3", "--decimals", "-5"),
            ("orbit", "--alpha", "1/3", "--x", "1/5", "--steps", "2", "--decimals", "-5"),
            ("qumterval", "info", "--alpha", "1/3", "--decimals", "0"),
            ("orbit", "--alpha", "1/3", "--x", "1/5", "--steps", "2", "--decimals", "0"),
            ("attractor", "--alpha", "1/3", "--json", "--decimals", "0"),
            ("attractor", "--alpha", "1/3", "--decimals", "5"),
            ("probe", "zeta", "--depth", "0"),
            ("probe", "zeta", "--depth", "-3"),
            ("probe", "zeta", "--s", "nan", "--depth", "3"),
            ("probe", "zeta", "--s", "inf", "--depth", "3"),
            ("probe", "slope", "--word", "001", "--halvings", "-1"),
            ("farey", "list", "--level", "2", "--out", str(tmp_path / "missing" / "x")),
            ("farey", "list", "--level", "2", "--out", str(tmp_path)),
            ("entropy", "point", "--alpha", "9/20x"),
            ("entropy", "point", "--alpha", "1//2"),
            ("entropy", "point", "--alpha", "1" * 4301 + "/3"),
            ("entropy", "point", "--alpha", "1/" + "3" * 4301),
        ):
            code, out, err = run(capsys, *argv)
            # a refusal names the text or its fault in a line, never echoes 4301 digits
            assert (code, out) == (2, "") and len(err) < 300, argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("qumterval", "info", "--word", "0102"), "degenerate or invalid word: '0102'"),
            (("qumterval", "atlas", "--max-len", "0"), "max_len must lie in [1, 20]"),
            (("qumterval", "atlas", "--max-len", "-3"), "max_len must lie in [1, 20]"),
            (("qumterval", "atlas", "--max-len", "21"), "max_len must lie in [1, 20]"),
            (("entropy", "point", "--alpha", "1/0"), "error: '1/0' has a zero denominator\n"),
            (("farey", "word", "--rational", "1/0"), "error: '1/0' has a zero denominator\n"),
            (("cardioid", "--rational", " 1/0 "), "error: ' 1/0 ' has a zero denominator\n"),
            (("ebif", "check", "--x", "1/0"), "error: '1/0' has a zero denominator\n"),
            (("orbit", "--alpha", "1/3", "--x=-2/0", "--steps", "2"), "error: '-2/0' has a zero denominator\n"),
            # a malformed fraction is named as given, not by int()'s message on one part
            (("entropy", "point", "--alpha", "9/20x"), "error: '9/20x' is not a fraction p/q of two integers\n"),
            (("entropy", "point", "--alpha", "1//2"), "error: '1//2' is not a fraction p/q of two integers\n"),
            # so is text without a slash, which Fraction reads
            (("entropy", "point", "--alpha", " abc "), "error: ' abc ' is not a fraction p/q, an integer or a decimal\n"),
            (("entropy", "point", "--alpha", "0.4.5"), "error: '0.4.5' is not a fraction p/q, an integer or a decimal\n"),
            (("farey", "word", "--rational", ""), "error: '' is not a fraction p/q, an integer or a decimal\n"),
            (("orbit", "--alpha", "1/3", "--x=nan", "--steps", "2"), "error: 'nan' is not a fraction p/q, an integer or a decimal\n"),
            # Python's limit on the digits of an integer names itself, in a p/q as without a slash
            (("entropy", "point", "--alpha", "1" * 4301 + "/3"), "error: Exceeds the limit (4300"),
            (("entropy", "point", "--alpha", "1/" + "3" * 4301), "error: Exceeds the limit (4300"),
            (("entropy", "point", "--alpha", "1" * 4301), "error: Exceeds the limit (4300"),
        ],
    )
    def test_library_checks_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and message in err
        assert len(err) < 300  # one line, whatever the length of the text

    def test_descent_over_its_step_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(bf, "_LOCATE_LIMIT", 50)
        for argv in (("qumterval", "info"), ("entropy", "point")):
            code, out, err = run(capsys, *argv, "--alpha", "1/100")
            assert (code, out) == (2, "") and "step budget" in err, argv

    def test_precision_floor(self, capsys):
        assert run(capsys, "entropy", "point", "--alpha", "1/2", "--precision", "32")[0] == 2

    @pytest.mark.parametrize(
        "value, message",
        [("abc", "FAREYCF_PRECISION must be a whole number of bits, not 'abc'"), ("32", "FAREYCF_PRECISION must be >= 64")],
    )
    def test_precision_variable_checked(self, value, message):
        # a bad default precision is a validation error of the call, not a crash at import
        env = child_env(FAREYCF_PRECISION=value)
        out = subprocess.run(
            [sys.executable, "-m", "fareycf", "entropy", "point", "--alpha", "1/3"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")

    def test_selftests(self, capsys):
        for cmd in ("farey", "qumterval", "ebif", "cardioid", "orbit", "match", "attractor", "entropy", "probe"):
            code, out, _ = run(capsys, cmd, "--selftest")
            assert code == 0, (cmd, out)
            assert "FAIL" not in out

    def test_closed_stdout_exits_141_quietly(self):
        # the JSON at 1/300 (about 240 KB) is larger than a pipe buffer, so
        # the writer meets the closed pipe
        env = child_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fareycf", "attractor", "--alpha", "1/300", "--json"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "farey", "--bogus")
        assert code == 2 and "usage" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("farey", "list", "--level", "2", "--precision", "80"),
            ("cardioid", "--rational", "2/5", "--decimals", "5"),
            ("entropy", "point", "--alpha", "9/20", "--decimals", "5"),
            ("attractor", "--alpha", "9/20", "--precision", "80"),
            ("entropy", "curve", "--from", "1/5", "--to", "1/4", "--samples", "2", "--parallelism", "2"),
            ("entropy", "point", "--alpha", "1/3", "--samples", "5"),
            ("qumterval", "atlas", "--max-len", "3", "--alpha", "1/3"),
            ("probe", "zeta", "--N", "5"),
            ("probe", "zeta", "--precision", "80"),
        ],
    )
    def test_flags_only_where_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "unrecognized arguments" in err

    def test_readme_examples_parse(self):
        # every `fareycf ...` line of README's "Command line" block parses; none runs
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("fareycf ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")


class TestRegressionPins:
    def test_atlas_json_bytes(self, capsys):
        code, out, _ = run(capsys, "qumterval", "atlas", "--max-len", "12", "--format", "json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "794b7907cf4c85dc9e7f5f028acad4cac59c99d7637a8fa64e763f36baa2d318"

    def test_attractor_json_bytes(self, capsys):
        code, out, _ = run(capsys, "attractor", "--alpha", "123457/524288", "--json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "8f42f30cf2bd5fce35c78455a05d38b8d1162969372426bc22e3385f8becef9a"

    def test_attractor_text_bytes(self, capsys):
        code, out, _ = run(capsys, "attractor", "--alpha", "123457/524288")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "2e05b5f933a6f3856ca23febe7f091b0986a57b900d11ad6891319cda56c512c"

    def test_entropy_point_bytes(self, capsys):
        code, out, _ = run(capsys, "entropy", "point", "--alpha", "4/15")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b27c47efea71f45ee6112392520a21d9ac2e3f8619a6e6cf2eaf46bc2e82411d"

    def test_entropy_curve_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "entropy", "curve", "--from", "1/20", "--to", "19/20", "--samples", "40")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "66635b116eba9ef4c4a1b97e2ac9ea032fb55e992ea420e482fbe1cb8a127e40"

    def test_entropy_curve_json_bytes(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "curve", "--from", "1/20", "--to", "19/20", "--samples", "40", "--format", "json"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "aa18bffbdaf02bc09886d10330cf65ffa3354fbbe7d6c8dc69fb086333e2c0f1"

    def test_endpoints_beyond_the_int_digit_limit(self):
        # the endpoints of the word of slope 4181/10946 have more than 4300 digits
        w = wd.word_from_rational(Fraction(4181, 10946))
        env = child_env()
        out = subprocess.run(
            [sys.executable, "-m", "fareycf", "qumterval", "info", "--word", w],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        alpha_plus = format_exact(bf.qumterval_of(w).alpha_plus)
        assert len(alpha_plus) > 4300
        assert f"alpha_plus={alpha_plus}" in out.stdout.splitlines()

    def test_cli_import_skips_sympy_and_process_pool(self):
        code = (
            "import sys, fareycf.cli; "
            "print(sorted({'sympy', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        env = child_env()
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# sha256 of `--help` at every level at 80 columns, as Python 3.11's argparse
# prints the parser with every level built: a level declared only when it
# is reached prints the same bytes
HELP_PINS = {
    "": "c4196b658b59f316c072ca860edb81f27e60f287f8fd645ea51db4a0aae3b83a",
    "farey": "783ee1e767735d1183f391be34b2ce2a77454a6509f01826b02d2b195a5d6fdc",
    "farey list": "1cae47f56cb7422feeaece780600f13972d998d7018aa424049be5250430f597",
    "farey word": "102e3d81a17236b6dc83529c66ed662f7a7f92bab7efb2ac37e8b3c490f110e7",
    "qumterval": "20bc10d8a8f22eabf758df19d290783c7674ff62493cdbac3642daecbbe6ff38",
    "qumterval info": "5f90b1bca8c1cdc9ffa43d255b3486a6a0a0cef9b5d126f7e5f9c41fc3994d93",
    "qumterval atlas": "4bed2a194b9219980fb58b807d1eda0cb389072cd85efb786860aee60ab6fb7b",
    "ebif": "34ac688d3eea111a60d16a086b233baa8eea8d8cc614c2ddd92be81981bdfc56",
    "ebif check": "d9ab798ed4d65436b693fc4e16c381e74726693afd057ba64dcb415eda47da9b",
    "ebif interval": "4830bf8512ac52ee0ec8bdee82c7d83b9c4461bfbf126d240bbc8a61affa73d1",
    "cardioid": "0cd46d2571ad23027f343becfa2680511eb8c6c673b02abaffe23b462d24a4ca",
    "orbit": "3e2bae045e6cd8d61e3218d3c090d3d3c61ec18c511bfe9bdc70eab05fd50243",
    "match": "c2f3cc99856c707d8ff242fc09e82be746c6148a82fec223f534015822f983fc",
    "match verify": "b210b7a1b455f8848d9c2f7f94b1c6ace9f1feb3313b09412a038e20b13b3727",
    "attractor": "3e42ff2e92132d56536a77e8350c14aa4e5da30d987d919aff80bd829e0899eb",
    "entropy": "36422fc4553760fd74001526e23481760f5d2096e7bf9d000e787765047ab7a0",
    "entropy point": "5f19a48748d418b242d8f948a5a39cce9d7eccbb4ac8058fc4f4da5ac1298110",
    "entropy curve": "91b28468641a39c02dfb77a9e0f28e76b99eb8407e0732b7e4b4419336e19bd0",
    "probe": "132d219c977d8a84571aafc8a6d3bde551e1252318327c073a05071eceb08bc0",
    "probe asymptotic": "f8c4ebce0d48d9882611b0981ba6a111100b1e9998d59bfa4e99de0c3f040813",
    "probe slope": "362c3cca937b71cc541665c04cf9e65d4feeb97903cc3d9594795dc4c56367b4",
    "probe zeta": "87e4cacb00c9adb40ff6f974977d5b759138899f5f4c608e93f037ffb51fb8da",
}


class TestColdStart:
    def child_output(self, code):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_import_loads_no_dataclasses_inspect_or_json(self):
        code = (
            "import sys; before = set(sys.modules); import fareycf; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
        )
        assert self.child_output(code) == "[]"

    def test_json_loaded_only_where_json_is_printed(self):
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "before = set(sys.modules)\n"
            "from fareycf import cli\n"
            "for argv in (['entropy', 'point', '--alpha', '9/20'], ['attractor', '--alpha', '1/3', '--json']):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(code, 'json' in set(sys.modules) - before)\n"
        )
        assert self.child_output(code).splitlines() == ["0 False", "0 True"]

    def test_cli_floats_load_no_mpmath(self):
        # the package and the CLI's printed floats (the entropy tail, the
        # decimals of exact values, exact zeros, the zeta sum of surd
        # lengths, the slope, the selftests, the asymptotic probe) are
        # integer arithmetic
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "import fareycf\n"
            "print('mpmath' in sys.modules)\n"
            "from fareycf import cli\n"
            "for argv in (\n"
            "    ['entropy', 'point', '--alpha', '9/20'],\n"
            "    ['entropy', 'point', '--alpha', '9/20', '--precision', '512'],\n"
            "    ['attractor', '--alpha', '1/7', '--json'],\n"
            "    ['entropy', 'curve', '--from', '1/50', '--to', '49/50', '--samples', '20'],\n"
            "    ['qumterval', 'info', '--word', '001'],\n"
            "    ['probe', 'zeta', '--s', '0.25', '--depth', '8'],\n"
            "    ['probe', 'slope', '--word', '001', '--halvings', '1'],\n"
            "    ['entropy', '--selftest'],\n"
            "    ['probe', 'asymptotic', '--N', '3'],\n"
            "):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(code, 'mpmath' in sys.modules)\n"
        )
        assert self.child_output(code).splitlines() == ["False"] + ["0 False"] * 9

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help pins recorded with the argparse of Python 3.11")
    @pytest.mark.parametrize("level", list(HELP_PINS))
    def test_help_bytes(self, capsys, monkeypatch, level):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("LINES", "24")
        code, out, err = run(capsys, *level.split(), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_PINS[level]

    def test_usage_errors_name_their_level(self, capsys):
        # a missing action or option is reported by the parser of its own level
        for argv, usage in (
            ((), "usage: fareycf [-h]"),
            (("entropy",), "usage: fareycf entropy [-h] [--selftest] {point,curve} ..."),
            (("entropy", "point"), "usage: fareycf entropy point [-h] [--out OUT] [--precision PRECISION]"),
            (("probe", "zeta", "--depth", "x"), "usage: fareycf probe zeta [-h]"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith(usage), argv
