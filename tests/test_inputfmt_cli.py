"""Input grammar, report serialization, corpus files, the CLI, and
package-wide checks."""

import ast
import glob
import io
import contextlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reesgor
from reesgor import cli, corpus, inputfmt, invariants, oracle
from reesgor.cli import main, run_cli
from reesgor.errors import InputError
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.polys import PolyRing

from reference import count_calls

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, os.pardir, "corpus")

F = GF(DEFAULT_PRIME)


def corpus_path(name):
    return os.path.join(CORPUS, name + ".ring")


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(args)
    return code, buf.getvalue()


# -- grammar ---------------------------------------------------------------

def test_document_roundtrip_on_corpus_files():
    files = sorted(glob.glob(os.path.join(CORPUS, "*.ring")))
    assert len(files) == 6
    for path in files:
        with open(path) as fh:
            text = fh.read()
        doc = inputfmt.parse_document(text)
        assert inputfmt.print_document(doc) == text, path


def test_examples_regenerate_corpus_files_byte_identical():
    for name in corpus.EXAMPLES:
        doc = corpus.example_document(name)
        with open(corpus_path(name)) as fh:
            assert inputfmt.print_document(doc) == fh.read(), name


def test_document_build_matches_constructor(two_planes):
    A_ref, q_ref = two_planes
    with open(corpus_path("two_planes")) as fh:
        doc = inputfmt.parse_document(fh.read())
    A, q, power = doc.build()
    assert A.names == A_ref.names
    assert A.weights == A_ref.weights
    assert power == 2
    assert [str(g) for g in A.defining] == [str(g) for g in A_ref.defining]


def test_parse_errors_carry_positions():
    with pytest.raises(InputError) as e:
        inputfmt.parse_document("vars x:q\n")
    assert e.value.line == 1
    with pytest.raises(InputError) as e:
        inputfmt.parse_document("ring a\nwhatever x\n")
    assert e.value.line == 2
    doc = inputfmt.parse_document("vars x y\nideal x*\n")
    with pytest.raises(InputError) as e:
        doc.build()
    assert e.value.line == 2


def test_parse_poly_reports_unknown_variable():
    R = PolyRing(("x", "y"), (1, 1), F)
    with pytest.raises(InputError) as e:
        inputfmt.parse_poly("x + 2*z", R)
    assert e.value.col == 7


def test_parse_poly_juxtaposition_and_parens():
    R = PolyRing(("x", "y"), (1, 1), F)
    x, y = R.gens()
    assert inputfmt.parse_poly("2x y", R) == 2 * x * y
    assert inputfmt.parse_poly("(x + y)^2 - x^2 - y^2", R) == 2 * x * y
    assert inputfmt.parse_poly("-x + y", R) == y - x


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F, QQ]), st.integers(min_value=0, max_value=10 ** 6))
def test_parse_poly_str_roundtrip(field, seed):
    """A polynomial prints as text that parses back to it, over QQ, with
    integer and fractional coefficients, as over GF(32003): a negative
    coefficient prints as a minus sign and its magnitude, a magnitude of 1
    left out, and a fraction as c/d."""
    import random
    from fractions import Fraction
    rng = random.Random(seed)
    R = PolyRing(("x", "y", "z"), (1, 2, 1), field)
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, 4) for _ in range(3))
        c = rng.randint(-9, 9)
        terms[exp] = (field.of(Fraction(c, rng.randint(1, 9))) if not field.p
                      else field.of(c))
    f = R.from_dict(terms)
    assert inputfmt.parse_poly(str(f), R) == f


def test_parse_poly_reads_fractions():
    """c/d is c times the inverse of d, in QQ and in GF(p); a denominator
    that is zero in the field is an InputError at its column, and a
    fraction is no exponent."""
    for field in (QQ, GF(7), F):
        R = PolyRing(("x", "y"), (1, 1), field)
        x, y = R.gens()
        half = field.inv(field.of(2))
        assert inputfmt.parse_poly("-3/2*x + 1/2 y", R) == (
            x.scale(-3 * half) + y.scale(half))
        with pytest.raises(InputError) as e:
            inputfmt.parse_poly("x + 1/0", R)
        assert e.value.col == 7
        with pytest.raises(InputError):
            inputfmt.parse_poly("x^3/2", R)
    with pytest.raises(InputError) as e:   # 14 is 0 in GF(7)
        inputfmt.parse_poly("x + 2/14", PolyRing(("x",), (1,), GF(7)))
    assert e.value.col == 7
    with pytest.raises(InputError):   # (1/3)^700 has a 1110-bit denominator
        inputfmt.parse_poly("(1/3)^700", PolyRing(("x",), (1,), QQ))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xy0123456789+-*^() \u00b2\u00bd\U0001d7d8\u00e9_",
               max_size=8))
def test_parse_poly_raises_only_input_errors(text):
    """Any text is a polynomial or an InputError: digits outside ASCII,
    such as a superscript two, are never handed to int().  (The size
    bound keeps powers like (x+y)^999 out of a fuzz run.)"""
    R = PolyRing(("x", "y"), (1, 1), F)
    try:
        inputfmt.parse_poly(text, R)
    except InputError:
        pass


def test_parse_poly_bounds_nesting_at_the_opening_parenthesis():
    R = PolyRing(("x", "y"), (1, 1), F)
    depth = inputfmt.MAX_NESTING
    assert inputfmt.parse_poly("(" * depth + "x" + ")" * depth, R) == R.gen(0)
    with pytest.raises(InputError) as e:
        inputfmt.parse_poly("(" * 400 + "x" + ")" * 400, R, line=2, col=7)
    assert (e.value.line, e.value.col) == (2, 7 + depth)


def test_parse_poly_bounds_the_expansion_of_a_power():
    """A power of a k-term polynomial that may expand to more than
    MAX_POWER_TERMS terms is refused at its exponent; a monomial's power
    is bounded only by MAX_EXPONENT."""
    R = PolyRing(("x", "y"), (1, 1), F)
    top = inputfmt.MAX_POWER_TERMS - 1    # (x+y)^top has top + 1 terms
    assert len(inputfmt.parse_poly("(x+y)^%d" % top, R).terms) == top + 1
    assert inputfmt.parse_poly("x^1000", R) == R.gen(0) ** 1000
    with pytest.raises(InputError) as e:
        inputfmt.parse_poly("(x+y)^%d" % (top + 1), R, line=3, col=5)
    assert (e.value.line, e.value.col) == (3, 5 + len("(x+y)^"))


def test_parse_poly_bounds_exponents():
    """An exponent above MAX_EXPONENT, written or reached by a power of a
    power or by a product, is refused at its exponent or its operator."""
    R = PolyRing(("x", "y"), (1, 1), F)
    top = inputfmt.MAX_EXPONENT
    assert inputfmt.parse_poly("x^%d*y^%d" % (top, top), R) == \
        R.gen(0) ** top * R.gen(1) ** top
    # each expression with the offset of the exponent or operator refused
    for expr, at in [("x^40000000*y", 2), ("(x^200)^200", 8),
                     ("1^%d" % (top + 1), 2), ("x^%d*x" % top, 6),
                     ("x^600 x^600", 6)]:
        with pytest.raises(InputError) as e:
            inputfmt.parse_poly(expr, R, line=2, col=7)
        assert (e.value.line, e.value.col) == (2, 7 + at), expr
        assert "exponent above %d" % top in str(e.value), expr


def test_parse_poly_bounds_the_expansion_of_a_product():
    """A product of an a-term and a b-term factor, which may expand to
    a * b terms, is refused at its operator when a * b exceeds
    MAX_POWER_TERMS, also when the factors are juxtaposed; each factor
    of (a+b)^499*(c+d)^499 is within the bound, and the product would
    have 250,000 terms."""
    R = PolyRing(("a", "b", "c", "d"), (1, 1, 1, 1), F)
    top = inputfmt.MAX_POWER_TERMS - 1
    expr = "(a+b)^%d*(c+d)^%d" % (top, top)
    with pytest.raises(InputError) as e:
        inputfmt.parse_poly(expr, R, line=2, col=7)
    assert (e.value.line, e.value.col) == (2, 7 + expr.index("*"))
    assert "product expands past" in str(e.value)
    with pytest.raises(InputError) as e:
        inputfmt.parse_poly("(a+b)^30 (c+d)^30", R)
    assert e.value.col == 1 + len("(a+b)^30 ")
    # 20 * 25 = MAX_POWER_TERMS terms, and a monomial factor adds none
    f = inputfmt.parse_poly("(a+b)^19*(c+d)^24*a*b", R)
    assert len(f.terms) == inputfmt.MAX_POWER_TERMS


def test_parse_poly_bounds_literals_and_rational_coefficients():
    """A literal of more than MAX_DIGITS digits is refused in every
    characteristic; over QQ alone a power or product is refused before it
    is formed when its coefficients could pass 2^MAX_COEFF_BITS, and over
    GF(32003) the same expressions parse, with coefficients below p."""
    digits, top = inputfmt.MAX_DIGITS, inputfmt.MAX_COEFF_BITS
    half = top // 2
    for field in (F, QQ):
        R = PolyRing(("x", "y"), (1, 1), field)
        assert inputfmt.parse_poly("%s*x" % ("9" * digits), R) == \
            R.gen(0) * int("9" * digits)
        with pytest.raises(InputError) as e:
            inputfmt.parse_poly("x + %s*y" % ("9" * (digits + 1)), R)
        assert e.value.col == 5 and "longer than %d" % digits in str(e.value)
        assert inputfmt.parse_poly("2^%d*x" % top, R) == R.gen(0) * 2 ** top
        assert inputfmt.parse_poly("2^%d*2^%d*y" % (half, half), R) == \
            R.gen(1) * 2 ** top
        for expr, at, what in (("((2^%d)^%d)^100*x" % (top, top), 10, "power"),
                               ("3^%d*x" % (half + 1), 2, "power"),
                               ("2^%d*2^%d*y" % (half, half + 1), 5,
                                "product")):
            if field is F:
                assert not inputfmt.parse_poly(expr, R).is_zero()
                continue
            with pytest.raises(InputError) as e:
                inputfmt.parse_poly(expr, R)
            assert e.value.col == 1 + at, expr
            assert "%s has coefficients past %d bits" % (what, top) \
                in str(e.value), expr


def test_report_roundtrip():
    pairs = [("verdict", True), ("dim", 2), ("conductor", "(a, b)")]
    text = inputfmt.format_report(pairs, ["narrative line"])
    back = inputfmt.parse_report(text)
    assert back == {"verdict": "true", "dim": "2", "conductor": "(a, b)"}


# -- CLI -------------------------------------------------------------------

def test_cli_check_exit_codes():
    assert run(["check", corpus_path("hochster_roberts")])[0] == 0
    assert run(["check", corpus_path("two_planes")])[0] == 0
    assert run(["check", corpus_path("regular_base")])[0] == 2


def test_cli_oracle_mode_on_negative_control():
    code, out = run(["oracle", corpus_path("regular_base")])
    assert code == 1
    report = inputfmt.parse_report(out)
    assert report["cm"] == "true"
    assert report["type"] == "2"
    assert report["gorenstein"] == "false"


def test_cli_check_both_modes_agree():
    code, out = run(["check", corpus_path("two_planes"), "--mode", "both"])
    assert code == 0
    report = inputfmt.parse_report(out)
    assert report["oracle.gorenstein"] == "true"
    assert report["verdict"] == "true"


def test_cli_shimoda_and_buchsbaum():
    assert run(["shimoda", corpus_path("hochster_roberts")])[0] == 0
    assert run(["buchsbaum", corpus_path("two_planes")])[0] == 0
    assert run(["buchsbaum", corpus_path("regular_base")])[0] == 2


def test_cli_invariants_and_s2():
    code, out = run(["invariants", corpus_path("two_planes")])
    assert code == 0
    report = inputfmt.parse_report(out)
    assert report["dim"] == "2"
    assert report["depth"] == "1"
    code, out = run(["s2", corpus_path("two_planes")])
    assert code == 0
    report = inputfmt.parse_report(out)
    assert report["h1_length"] == "1"
    assert report["h1_socle"] == "1"


def test_cli_s2_prints_the_same_polynomials_over_qq_and_gf(tmp_path):
    """With parameters x - u, y - v on two planes, the s2 report over QQ
    has the pair and fractions lines of the report over GF(32003), whose
    negative coefficients print as minus signs there too."""
    path = tmp_path / "planes.ring"
    with open(corpus_path("two_planes")) as src:
        path.write_text(src.read().replace("params x + u, y + v",
                                           "params x - u, y - v"))
    reports = []
    for char in ("0", "32003"):
        code, out = run(["s2", str(path), "--char", char])
        assert code == 0
        reports.append(inputfmt.parse_report(out))
    qq, gf = reports
    assert qq["pair_a"] == "x - u"
    for key in ("pair_a", "pair_b", "fractions"):
        assert qq[key] == gf[key]


# k[x,y] x m^2, the idealization of the square of the maximal ideal, with
# q = (x^2, y^2): H^1 has length 3 and a socle of dimension 2, so both
# criteria fail and R(q^2) is Cohen-Macaulay of type 4
SEMIDIRECT_M2 = ("vars x:1 y:1 u:2 v:2 w:2\n"
                 "ideal u^2, u*v, u*w, v^2, v*w, w^2, y*u - x*v, y*v - x*w\n"
                 "params x^2, y^2\n")


def test_cli_not_gorenstein_verdict(tmp_path):
    """The verdict that a criterion clause failed (exit 1), which no
    corpus ring reaches: each corpus ring is Gorenstein or has H^1 = 0.
    check --mode both gives one report in every characteristic, and the
    oracle and the pairwise criterion agree."""
    path = tmp_path / "semidirect_m2.ring"
    path.write_text(SEMIDIRECT_M2)
    outs = set()
    for char in ("0", "2", "3", "32003"):
        code, out = run(["check", str(path), "--mode", "both",
                         "--char", char])
        assert code == 1, char
        outs.add(out)
    (out,) = outs
    assert out.endswith("# not Gorenstein: a criterion clause failed\n")
    report = inputfmt.parse_report(out)
    assert (report["h1_length"], report["h1_socle"]) == ("3", "2")
    assert {key: report[key] for key in (
        "cond2.verdict", "cond3.verdict", "cond3.type_is_1", "cond3.e_c",
        "cond3.len_a_mod_c", "cond3.reduction_number",
        "oracle.gorenstein", "verdict")} == {
        "cond2.verdict": "false", "cond3.verdict": "false",
        "cond3.type_is_1": "false", "cond3.e_c": "8",
        "cond3.len_a_mod_c": "3", "cond3.reduction_number": "1",
        "oracle.gorenstein": "false", "verdict": "false"}
    code, out = run(["oracle", str(path)])
    assert code == 1
    report = inputfmt.parse_report(out)
    assert (report["power"], report["cm"], report["type"]) == \
        ("2", "true", "4")
    assert run(["shimoda", str(path)])[0] == 1


def test_power_dichotomy_on_a_not_gorenstein_ring():
    """The oracle finds R(q^n) not Gorenstein at n = d = 2 as the
    criteria do, and at n = 3 as it must for every n other than d."""
    A, q, _ = inputfmt.parse_document(SEMIDIRECT_M2).build()
    assert oracle.n_neq_d_suite(A, q, 2, (2, 3), criteria_verdict=False) \
        == {2: False, 3: False}


@pytest.mark.parametrize("cmd", ["check", "oracle", "shimoda", "buchsbaum",
                                 "s2"])
def test_cli_commands_on_parameters_need_a_params_line(tmp_path, cmd):
    """Every command but invariants reads q: without a params line it is
    an input error (exit 3), while invariants reads the ring alone."""
    path = tmp_path / "no_params.ring"
    path.write_text("vars x y\nideal x*y\n")
    code, out = run([cmd, str(path)])
    assert code == 3
    assert inputfmt.parse_report(out)["error"] == \
        "this command needs a params directive"
    assert run(["invariants", str(path)])[0] == 0


@pytest.mark.parametrize("args, want", [(["examples", "two_planes"], 0),
                                        (["no-such-command"], 3)])
def test_console_script_exits_with_the_code_of_run_cli(monkeypatch, args,
                                                       want):
    """The `reesgor` console script is `cli.main`, which reads sys.argv
    and exits with run_cli's code and report."""
    with open(os.path.join(HERE, os.pardir, "pyproject.toml")) as f:
        assert 'reesgor = "reesgor.cli:main"' in f.read()
    monkeypatch.setattr(sys, "argv", ["reesgor"] + args)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main()
    assert (exc.value.code, buf.getvalue()) == run(args)
    assert exc.value.code == want


def test_cli_input_that_is_not_text(tmp_path):
    """A document that is not UTF-8 text is unreadable input (exit 3)."""
    path = tmp_path / "binary.ring"
    path.write_bytes(b"vars x y\nideal x*y\xff\nparams x, y\n")
    code, out = run(["check", str(path)])
    assert code == 3
    assert out.endswith("# cannot read input\n")
    assert "can't decode byte 0xff" in inputfmt.parse_report(out)["error"]


def test_cli_input_errors(tmp_path):
    assert run(["check", str(tmp_path / "missing.ring")])[0] == 3
    bad = tmp_path / "bad.ring"
    bad.write_text("vars x y\nideal x*\nparams x, y\n")
    code, out = run(["check", str(bad)])
    assert code == 3
    assert "line 2" in out


MALFORMED = {
    "char_not_prime": ("vars x y\nchar 4\nideal x*y\nparams x, y\n",
                       ["check"], "line 2, col 1: characteristic must be 0 "
                                  "or a prime, got 4"),
    "char_override_not_prime": ("vars x y\nideal x*y\nparams x, y\n",
                                ["check", "--char", "4"],
                                "characteristic must be 0 or a prime, got 4"),
    "power_zero": ("vars x y\nideal x*y\nparams x, y\npower 0\n",
                   ["oracle"], "line 4, col 1: power must be at least 1"),
    "power_negative": ("vars x y\nideal x*y\nparams x, y\npower -1\n",
                       ["oracle"],
                       "line 4, col 1: power must be at least 1"),
    "inhomogeneous_ideal": ("vars x y\nideal x*y - x\nparams x, y\n",
                            ["check"], "line 2, col 7: inhomogeneous "
                                       "generator x*y - x"),
    "inhomogeneous_params": ("vars x y\nideal x*y\nparams x, y^2 + x\n",
                             ["check"], "line 3, col 11: inhomogeneous "
                                        "generator y^2 + x"),
    "duplicate_variable": ("vars x x y\nideal x*y\nparams x, y\n",
                           ["check"], "line 1, col 8: duplicate variable 'x'"),
    "unit_ideal": ("vars x y\nideal 1\nparams x, y\n", ["invariants"],
                   "line 2, col 7: constant generator 1 makes the ideal "
                   "the unit ideal"),
    "unit_ideal_oracle": ("vars x y\nideal x*y, 3\nparams x, y\n",
                          ["oracle"], "line 2, col 12: constant generator 3 "
                                      "makes the ideal the unit ideal"),
    "exponent_not_ascii": ("vars x y\nideal x^\u00b2*y\nparams x, y\n",
                           ["check"], "line 2, col 9: exponent must be an "
                                      "integer"),
    "nesting_too_deep": ("vars x y\nideal %sx%s*y\nparams x, y\n"
                         % ("(" * 400, ")" * 400), ["check"],
                         "line 2, col 107: parentheses nested deeper than "
                         "100"),
    "power_too_large": ("vars x y\nideal (x+y)^1000*x\nparams x, y\n",
                        ["check"], "line 2, col 13: power expands past 500 "
                                   "terms"),
    "exponent_too_large": ("vars x y z\nideal x^40000000*y\n"
                           "params x+y, z\n", ["check"],
                           "line 2, col 9: exponent above 1000"),
    "power_of_power_too_large": ("vars x y\nideal (x^200)^200\n"
                                 "params x, y\n", ["oracle"],
                                 "line 2, col 15: exponent above 1000"),
    "product_too_large": ("vars a b c d\nideal (a+b)^499*(c+d)^499\n"
                          "params a, c\n", ["check"],
                          "line 2, col 16: product expands past 500 terms"),
    "literal_too_long": ("vars x y\nideal %s*x*y\nparams x, y\n"
                         % ("7" * 5000), ["invariants"],
                         "line 2, col 7: integer longer than 100 digits"),
    "coefficient_too_large": ("char 0\nvars x y\nideal ((2^1000)^1000)^100*x*y"
                              "\nparams x, y\n", ["invariants"],
                              "line 3, col 17: power has coefficients past "
                              "1000 bits"),
    "char_not_integer": ("vars x y\nchar abc\nparams x, y\n", ["check"],
                         "line 2, col 1: char expects an integer"),
    "bad_variable_name": ("vars x 9y\nparams x, y\n", ["check"],
                          "line 1, col 8: bad variable name '9y'"),
    "weight_not_positive": ("vars x:0 y\nparams x, y\n", ["check"],
                            "line 1, col 6: weight must be positive"),
    "power_not_integer": ("vars x y\nparams x, y\npower two\n", ["check"],
                          "line 3, col 1: power expects an integer"),
    "no_vars": ("ring r\nchar 7\n", ["check"], "no vars directive"),
    "power_underscore": ("vars x y\nideal x*y\nparams x, y\npower 1_0\n",
                         ["oracle"], "line 4, col 1: power expects an "
                                     "integer"),
    "power_not_ascii": ("vars x y\nideal x*y\nparams x, y\npower \uff13\n",
                        ["oracle"], "line 4, col 1: power expects an "
                                    "integer"),
    "char_underscore": ("vars x y\nchar 3_2003\nideal x*y\nparams x, y\n",
                        ["check"], "line 2, col 1: char expects an integer"),
    "weight_not_ascii": ("vars x:\u0663 y\nideal x*y\nparams x, y\n",
                         ["check"], "line 1, col 6: bad weight in "
                                    "'x:\u0663'"),
    "char_override_underscore": ("vars x y\nideal x*y\nparams x, y\n",
                                 ["check", "--char", "3_2003"],
                                 "argument --char: invalid int value: "
                                 "'3_2003'"),
    "seed_not_ascii": ("vars x y\nideal x*y\nparams x, y\n",
                       ["check", "--seed", "\u0661"],
                       "argument --seed: invalid int value: '\u0661'"),
    "ring_repeated": ("ring a\nring b\nvars x y\nideal x*y\nparams x, y\n",
                      ["check"], "line 2, col 1: duplicate ring directive"),
    "char_repeated": ("char 2\nvars x y\n  char 32003\nideal x*y\n"
                      "params x, y\n", ["check"],
                      "line 3, col 3: duplicate char directive"),
    "power_repeated": ("vars x y\nideal x*y\nparams x, y\npower 2\n"
                       "power 3\n", ["oracle"],
                       "line 5, col 1: duplicate power directive"),
    "char_above_prime_bound": (
        "vars x y\nchar 3317044064679887385961981\nideal x*y\nparams x, y\n",
        ["check"], "line 2, col 1: characteristic 3317044064679887385961981 "
                   "is too large: primality is decided below "
                   "3317044064679887385961981 only"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_rejects_malformed_document(tmp_path, case):
    """Each malformed document or characteristic is an input error (exit
    3) with its line and column when it has one, not an uncaught exception
    or a verdict: under its own command, and under check --mode criteria."""
    text, args, error = MALFORMED[case]
    path = tmp_path / "bad.ring"
    path.write_text(text)
    for argv in (args, ["check"] + args[1:] + ["--mode", "criteria"]):
        code, out = run([argv[0], str(path)] + argv[1:])
        assert code == 3, argv
        assert inputfmt.parse_report(out)["error"] == error, argv


def test_document_tests_generators_first_and_its_characteristic_per_build(
        monkeypatch):
    """Parsing a document tests its characteristic prime, where its line
    is known, and each build tests it again and each generator
    homogeneous, first where the generator's position is known, then
    once more in the ring or ideal it generates."""
    from reesgor import fields, polys
    primes, tested = [], []
    is_prime = fields.is_prime
    is_homogeneous = polys.Poly.is_homogeneous

    def counting_prime(n):
        primes.append(n)
        return is_prime(n)

    def counting_homogeneous(f):
        tested.append(str(f))
        return is_homogeneous(f)
    monkeypatch.setattr(fields, "is_prime", counting_prime)
    monkeypatch.setattr(polys.Poly, "is_homogeneous", counting_homogeneous)
    doc = inputfmt.parse_document("char 7\nvars x y\nideal x*y\n"
                                  "params x, y^2\n")
    doc.build()
    doc.build()
    assert primes == [7] * 3
    assert tested == ["x*y", "x*y", "x", "y^2", "x", "y^2"] * 2


def test_cli_oracle_needs_parameters(tmp_path):
    """With no power line the oracle takes n = dim A; on an Artinian ring
    that is 0, and the one parameter x is no system of parameters: a
    hypothesis failure (exit 2), not a verdict."""
    path = tmp_path / "artinian.ring"
    path.write_text("vars x y\nideal x^2, y^2\nparams x\n")
    code, out = run(["oracle", str(path)])
    assert code == 2
    assert inputfmt.parse_report(out)["error"] == \
        "q must be generated by a system of parameters"


def test_cli_power_is_bounded(tmp_path):
    """A power line at MAX_POWER reaches the oracle; one past it is an
    input error (exit 3) at its line, before any ring is built."""
    top = inputfmt.MAX_POWER
    for power, want in ((top, 0), (top + 1, 3)):
        path = tmp_path / "power.ring"
        path.write_text("vars x y\nideal x*y\nparams x+y\npower %d\n"
                        % power)
        code, out = run(["oracle", str(path)])
        report = inputfmt.parse_report(out)
        assert code == want, power
        if want == 0:
            assert report["power"] == str(top)
            assert report["gorenstein"] == "true"
        else:
            assert report["error"] == "line 4, col 1: power above %d" % top


@pytest.mark.parametrize("params", ["1", "0, x"])
def test_cli_s2_needs_parameters(tmp_path, params):
    """s2 tests its parameters first, as check and oracle do: a unit or a
    zero generator is no system of parameters (exit 2), whatever pair a
    search might find."""
    path = tmp_path / "not_parameters.ring"
    path.write_text("vars x y\nideal x*y\nparams %s\n" % params)
    code, out = run(["s2", str(path)])
    assert code == 2
    assert inputfmt.parse_report(out)["error"] == \
        "q must be generated by a system of parameters"


@pytest.mark.parametrize("cmd", ["check", "s2", "buchsbaum"])
def test_cli_infinite_first_cohomology_is_outside_the_hypotheses(tmp_path,
                                                                 cmd):
    """k[x,y,z]/(x^2, xy) with q = (y, z) has a first cohomology of
    infinite length: check, s2 and buchsbaum exit 2, and none of them
    reaches a crosscheck that only holds under the hypotheses (exit 5)."""
    path = tmp_path / "infinite_h1.ring"
    path.write_text("vars x y z\nideal x^2, x*y\nparams y, z\n")
    code, out = run([cmd, str(path)])
    assert code == 2, out
    assert "infinite length" in out or "hypothesis fails" in out


@pytest.mark.parametrize("cmd", ["check", "s2", "buchsbaum"])
def test_cli_dimension_one_is_outside_the_hypotheses(tmp_path, cmd):
    """k[x,y]/(y^2) with q = (x) has dimension one: every command on the
    (S2)-ification stops at the dimension gate (exit 2) before the pair
    search, and buchsbaum reads no verdict off it."""
    path = tmp_path / "dimension_one.ring"
    path.write_text("vars x y\nideal y^2\nparams x\n")
    code, out = run([cmd, str(path)])
    assert code == 2, out
    assert inputfmt.parse_report(out)["error"] == \
        "the (S2)-ification route needs dim A >= 2"


# rings on which a premise of the multiplicity-two criterion fails, with
# buchsbaum's error: k[x,y] x m^2 is not Buchsbaum and q = (x, y) is not
# standard; k[x,y] x (x^5, y^5) has e_m = 2, but m does not annihilate
# H^1 and q does not reduce m; on two_planes, quadrics do not reduce m
BUCHSBAUM_UNMET = {
    "semidirect_m2": (SEMIDIRECT_M2.replace("x^2, y^2", "x, y"),
                      "q is not a standard parameter ideal"),
    "idealization_x5y5": ("vars x:1 y:1 u:5 v:5\n"
                          "ideal u^2, u*v, v^2, y^5*u - x^5*v\n"
                          "params x^5, y^5\n",
                          "m does not annihilate H^1: A is not Buchsbaum"),
    "two_planes_quadrics": ("vars x y u v\nideal x*u, x*v, y*u, y*v\n"
                            "params x^2 + u^2, y^2 + v^2\n",
                            "q is not a reduction of m with r <= 10"),
}


@pytest.mark.parametrize("case", sorted(BUCHSBAUM_UNMET))
def test_cli_buchsbaum_failed_premise_exits_2(tmp_path, monkeypatch, case):
    """A failed premise of the multiplicity-two criterion is exit 2 with
    its reason and no e_m line, never a verdict; no multiplicity comes
    from the difference scheme.  On two_planes with quadrics check finds
    R(q^2) not Gorenstein, and reports no e_c, since q does not reduce c."""
    text, error = BUCHSBAUM_UNMET[case]
    path = tmp_path / (case + ".ring")
    path.write_text(text)
    calls = count_calls(monkeypatch, invariants.multiplicity)
    code, out = run(["buchsbaum", str(path)])
    assert (code, inputfmt.parse_report(out)) == (2, {"error": error}), out
    if case == "two_planes_quadrics":
        code, out = run(["check", str(path), "--mode", "both"])
        report = inputfmt.parse_report(out)
        assert code == 1
        assert {key: report[key] for key in (
            "cond3.reduction_number", "cond3.e_c",
            "cond3.multiplicity_equation", "oracle.gorenstein")} == {
            "cond3.reduction_number": "NOT_FOUND", "cond3.e_c": "None",
            "cond3.multiplicity_equation": "false",
            "oracle.gorenstein": "false"}
    assert calls == []


@pytest.mark.parametrize("cap, want", [(4, 0), (3, 4)])
def test_cli_resolution_cap_bounds_the_minimal_length(cap, want):
    """The Rees presentation of Hochster-Roberts has a minimal resolution
    of length 4 and a Schreyer frame one level longer; only a minimal
    length above the cap is a resource limit (exit 4)."""
    code, out = run(["oracle", corpus_path("hochster_roberts"),
                     "--resolution-cap", str(cap)])
    assert code == want
    if want == 0:
        assert inputfmt.parse_report(out)["pd"] == "4"


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_cli_negative_resolution_cap_is_a_usage_error(cap):
    """A negative --resolution-cap is a usage error (exit 3), not a cap
    that every resolution exceeds (exit 4)."""
    code, out = run(["oracle", corpus_path("regular_base"),
                     "--resolution-cap", cap])
    assert code == 3, out
    assert inputfmt.parse_report(out)["error"] == (
        "argument --resolution-cap: expected a non-negative integer, "
        "got '%s'" % cap)


@pytest.mark.parametrize("cmd", ["check", "s2"])
def test_cli_thick_plane_is_not_standard(tmp_path, cmd):
    """A plane meeting a thickened plane: q is a system of parameters
    but not a standard one, so check and s2 both stop at the standardness
    gate (exit 2), before the conductor crosscheck that needs it (exit
    5)."""
    path = tmp_path / "thick_plane.ring"
    path.write_text("vars x y u v\n"
                    "ideal x*u^2, x*u*v, x*v^2, y*u^2, y*u*v, y*v^2\n"
                    "params x+u, y+v\n")
    code, out = run([cmd, str(path)])
    assert code == 2, out
    assert inputfmt.parse_report(out)["error"] == \
        "q is not a standard parameter ideal"


@pytest.mark.parametrize("cap, want", [(1, 4), (4, 0)])
def test_cli_resolution_cap_reaches_the_oracle_of_check_both(cap, want):
    """--resolution-cap bounds the oracle of check --mode both as it does
    that of the oracle command."""
    code, _ = run(["check", corpus_path("hochster_roberts"), "--mode",
                   "both", "--resolution-cap", str(cap)])
    assert code == want


@pytest.mark.parametrize("argv", [
    ["check", corpus_path("hochster_roberts"), "--mode", "foo"],
    ["check", corpus_path("hochster_roberts"), "--mode", "oracle"],
    ["check", corpus_path("hochster_roberts"), "--rmax", "1"],
    ["check", corpus_path("hochster_roberts"), "--seed", "one"],
    ["bogus", corpus_path("hochster_roberts")],
    ["check"],
], ids=["mode", "mode_oracle", "rmax", "seed", "command", "target"])
def test_cli_usage_errors_are_input_errors(argv):
    """A usage error exits 3 with an error line, not argparse's exit 2,
    which would read as a ring outside the hypotheses; the oracle is the
    oracle command, not a mode of check."""
    code, out = run(argv)
    assert code == 3
    assert inputfmt.parse_report(out)["error"]
    assert out.endswith("# input error\n")


# every (command, option) pair whose option the command does not read:
# --seed is read by check and s2, --mode by check, --char by all but
# examples, and --resolution-cap by oracle, invariants and check --mode both
UNREAD = [("check", "resolution_cap"), ("oracle", "mode"), ("oracle", "seed"),
          ("shimoda", "mode"), ("shimoda", "seed"),
          ("shimoda", "resolution_cap"), ("buchsbaum", "mode"),
          ("buchsbaum", "seed"), ("buchsbaum", "resolution_cap"),
          ("invariants", "mode"), ("invariants", "seed"), ("s2", "mode"),
          ("s2", "resolution_cap"), ("examples", "mode"), ("examples", "char"),
          ("examples", "seed"), ("examples", "resolution_cap")]
OPTION_VALUES = {"mode": "both", "char": "0", "seed": "5",
                 "resolution_cap": "0"}


def test_cli_unread_pairs_are_those_outside_the_table():
    """UNREAD is the complement of cli's table of the options each
    command reads."""
    assert sorted(UNREAD) == sorted(
        (cmd, opt) for cmd, reads in cli._READS.items()
        for opt in OPTION_VALUES if opt not in reads.split())


@pytest.mark.parametrize("command, option", UNREAD)
def test_cli_an_option_the_command_does_not_read_is_a_usage_error(
        command, option):
    """An option given to a command that does not read it is a usage
    error (exit 3) that names both, where it was ignored (exit 0)."""
    target = ("hochster_roberts" if command == "examples"
              else corpus_path("hochster_roberts"))
    flag = "--" + option.replace("_", "-")
    code, out = run([command, target, flag, OPTION_VALUES[option]])
    assert code == 3, out
    assert inputfmt.parse_report(out)["error"] == \
        "%s does not read %s" % (command, flag)


@pytest.mark.parametrize("argv", [["-h"], ["check", "--help"]],
                         ids=["h", "check_help"])
def test_cli_help_is_the_one_write(tmp_path, capsys, argv):
    """Help is a usage answer, exit 3, never argparse's SystemExit(0),
    the Gorenstein code: its text goes to stdout, or to --out, before or
    after the help option."""
    assert run_cli(argv) == 3
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: reesgor")
    for at in (0, len(argv)):
        target = tmp_path / ("help%d.txt" % at)
        code = run_cli(argv[:at] + ["--out", str(target)] + argv[at:])
        assert code == 3
        assert capsys.readouterr().out == ""
        assert target.read_text() == help_text


def test_cli_usage_error_goes_to_out(tmp_path, capsys):
    """--out is read before the rest of the line, so a usage error's
    report is written there too."""
    target = tmp_path / "report.txt"
    code = run_cli(["check", corpus_path("hochster_roberts"), "--mode",
                    "foo", "--out", str(target)])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert inputfmt.parse_report(target.read_text())["error"]


def test_cli_examples_unknown_name():
    assert run(["examples", "nope"])[0] == 3


def test_cli_examples_prints_document():
    for name in corpus.EXAMPLES:
        code, out = run(["examples", name])
        assert code == 0
        with open(corpus_path(name)) as fh:
            assert out == fh.read(), name


def test_cli_out_flag(tmp_path):
    target = tmp_path / "report.txt"
    code, _ = run(["invariants", corpus_path("regular_base"),
                   "--out", str(target)])
    assert code == 0
    report = inputfmt.parse_report(target.read_text())
    assert report["depth"] == "2"


@pytest.mark.parametrize("cmd", [["check", corpus_path("hochster_roberts")],
                                 ["examples", "hochster_roberts"]])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_cli_unwritable_out_exits_3(tmp_path, capsys, cmd, where):
    """A report or document that cannot be written to --out is exit 3,
    with one stderr line naming the path and nothing on stdout."""
    out = {"missing_dir": tmp_path / "missing" / "report.txt",
           "directory": tmp_path}[where]
    code = run_cli(cmd + ["--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 3
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith("reesgor: cannot write %s: " % out)


def test_cli_resolution_cap_exhausted():
    code, out = run(["oracle", corpus_path("hochster_roberts"),
                     "--resolution-cap", "1"])
    assert code == 4
    assert "resource" in out


def test_cli_char_override():
    code, _ = run(["check", corpus_path("hochster_roberts"), "--char", "0"])
    assert code == 0


def test_cli_out_of_memory_exits_4(monkeypatch):
    """Running out of memory is a resource limit (exit 4), with a
    report."""
    from reesgor import invariants

    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(invariants, "depth_and_type", exhausted)
    code, out = run(["invariants", corpus_path("hochster_roberts")])
    assert code == 4
    assert inputfmt.parse_report(out)["error"] == "out of memory"
    assert "resource limit hit" in out


def test_cli_route_disagreement_exits_5(monkeypatch):
    from reesgor.resolutions import ModulePresentation
    socle = ModulePresentation.socle_dim
    # the linear-algebra socle route now reports one more than it finds
    monkeypatch.setattr(ModulePresentation, "socle_dim",
                        lambda self: socle(self) + 1)
    code, out = run(["check", corpus_path("hochster_roberts")])
    assert code == 5
    assert "routes disagree" in inputfmt.parse_report(out)["error"]
    assert "engine bug" in out


def test_cli_unexpected_exception_is_an_engine_bug(monkeypatch, capsys):
    """An exception that no exit code names is an engine bug (exit 5),
    reported with its traceback on stderr, never Python's exit 1."""
    from reesgor import invariants
    from reesgor.errors import NotDivisible

    def broken(*args, **kwargs):
        raise NotDivisible("x does not divide y")
    monkeypatch.setattr(invariants, "depth_and_type", broken)
    code = run_cli(["invariants", corpus_path("hochster_roberts")])
    stdout, stderr = capsys.readouterr()
    assert code == 5
    assert inputfmt.parse_report(stdout)["error"] == \
        "NotDivisible: x does not divide y"
    assert stdout.endswith("# engine bug\n")
    assert stderr.startswith("Traceback")
    assert "NotDivisible: x does not divide y" in stderr


def test_package_import_leaves_cli_unloaded():
    """`python -m reesgor.cli` warns when the package already loaded it."""
    src = os.path.dirname(os.path.dirname(reesgor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import reesgor, sys; "
                    "assert 'reesgor.cli' not in sys.modules"],
                   env=env, check=True)


def test_package_modules_read_every_import():
    """An AST scan: each name a module of the package imports is read in
    that module (the package's __init__ only re-exports)."""
    pkg = os.path.dirname(reesgor.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += ["%s:%d %s" % (os.path.basename(path), line, name)
                   for name, line in bound.items() if name not in read]
    assert not unused, unused
