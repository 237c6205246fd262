"""Command-line interface.

Subcommands: check, oracle, shimoda, buchsbaum, invariants, s2, examples.
`run_cli` writes one report (for examples, one document) and returns the
exit code: 0 Gorenstein, 1 not Gorenstein, 2 hypothesis not satisfied,
3 input or usage error, help, unreadable input or an unwritable report, 4
resource exceeded, 5 an engine bug: routes disagreed, or any exception
the table `_FAILURES` does not name.  Only a verdict exits 1.
"""

import argparse
import sys
import traceback

from .errors import (DepthNotOne, EquivalenceViolation,
                     HypothesisNotVerified, InputError, NoStabilization,
                     NotParameters, PairNotFound, ResourceExceeded,
                     WrongDimension)
from . import corpus, decision, inputfmt, invariants, oracle, s2

EXIT_GORENSTEIN = 0
EXIT_NOT_GORENSTEIN = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_DISAGREE = 5

# (exception types, exit code, narrative) of every failure that ends a
# run with an error report; any other exception is an engine bug
_FAILURES = (
    ((InputError,), EXIT_INPUT, "input error"),
    ((OSError, UnicodeDecodeError), EXIT_INPUT, "cannot read input"),
    ((ResourceExceeded, NoStabilization), EXIT_RESOURCE,
     "resource limit hit"),
    ((HypothesisNotVerified, NotParameters, PairNotFound, DepthNotOne,
      WrongDimension), EXIT_HYPOTHESIS, "outside the theorem hypotheses"),
    ((EquivalenceViolation,), EXIT_DISAGREE, "routes disagree: engine bug"),
)


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 3); argparse would exit 2,
    the code of a ring outside the theorem hypotheses."""

    def error(self, message):
        raise InputError(message)


# help and --out, read before the full parse, so that help and usage
# errors are written to --out too; argparse's own help would print and
# exit 0, the Gorenstein code
_FIRST = _Parser(add_help=False)
_FIRST.add_argument("-h", "--help", action="store_true",
                    help="show this help and exit 3")
_FIRST.add_argument("--out")


def _build_parser():
    p = _Parser(
        prog="reesgor", add_help=False, parents=[_FIRST],
        description="Decide Gorensteinness of the Rees algebra of a power "
                    "of a parameter ideal.")
    p.add_argument("command",
                   choices=["check", "oracle", "shimoda", "buchsbaum",
                            "invariants", "s2", "examples"])
    p.add_argument("target", help="input file, or example name for "
                                  "the examples command")
    p.add_argument("--mode", choices=["criteria", "both"],
                   default="criteria")
    p.add_argument("--char", type=int, default=None,
                   help="override the coefficient characteristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution-cap", type=_non_negative, default=None)
    return p


def _non_negative(text):
    """The value of a count option, ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def run_cli(argv=None):
    out = None
    try:
        first = _FIRST.parse_known_args(argv)[0]
        out, parser = first.out, _build_parser()
        if first.help:
            code, text = EXIT_INPUT, parser.format_help()
        else:
            code, text = _dispatch(parser.parse_args(argv))
    except MemoryError:
        # reported once the handler has dropped the traceback, whose
        # frames hold the memory that ran out
        code, text = EXIT_RESOURCE, None
    except Exception as e:
        for types, code, narrative in _FAILURES:
            if isinstance(e, types):
                message = str(e)
                break
        else:
            code, narrative = EXIT_DISAGREE, "engine bug"
            message = "%s: %s" % (type(e).__name__, e)
            traceback.print_exc()
        text = inputfmt.format_report([("error", message)], [narrative])
    if text is None:
        text = inputfmt.format_report([("error", "out of memory")],
                                      ["resource limit hit"])
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        print("reesgor: cannot write %s: %s"
              % (out or "standard output", e.strerror or e), file=sys.stderr)
        return EXIT_INPUT
    return code


def _ideal_str(ideal):
    return "(" + ", ".join(str(g) for g in ideal.gens) + ")"


def _dispatch(args):
    """The exit code and the text of a run that ends without failing."""
    if args.command == "examples":
        if args.target not in corpus.EXAMPLES:
            raise InputError("unknown example %r (have: %s)"
                             % (args.target,
                                ", ".join(sorted(corpus.EXAMPLES))))
        return EXIT_GORENSTEIN, corpus.TEXTS[args.target]

    with open(args.target, encoding="utf-8") as fh:
        doc = inputfmt.parse_document(fh.read())
    A, q, power = doc.build(char_override=args.char)

    if args.command == "invariants":
        rep = invariants.depth_and_type(A, length_cap=args.resolution_cap)
        code = EXIT_GORENSTEIN
        pairs = [("ring", A.label or "input"), ("dim", rep.dim),
                 ("depth", rep.depth), ("pd", rep.pd), ("cm", rep.cm),
                 ("type", rep.type)]
        narrative = ["ring invariants"]
    elif q is None:
        raise InputError("this command needs a params directive")
    elif args.command == "check":
        code, pairs, narrative = _run_check(args, A, q)
    elif args.command == "oracle":
        n = power if power is not None else A.dim()
        rp = oracle.rees_presentation(A, q, n)
        o = oracle.graded_gorenstein_oracle(rp, length_cap=args.resolution_cap)
        code = EXIT_GORENSTEIN if o["gorenstein"] else EXIT_NOT_GORENSTEIN
        pairs = [("power", n), ("ambient_vars", rp.ring.ambient.n),
                 ("dim", o["dim"]), ("pd", o["pd"]), ("cm", o["cm"]),
                 ("type", o["type"]), ("gorenstein", o["gorenstein"])]
        narrative = ["direct resolution oracle on the Rees presentation"]
    elif args.command == "shimoda":
        if len(q.gens) != 2:
            raise InputError("shimoda needs exactly two parameters")
        rep = decision.shimoda_check(A, q.gens[0], q.gens[1])
        code = EXIT_GORENSTEIN if rep["verdict"] else EXIT_NOT_GORENSTEIN
        pairs = list(rep.items())
        narrative = ["pairwise criterion in dimension two"]
    elif args.command == "buchsbaum":
        rep = decision.buchsbaum_criterion(A, q)
        code = EXIT_GORENSTEIN if rep.verdict else EXIT_NOT_GORENSTEIN
        pairs = [("e_m", rep.e_m), ("reduction_number", rep.reduction_number),
                 ("len_a_mod_b", rep.len_b), ("verdict", rep.verdict)]
        narrative = ["multiplicity-two criterion (Buchsbaum caller "
                     "assertion not machine-verified)"]
    else:
        # s2, the last of the parser's choices
        _, prof, data = decision.prepare(q, args.seed)
        a, b = data.pair
        code = EXIT_GORENSTEIN
        pairs = [("pair_a", a), ("pair_b", b),
                 ("h1_length", data.h1_length),
                 ("conductor", _ideal_str(data.conductor)),
                 ("fractions", ", ".join("(%s)/(%s)" % (g, a)
                                         for g in data.fraction_numerators)),
                 ("profile_verdict", prof.verdict)]
        if data.h1_length > 0:
            pairs.append(("h1_socle", s2.h1_socle(A, data)))
        narrative = ["(S2)-ification data"]
    return code, inputfmt.format_report(pairs, narrative)


def _run_check(args, A, q):
    report = decision.decide(A, q, run_oracle=args.mode == "both",
                             seed=args.seed, length_cap=args.resolution_cap)
    pairs = _report_pairs(report)
    if report.verdict:
        code = EXIT_GORENSTEIN
        narrative = ["Gorenstein: first cohomology has a simple socle and "
                     "the conductor equals the colon-sum ideal",
                     "the depth/type/multiplicity route agrees"]
    elif report.h1_length == 0:
        code = EXIT_HYPOTHESIS
        narrative = ["first cohomology vanishes: the criterion's premise "
                     "is unmet (the ring is Cohen-Macaulay)"]
    else:
        code = EXIT_NOT_GORENSTEIN
        narrative = ["not Gorenstein: a criterion clause failed"]
    return code, pairs, narrative


def _report_pairs(report):
    pairs = [("ring", report.ring.label or "input"),
             ("dim", report.d),
             ("params", _ideal_str(report.q)),
             ("profile_verdict", report.profile.verdict),
             ("standard", report.standard),
             ("h1_length", report.h1_length),
             ("h1_socle", report.h1_socle),
             ("conductor", _ideal_str(report.conductor)),
             ("sigma", _ideal_str(report.sigma))]
    for key, value in report.cond2.items():
        if key in ("sigma", "h1_socle"):
            continue
        pairs.append(("cond2.%s" % key, value))
    for key, value in report.cond3.items():
        pairs.append(("cond3.%s" % key, value))
    if report.consequences:
        for key, value in report.consequences.items():
            pairs.append(("consequence.%s" % key, value))
    if report.oracle_verdict is not None:
        pairs.append(("oracle.gorenstein", report.oracle_verdict))
    pairs.append(("verdict", report.verdict))
    return pairs


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
