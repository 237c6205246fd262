"""Command-line interface.

Subcommands: check, oracle, shimoda, buchsbaum, invariants, s2, examples.
Exit codes: 0 Gorenstein, 1 not Gorenstein, 2 hypothesis not satisfied,
3 input or usage error, 4 resource exceeded (a cap, or out of memory),
5 two routes that must agree disagreed (an engine bug, never a verdict).
"""

import argparse
import sys

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


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 3); argparse would exit 2,
    the code of a ring outside the theorem hypotheses."""

    def error(self, message):
        raise InputError(message)


def _build_parser():
    p = _Parser(
        prog="reesgor",
        description="Decide Gorensteinness of the Rees algebra of a power "
                    "of a parameter ideal.")
    p.add_argument("command",
                   choices=["check", "oracle", "shimoda", "buchsbaum",
                            "invariants", "s2", "examples"])
    p.add_argument("target", help="input file, or example name for "
                                  "the examples command")
    p.add_argument("--mode", choices=["criteria", "oracle", "both"],
                   default="criteria")
    p.add_argument("--char", type=int, default=None,
                   help="override the coefficient characteristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution-cap", type=_non_negative, default=None)
    p.add_argument("--out", default=None)
    return p


def _non_negative(text):
    """The value of a count option, ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def run_cli(argv=None):
    args = None
    try:
        args = _build_parser().parse_args(argv)
        code, pairs, narrative = _dispatch(args)
    except InputError as e:
        _emit(args, [("error", str(e))], ["input error"])
        return EXIT_INPUT
    except (ResourceExceeded, NoStabilization) as e:
        _emit(args, [("error", str(e))], ["resource limit hit"])
        return EXIT_RESOURCE
    except MemoryError:
        # reported once the handler has dropped the traceback, whose
        # frames hold the memory that ran out
        code, pairs, narrative = (EXIT_RESOURCE, [("error", "out of memory")],
                                  ["resource limit hit"])
    except (HypothesisNotVerified, NotParameters, PairNotFound,
            DepthNotOne, WrongDimension) as e:
        _emit(args, [("error", str(e))], ["outside the theorem hypotheses"])
        return EXIT_HYPOTHESIS
    except EquivalenceViolation as e:
        _emit(args, [("error", str(e))], ["routes disagree: engine bug"])
        return EXIT_DISAGREE
    except OSError as e:
        _emit(args, [("error", str(e))], ["cannot read input"])
        return EXIT_INPUT
    if pairs is not None:
        _emit(args, pairs, narrative)
    return code


def _emit(args, pairs, narrative):
    _write(args, inputfmt.format_report(pairs, narrative))


def _write(args, text):
    if args is not None and args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    with open(args.target) as fh:
        doc = inputfmt.parse_document(fh.read())
    A, q, power = doc.build(char_override=args.char)
    return A, q, power


def _ideal_str(ideal):
    return "(" + ", ".join(str(g) for g in ideal.gens) + ")"


def _dispatch(args):
    if args.command == "examples":
        if args.target not in corpus.EXAMPLES:
            raise InputError("unknown example %r (have: %s)"
                             % (args.target,
                                ", ".join(sorted(corpus.EXAMPLES))))
        _write(args, corpus.TEXTS[args.target])
        return EXIT_GORENSTEIN, None, None

    A, q, power = _load(args)

    if args.command == "invariants":
        rep = invariants.depth_and_type(A, length_cap=args.resolution_cap)
        pairs = [("ring", A.label or "input"), ("dim", rep.dim),
                 ("depth", rep.depth), ("pd", rep.pd), ("cm", rep.cm),
                 ("type", rep.type)]
        return EXIT_GORENSTEIN, pairs, ["ring invariants"]

    if q is None:
        raise InputError("this command needs a params directive")

    if args.command == "check":
        return _run_check(args, A, q, power)
    if args.command == "oracle":
        return _run_oracle(args, A, q, power)
    if args.command == "shimoda":
        if len(q.gens) != 2:
            raise InputError("shimoda needs exactly two parameters")
        rep = decision.shimoda_check(A, q.gens[0], q.gens[1])
        pairs = [(k, v) for k, v in rep.items()]
        code = EXIT_GORENSTEIN if rep["verdict"] else EXIT_NOT_GORENSTEIN
        return code, pairs, ["pairwise criterion in dimension two"]
    if args.command == "buchsbaum":
        rep = decision.buchsbaum_criterion(A, q)
        pairs = [("e_m", rep.e_m), ("reduction_number", rep.reduction_number),
                 ("len_a_mod_b", rep.len_b), ("verdict", rep.verdict)]
        code = EXIT_GORENSTEIN if rep.verdict else EXIT_NOT_GORENSTEIN
        return code, pairs, ["multiplicity-two criterion (Buchsbaum caller "
                             "assertion not machine-verified)"]
    if args.command == "s2":
        _, pair, prof, data = decision.prepare(A, q, args.seed)
        pairs = [("pair_a", pair[0]), ("pair_b", pair[1]),
                 ("h1_length", data.h1_length),
                 ("conductor", _ideal_str(data.conductor)),
                 ("fractions", ", ".join("(%s)/(%s)" % (g, pair[0])
                                         for g in data.fraction_numerators)),
                 ("profile_verdict", prof.verdict)]
        if data.h1_length > 0:
            pairs.append(("h1_socle", s2.h1_socle(A, data)))
        return EXIT_GORENSTEIN, pairs, ["(S2)-ification data"]
    raise InputError("unknown command %r" % args.command)


def _run_check(args, A, q, power):
    if args.mode == "oracle":
        return _run_oracle(args, A, q, power)
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


def _run_oracle(args, A, q, power):
    n = power if power is not None else A.dim()
    rp = oracle.rees_presentation(A, q, n)
    o = oracle.graded_gorenstein_oracle(rp, length_cap=args.resolution_cap)
    pairs = [("power", n), ("ambient_vars", rp.ring.ambient.n),
             ("dim", o["dim"]), ("pd", o["pd"]), ("cm", o["cm"]),
             ("type", o["type"]), ("gorenstein", o["gorenstein"])]
    code = EXIT_GORENSTEIN if o["gorenstein"] else EXIT_NOT_GORENSTEIN
    return code, pairs, ["direct resolution oracle on the Rees presentation"]


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
