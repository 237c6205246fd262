"""Every golden CLI report in tests/golden, run in process.

tests/golden/<ring>.<cmd>.<char>.txt holds the standard output of
`reesgor <cmd> corpus/<ring>.ring --char <char>`, with check run as
`--mode both`; for the dimension-three ring idealization_xyz,
<ring>.criteria.<char>.txt holds `check --mode criteria`.  Each report
must equal its file byte for byte and exit with its code.  The one report
left out, idealization_xyz.check.32003.txt, runs the d = 3 oracle for
about a minute; CI diffs it under a memory cap.  After a change that is
meant to alter a report, rewrite the files with
`sh tests/golden/regenerate.sh` and review the diff.
"""

import contextlib
import io
import os

import pytest

from reesgor.cli import run_cli

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
CORPUS = os.path.join(HERE, os.pardir, "corpus")

CHARS = (32003, 0, 2, 3)
PLANE_RINGS = ("hochster_roberts", "two_planes", "idealization_xy",
               "idealization_x2y3", "regular_base")

# regular_base is Cohen-Macaulay: the criterion's premise fails (2),
# shimoda and the oracle find it not Gorenstein (1) and buchsbaum's
# depth-one premise fails (2); on idealization_x2y3, m does not annihilate
# H^1, so buchsbaum's Buchsbaum premise fails (2); shimoda needs two
# parameters, so on the dimension-three ring it is an input error (3)
EXIT = {
    ("regular_base", "check"): 2,
    ("regular_base", "shimoda"): 1,
    ("regular_base", "oracle"): 1,
    ("regular_base", "buchsbaum"): 2,
    ("idealization_x2y3", "buchsbaum"): 2,
    ("idealization_xyz", "shimoda"): 3,
}

ARGS = {"check": ["check", "--mode", "both"],
        "criteria": ["check", "--mode", "criteria"]}

CASES = ([(name, cmd, char) for char in CHARS for name in PLANE_RINGS
          for cmd in ("check", "s2", "shimoda", "buchsbaum", "invariants",
                      "oracle")]
         + [("idealization_xyz", cmd, char) for char in CHARS
            for cmd in ("criteria", "s2", "shimoda", "buchsbaum",
                        "invariants")])


def test_every_golden_report_but_the_dimension_three_oracle_is_run():
    files = set(os.listdir(GOLDEN)) - {"regenerate.sh"}
    run = {"%s.%s.%d.txt" % case for case in CASES}
    assert len(run) == 140
    assert files - run == {"idealization_xyz.check.32003.txt"}


@pytest.mark.parametrize("name, cmd, char", CASES,
                         ids=["%s.%s.%d" % case for case in CASES])
def test_golden_report(name, cmd, char):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(ARGS.get(cmd, [cmd]) + [
            os.path.join(CORPUS, name + ".ring"), "--char", str(char)])
    with open(os.path.join(GOLDEN, "%s.%s.%d.txt" % (name, cmd, char)),
              newline="") as fh:
        assert out.getvalue() == fh.read()
    assert code == EXIT.get((name, cmd), 0)
