"""The three workloads: what one operation calls and how its output is
checked.

Every operation goes through reesgor's public functions only.  An
operation returns its solve time (wall seconds around the public calls,
read from calibrate.clock(); parsing and building the input are
excluded) and the list of mismatches against the closed-form
expectations of `families`.  An unexpected
exception is a mismatch, never a crash of the run.
"""

import random

import reesgor

import calibrate
import families

GF = families.PRIME
POWERS = (2, 3, 4)
RESOLUTION = "resolutions.resolve_quotient_ring"
SESSION_SUITE = (2, 3)
# distinct rounds a timed corpus_check run cycles through
CORPUS_ROUNDS = 3


def _compare(bad, what, got, want):
    if got != want:
        bad.append("%s: got %r, expected %r" % (what, got, want))


def build(case):
    A, q, _ = reesgor.parse_document(case.text).build()
    return A, q


def corpus_check(case, tracer, held):
    """`reesgor check --mode both`: both criteria plus the oracle at n = d."""
    A, q = build(case)
    t0 = calibrate.clock()
    r = reesgor.decide(A, q, run_oracle=True)
    solve = calibrate.clock() - t0
    bad = []
    _compare(bad, "verdict", r.verdict, case.verdict)
    _compare(bad, "h1_length", r.h1_length, case.h1_length)
    _compare(bad, "h1_socle", r.h1_socle, case.h1_socle)
    _compare(bad, "e_c", r.cond3["e_c"], case.e_c)
    _compare(bad, "oracle_verdict", r.oracle_verdict, case.verdict)
    return solve, bad


def power_oracle(task, tracer, held):
    """Present R(q^n) and read Gorensteinness off its resolution.

    Under tracing the resolution the oracle computed is also checked
    against the recorded Betti numbers.
    """
    case, n = task
    A, q = build(case)
    if tracer is not None:
        tracer.results.clear()
    t0 = calibrate.clock()
    rp = reesgor.rees_presentation(A, q, n)
    got = reesgor.graded_gorenstein_oracle(rp)
    solve = calibrate.clock() - t0
    bad = []
    _compare(bad, "oracle n=%d" % n, got, case.oracle(n))
    if tracer is not None:
        res = [r for key, r in tracer.results if key == RESOLUTION]
        _compare(bad, "betti n=%d" % n, res[-1].betti() if res else None,
                 case.betti(n))
    return solve, bad


def session(case, tracer, held):
    """The README library session on one ring, in a warm process.

    `held` maps a case to its built ring, so the session keeps its rings
    across passes like an interactive user does.
    """
    if id(case) not in held:
        held[id(case)] = (case, build(case))
    A, q = held[id(case)][1]
    bad = []
    t0 = calibrate.clock()
    if case.d == 2:
        r = reesgor.decide(A, q, run_oracle=True)
        _compare(bad, "verdict", r.verdict, case.verdict)
        _compare(bad, "h1_length", r.h1_length, case.h1_length)
        _compare(bad, "oracle_verdict", r.oracle_verdict, case.verdict)
        try:
            suite = reesgor.n_neq_d_suite(A, q, 2, SESSION_SUITE,
                                          criteria_verdict=r.verdict)
        except reesgor.DepthNotOne:
            suite = "DepthNotOne"
        _compare(bad, "n_neq_d_suite", suite,
                 {n: n == 2 for n in SESSION_SUITE} if case.depth == 1
                 else "DepthNotOne")
        shimoda = reesgor.shimoda_check(A, q.gens[0], q.gens[1])
        _compare(bad, "shimoda", shimoda["verdict"], case.verdict)
    pair = reesgor.filter_regular_pair(A, q, 0)
    data = reesgor.s2_construct(A, pair)
    reesgor.conductor_crosscheck(A, data)
    profile = reesgor.hypothesis_profile(A, pair=pair)
    socle = reesgor.h1_socle(A, data) if data.h1_length > 0 else 0
    _compare(bad, "s2", (data.h1_length, socle, profile.verdict),
             (case.h1_length, case.h1_socle, True))
    inv = reesgor.depth_and_type(A)
    _compare(bad, "depth_and_type", (inv.dim, inv.depth, inv.cm, inv.type),
             (case.d, case.depth, case.cm, case.type))
    if case.family == "two_planes":
        b = reesgor.buchsbaum_criterion(A, q)
        _compare(bad, "buchsbaum", (b.e_m, b.verdict, b.len_b),
                 (2, True, 2))
    return calibrate.clock() - t0, bad


class Workload:
    def __init__(self, op, warm, plan, round_s, collect=()):
        self.op = op
        self.warm = warm
        self.plan = plan   # (seed, traced) -> rounds, each a list of tasks
        # wall seconds of one round at the seed version on the reference
        # machine (see design.json); a timed run of S seconds executes
        # round(S / round_s) rounds, at least one
        self.round_s = round_s
        self.collect = frozenset(collect)  # traced results the op checks

    def rounds_for(self, seconds):
        return max(1, int(round(seconds / self.round_s)))


def _corpus_plan(seed, traced=False):
    if traced:
        cases = families.cases(seed, GF, 2, idealizations=4)
        return [cases[i:i + 7] for i in range(0, len(cases), 7)]
    # a round is four family rounds of seven: sixteen idealizations, all
    # (a, b) in 1..4, so every round has the same mix of sizes
    cases = families.cases(seed, GF, 4 * CORPUS_ROUNDS, idealizations=4)
    return [cases[i:i + 28] for i in range(0, len(cases), 28)]


def _power_plan(seed, traced=False):
    if traced:
        return [[(case, n) for case in families.cases(seed, GF, 1)
                 for n in POWERS]]
    # one round: n = 2, 3, 4 on one case of each family, then n = 3 twice
    # on eight more two-planes and the other fifteen idealizations, so the
    # median and the tail fall among many n = 3 calls of similar cost,
    # with only the four heaviest calls above them
    rng = random.Random(seed)
    sweep, more = [], []
    for case in families.cases(seed, GF, 1, idealizations=16,
                               two_planes_count=9):
        if case.family in {c.family for c in sweep}:
            more.append(case)
        else:
            sweep.append(case)
    tasks = [(case, n) for case in sweep for n in POWERS]
    tasks += [(case, 3) for case in more] * 2
    rng.shuffle(tasks)
    return [tasks]


def _session_plan(seed, traced=False):
    cases = families.cases(seed, 0, 2 if traced else 6, with_dim3=True)
    return [cases[i:i + 5] for i in range(0, len(cases), 5)]


WORKLOADS = {
    "corpus_check": Workload(corpus_check, False, _corpus_plan, 25.0),
    "power_oracle": Workload(power_oracle, False, _power_plan, 34.0,
                             collect=[RESOLUTION]),
    "session_qq": Workload(session, True, _session_plan, 4.7),
}
