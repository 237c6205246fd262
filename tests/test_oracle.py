"""Rees algebra presentations and the direct Gorenstein oracle."""

import contextlib
import io
import itertools
import math
import os
import sys

import pytest

from reesgor import (corpus, decision, groebner, hilbert, idealops,
                     inputfmt, modules, oracle, resolutions, rings)
from reesgor.cli import run_cli
from reesgor.errors import (DepthNotOne, EquivalenceViolation,
                            NotParameters, WrongDimension)
from reesgor.fields import DEFAULT_PRIME
from reesgor.groebner import groebner_basis

from reference import count_calls, is_member


def test_koszul_presentation(regular_base):
    A, q = regular_base
    rp = oracle.rees_presentation(A, q, 1)
    assert rp.ring.ambient.n == 4
    x, y, T0, T1 = rp.ring.ambient.gens()
    gb = groebner_basis(rp.ring.defining)
    assert len(rp.ring.defining) == 1
    assert is_member(y * T0 - x * T1, gb)
    o = oracle.graded_gorenstein_oracle(rp)
    assert o["gorenstein"]          # a hypersurface


def test_veronese_presentation_and_type(regular_base):
    A, q = regular_base
    rp = oracle.rees_presentation(A, q, 2)
    assert rp.ring.ambient.n == 5
    x, y, T0, T1, T2 = rp.ring.ambient.gens()
    gb = groebner_basis(rp.ring.defining)
    for f in (T0 * T2 - T1 * T1, x * T1 - y * T0, x * T2 - y * T1):
        assert is_member(f, gb)
    o = oracle.graded_gorenstein_oracle(rp)
    assert o["cm"]
    assert o["type"] == 2
    assert not o["gorenstein"]


def test_hochster_roberts_oracle(hr):
    A, q = hr
    rp = oracle.rees_presentation(A, q, 2)
    assert rp.ring.ambient.n == 7
    o = oracle.graded_gorenstein_oracle(rp)
    assert o["cm"]
    assert o["type"] == 1
    assert o["gorenstein"]


def test_presentation_dimension_on_corpus(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        d = A.dim()
        for n in (1, d):
            rp = oracle.rees_presentation(A, q, n)
            assert rp.ring.dim() == d + 1, (name, n)


def test_presentation_rejects_non_parameters(two_planes):
    A, _ = two_planes
    x, y, u, v = A.gens()
    with pytest.raises(NotParameters):
        oracle.rees_presentation(A, A.ideal([A.reduce(x + u), y]), 1)


def test_n_neq_d_suite_hochster_roberts(hr):
    A, q = hr
    verdict = decision.decide(A, q).verdict
    out = oracle.n_neq_d_suite(A, q, 2, (1, 2, 3), criteria_verdict=verdict)
    assert out == {1: False, 2: True, 3: False}


def test_n_neq_d_suite_two_planes(two_planes):
    A, q = two_planes
    out = oracle.n_neq_d_suite(A, q, 2, (1, 2))
    assert out == {1: False, 2: True}


def test_rees_variables_avoid_the_names_of_the_ring(two_planes):
    """A T_j whose name the ring already has gains underscores until it
    is fresh: two_planes with x named T0 and u named T1 presents R(q^2)
    with T0_ and T1_, and its oracle reads as two_planes' does."""
    A, q, _ = inputfmt.parse_document(
        "vars T0 y T1 v\nideal T0*T1, T0*v, y*T1, y*v\n"
        "params T0 + T1, y + v\n").build()
    rp = oracle.rees_presentation(A, q, 2)
    assert rp.ring.names == ("T0", "y", "T1", "v", "T0_", "T1_", "T2")
    want = oracle.rees_presentation(*two_planes, 2)
    assert (oracle.graded_gorenstein_oracle(rp)
            == oracle.graded_gorenstein_oracle(want))


def test_n_neq_d_suite_needs_d_to_be_dim_a(two_planes):
    """A d that is not dim A is the caller's error, not a disagreement
    of routes."""
    A, q = two_planes
    with pytest.raises(WrongDimension):
        oracle.n_neq_d_suite(A, q, 3, (2, 3))


def test_n_neq_d_suite_needs_depth_one(regular_base):
    A, q = regular_base
    with pytest.raises(DepthNotOne):
        oracle.n_neq_d_suite(A, q, 2, (1, 2))


@pytest.mark.parametrize("name",
                         ["hochster_roberts", "two_planes", "regular_base"])
def test_substitution_check_catches_a_wrong_rees_generator(monkeypatch, name):
    """T_0^2 x appended to the eliminated basis maps to g_0^2 x t^2, whose
    part of T-degree 2 is not in I (I is zero on regular_base): the
    substitution check raises."""
    A, q, _ = corpus.example_document(name).build()
    real = idealops.eliminate

    def wrong(ring, gens, block):
        out = real(ring, gens, block)
        sub = out[0].ring
        return list(out) + [sub.gen(A.ambient.n) ** 2 * sub.gen(0)]

    monkeypatch.setattr(idealops, "eliminate", wrong)
    with pytest.raises(EquivalenceViolation, match="substitution"):
        oracle.rees_presentation(A, q, 2)


def test_substitution_check_catches_a_wrong_veronese_generator(
        monkeypatch):
    """T_0^2 a appended to the basis computed in R(q^2)'s own ring,
    after an exact R(q), fails the substitution check too: the CLI
    reports it as a disagreement (exit 5)."""
    real = oracle.groebner_basis

    def wrong(gens):
        out = real(gens)
        ring = out[0].ring
        return out + [ring.gen(ring.n - 3) ** 2 * ring.gen(0)]

    monkeypatch.setattr(oracle, "groebner_basis", wrong)
    A, q, _ = corpus.example_document("hochster_roberts").build()
    with pytest.raises(EquivalenceViolation, match="substitution"):
        oracle.rees_presentation(A, q, 2)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus",
                        "hochster_roberts.ring")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["oracle", path]) == 5


D2_CORPUS = ("hochster_roberts", "two_planes", "idealization_xy",
             "idealization_x2y3", "regular_base")


def _record_calls(monkeypatch, fn, record):
    """Wrap fn at every module binding in reesgor, recording its args."""
    def wrapper(*args, **kwargs):
        record.append(args)
        return fn(*args, **kwargs)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "reesgor":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_oracle_computes_one_basis_and_one_numerator_per_rees_ring(
        monkeypatch):
    """R(q^2) costs one elimination, for R(q), and one Groebner basis in
    its own ring: the ring keeps that basis as gb(), the resolution's
    frame starts from it, and the ring's dimension and the resolution's
    exactness check share one Hilbert numerator of its leads."""
    bases, numerators, runs = [], [], []
    _record_calls(monkeypatch, groebner.groebner_basis, bases)
    _record_calls(monkeypatch, hilbert.hilbert_numerator, numerators)
    _record_calls(monkeypatch, modules.module_buchberger, runs)
    for name in D2_CORPUS:
        A, q, _ = corpus.example_document(name).build()
        del bases[:], numerators[:], runs[:]
        rp = oracle.rees_presentation(A, q, 2)
        oracle.graded_gorenstein_oracle(rp)
        t_names = set(rp.ring.names) - set(A.names)
        on_rees = [args for args in bases
                   if args[0] and t_names <= set(args[0][0].ring.names)]
        assert len(on_rees) == 1, name
        assert on_rees[0][0][0].ring == rp.ring.ambient, name
        assert len([args for args in numerators
                    if tuple(args[1]) == rp.ring.weights]) == 1, name
        rees_runs = [args for args in runs
                     if t_names <= set(args[0][0].module.ring.names)]
        assert len(rees_runs) == 1, name
        eliminations = [args[0][0].module.ring for args in runs
                        if "@t" in args[0][0].module.ring.names]
        assert len(eliminations) == 1, name
        assert eliminations[0].n == A.ambient.n + len(q.gens) + 1, name
        assert eliminations[0].order.kind == "block", name


def test_verdicts_neither_minimalize_nor_take_iterated_syzygies(
        monkeypatch):
    """Both routes read Betti numbers and Ext off Schreyer frames: with the
    rings built, neither `decide(A, q, run_oracle=True)` on a d = 2 corpus
    ring nor the oracle of R(q^n) at n = 2, 3 calls `minimalize_step` or
    `module_syzygies`, which serve the tests' reference resolution and the
    idealization builder."""
    built = [corpus.example_document(name).build()[:2] for name in D2_CORPUS]
    steps = count_calls(monkeypatch, resolutions.minimalize_step)
    syzygies = count_calls(monkeypatch, modules.module_syzygies)
    for A, q in built:
        decision.decide(A, q, run_oracle=True)
        for n in (2, 3):
            oracle.graded_gorenstein_oracle(oracle.rees_presentation(A, q, n))
    assert steps == [] and syzygies == []


# S-vectors each ring reduces in the elimination of R(q) (block order,
# pairs taken by the degree of their lcm first), and in the grevlex basis
# of R(q^n) in its own ring at n = 2, 3; the direct elimination of R(q^n)
# in P[T, t] reduced 40, 46; 45, 76; 24, 45; 24, 45; 8, 20
REES_S_VECTORS = {
    "hochster_roberts": (24, 16, 30), "two_planes": (24, 16, 30),
    "idealization_xy": (11, 16, 30), "idealization_x2y3": (11, 16, 30),
    "regular_base": (2, 2, 8)}


@pytest.mark.parametrize("name", D2_CORPUS)
def test_rees_elimination_takes_pairs_by_degree(monkeypatch, name):
    """The elimination of R(q) takes its pairs by degree first under the
    block order, and R(q^n)'s basis in its own ring takes the rest: the
    largest such run reduces exactly the S-vectors counted above.  A fresh
    q is built for each run, since R(q) is memoized."""
    real = modules.module_buchberger
    s_vectors = count_calls(monkeypatch, modules._s_vector)
    one, *veronese = REES_S_VECTORS[name]
    for n, kind, want in [(1, "block", one), (2, "grevlex", veronese[0]),
                          (3, "grevlex", veronese[1])]:
        A, q, _ = corpus.example_document(name).build()
        runs = []

        def counting(gens):
            start = len(s_vectors)
            data = real(gens)
            ring = gens[0].module.ring
            if ring.order.kind == kind and ring.n > A.ambient.n:
                runs.append(len(s_vectors) - start)
            return data
        monkeypatch.setattr(groebner, "module_buchberger", counting)
        oracle.rees_presentation(A, q, n)
        assert max(runs) == want, (n, runs)


def test_rees_ideal_is_eliminated_once_per_q(monkeypatch):
    """R(q) is eliminated once per q and kept on q as a tuple: the power
    suite over n = 1, 2, 3 and a repeated power run one block-order
    elimination between them."""
    A, q, _ = corpus.example_document("hochster_roberts").build()
    real = modules.module_buchberger
    eliminations = []

    def counting(gens):
        if gens[0].module.ring.order.kind == "block":
            eliminations.append(gens)
        return real(gens)
    monkeypatch.setattr(groebner, "module_buchberger", counting)
    oracle.n_neq_d_suite(A, q, 2, (1, 2, 3))
    oracle.rees_presentation(A, q, 2)
    assert len(eliminations) == 1
    assert isinstance(q.rees_ideal(), tuple)


def _direct_rees_basis(A, q, n):
    """The reduced basis of the Rees ideal of q^n by eliminating t from
    I + (T_j - g_j t) in P[T, t], the route the Veronese replaces."""
    amb = A.ambient
    gens_n = [math.prod(combo, start=amb.one) for combo in
              itertools.combinations_with_replacement(q.gens, n)]
    names = tuple(oracle._t_name(amb, j) for j in range(len(gens_n)))
    big = amb.extend(names + ("@t",),
                     tuple(g.degree() + 1 for g in gens_n) + (1,))
    t = big.gen(big.n - 1)
    work = [big.transfer(g) for g in A.defining]
    for j, g in enumerate(gens_n):
        work.append(big.gen(amb.n + j) - big.transfer(g) * t)
    return tuple(idealops.eliminate(big, work, (big.n - 1,)))


@pytest.mark.parametrize("char", [DEFAULT_PRIME, 0, 2, 3])
def test_veronese_route_matches_the_direct_elimination(char):
    """R(q^n) read off R(q) has the reduced basis the direct elimination
    gives, in the same ring, term for term."""
    cases = [(name, n) for name in D2_CORPUS for n in (1, 2, 3, 4)]
    cases += [("idealization_xyz", 2), ("idealization_xyz", 3)]
    for name, n in cases:
        A, q, _ = corpus.example_document(name).build(char_override=char)
        got = oracle.rees_presentation(A, q, n).ring
        want = _direct_rees_basis(A, q, n)
        assert got.ambient == want[0].ring, (name, char, n)
        assert got.gb() == want, (name, char, n)


@pytest.mark.parametrize("char", [DEFAULT_PRIME, 0, 2, 3])
def test_rees_ring_keeps_the_eliminated_basis(char):
    """The eliminated generators are the reduced basis of the Rees ideal
    under the ring's own order, so from_basis may keep them as gb()."""
    for name in D2_CORPUS:
        A, q, _ = corpus.example_document(name).build(char_override=char)
        for n in (2, 3):
            ring = oracle.rees_presentation(A, q, n).ring
            assert ring.gb() == tuple(groebner_basis(ring.defining)), \
                (name, char, n)
