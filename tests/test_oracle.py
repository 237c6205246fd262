"""Rees algebra presentations and the direct Gorenstein oracle."""

import sys

import pytest

from reesgor import (corpus, decision, groebner, hilbert, idealops, modules,
                     oracle, rings)
from reesgor.errors import (DepthNotOne, EquivalenceViolation, NotParameters,
                            ResourceExceeded)
from reesgor.fields import GF, DEFAULT_PRIME
from reesgor.groebner import groebner_basis, is_member
from reesgor.polys import PolyRing

F = GF(DEFAULT_PRIME)


def test_power_monomials_count():
    R = PolyRing(("x", "y"), (1, 1), F)
    x, y = R.gens()
    assert [str(g) for g in oracle.power_monomials([x, y], 1)] == ["x", "y"]
    assert len(oracle.power_monomials([x, y], 3)) == 4
    assert len(oracle.power_monomials([x, y, x + y], 2)) == 6


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
        sub, out = real(ring, gens, block)
        return sub, list(out) + [sub.gen(A.ambient.n) ** 2 * sub.gen(0)]

    monkeypatch.setattr(idealops, "eliminate", wrong)
    with pytest.raises(EquivalenceViolation, match="substitution"):
        oracle.rees_presentation(A, q, 2)


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
    """The elimination is the only Groebner basis of the Rees ideal: the
    ring keeps it as gb(), the resolution's frame starts from it, and the
    ring's dimension and the resolution's exactness check share one
    Hilbert numerator of its leads."""
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
        assert on_rees[0][0][0].ring.n == rp.ring.ambient.n + 1, name
        assert len([args for args in numerators
                    if tuple(args[1]) == rp.ring.weights]) == 1, name
        rees_runs = [args for args in runs
                     if t_names <= set(args[0][0].module.ring.names)]
        assert len(rees_runs) == 1, name


# S-vectors the Rees elimination of each ring reduces at n = 2, 3 when
# pairs are taken by the degree of their lcm first; taken by the block
# order's lcm key alone they were 79, 136; 55, 116; 33, 82; 33, 82; 11, 35
REES_S_VECTORS = {
    "hochster_roberts": (40, 46), "two_planes": (45, 76),
    "idealization_xy": (24, 45), "idealization_x2y3": (24, 45),
    "regular_base": (8, 20)}


@pytest.mark.parametrize("name", D2_CORPUS)
def test_rees_elimination_takes_pairs_by_degree(monkeypatch, name):
    """Under the block order of the elimination, the pairs taken by
    degree first leave the fewest S-vectors to reduce: a pair cap of
    exactly that count finishes and one below it raises."""
    A, q, _ = corpus.example_document(name).build()
    real = modules.module_buchberger
    for n, want in zip((2, 3), REES_S_VECTORS[name]):
        for cap, enough in ((want, True), (want - 1, False)):
            def capped(gens, pair_cap=None, cap=cap):
                if gens[0].module.ring.order.kind == "block":
                    pair_cap = cap
                return real(gens, pair_cap)
            monkeypatch.setattr(groebner, "module_buchberger", capped)
            if enough:
                oracle.rees_presentation(A, q, n)
            else:
                with pytest.raises(ResourceExceeded):
                    oracle.rees_presentation(A, q, n)


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
