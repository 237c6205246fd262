"""Rees algebra presentations and the direct Gorenstein oracle."""

import pytest

from reesgor import corpus, decision, oracle, rings
from reesgor.errors import DepthNotOne, NotParameters
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


@pytest.mark.parametrize("char", [DEFAULT_PRIME, 0, 2, 3])
def test_ring_basis_stays_reduced_with_a_new_last_variable(char):
    """The substitution check reduces against A.gb() moved into P[t]
    without a new Buchberger run: a reduced grevlex basis stays reduced
    when a last variable is added."""
    for name in corpus.EXAMPLES:
        A, _, _ = corpus.example_document(name).build(char_override=char)
        ext = A.ambient.extend(("@t",), (1,))
        moved = [ext.transfer(g) for g in A.gb()]
        assert groebner_basis(moved) == moved, (name, char)
