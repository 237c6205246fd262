"""Krull dimension, depth, type, multiplicity, reductions."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reesgor
from reesgor import corpus, decision, idealops, invariants, modules, rings, s2
from reesgor.errors import (NotArtinian, NotContained, NotParameters,
                            ResourceExceeded)
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.modules import FreeModule
from reesgor.polys import PolyRing
from reesgor.resolutions import subquotient

from reference import artinian_gorenstein_by_colon, count_calls

F = GF(DEFAULT_PRIME)


def test_dimensions_on_corpus(corpus_instances):
    for name, (A, _) in corpus_instances.items():
        assert A.dim() == 2, name


def test_depth_and_type_frozen_values(corpus_instances):
    want = {
        "hochster_roberts": (1, 3, False, 1),
        "two_planes": (1, 3, False, 1),
        "idealization_xy": (1, 3, False, 1),
        "idealization_x2y3": (1, 3, False, 1),
        "regular_base": (2, 0, True, 1),
    }
    for name, (A, _) in corpus_instances.items():
        rep = invariants.depth_and_type(A)
        depth, pd, cm, rtype = want[name]
        assert (rep.depth, rep.pd, rep.cm, rep.type) == \
            (depth, pd, cm, rtype), name


def test_artinian_length_of_parameter_quotients(corpus_instances):
    want = {
        "hochster_roberts": 3,
        "two_planes": 3,
        "idealization_xy": 3,
        "idealization_x2y3": 18,
        "regular_base": 1,
    }
    for name, (A, q) in corpus_instances.items():
        assert invariants.artinian_length(q) == want[name], name


def test_artinian_length_needs_finite_quotient():
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    with pytest.raises(NotArtinian):
        invariants.artinian_length(A.ideal([A.gen(0)]))


def test_artinian_invariants_answer_for_the_ring_of_the_ideal():
    """(x^2, y^2) on one ambient ring: in B = k[x,y] the quotient has
    length 4 and a simple socle, in A = k[x,y]/(xy) length 3 and the
    socle (x, y); each answer is read off the ideal alone."""
    amb = PolyRing(("x", "y"), (1, 1), F)
    x, y = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * y])
    B = rings.PresentedGradedRing(amb, [])
    for ring, length, gorenstein in ((B, 4, True), (A, 3, False)):
        J = ring.ideal([x * x, y * y])
        assert invariants.artinian_length(J) == length
        assert invariants.artinian_gorenstein(J) is gorenstein


def test_multiplicity_of_maximal_ideal(two_planes, hr):
    for (A, _), e in ((two_planes, 2), (hr, 2)):
        assert invariants.multiplicity(A.maximal_ideal()) == e


def test_multiplicity_weighted_polynomial_ring():
    # e((x, y); k[x, y]) = 1; parameters of higher degree scale it
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    x, y = A.gens()
    assert invariants.multiplicity(A.ideal([x, y])) == 1
    assert invariants.multiplicity(A.ideal([x * x, y])) == 2
    assert invariants.multiplicity(A.ideal([x * x, y ** 3])) == 6


@pytest.mark.parametrize("weights", [(1, 1), (1, 2)])
def test_parameter_multiplicity_in_a_weighted_polynomial_ring(weights):
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), weights, F), [])
    x, y = A.gens()
    for gens in ([x, y], [x * x, y], [x * x, y ** 3]):
        q = A.ideal(gens)
        assert invariants.parameter_multiplicity(q) == \
            invariants.multiplicity(q), (weights, gens)
    with pytest.raises(NotParameters):
        invariants.parameter_multiplicity(A.ideal([x]))


def _check_parameter_multiplicity(q, label):
    """chi(q; A) equals e_q by the difference scheme, and e_c for the
    conductor c, which q reduces on every corpus ring with H^1 != 0."""
    A = q.owner
    chi = invariants.parameter_multiplicity(q)
    assert type(chi) is int, label
    assert chi == invariants.multiplicity(q), label
    c = s2.s2_construct(A, s2.filter_regular_pair(A, q)).conductor
    if c.contains(A.ambient.one):
        return
    assert invariants.is_reduction(q, c) != invariants.NOT_FOUND, label
    assert chi == invariants.multiplicity(c), label


@pytest.mark.parametrize("char", [DEFAULT_PRIME, 0, 2, 3])
def test_parameter_multiplicity_matches_the_difference_scheme(char):
    for name in ("hochster_roberts", "two_planes", "idealization_xy",
                 "idealization_x2y3", "regular_base"):
        A, q, _ = corpus.example_document(name).build(char_override=char)
        _check_parameter_multiplicity(q, (name, char))


@pytest.mark.parametrize("params", [("x", "y", "z"), ("x^2", "y", "z")])
def test_parameter_multiplicity_in_dimension_three(params):
    A, q = corpus.build_idealization(("x", "y", "z"), (1, 1, 1), params)
    _check_parameter_multiplicity(q, params)


def test_is_reduction_of_the_maximal_ideal(two_planes):
    A, q = two_planes
    assert invariants.is_reduction(q, A.maximal_ideal()) == 1


def test_is_reduction_not_found():
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    x, y = A.gens()
    got = invariants.is_reduction(A.ideal([x]), A.ideal([x, y]))
    assert got == invariants.NOT_FOUND


def test_is_reduction_requires_containment():
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    x, y = A.gens()
    with pytest.raises(NotContained):
        invariants.is_reduction(A.ideal([x + y, y]), A.ideal([x]))


def test_artinian_gorenstein_detection():
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    x, y = A.gens()
    assert invariants.artinian_gorenstein(A.ideal([x * x, y * y]))
    assert invariants.artinian_gorenstein(A.ideal([x, y]))
    assert not invariants.artinian_gorenstein(A.ideal([x * x, x * y, y * y]))
    with pytest.raises(NotArtinian):
        invariants.artinian_gorenstein(A.ideal([x]))


@st.composite
def artinian_quotients(draw):
    """(A, J): A a weighted k[x,y] or k[x,y,z] over GF(32003), GF(2),
    GF(3) or QQ, sometimes modulo a random form, and J a pure power of
    each variable plus up to three random homogeneous forms."""
    field = draw(st.sampled_from([F, GF(2), GF(3), QQ]))
    n = draw(st.integers(2, 3))
    weights = draw(st.tuples(*[st.integers(1, 3)] * n))
    amb = PolyRing(("x", "y", "z")[:n], weights, field)

    def form():
        top = draw(st.tuples(*[st.integers(0, 2)] * n).filter(any))
        deg = amb.wdeg(top)
        pool = [e for e in itertools.product(range(deg + 1), repeat=n)
                if amb.wdeg(e) == deg]
        exps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                             unique=True))
        coeffs = st.integers(-5, 5).filter(bool)
        return amb.from_dict({e: amb.field.of(draw(coeffs)) for e in exps})

    A = rings.PresentedGradedRing(
        amb, [form() for _ in range(draw(st.integers(0, 1)))])
    powers = [amb.gen(i) ** draw(st.integers(1, 4)) for i in range(n)]
    forms = [form() for _ in range(draw(st.integers(0, 3)))]
    return A, A.ideal(powers + forms)


@settings(max_examples=100, deadline=None)
@given(artinian_quotients())
def test_artinian_gorenstein_matches_the_colon_route(case):
    """The socle of A/J by `socle_dim` is one-dimensional exactly when the
    socle (J : m)/J of the colon route has length one."""
    _, J = case
    assert invariants.artinian_gorenstein(J) == artinian_gorenstein_by_colon(J)


def test_artinian_gorenstein_runs_no_buchberger(corpus_instances,
                                               monkeypatch):
    """The socle of A/J is read off the cokernel of J's memoized basis:
    on every Artinian quotient that `decide` and the pairwise criterion
    test on the corpus, once J's basis is known, no Buchberger runs."""
    seen = []
    real = invariants.artinian_gorenstein
    monkeypatch.setattr(invariants, "artinian_gorenstein",
                        lambda J: seen.append(J) or real(J))
    for A, q in corpus_instances.values():
        decision.decide(A, q)
        decision.shimoda_check(A, *q.gens)
    assert len(seen) == 9
    runs = count_calls(monkeypatch, modules.module_buchberger)
    for J in seen:
        J.gb()
        runs.clear()
        real(J)
        assert runs == [], J


def test_a_length_cap_bounds_a_memoized_resolution():
    """Hochster-Roberts has pd 3: a cap of 1 is a resource limit on a
    fresh ring and after an uncapped resolution alike, and a cap of 3 is
    not."""
    fresh, _ = corpus.build_hochster_roberts()
    with pytest.raises(ResourceExceeded):
        invariants.depth_and_type(fresh, length_cap=1)
    A, _ = corpus.build_hochster_roberts()
    assert A.resolution().pd == 3
    with pytest.raises(ResourceExceeded):
        invariants.depth_and_type(A, length_cap=1)
    assert invariants.depth_and_type(A, length_cap=3).pd == 3


def test_type_via_last_betti_for_cm_quotient():
    # k[x,y,z]/(xy, yz, xz) is CM of type 2
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * y, y * z, x * z])
    rep = invariants.depth_and_type(A)
    assert rep.cm
    assert rep.type == 2


def test_type_in_depth_one_counts_the_socle_of_h1():
    """k[x,y] x (x,y)^2 has depth one and type 2: the dual Ext^{n-1}(A,
    omega) of its H^1 has a simple socle but two generators, and the type
    is the generator count, equal to dim Soc(A/xA) for x regular."""
    amb = PolyRing(("x", "y", "u", "v", "w"), (1, 1, 2, 2, 2), F)
    x, y, u, v, w = amb.gens()
    A = rings.PresentedGradedRing(
        amb, [u * u, u * v, u * w, v * v, v * w, w * w,
              y * u - x * v, y * v - x * w])
    rep = invariants.depth_and_type(A)
    assert (rep.depth, rep.cm, rep.type) == (1, False, 2)
    assert A.is_regular_element(x)
    xA = A.ideal([x]).preimage_gens()
    soc = idealops.colon(amb, xA, amb.gens())
    F1 = FreeModule(amb, 1)
    socle = subquotient(F1, [F1.basis_vec(0, g) for g in soc],
                        [F1.basis_vec(0, g) for g in xA])
    assert socle.length() == rep.type


def test_depth_and_type_of_a_generator_of_huge_degree_in_bounded_memory():
    """`depth_and_type` and `dim` of k[x,y,z]/(x^40000000 y), whose Hilbert
    numerator has degree 40000001, answer in a child limited to 1 GB of
    address space.  A document cannot ask for this ring, since the parser
    bounds exponents, so the child builds it through the library."""
    resource = pytest.importorskip("resource")
    script = ("from reesgor.invariants import depth_and_type\n"
              "from reesgor.polys import PolyRing\n"
              "from reesgor.rings import PresentedGradedRing\n"
              "P = PolyRing(('x', 'y', 'z'))\n"
              "x, y, z = P.gens()\n"
              "A = PresentedGradedRing(P, [x ** 40000000 * y])\n"
              "print(tuple(depth_and_type(A)))\n")
    src = os.path.dirname(os.path.dirname(reesgor.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, preexec_fn=limit,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "(2, 2, 1, True, 1)\n"
