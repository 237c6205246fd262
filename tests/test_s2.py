"""Filter-regular pairs, the colon module, the conductor and the
hypothesis profile."""

import random
from itertools import permutations

import pytest

from reesgor import corpus, idealops, rings, s2
from reesgor.errors import NotApplicable
from reesgor.fields import GF, DEFAULT_PRIME
from reesgor.groebner import as_vecs
from reesgor.hilbert import INFINITE
from reesgor.modules import FreeModule
from reesgor.polys import PolyRing
from reesgor.resolutions import subquotient

from reference import conductor_by_colon, is_member

F = GF(DEFAULT_PRIME)

FROZEN = {
    # name -> (h1_length, h1_socle or None, conductor equals m?)
    "hochster_roberts": (1, 1, True),
    "two_planes": (1, 1, True),
    "idealization_xy": (1, 1, True),
    "idealization_x2y3": (6, 1, False),
    "regular_base": (0, None, False),
}


def test_filter_regular_pair_properties(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        a, b = s2.filter_regular_pair(A, q)
        assert A.is_regular_element(a), name
        assert q.contains(a) and q.contains(b), name
        assert s2.is_filter_regular(A, a, b), name


# the pairs at seeds 0-3 when q's generators, or the first eleven
# candidates, are refused as regular, recorded while every seeded random
# candidate was drawn before the first was tried
RANDOM_PAIRS = {
    ("two_planes", "gens"): [
        ("50*x + 54*y + 50*u + 54*v", "98*x + 6*y + 98*u + 6*v"),
        ("18*x + 98*y + 18*u + 98*v", "73*x + 9*y + 73*u + 9*v"),
        ("8*x + 11*y + 8*u + 11*v", "12*x + 47*y + 12*u + 47*v"),
        ("31*x + 70*y + 31*u + 70*v", "76*x + 17*y + 76*u + 17*v")],
    ("idealization_xyz", "gens"): [
        ("50*x + 54*y + 34*z", "98*x + 6*y + 66*z"),
        ("18*x + 98*y + 33*z", "73*x + 9*y + 16*z"),
        ("8*x + 11*y + 22*z", "12*x + 47*y + 95*z"),
        ("31*x + 70*y + 48*z", "76*x + 17*y + 78*z")],
    ("idealization_xyz", "eleven"): [
        ("65*x + 37*y + 97*z", "28*x + 18*y + 18*z"),
        ("13*x + 4*y + 56*z", "27*x + 63*y + 50*z"),
        ("75*x + 21*y + 82*z", "5*x + 88*y + 56*z"),
        ("34*x + 30*y + 92*z", "61*x + 71*y + 25*z")],
}


def test_random_pair_candidates_are_drawn_only_when_reached(
        corpus_instances, monkeypatch):
    """An ordered pair of q's generators wins on every corpus ring, with
    no random draw; once those pairs fail, the seeded random candidates
    come in the order and with the draws they always had."""
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)
    monkeypatch.setattr(random, "Random", CountingRandom)
    for name, (A, q) in corpus_instances.items():
        assert s2.filter_regular_pair(A, q) in permutations(q.gens, 2), name
    assert draws == []
    for (name, refused), want in RANDOM_PAIRS.items():
        A, q = corpus.EXAMPLES[name]()
        regular = A.is_regular_element
        for seed in range(4):
            tried = []

            def refuse(a):
                tried.append(a)
                return (a not in q.gens if refused == "gens"
                        else len(tried) > 11) and regular(a)
            monkeypatch.setattr(A, "is_regular_element", refuse)
            pair = s2.filter_regular_pair(A, q, seed)
            assert tuple(map(str, pair)) == want[seed], (name, seed)
    assert draws


def test_filter_regular_matches_saturation_definition(corpus_instances):
    """b is filter-regular on A/aA exactly when (I, a) : b lies in the
    saturation (I, a) : m^inf; checked on every ordered pair of distinct
    elements among q's generators, the variables and the sums of two of
    these of equal degree, with a regular on A."""
    outcomes = set()
    for name, (A, q) in corpus_instances.items():
        amb = A.ambient
        cands = []
        for g in list(q.gens) + amb.gens():
            if g not in cands:
                cands.append(g)
        cands += [g + h for i, g in enumerate(cands) for h in cands[i + 1:]
                  if g.degree() == h.degree()]
        for a in cands:
            if A.is_zero_element(a) or not A.is_regular_element(a):
                continue
            base = A.ideal([a]).preimage_gens()
            sat, _ = idealops.saturate(amb, base, amb.gens())
            for b in cands:
                if b == a:
                    continue
                col = idealops.colon(amb, base, [b])
                want = all(is_member(g, sat) for g in col)
                assert s2.is_filter_regular(A, a, b) == want, (name, a, b)
                outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("char", (DEFAULT_PRIME, 0, 2, 3))
def test_conductor_is_the_colon_by_the_colon(char):
    """On every corpus ring with H^1 != 0, the conductor read off the
    annihilator of the H^1 presentation is J : (J : b), J = (a) + I, the
    colon in P^k by the basis of J : b, element for element; two_planes,
    whose H^1 has two generators, takes the intersection of colons."""
    cyclic = set()
    for name in corpus.EXAMPLES:
        A, q, _ = corpus.example_document(name).build(char_override=char)
        pair = s2.filter_regular_pair(A, q)
        data = s2.s2_construct(A, pair)
        if not data.h1_length:
            continue
        assert data.conductor.gb() == conductor_by_colon(A, pair), \
            (name, char)
        cyclic.add(data.h1_module.f0.rank == 1)
    assert cyclic == {True, False}


def test_h1_and_conductor_frozen(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        data = s2.s2_construct(A, s2.filter_regular_pair(A, q))
        h1, socle, c_is_m = FROZEN[name]
        assert data.h1_length == h1, name
        assert (data.h1_module is None) == (h1 == 0), name
        if c_is_m:
            assert rings.ideals_equal(data.conductor, A.maximal_ideal()), name
        if socle is not None:
            assert s2.h1_socle(A, data) == socle, name
        else:
            with pytest.raises(NotApplicable):
                s2.h1_socle(A, data)


def test_conductor_routes_agree(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        data = s2.s2_construct(A, s2.filter_regular_pair(A, q))
        s2.conductor_crosscheck(A, data)  # raises on disagreement


def test_conductor_is_pair_independent(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        d0 = s2.s2_construct(A, s2.filter_regular_pair(A, q, 0))
        d1 = s2.s2_construct(A, s2.filter_regular_pair(A, q, 1))
        assert rings.ideals_equal(d0.conductor, d1.conductor), name


def test_conductor_independent_of_a_genuinely_different_pair(hr):
    A, q = hr
    a, b = A.gen(0), A.gen(1)
    other = A.reduce(a + b * b)      # also degree-2 inside q
    d0 = s2.s2_construct(A, s2.filter_regular_pair(A, q))
    d1 = s2.s2_construct(A, (other, b))
    assert [str(g) for g in d0.fraction_numerators] != \
        [str(g) for g in d1.fraction_numerators]
    assert rings.ideals_equal(d0.conductor, d1.conductor)


def test_hypothesis_profile_on_corpus(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        prof = s2.hypothesis_profile(A, pair=s2.filter_regular_pair(A, q))
        assert prof.verdict, name
        assert prof.ext_lengths[0] == 0, name
        if name != "regular_base":
            assert prof.ext_lengths[1] == FROZEN[name][0], name


def test_hypothesis_profile_fails_off_the_hypothesis():
    # a plane plus a line: the first cohomology has infinite length
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = amb.gens()
    B = rings.PresentedGradedRing(amb, [x * y, x * z])
    qB = B.ideal([B.reduce(x + y), z])
    prof = s2.hypothesis_profile(B, pair=s2.filter_regular_pair(B, qB))
    assert not prof.verdict
    assert prof.ext_lengths[1] == INFINITE


def _standard(A, q):
    pair = s2.filter_regular_pair(A, q)
    return s2.is_standard_parameters(q, s2.hypothesis_profile(A, pair),
                                     s2.s2_construct(A, pair))


def test_standard_parameters_on_corpus(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        assert _standard(A, q), name


def test_non_standard_parameters_detected(ideal_x2y3):
    A, _ = ideal_x2y3
    q = A.ideal([A.gen(0), A.gen(1)])     # (x, y): params but not standard
    assert q.quotient_dim() == 0
    assert not _standard(A, q)


def test_colon_module_presents_h1(two_planes):
    """`s2_construct` presents H^1 = (aA : b)/aA, a module of length one
    whose annihilator, a tuple computed once, is the conductor."""
    A, q = two_planes
    a, b = s2.filter_regular_pair(A, q)
    data = s2.s2_construct(A, (a, b))
    h1_mod = data.h1_module
    assert h1_mod.length() == 1
    assert h1_mod.socle_dim() == 1
    assert A.colon_graph((a,), b).ideal.contains(A.reduce(a))
    ann = h1_mod.annihilator_gens()
    assert isinstance(ann, tuple) and h1_mod.annihilator_gens() is ann
    assert ann == data.conductor.gb()


@pytest.mark.parametrize("char", (DEFAULT_PRIME, 0, 2, 3))
def test_h1_length_by_exact_sequence_presentation_and_ext(char):
    """On every corpus ring, the length of H^1 = (aA : b)/aA read off the
    exact sequence of J = (a) + I, the base of the pair's colon graph,
    equals the length of its presentation as a subquotient, and, q being
    standard (inside the conductor), the length of its Matlis dual
    Ext^(n-1)(A, omega)."""
    for name in corpus.EXAMPLES:
        A, q, _ = corpus.example_document(name).build(char_override=char)
        a, b = s2.filter_regular_pair(A, q)
        graph = A.colon_graph((a,), b)
        assert graph.base.gens == (a,), (name, char)
        length = s2._h1_length(A, a, b)
        F1 = FreeModule(A.ambient, 1)
        mod = subquotient(
            F1, as_vecs(graph.ideal.gb(), F1),
            as_vecs(graph.base.preimage_gens(), F1))
        assert length == mod.length(), (name, char)
        assert s2.s2_construct(A, (a, b)).conductor.contains_ideal(q), \
            (name, char)
        assert length == A.ext(A.ambient.n - 1).length(), (name, char)
