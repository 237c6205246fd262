"""Ideal arithmetic against brute-force monomial oracles, plus the
owner-aware ideal layer on presented rings."""

import contextlib
import itertools
import random
import sys
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from reesgor import corpus, groebner, hilbert, idealops, modules, rings
from reesgor.errors import NotDivisible, NotParameters, OwnerMismatch
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.groebner import as_vecs, groebner_basis
from reesgor.modules import module_colon
from reesgor.orders import EliminationOrder
from reesgor.polys import PolyRing

F = GF(DEFAULT_PRIME)


# -- monomial brute force --------------------------------------------------

def monomial(ring, exp):
    return ring.from_dict({tuple(exp): ring.field.one})


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def brute_intersect(exps_a, exps_b):
    """Generators of the intersection: pairwise lcms."""
    return [exp_lcm(a, b) for a in exps_a for b in exps_b]


def brute_colon(exps, m):
    """(monomials) : monomial, componentwise truncated subtraction."""
    return [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in exps]


def small_monomial_ideals(nvars, max_deg=4, max_gens=2):
    """Deterministic family of small monomial ideals."""
    pool = [e for e in itertools.product(range(max_deg + 1), repeat=nvars)
            if 0 < sum(e) <= max_deg]
    singles = [[e] for e in pool]
    pairs = [[a, b] for a, b in itertools.combinations(pool[::3], 2)]
    return singles + pairs[:60]


@pytest.mark.parametrize("nvars", [2, 3])
def test_monomial_intersection_vs_lcm_oracle(nvars):
    ring = PolyRing(tuple("xyz"[:nvars]), (1,) * nvars, F)
    fam = small_monomial_ideals(nvars)
    for ea in fam[::7]:
        for eb in fam[::11]:
            got = idealops.intersect(ring,
                                     [monomial(ring, e) for e in ea],
                                     [monomial(ring, e) for e in eb])
            want = [monomial(ring, e) for e in brute_intersect(ea, eb)]
            assert groebner_basis(got) == groebner_basis(want), (ea, eb)


@pytest.mark.parametrize("nvars", [2, 3])
def test_monomial_colon_vs_oracle(nvars):
    ring = PolyRing(tuple("xyz"[:nvars]), (1,) * nvars, F)
    fam = small_monomial_ideals(nvars)
    divisors = [e for e in itertools.product(range(3), repeat=nvars)
                if sum(e)]
    for exps in fam[::9]:
        for m in divisors[::2]:
            got = idealops.colon(ring, [monomial(ring, e) for e in exps],
                                 [monomial(ring, m)])
            want = [monomial(ring, e) for e in brute_colon(exps, m)]
            assert groebner_basis(got) == groebner_basis(want), (exps, m)


exp_strat = st.tuples(st.integers(min_value=0, max_value=4),
                      st.integers(min_value=0, max_value=4),
                      st.integers(min_value=0, max_value=4))
ideal_strat = st.lists(exp_strat.filter(lambda e: sum(e) > 0),
                       min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(ideal_strat, ideal_strat)
def test_monomial_intersection_property(ea, eb):
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    got = idealops.intersect(ring, [monomial(ring, e) for e in ea],
                             [monomial(ring, e) for e in eb])
    want = [monomial(ring, e) for e in brute_intersect(ea, eb)]
    assert groebner_basis(got) == groebner_basis(want)


@settings(max_examples=60, deadline=None)
@given(ideal_strat, exp_strat.filter(lambda e: sum(e) > 0))
def test_monomial_colon_property(exps, m):
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    got = idealops.colon(ring, [monomial(ring, e) for e in exps],
                         [monomial(ring, m)])
    want = [monomial(ring, e) for e in brute_colon(exps, m)]
    assert groebner_basis(got) == groebner_basis(want)


# -- saturation and elimination --------------------------------------------

def test_saturation_value_and_index():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    sat, idx = idealops.saturate(ring, [x * x * y], [x])
    assert groebner_basis(sat) == groebner_basis([y])
    assert idx == 2


def test_saturation_is_a_fixpoint():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    sat, _ = idealops.saturate(ring, [x * x * y, x * y ** 3], [x])
    again = idealops.colon(ring, sat, [x])
    assert groebner_basis(sat) == groebner_basis(again)


def test_eliminate_parametrized_curve():
    """t is eliminated from (x - t^2, y - t^3) by position, trailing or
    between x and y; the subring keeps x and y in their order."""
    for names, weights, index in [(("x", "y", "t"), (2, 3, 1), 2),
                                  (("x", "t", "y"), (2, 1, 3), 1)]:
        ring = PolyRing(names, weights, F)
        x, y, t = (ring.gen(names.index(v)) for v in "xyt")
        out = idealops.eliminate(ring, [x - t ** 2, y - t ** 3], index)
        sub = out[0].ring
        assert (sub.names, sub.weights) == (("x", "y"), (2, 3))
        assert all(g.ring is sub for g in out)
        want = sub.gen(0) ** 3 - sub.gen(1) ** 2
        assert groebner_basis(out) == groebner_basis([want])


def eliminate_by_terms(ring, gens, index):
    """`eliminate` as it read its basis before it read leads alone: the
    basis elements with no term in the variable, that exponent dropped."""
    i = index
    sub = PolyRing(ring.names[:i] + ring.names[i + 1:],
                   ring.weights[:i] + ring.weights[i + 1:], ring.field)
    elim = PolyRing(ring.names, ring.weights, ring.field,
                    EliminationOrder(ring.weights, i))
    return [sub.from_dict({e[:i] + e[i + 1:]: c for e, c in g.terms})
            for g in groebner_basis([elim.embed(g) for g in gens])
            if all(e[i] == 0 for e, _ in g.terms)]


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 2)] * 3), st.integers(0, 2),
       st.sampled_from([F, QQ]), st.integers(0, 10 ** 6))
def test_eliminate_matches_the_term_by_term_reference(weights, index, field,
                                                      seed):
    """On random forms, keeping the basis elements whose lead is free of
    the variable keeps exactly those with no term in it."""
    ring = PolyRing(("x", "y", "z"), weights, field)
    rnd = random.Random(seed)
    gens = [g for g in (random_form(ring, rnd, rnd.randint(1, 2))
                        for _ in range(rnd.randint(1, 3))) if not g.is_zero()]
    if gens:
        assert (idealops.eliminate(ring, gens, index)
                == eliminate_by_terms(ring, gens, index))


def test_general_intersection_non_monomial():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    # (x) cap (y) = (xy); (x+y) cap (x-y) = ((x+y)(x-y))
    got = idealops.intersect(ring, [x + y], [x - y])
    assert groebner_basis(got) == groebner_basis([(x + y) * (x - y)])


# -- reference: intersection by eliminating t, colon by exact division -----

def t_elimination_intersect(ring, gens_a, gens_b):
    """(A) cap (B) by eliminating t from t*A + (1-t)*B in P[t], t last:
    the t-free basis elements drop their last exponent."""
    n = ring.n
    weights = ring.weights + (1,)
    ext = PolyRing(ring.names + ("@t",), weights, ring.field,
                   EliminationOrder(weights, n))
    t = ext.gen(n)
    work = [t * ext.embed(a) for a in gens_a]
    work += [(ext.one - t) * ext.embed(b) for b in gens_b]
    return [ring.from_dict({e[:n]: c for e, c in g.terms})
            for g in groebner_basis(work)
            if all(e[n] == 0 for e, _ in g.terms)]


def exact_quotient(f, g):
    """f / g by long division, for f a multiple of g."""
    ring, field = f.ring, f.ring.field
    q = ring.zero
    while not f.is_zero():
        e = tuple(map(sub, f.lead_exp(), g.lead_exp()))
        m = ring.from_dict({e: field.of(f.terms[0][1]
                                        * field.inv(g.terms[0][1]))})
        q, f = q + m, f - m * g
    return q


def division_colon(ring, gens, g):
    """(gens) : g as ((gens) cap (g)) / g."""
    inter = t_elimination_intersect(ring, gens, [g])
    return groebner_basis([exact_quotient(h, g) for h in inter])


def random_form(ring, rnd, deg):
    exps = [e for e in itertools.product(range(deg + 1), repeat=ring.n)
            if sum(e) == deg]
    return ring.from_dict({e: ring.field.of(rnd.randint(-5, 5))
                           for e in rnd.sample(exps, min(3, len(exps)))})


@pytest.mark.parametrize("field", [F, QQ], ids=["gf32003", "qq"])
def test_intersect_and_colon_match_t_elimination(field):
    """Reduced bases are unique, so both routes give the same lists."""
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), field)
    rnd = random.Random(11)
    for _ in range(12):
        a = [random_form(ring, rnd, rnd.randint(1, 2)) for _ in range(2)]
        b = [random_form(ring, rnd, rnd.randint(1, 2)) for _ in range(2)]
        a = [p for p in a if not p.is_zero()]
        b = [p for p in b if not p.is_zero()]
        if not a or not b:
            continue
        assert (idealops.intersect(ring, a, b)
                == t_elimination_intersect(ring, a, b)), (a, b)
        g = b[0]
        assert idealops.colon(ring, a, [g]) == division_colon(ring, a, g)


@st.composite
def form_lists(draw):
    """k[x,y,z] over GF(32003) or QQ, and three lists of 1-3 nonzero
    forms of degree 1-2."""
    field = draw(st.sampled_from([F, QQ]))
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), field)

    def form():
        deg = draw(st.integers(1, 2))
        pool = [e for e in itertools.product(range(deg + 1), repeat=3)
                if sum(e) == deg]
        exps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                             unique=True))
        coeffs = st.integers(-5, 5).filter(bool)
        return ring.from_dict({e: ring.field.of(draw(coeffs)) for e in exps})

    return ring, [[form() for _ in range(draw(st.integers(1, 3)))]
                  for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(form_lists())
def test_ideal_operations_return_reduced_bases(case):
    """intersect, colon and saturate return the reduced Groebner basis of
    their result: saturate compares successive colons as lists, and
    Ideal.from_basis keeps such a list as the basis of the preimage."""
    ring, (a, b, c) = case
    for got in (idealops.intersect(ring, a, b),
                idealops.colon(ring, a, b),
                idealops.saturate(ring, a + c, b)[0]):
        assert got == groebner_basis(got)


def per_divisor_colon(ring, gens, colon_by):
    """(gens) : (colon_by) as one colon per nonzero divisor and k - 1
    intersections, the reference for the colon by one graph basis."""
    result = None
    for g in colon_by:
        if g.is_zero():
            continue
        gv, *rels = as_vecs([g] + list(gens))
        c = module_colon(gv, rels)
        result = c if result is None else idealops.intersect(ring, result, c)
    return [ring.one] if result is None else result


@st.composite
def ideal_and_divisors(draw):
    """k[x,y,z] over GF(32003) or QQ, 1-3 forms of degree 1-3 and 1-4
    divisors of degree 1-2, a divisor zero now and then."""
    field = draw(st.sampled_from([F, QQ]))
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), field)

    def form(lo, hi):
        deg = draw(st.integers(lo, hi))
        pool = [e for e in itertools.product(range(deg + 1), repeat=3)
                if sum(e) == deg]
        exps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                             unique=True))
        coeffs = st.integers(-5, 5).filter(bool)
        return ring.from_dict({e: ring.field.of(draw(coeffs)) for e in exps})

    gens = [form(1, 3) for _ in range(draw(st.integers(1, 3)))]
    divs = [form(1, 2) if draw(st.integers(0, 5)) else ring.zero
            for _ in range(draw(st.integers(1, 4)))]
    return ring, gens, divs


@settings(max_examples=40, deadline=None)
@given(ideal_and_divisors())
def test_colon_by_several_divisors_matches_per_divisor_colons(case):
    """The colon by k divisors, read off one graph basis, is the reduced
    basis of the intersection of the k single-divisor colons."""
    ring, gens, divs = case
    assert idealops.colon(ring, gens, divs) == per_divisor_colon(ring, gens,
                                                                 divs)


# -- presented-ring ideal layer --------------------------------------------

def quotient_xy():
    """A = k[x,y]/(xy): two lines through the origin."""
    amb = PolyRing(("x", "y"), (1, 1), F)
    x, y = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * y])
    return A, x, y


def test_colon_in_quotient_ring():
    A, x, y = quotient_xy()
    zero_colon = rings.colon(A.zero_ideal(), y)
    assert rings.ideals_equal(zero_colon, A.ideal([x]))


def test_ideal_membership_respects_defining_ideal():
    A, x, y = quotient_xy()
    ideal = A.ideal([x])
    assert ideal.contains(A.reduce(x * y + x * x))  # xy = 0 in A
    assert not ideal.contains(y)


def test_memoized_bases_cannot_be_corrupted():
    """The memoized bases of a ring and of an ideal are handed out as
    tuples, and the ring's Hilbert numerator as a read-only mapping, so a
    caller cannot change what later reductions and dimensions read."""
    A, q = corpus.build_two_planes()
    x, a = A.gen(0), q.gens[0]
    ideal = A.ideal([a])
    with contextlib.suppress(AttributeError):
        A.gb().append(x)
    with contextlib.suppress(AttributeError):
        ideal.gb().clear()
    with contextlib.suppress(TypeError):
        A.hilbert_numerator()[0] = 5
    assert not A.reduce(x).is_zero()
    assert ideal.contains(a)
    assert A.hilbert_numerator() is A.hilbert_numerator()
    assert A.hilbert_numerator()[0] == 1 and A.dim() == 2


def test_defining_generators_cannot_be_edited():
    """A ring's defining generators, which its hash, its equality and its
    first gb() read, are a tuple: appending raises, and the ring still
    equals and hashes as its twin, with the same basis."""
    A, twin = corpus.build_two_planes()[0], corpus.build_two_planes()[0]
    with pytest.raises(AttributeError):
        A.defining.append(A.gen(0))
    assert A == twin and hash(A) == hash(twin)
    assert A.gb() == twin.gb() and not A.reduce(A.gen(0)).is_zero()


def test_colon_graph_is_built_once_and_shared():
    """A ring keeps one colon graph per (gens, b): `rings.colon` by an
    element and the regularity test read the memoized entry, which equals
    the colon of its base, the ideal (gens), built afresh; its ideal is a
    tuple.  The base of a colon of I is the ring's zero ideal."""
    A, q = corpus.build_two_planes()
    a, b = q.gens
    entry = A.colon_graph((a,), b)
    assert A.colon_graph([a], b) is entry
    assert rings.colon(A.ideal([a]), b) is entry.ideal
    assert entry.base.gens == (a,)
    assert entry.base.preimage_gens() == A.ideal([a]).preimage_gens()
    assert entry.ideal.gb() == tuple(idealops.colon(
        A.ambient, entry.base.preimage_gens(), [b]))
    assert isinstance(entry.ideal.gens, tuple)
    assert A.is_regular_element(a)
    assert A.colon_graph((), a).base is A.zero_ideal()
    assert A.colon_graph((), a).ideal.gb() == A.gb()


def test_owner_mismatch_raises():
    A, x, y = quotient_xy()
    B = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    with pytest.raises(OwnerMismatch):
        rings.intersect(A.ideal([x]), B.ideal([B.gen(0)]))


def test_no_polynomial_changes_ring_unasked():
    """A polynomial of another ring is refused, neither read by position
    nor moved over by its variables' names: z of k[x,y,z] reduced in
    k[x,y]/(xy), and xy of k[x,y,z] given as a generator of k[x,y]."""
    A, x, y = quotient_xy()
    big = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    with pytest.raises(OwnerMismatch):
        A.reduce(big.gen(2))
    with pytest.raises(OwnerMismatch):
        rings.PresentedGradedRing(A.ambient, [big.gen(0) * big.gen(1)])


def test_free_ring_refuses_a_polynomial_of_another_ring():
    """With no basis to index, a free ring's reductions and an ideal's
    membership test still refuse z of k[x,y,z] in A = k[x,y]."""
    A = rings.PresentedGradedRing(PolyRing(("x", "y"), (1, 1), F), [])
    z = PolyRing(("x", "y", "z"), (1, 1, 1), F).gen(2)
    for call in (A.reduce, A.is_zero_element, A.zero_ideal().contains):
        with pytest.raises(OwnerMismatch):
            call(z)
    x, y = A.gens()
    assert A.reduce(x * y) == x * y


def test_quotient_dim_and_units():
    A, x, y = quotient_xy()
    assert A.dim() == 1
    assert A.ideal([x, y]).quotient_dim() == 0
    assert A.ideal([x]).quotient_dim() == 1
    assert A.unit_ideal().contains(A.ambient.one)
    assert A.zero_ideal().gb() == A.gb()


def test_ring_and_its_zero_ideal_share_one_memo(monkeypatch):
    """A ring keeps its basis, reducer, Hilbert numerator and dimension
    on its zero ideal, whose preimage is I: on a ring built from
    generators, one Groebner basis and one Hilbert numerator serve gb,
    reduce, dim, hilbert_numerator, the resolution and the zero ideal's
    own quotient_dim."""
    calls = []
    for fn in (groebner.groebner_basis, hilbert.hilbert_numerator):
        def wrapper(*args, fn=fn):
            calls.append(fn.__name__)
            return fn(*args)
        # every binding inside the package
        for modname, module in list(sys.modules.items()):
            if (modname.split(".")[0] == "reesgor"
                    and vars(module).get(fn.__name__) is fn):
                monkeypatch.setattr(module, fn.__name__, wrapper)
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * y - z * z, x * z])
    zero = A.zero_ideal()
    assert zero is A.zero_ideal() and zero.gb() is A.gb()
    f = x * x * z + y * z * z
    assert A.reduce(f) == zero.reduce(f)
    assert A.dim() == zero.quotient_dim() == 1
    assert A.hilbert_numerator() is zero.hilbert_numerator()
    assert A.resolution().betti() == [1, 2, 1]
    assert sorted(calls) == ["groebner_basis", "hilbert_numerator"]


def test_sigma_tilde_hochster_roberts(hr):
    A, q = hr
    sigma = rings.sigma_tilde(q)
    assert rings.ideals_equal(sigma, A.maximal_ideal())


def test_sigma_tilde_rejects_non_parameters(hr):
    A, _ = hr
    with pytest.raises(NotParameters):
        rings.sigma_tilde(A.ideal([A.gen(0)]))


def test_ring_division(hr):
    A, _ = hr
    a, c = A.gen(0), A.gen(2)
    assert rings.ring_division(A.reduce(a * c), a, A) == c
    with pytest.raises(NotDivisible):
        rings.ring_division(A.gen(1), a, A)


def test_divisions_by_one_element_index_its_colon_basis_once(monkeypatch):
    """The ring's colon graph of I : a indexes its basis when it is built;
    later divisions by a build no reducer index."""
    A, _ = corpus.build_hochster_roberts()
    a = A.gen(0)
    assert rings.ring_division(A.reduce(a * a), a, A) == a
    built = []
    real = modules.reducer_index
    monkeypatch.setattr(modules, "reducer_index",
                        lambda *args: built.append(args) or real(*args))
    for g in A.ambient.gens():
        assert rings.ring_division(A.reduce(a * g), a, A) == A.reduce(g)
    assert built == []


def test_ring_division_over_qq():
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), QQ)
    x, y, z = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * x - 3 * y * z])
    a, c = 2 * x + y, 5 * x * z - 7 * y * y
    assert rings.ring_division(A.reduce(a * c), a, A) == A.reduce(c)
    with pytest.raises(NotDivisible):
        rings.ring_division(y, a, A)


def test_saturate_on_quotient():
    """(x^2) saturated by x in k[x,y]/(xy) is the unit ideal: saturating
    its preimage (x^2, xy) by x in k[x,y] gives the basis [1]."""
    A, x, y = quotient_xy()
    preimage = A.ideal([A.reduce(x * x)]).preimage_gens()
    sat, idx = idealops.saturate(A.ambient, preimage, [x])
    assert sat == [A.ambient.one]
    assert idx >= 1
