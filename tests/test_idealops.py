"""Ideal arithmetic against brute-force monomial oracles, plus the
owner-aware ideal layer on presented rings."""

import contextlib
import itertools
import random
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from reesgor import corpus, idealops, rings
from reesgor.errors import NotDivisible, NotParameters, OwnerMismatch
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.groebner import as_vecs, groebner_basis
from reesgor.modules import module_colon
from reesgor.orders import BlockOrder
from reesgor.polys import PolyRing

F = GF(DEFAULT_PRIME)


# -- monomial brute force --------------------------------------------------

def monomial(ring, exp):
    return ring.monomial(exp)


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
            assert idealops.ideals_equal(ring, got, want), (ea, eb)


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
            assert idealops.ideals_equal(ring, got, want), (exps, m)


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
    assert idealops.ideals_equal(ring, got, want)


@settings(max_examples=60, deadline=None)
@given(ideal_strat, exp_strat.filter(lambda e: sum(e) > 0))
def test_monomial_colon_property(exps, m):
    ring = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    got = idealops.colon(ring, [monomial(ring, e) for e in exps],
                         [monomial(ring, m)])
    want = [monomial(ring, e) for e in brute_colon(exps, m)]
    assert idealops.ideals_equal(ring, got, want)


# -- saturation and elimination --------------------------------------------

def test_saturation_value_and_index():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    sat, idx = idealops.saturate(ring, [x * x * y], [x])
    assert idealops.ideals_equal(ring, sat, [y])
    assert idx == 2


def test_saturation_is_a_fixpoint():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    sat, _ = idealops.saturate(ring, [x * x * y, x * y ** 3], [x])
    again = idealops.colon(ring, sat, [x])
    assert idealops.ideals_equal(ring, sat, again)


def test_eliminate_parametrized_curve():
    ring = PolyRing(("x", "y", "t"), (2, 3, 1), F)
    x, y, t = ring.gens()
    sub, out = idealops.eliminate(ring, [x - t ** 2, y - t ** 3], (2,))
    assert sub.names == ("x", "y")
    want = sub.gen(0) ** 3 - sub.gen(1) ** 2
    assert idealops.ideals_equal(sub, out, [want])


def test_general_intersection_non_monomial():
    ring = PolyRing(("x", "y"), (1, 1), F)
    x, y = ring.gens()
    # (x) cap (y) = (xy); (x+y) cap (x-y) = ((x+y)(x-y))
    got = idealops.intersect(ring, [x + y], [x - y])
    assert idealops.ideals_equal(ring, got, [(x + y) * (x - y)])


# -- reference: intersection by eliminating t, colon by exact division -----

def t_elimination_intersect(ring, gens_a, gens_b):
    """(A) cap (B) by eliminating t from t*A + (1-t)*B in P[t]."""
    ext = ring.extend(("@t",), (1,))
    n = ext.n - 1
    ext = ext.with_order(BlockOrder(ext.weights, (n,)))
    t = ext.gen(n)
    work = [t * ext.transfer(a) for a in gens_a]
    work += [(ext.one - t) * ext.transfer(b) for b in gens_b]
    return [ring.transfer(g) for g in groebner_basis(work)
            if all(e[n] == 0 for e, _ in g.terms)]


def exact_quotient(f, g):
    """f / g by long division, for f a multiple of g."""
    ring, field = f.ring, f.ring.field
    q = ring.zero
    while not f.is_zero():
        e = tuple(map(sub, f.lead_exp(), g.lead_exp()))
        m = ring.monomial(e, field.div(f.lead_coeff(), g.lead_coeff()))
        q, f = q + m, f - m * g
    return q


def division_colon(ring, gens, g):
    """(gens) : g as ((gens) cap (g)) / g."""
    inter = t_elimination_intersect(ring, gens, [g])
    return groebner_basis([exact_quotient(h, g) for h in inter])


def random_form(ring, rnd, deg):
    exps = [e for e in itertools.product(range(deg + 1), repeat=ring.n)
            if sum(e) == deg]
    return sum((ring.monomial(e, rnd.randint(-5, 5))
                for e in rnd.sample(exps, min(3, len(exps)))), ring.zero)


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
        return sum((ring.monomial(e, draw(coeffs)) for e in exps), ring.zero)

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
        return sum((ring.monomial(e, draw(coeffs)) for e in exps), ring.zero)

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
    A = rings.PresentedGradedRing.from_ambient(amb, [x * y])
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


def test_colon_graph_is_built_once_and_shared():
    """A ring keeps one colon graph per (gens, b): `rings.colon` by an
    element and the regularity test read the memoized entry, which equals
    the colon built afresh; its ideal and annihilator are tuples."""
    A, q = corpus.build_two_planes()
    a, b = q.gens
    entry = A.colon_graph((a,), b)
    assert A.colon_graph([a], b) is entry
    assert rings.colon(A.ideal([a]), b) is entry.ideal
    assert entry.ideal.gb() == tuple(idealops.colon(A.ambient, A._full([a]),
                                                    [b]))
    assert isinstance(entry.ideal.gens, tuple)
    ann = entry.module.annihilator_gens()
    assert isinstance(ann, tuple)
    assert entry.module.annihilator_gens() is ann
    assert A.is_regular_element(a)
    assert A.colon_graph((), a).ideal.gb() == A.gb()


def test_owner_mismatch_raises():
    A, x, y = quotient_xy()
    B = rings.PresentedGradedRing(("x", "y"), (1, 1), [], field=F)
    with pytest.raises(OwnerMismatch):
        rings.intersect(A.ideal([x]), B.ideal([B.gen(0)]))


def test_quotient_dim_and_units():
    A, x, y = quotient_xy()
    assert A.dim() == 1
    assert A.ideal([x, y]).quotient_dim() == 0
    assert A.ideal([x]).quotient_dim() == 1
    assert A.unit_ideal().is_unit()
    assert A.zero_ideal().is_zero()


def test_ring_map_kernel_cuspidal_cubic():
    base = rings.PresentedGradedRing(("t",), (1,), [], field=F)
    t = base.gen(0)
    ker = rings.ring_map_kernel([t ** 2, t ** 3], ("x", "y"), base)
    A = ker.owner
    assert A.weights == (2, 3)
    x, y = A.ambient.gens()
    assert ker.contains(A.reduce(x ** 3 - y ** 2))
    assert not ker.contains(x)


def test_ring_map_kernel_hochster_roberts_relation(hr):
    A, _ = hr
    a, b, c, d = A.ambient.gens()
    defining = A.ideal(A.defining) if A.defining else A.zero_ideal()
    for f in (b * c - a * d, a ** 3 - c ** 2, a * a * b - c * d,
              a * b * b - d * d):
        assert defining.contains(f)


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


def test_ring_division_over_qq():
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), QQ)
    x, y, z = amb.gens()
    A = rings.PresentedGradedRing.from_ambient(amb, [x * x - 3 * y * z])
    a, c = 2 * x + y, 5 * x * z - 7 * y * y
    assert rings.ring_division(A.reduce(a * c), a, A) == A.reduce(c)
    with pytest.raises(NotDivisible):
        rings.ring_division(y, a, A)


def test_saturate_on_quotient():
    A, x, y = quotient_xy()
    sat, idx = rings.saturate(A.ideal([A.reduce(x * x)]), x)
    assert rings.ideals_equal(sat, A.unit_ideal())
    assert idx >= 1
