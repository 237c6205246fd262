"""Fields, orders, polynomials, Groebner bases, Hilbert numerators."""

import itertools
import random
import sys
import time
from math import isqrt
from fractions import Fraction
from operator import add, ge

import pytest
from hypothesis import assume, given, settings, strategies as st

from reesgor.errors import OwnerMismatch
from reesgor.fields import (GF, QQ, DEFAULT_PRIME, PRIME_BOUND, Field,
                            is_prime)
from reesgor.groebner import groebner_basis, normal_form
from reesgor.hilbert import (INFINITE, finite_length, hilbert,
                             hilbert_numerator, upoly_add, upoly_mul)
from reesgor.inputfmt import parse_poly
from reesgor.modules import FreeModule
from reesgor.orders import EliminationOrder, GrevlexOrder
from reesgor.polys import PolyRing, minimal_monomials

import reference
from reference import (count_standard_monomials, exact_product, exact_sum,
                       hilbert_by_division, in_field, is_member)

F = GF(DEFAULT_PRIME)


def ring2():
    return PolyRing(("x", "y"), (1, 1), F)


def ring3():
    return PolyRing(("x", "y", "z"), (1, 1, 1), F)


# -- fields ----------------------------------------------------------------

@given(st.integers(min_value=1, max_value=DEFAULT_PRIME - 1))
def test_prime_field_inverse(a):
    assert F.of(a * F.inv(a)) == F.one


@given(st.integers(), st.integers())
def test_prime_field_add_commutes(a, b):
    assert F.of(F.of(a) + F.of(b)) == F.of(F.of(b) + F.of(a))


def test_rational_field_exact():
    third = QQ.of(QQ.of(1) * QQ.inv(QQ.of(3)))
    assert QQ.of(third * QQ.of(3)) == QQ.one


def _trial_division_is_prime(n):
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n)
               for n in range(-3, 10 ** 5))
    assert not is_prime(561)                # a Carmichael number
    # the least strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)


def test_is_prime_decides_a_large_prime_fast():
    start = time.process_time()
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 61 - 1) * 1000003)
    assert time.process_time() - start < 1.0


def test_is_prime_refuses_beyond_its_bound():
    # the least strong pseudoprime to the primes up to 37; base 41 exposes it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(12)


def test_field_takes_a_prime_or_zero_and_gf_a_prime():
    for make, p in ((GF, 4), (GF, 0), (Field, 4)):
        with pytest.raises(ValueError):
            make(p)
    assert Field(0) == QQ


def test_qq_inverts_an_int_coefficient_exactly():
    """A QQ polynomial built from int coefficients is made monic with
    exact fractions, not floats."""
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    R = PolyRing(("x", "y"), (1, 1), QQ)
    (g,) = groebner_basis([R.from_dict({(1, 0): 3, (0, 1): 1})])
    assert g.terms == (((1, 0), 1), ((0, 1), Fraction(1, 3)))


def _exp_join(a, b):
    return tuple(map(add, a, b))


def _vec_join(k, e):
    return k[0], _exp_join(k[1], e)


@st.composite
def operands(draw):
    """(f, g, c, e, raw): f and g both Polys in k[x, y] or both Vecs of
    rank 2 over it, k one of GF(2), GF(3), GF(32003) and QQ, built by
    from_dict from raw dicts with any ints (a GF(p) ring) or fractions
    (QQ) as coefficients; c such a scalar, maybe zero, e an exponent,
    and raw the dict f was built from."""
    k = draw(st.sampled_from((GF(2), GF(3), F, QQ)))
    ring = PolyRing(("x", "y"), (1, 2), k)
    coeffs = (st.integers(-10 ** 6, 10 ** 6) if k.p else
              st.fractions(-9, 9, max_denominator=6))
    exps = st.tuples(*[st.integers(0, 3)] * 2)
    if draw(st.booleans()):
        build, keys = ring.from_dict, exps
    else:
        build = FreeModule(ring, 2, (0, 1)).from_dict
        keys = st.tuples(st.integers(0, 1), exps)
    raw = [draw(st.dictionaries(keys, coeffs, max_size=6)) for _ in "fg"]
    return build(raw[0]), build(raw[1]), draw(coeffs), draw(exps), raw[0]


@settings(max_examples=150, deadline=None)
@given(operands())
def test_arithmetic_stores_canonical_coefficients(case):
    """Over GF(2), GF(3), GF(32003) and QQ, from_dict, +, -, scale and
    mul_term on Polys and Vecs, and * and unary - on Polys, give terms
    sorted in descending order whose coefficients are canonical and
    nonzero (an int in [1, p), or a Fraction), equal to the same
    computation in Z or Q reduced at the end."""
    f, g, c, e, raw = case
    a, b = dict(f.terms), dict(g.terms)
    if hasattr(f, "ring"):
        ring, join, key = f.ring, _exp_join, f.ring.order.neg_key
        poly_only = [(f * g, exact_product(a, b, join)),
                    (-f, exact_sum((-1, a)))]
    else:
        ring, join, poly_only = f.module.ring, _vec_join, []

        def key(t):
            return f.module.neg_key(*t)
    k, zero_key = ring.field, ring.zero_exp
    results = [(f, exact_sum((1, raw))),
               (f + g, exact_sum((1, a), (1, b))),
               (f - g, exact_sum((1, a), (-1, b))),
               (f.scale(c), exact_product(a, {zero_key: c}, join)),
               (f.mul_term(e, c), exact_product(a, {e: c}, join))] + poly_only
    for got, want in results:
        coeffs = [v for _, v in got.terms]
        if k.p:
            assert all(type(v) is int and 0 < v < k.p for v in coeffs)
        else:
            assert all(type(v) is Fraction and v for v in coeffs)
        keys = [key(t) for t, _ in got.terms]
        assert keys == sorted(set(keys))
        assert dict(got.terms) == in_field(k, want)


# -- monomial orders -------------------------------------------------------

exps3 = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)


@given(exps3, exps3, exps3)
def test_grevlex_is_multiplicative(a, b, c):
    order = GrevlexOrder((1, 2, 1))
    if order.neg_key(a) > order.neg_key(b):
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert order.neg_key(ac) > order.neg_key(bc)


@given(exps3)
def test_orders_bottom_at_one(e):
    for order in (GrevlexOrder((1, 1, 1)), EliminationOrder((1, 1, 1), 0)):
        if e != (0, 0, 0):
            assert order.neg_key(e) < order.neg_key((0, 0, 0))


def _grevlex_key_reference(weights, exp):
    deg = 0
    for i, e in enumerate(exp):
        deg += e * weights[i]
    return (deg,) + tuple(-e for e in reversed(exp))


def _block_key_reference(weights, block, exp):
    block = tuple(sorted(block))
    rest = tuple(i for i in range(len(weights)) if i not in set(block))
    bdeg = 0
    for i in block:
        bdeg += exp[i] * weights[i]
    rdeg = 0
    for i in rest:
        rdeg += exp[i] * weights[i]
    bkey = tuple(-exp[i] for i in reversed(block))
    rkey = tuple(-exp[i] for i in reversed(rest))
    return (bdeg,) + bkey + (rdeg,) + rkey


@st.composite
def weighted_exps(draw, count=1):
    """(weights, index, exps): `count` exponent vectors in 1..6 variables,
    and the index of one variable."""
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.tuples(*[st.integers(min_value=1, max_value=4)] * n))
    index = draw(st.integers(min_value=0, max_value=n - 1))
    exps = [draw(st.tuples(*[st.integers(min_value=0, max_value=6)] * n))
            for _ in range(count)]
    return weights, index, exps


@given(weighted_exps())
def test_order_keys_match_reference_formulas(case):
    weights, _, (e,) = case
    assert (GrevlexOrder(weights).neg_key(e)
            == tuple(-x for x in _grevlex_key_reference(weights, e)))


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=300)
@given(weighted_exps(count=3))
def test_elimination_order_ranks_as_a_one_index_block(case):
    """EliminationOrder(weights, i) ranks every pair of monomials as the
    reference block order of the one-index block (i,) does, also pairs
    that tie in the eliminated variable."""
    weights, i, (a, b, c) = case
    order = EliminationOrder(weights, i)
    tied = b[:i] + a[i:i + 1] + b[i + 1:]
    for u, v in ((a, b), (a, c), (b, c), (a, tied), (tied, tied)):
        assert (_sign(order.neg_key(u), order.neg_key(v))
                == _sign(_block_key_reference(weights, (i,), v),
                         _block_key_reference(weights, (i,), u)))


@given(weighted_exps(count=3))
def test_block_order_is_multiplicative(case):
    """The elimination order of one variable, a block order of a
    one-variable block, is multiplicative."""
    weights, i, (a, b, c) = case
    order = EliminationOrder(weights, i)
    if order.neg_key(a) > order.neg_key(b):
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert order.neg_key(ac) > order.neg_key(bc)


@given(weighted_exps(count=2))
def test_block_order_eliminates(case):
    """A monomial with the eliminated variable beats every monomial free
    of it."""
    weights, i, (a, b) = case
    a = tuple(max(x, 1) if j == i else x for j, x in enumerate(a))
    b = tuple(0 if j == i else x for j, x in enumerate(b))
    order = EliminationOrder(weights, i)
    assert order.neg_key(a) < order.neg_key(b)


def test_elimination_order_needs_a_variable_and_positive_weights():
    for weights, index in (((1, 2), 2), ((1, 2), -1), ((1, 0), 0)):
        with pytest.raises(ValueError):
            EliminationOrder(weights, index)


def test_grevlex_weighted_degree_dominates():
    order = GrevlexOrder((2, 1))
    # x has weighted degree 2, y only 1
    assert order.neg_key((1, 0)) < order.neg_key((0, 1))


# -- polynomial arithmetic -------------------------------------------------

def rand_poly(ring, rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        terms[exp] = ring.field.of(rng.randint(-5, 5))
    return ring.from_dict(terms)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_poly_distributive(seed):
    rng = random.Random(seed)
    R = ring3()
    f, g, h = (rand_poly(R, rng) for _ in range(3))
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_poly_str_parse_roundtrip(seed):
    rng = random.Random(seed)
    R = ring3()
    f = rand_poly(R, rng)
    assert parse_poly(str(f), R) == f


def test_poly_power_and_exact_div():
    R = ring2()
    x, y = R.gens()
    f = x + y
    assert f ** 3 == x ** 3 + 3 * x * x * y + 3 * x * y * y + y ** 3


def test_homogeneity_with_weights():
    R = PolyRing(("a", "b"), (2, 1), F)
    a, b = R.gens()
    assert (a + b * b).is_homogeneous()
    assert not (a + b).is_homogeneous()
    assert (a * b).degree() == 3


@given(weighted_exps(), st.integers(min_value=0, max_value=10 ** 6))
def test_embed_pads_exponents_under_a_block_order(case, seed):
    """embed into an extension under an elimination order is from_dict of
    the zero-padded terms: sorted by the extension's order."""
    weights, index, _ = case
    rng = random.Random(seed)
    n = len(weights)
    k = rng.randint(0, n)
    names = tuple("x%d" % i for i in range(n))
    R = PolyRing(names[:k], weights[:k], F)
    big = PolyRing(names, weights, F, EliminationOrder(weights, index))
    f = rand_poly(R, rng)
    got = big.embed(f)
    assert got.ring is big
    assert got == big.from_dict(
        {e + (0,) * (n - k): c for e, c in f.terms})


def test_embed_needs_a_prefix_ring_over_the_same_field():
    """embed takes only a ring that this one extends, as `extend` makes
    one: another field, or names or weights that are not a prefix, raise
    OwnerMismatch."""
    big = PolyRing(("x", "y"), (1, 2), F).extend(("t",), (1,))
    for src in (PolyRing(("x", "y"), (1, 2), GF(3)),
                PolyRing(("x", "y"), (1, 2), QQ),
                PolyRing(("y", "x"), (1, 2), F),
                PolyRing(("x", "z"), (1, 2), F),
                PolyRing(("x", "y"), (1, 1), F),
                PolyRing(("x", "y"), (2, 2), F),
                PolyRing(("x", "y", "t", "s"), (1, 2, 1, 1), F)):
        with pytest.raises(OwnerMismatch):
            big.embed(src.gen(0))
    x, y = PolyRing(("x", "y"), (1, 2), F).gens()
    assert big.embed(x * y + 1) == big.gen(0) * big.gen(1) + 1


@given(st.lists(st.tuples(exps3, st.integers(0, 5)), max_size=12))
def test_minimal_monomials_matches_brute_force(pairs):
    """minimal_monomials keeps exactly the monomials no other input
    monomial properly divides, once each with the first of their tags,
    in order of total degree; with the tags ascending, as its callers
    give them, it keeps the pairs of the reference rule."""
    want = {}
    for m, tag in pairs:
        if not any(o != m and all(map(ge, m, o)) for o, _ in pairs):
            want.setdefault(m, tag)
    got = minimal_monomials(pairs)
    assert len(got) == len(want) and dict(got) == want
    assert [sum(m) for m, _ in got] == sorted(sum(m) for m in want)
    ranked = [(m, pos) for pos, (m, _) in enumerate(pairs)]
    assert (sorted(minimal_monomials(ranked))
            == sorted(reference.minimal_monomials(ranked)))


# -- Groebner bases --------------------------------------------------------

def test_known_basis_twisted_cubic():
    R = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = R.gens()
    # a single binomial is its own basis, stored monic with lead y^2
    gb = groebner_basis([x * z - y * y])
    assert gb == [y * y - x * z]


def test_reduced_basis_is_autoreduced():
    R = ring2()
    x, y = R.gens()
    gb = groebner_basis([x * x + y * y, x * y, y ** 3])
    for i, g in enumerate(gb):
        assert g.terms[0][1] == F.one
        others = gb[:i] + gb[i + 1:]
        for exp, _ in g.terms:
            for h in others:
                divides = all(le <= e for le, e in zip(h.lead_exp(), exp))
                assert not divides


def test_cached_basis_is_not_shared():
    R = ring2()
    x, y = R.gens()
    gb = groebner_basis([x * x, x * y])
    gb.append(y)
    again = groebner_basis([x * x, x * y])
    assert again == [x * x, x * y]
    again.append(y)
    assert groebner_basis([x * x, x * y]) == [x * x, x * y]


def test_determinism_under_permutation(corpus_instances):
    for name, (A, _) in corpus_instances.items():
        gens = A.defining
        if not gens:
            continue
        ref = groebner_basis(gens)
        for perm in itertools.islice(itertools.permutations(gens), 8):
            assert groebner_basis(list(perm)) == ref, name


def test_membership_on_random_combinations(corpus_instances):
    rng = random.Random(7)
    for name, (A, _) in corpus_instances.items():
        gens = A.defining
        if not gens:
            continue
        gb = groebner_basis(gens)
        R = A.ambient
        for _ in range(100):
            f = R.zero
            for g in gens:
                f = f + rand_poly(R, rng, max_terms=2, max_deg=2) * g
            assert is_member(f, gb), name


def test_normal_form_is_idempotent(hr):
    A, _ = hr
    gb = A.gb()
    R = A.ambient
    rng = random.Random(3)
    for _ in range(25):
        f = rand_poly(R, rng)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r
        assert is_member(f - r, gb)


# -- Hilbert series --------------------------------------------------------

def brute_count(exps, weights, up_to):
    """Standard monomials by direct enumeration (small cases only)."""
    n = len(weights)
    counts = [0] * (up_to + 1)
    bound = up_to + 1
    ranges = [range(0, bound // w + 1) for w in weights]
    for e in itertools.product(*ranges):
        deg = sum(a * w for a, w in zip(e, weights))
        if deg > up_to:
            continue
        if any(all(a >= b for a, b in zip(e, le)) for le in exps):
            continue
        counts[deg] += 1
    return counts


def _expand(num, weights, up_to):
    """Coefficients of num / prod(1 - t^w) up to degree up_to."""
    series = [num.get(d, 0) for d in range(up_to + 1)]
    for w in weights:
        # multiply by 1/(1 - t^w): prefix-sum with stride w
        for d in range(w, up_to + 1):
            series[d] += series[d - w]
    return series


@pytest.mark.parametrize("exps,weights", [
    ([(2, 0), (0, 3)], (1, 1)),
    ([(1, 1)], (1, 1)),
    ([(2, 1), (0, 4)], (1, 2)),
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)], (1, 1, 1)),
    ([(2, 0, 1)], (2, 1, 3)),
])
def test_numerator_expansion_matches_enumeration(exps, weights):
    num = hilbert_numerator(exps, weights)
    assert _expand(num, weights, 12) == brute_count(exps, weights, 12)


def _recursive_numerator(exps, weights):
    """The recursion hilbert_numerator replaced, frozen as the reference:
    pivot on the last generator, N(J + (g)) = N(J) - t^deg(g) N(J : g),
    with a full rescan to minimalize each node."""
    weights = tuple(weights)

    def minimalize(exps):
        out = []
        exps = sorted(set(exps), key=lambda e: (sum(e), e))
        for i, e in enumerate(exps):
            if any(all(map(ge, e, f)) for j, f in enumerate(exps) if j != i
                   and (sum(f), f) <= (sum(e), e)):
                continue
            out.append(e)
        return out

    def wdeg(e):
        return sum(x * w for x, w in zip(e, weights))

    def rec(gens):
        gens = minimalize(gens)
        if not gens:
            return {0: 1}
        if any(sum(e) == 0 for e in gens):  # contains 1
            return {}
        if len(gens) == 1:
            return {0: 1, wdeg(gens[0]): -1}
        # pure powers of distinct variables split as a product
        if all(sum(1 for x in e if x) == 1 for e in gens):
            out = {0: 1}
            for e in gens:
                out = upoly_mul(out, {0: 1, wdeg(e): -1})
            return out
        g = gens[-1]
        rest = gens[:-1]
        colon = [tuple(max(x - y, 0) for x, y in zip(e, g)) for e in rest]
        return upoly_add(rec(rest),
                         {wdeg(g) + d: -c for d, c in rec(colon).items()})

    return rec(list(exps))


@st.composite
def monomial_ideals(draw):
    """(weights, exps): up to 8 exponent vectors, repeats and zero
    exponents allowed, in 1..4 variables of weights 1..3."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.tuples(*[st.integers(min_value=1, max_value=3)] * n))
    exps = draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)]
                                   * n), max_size=8))
    if exps and draw(st.booleans()):
        # a repeated generator and a multiple of one
        exps += [exps[0], tuple(x + 1 for x in exps[-1])]
    return weights, exps


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_numerator_matches_the_recursive_reference(case):
    weights, exps = case
    num = hilbert_numerator(exps, weights)
    assert num == _recursive_numerator(exps, weights)
    counts = count_standard_monomials(exps, weights, 10)
    assert _expand(num, weights, 10) == [counts.get(d, 0) for d in range(11)]


def _staircase(n):
    """The n + 1 generators x^i y^(n - i) of (x, y)^n."""
    return [(i, n - i) for i in range(n + 1)]


def test_numerator_of_large_monomial_sets_is_fast():
    """Bigatti's pivot splits a staircase into two of half its size: 400
    generators in two variables, and 400 monomials of degree 400 in
    three, each well under half a second."""
    start = time.process_time()
    num = hilbert_numerator(_staircase(399), (1, 1))
    assert time.process_time() - start < 0.5
    assert num == {0: 1, 399: -400, 400: 399}
    rng = random.Random(400)
    exps = set()
    while len(exps) < 400:
        a = rng.randint(0, 400)
        b = rng.randint(0, 400 - a)
        exps.add((a, b, 400 - a - b))
    start = time.process_time()
    num = hilbert_numerator(exps, (1, 1, 1))
    assert time.process_time() - start < 0.5
    # below degree 400 every monomial is standard; in degree 400 all but
    # the 400 generators are
    series = _expand(num, (1, 1, 1), 400)
    assert series[:400] == [(d + 1) * (d + 2) // 2 for d in range(400)]
    assert series[400] == 401 * 402 // 2 - 400


def test_numerator_of_a_2000_generator_staircase_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        num = hilbert_numerator(_staircase(1999), (1, 1))
    finally:
        sys.setrecursionlimit(limit)
    assert num == {0: 1, 1999: -2000, 2000: 1999}


def test_count_standard_monomials_agrees():
    exps = [(2, 0), (1, 1), (0, 3)]
    weights = (1, 2)
    brute = brute_count(exps, weights, 12)
    assert count_standard_monomials(exps, weights, 12) == \
        {d: v for d, v in enumerate(brute) if v}


def test_dimension_and_length():
    weights = (1, 1)
    num_artin = hilbert_numerator([(2, 0), (0, 2)], weights)
    assert hilbert(num_artin, weights)[0] == 0
    assert finite_length(num_artin, weights) == 4
    num_curve = hilbert_numerator([(1, 1)], weights)
    assert hilbert(num_curve, weights)[0] == 1
    assert finite_length(num_curve, weights) == INFINITE
    num_line = hilbert_numerator([(1, 0), (0, 2)], weights)
    assert finite_length(num_line, weights) == 2     # k[x,y]/(x, y^2)


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_hilbert_matches_the_dense_division(case):
    """The sparse reader of `hilbert` gives the dimension and leading
    coefficient that dividing by 1 - t, coefficient by coefficient,
    gives."""
    weights, exps = case
    num = hilbert_numerator(exps, weights)
    assert hilbert(num, weights) == hilbert_by_division(num, weights)


@st.composite
def artinian_monomial_ideals(draw):
    """(weights, powers, exps): exps holds x_i^powers[i] for each of 1..4
    variables of weights 1..3, up to 5 more generators, and sometimes a
    repeated generator, a multiple of one or the unit."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.tuples(*[st.integers(min_value=1, max_value=3)] * n))
    powers = draw(st.tuples(*[st.integers(min_value=1, max_value=4)] * n))
    exps = [tuple(p if j == i else 0 for j in range(n))
            for i, p in enumerate(powers)]
    exps += draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)]
                                    * n), max_size=5))
    if draw(st.booleans()):
        exps += [exps[-1], tuple(x + 1 for x in exps[0])]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        exps.append((0,) * n)
    return weights, powers, exps


@settings(max_examples=150, deadline=None)
@given(artinian_monomial_ideals())
def test_finite_length_counts_standard_monomials(case):
    """g(1) / prod w_i is the number of standard monomials, all of which
    lie below the pure powers."""
    weights, powers, exps = case
    top = sum((p - 1) * w for p, w in zip(powers, weights))
    counts = count_standard_monomials(exps, weights, top)
    assert finite_length(hilbert_numerator(exps, weights), weights) == \
        sum(counts.values())


