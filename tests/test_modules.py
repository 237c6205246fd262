"""Module Groebner machinery: normal forms, syzygies, colons, division."""

import heapq
import itertools
import random
from operator import add, ge, sub

import pytest
from hypothesis import given, settings, strategies as st

from reesgor.errors import NotDivisible, OwnerMismatch, ResourceExceeded
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.groebner import as_vecs, groebner_basis, reducer
from reesgor.modules import (FreeModule, Vec, _index_add, _mask,
                             colon_basis, divider, module_buchberger,
                             module_colon, module_syzygies, reducer_index,
                             vec_nf)
from reesgor.orders import BlockOrder, GrevlexOrder
from reesgor.polys import PolyRing, _exp_lcm
from reesgor.resolutions import resolve_quotient_ring

from reference import mul_poly, syzygies

F = GF(DEFAULT_PRIME)


def ring3():
    return PolyRing(("x", "y", "z"), (1, 1, 1), F)


def vec_combination(gens, coeffs):
    acc = gens[0].module.zero()
    for g, c in zip(gens, coeffs):
        acc = acc + mul_poly(g, c)
    return acc


def test_vec_nf_remainder_is_irreducible():
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 2)
    basis = [M.basis_vec(0, x), M.basis_vec(1, y * y)]
    f = M.from_dict({(0, (1, 1, 0)): F.one, (1, (0, 2, 1)): F.one,
                     (0, (0, 0, 2)): F.one})
    r = vec_nf(f, basis, reducer_index(basis, M.rank))
    for (comp, exp), _c in r.terms:
        for b in basis:
            (bc, be), _ = b.lead()
            if bc != comp:
                continue
            assert not all(e >= d for e, d in zip(exp, be))


def _reference_vec_nf(f, basis):
    """vec_nf as it was before the reducer index: a fresh lead table per
    call, a tuple-building divisor test and a negated key per push."""
    module = f.module
    F = module.ring.field
    by_comp = {}
    for idx, b in enumerate(basis):
        (comp, e), _ = b.lead()
        by_comp.setdefault(comp, []).append((e, idx))
    work = dict(f.terms)
    heap = [(module.neg_key(comp, e), comp, e)
            for (comp, e) in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        _, comp, e = heapq.heappop(heap)
        c = work.pop((comp, e), None)
        if c is None or c == F.zero:
            continue
        hit = None
        for le, idx in by_comp.get(comp, ()):
            if all(x >= y for x, y in zip(e, le)):
                hit = (tuple(x - y for x, y in zip(e, le)), idx)
                break
        if hit is None:
            rem[(comp, e)] = c
            continue
        q, idx = hit
        for (bcomp, be), bc in basis[idx].terms:
            k = (bcomp, tuple(x + y for x, y in zip(be, q)))
            old = work.get(k)
            if old is None:
                nc = F.neg(F.mul(c, bc))
                if k == (comp, e):
                    nc = F.add(c, nc)
            else:
                nc = F.sub(old, F.mul(c, bc))
            if nc == F.zero:
                work.pop(k, None)
            else:
                if old is None and k != (comp, e):
                    heapq.heappush(heap, (module.neg_key(*k), k[0], k[1]))
                work[k] = nc
    items = sorted(rem.items(), key=lambda t: module.neg_key(*t[0]))
    return Vec(module, tuple(items))


@st.composite
def reduction_problems(draw):
    """(f, basis): random vectors of rank 1-3 over GF(32003) or QQ; the
    basis is monic but need not be a Groebner basis."""
    field = draw(st.sampled_from([F, QQ]))
    rank = draw(st.integers(1, 3))
    M = FreeModule(PolyRing(("x", "y", "z"), (1, 1, 1), field), rank)
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeffs = st.integers(-5, 5).filter(bool)

    def vec(max_terms):
        terms = draw(st.dictionaries(st.tuples(st.integers(0, rank - 1), exps),
                                     coeffs, min_size=1, max_size=max_terms))
        return M.from_dict({k: field.of(c) for k, c in terms.items()})

    basis = [vec(4).monic() for _ in range(draw(st.integers(1, 6)))]
    return vec(8), basis


@settings(max_examples=80, deadline=None)
@given(reduction_problems())
def test_vec_nf_with_extended_index_matches_reference(problem):
    """An index extended one element at a time gives the normal form of a
    fresh index and of the reference, for every prefix of the basis."""
    f, basis = problem
    index = reducer_index((), f.module.rank)
    for k, b in enumerate(basis):
        _index_add(index, k, b)
        want = _reference_vec_nf(f, basis[:k + 1])
        assert vec_nf(f, basis[:k + 1], index) == want
        assert vec_nf(f, basis[:k + 1], reducer_index(
            basis[:k + 1], f.module.rank)) == want


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=70))
def test_mask_prefilter_keeps_every_divisor(pairs):
    """A divisor's mask has no bit outside its multiple's mask, also past
    the width of the mask."""
    b = tuple(x for x, _ in pairs)
    a = tuple(x + y for x, y in pairs)
    assert not _mask(b) & ~_mask(a)


@st.composite
def shifted_terms(draw):
    """(module, comp, a, q): a position-over-term module of rank 1-3 over
    GrevlexOrder or BlockOrder with random positive weights and block, or
    one of the Schreyer-induced modules `schreyer_level` builds over it
    from a basis of monomial vectors, which is a Groebner basis."""
    n = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 4)] * n))
    block = draw(st.none() | st.sets(st.integers(0, n - 1)))
    order = (GrevlexOrder(weights) if block is None
             else BlockOrder(weights, block))
    R = PolyRing(["x%d" % i for i in range(n)], weights, F, order)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    M = FreeModule(R, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.sets(st.tuples(st.integers(0, M.rank - 1), exps),
                             min_size=1, max_size=4))
        syz = syzygies([Vec(M, ((t, F.one),)) for t in terms])
        if not syz:
            break
        M = syz[0].module
    return M, draw(st.integers(0, M.rank - 1)), draw(exps), draw(exps)


@settings(max_examples=150, deadline=None)
@given(shifted_terms())
def test_key_shift_is_the_key_of_a_shifted_term(case):
    """neg_key is linear in the exponent: shifting a term by x^q adds
    key_shift(q) to its key, under position over term and under the
    Schreyer orders alike."""
    M, comp, a, q = case
    assert (M.neg_key(comp, tuple(map(add, a, q)))
            == tuple(map(add, M.neg_key(comp, a), M.key_shift(q))))


@settings(max_examples=100, deadline=None)
@given(shifted_terms(), st.data())
def test_component_is_the_sorted_entry(case, data):
    """Vec.component(i) takes the terms of component i as they stand, and
    equals ring.from_dict of that entry under position over term and under
    the Schreyer orders: within a component every module order is the
    ring's order."""
    M = case[0]
    exps = st.tuples(*[st.integers(0, 3)] * len(M.ring.zero_exp))
    v = M.from_dict({k: F.of(c) for k, c in data.draw(st.dictionaries(
        st.tuples(st.integers(0, M.rank - 1), exps),
        st.integers(1, DEFAULT_PRIME - 1), max_size=8)).items()})
    for i in range(M.rank):
        want = M.ring.from_dict({e: c for (comp, e), c in v.terms
                                 if comp == i})
        assert v.component(i).terms == want.terms


def test_key_shift_needs_one_head_and_tail_length():
    R = ring3()
    z = R.zero_exp
    for order in ([((0,), z, ()), ((1, 0), z, ())],
                  [((0,), z, ()), ((1,), z, (0,))]):
        with pytest.raises(ValueError):
            FreeModule(R, 2, order=order)
    FreeModule(R, 2, order=[((0,), z, (1,)), ((1,), z, (0,))])


def test_koszul_syzygy_two_variables():
    R = PolyRing(("x", "y"), (1, 1), F)
    x, y = R.gens()
    M = FreeModule(R, 1)
    syz = module_syzygies([M.basis_vec(0, x), M.basis_vec(0, y)])
    assert len(syz) == 1
    s = syz[0]
    assert {comp for (comp, _), _ in s.terms} == {0, 1}
    assert vec_combination([FreeModule(R, 1).basis_vec(0, x),
                            FreeModule(R, 1).basis_vec(0, y)],
                           [s.component(0), s.component(1)]).is_zero() or \
        (s.component(0) * x + s.component(1) * y).is_zero()


def test_koszul_syzygies_three_variables():
    R = ring3()
    gens_polys = list(R.gens())
    M = FreeModule(R, 1)
    gens = [M.basis_vec(0, p) for p in gens_polys]
    syz = module_syzygies(gens)
    assert len(syz) == 3
    for s in syz:
        acc = R.zero
        for i, p in enumerate(gens_polys):
            acc = acc + s.component(i) * p
        assert acc.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_syzygies_annihilate_generators(seed):
    rng = random.Random(seed)
    R = ring3()
    x, y, z = R.gens()
    pool = [x, y, z, x * y - z * z, x + y, y * y, x * z, x * x - y * z]
    polys = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
    M = FreeModule(R, 1)
    gens = [M.basis_vec(0, p) for p in polys]
    for s in module_syzygies(gens):
        acc = R.zero
        for i, p in enumerate(polys):
            acc = acc + s.component(i) * p
        assert acc.is_zero()
        assert s.is_homogeneous()


def test_syzygies_of_module_columns():
    """Syzygies of vectors in a rank-2 free module, verified directly."""
    R = PolyRing(("x", "y"), (1, 1), F)
    x, y = R.gens()
    M = FreeModule(R, 2)
    cols = [M.from_dict({(0, (1, 0)): F.one}),          # (x, 0)
            M.from_dict({(0, (0, 1)): F.one}),          # (y, 0)
            M.from_dict({(1, (1, 0)): F.one})]          # (0, x)
    syz = module_syzygies(cols)
    assert syz
    for s in syz:
        acc = M.zero()
        for i, c in enumerate(cols):
            acc = acc + mul_poly(c, s.component(i))
        assert acc.is_zero()


def test_module_buchberger_basis_is_monic_and_sorted():
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 2)
    gens = [M.basis_vec(0, 3 * x * x), M.basis_vec(1, 2 * y),
            M.basis_vec(0, x * y) + M.basis_vec(1, z)]
    data = module_buchberger(gens)
    keys = [M.neg_key(*b.lead()[0]) for b in data.basis]
    assert keys == sorted(keys)
    for b in data.basis:
        assert b.lead()[1] == F.one


def _monomials(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d]


@st.composite
def homogeneous_gens(draw):
    """3-5 forms in k[x,y,z] on rank 1, 2-4 homogeneous vectors on rank 2-3."""
    rank = draw(st.sampled_from([1, 2, 3]))
    shifts = tuple(draw(st.integers(0, 1)) for _ in range(rank))
    M = FreeModule(ring3(), rank, shifts)
    count = draw(st.integers(3, 5) if rank == 1 else st.integers(2, 4))
    gens = []
    for _ in range(count):
        deg = draw(st.integers(1, 3))
        d = {}
        for comp in range(rank):
            if deg - shifts[comp] < 1:
                continue
            exps = draw(st.lists(st.sampled_from(
                _monomials(3, deg - shifts[comp])), max_size=3, unique=True))
            for e in exps:
                d[(comp, e)] = draw(st.integers(1, DEFAULT_PRIME - 1))
        if d:
            gens.append(M.from_dict(d))
    if not gens:
        gens.append(M.basis_vec(0, M.ring.gen(0)))
    return gens


@settings(max_examples=60, deadline=None)
@given(homogeneous_gens(), st.randoms(use_true_random=False))
def test_module_buchberger_basis_checked_without_pruning(gens, rnd):
    """The returned basis is checked against all of its own S-vectors."""
    basis = module_buchberger(gens).basis
    index = reducer_index(basis, basis[0].module.rank)
    for g in gens:
        assert vec_nf(g, basis, index).is_zero()
    for bi, bj in itertools.combinations(basis, 2):
        (ci, ei), _ = bi.lead()
        (cj, ej), _ = bj.lead()
        if ci != cj:
            continue
        lcm = _exp_lcm(ei, ej)
        sp = (bi.mul_term(tuple(map(sub, lcm, ei)), F.one)
              - bj.mul_term(tuple(map(sub, lcm, ej)), F.one))
        assert vec_nf(sp, basis, index).is_zero()
    for b in basis:
        (comp, lead), _ = b.lead()
        for other in basis:
            if other is b:
                continue
            assert not any(all(map(ge, e, lead))
                       for (c, e), _ in other.terms if c == comp)
    perm = list(gens)
    rnd.shuffle(perm)
    assert module_buchberger(perm).basis == basis


def _reference_interreduce(keep):
    """module_buchberger's interreduction as it was before it took the
    run's keyed tails: each tail reduced as a Vec against a fresh index
    of the kept elements."""
    M = keep[0].module
    index = reducer_index(keep, M.rank)
    out = [Vec(M, b.terms[:1] + vec_nf(Vec(M, b.terms[1:]), keep,
                                       index).terms) for b in keep]
    out.sort(key=lambda b: M.neg_key(*b.terms[0][0]))
    return out


@st.composite
def tangled_bases(draw):
    """(reduced, tangled): a reduced Groebner basis of random vectors of
    rank 1-3 in three variables over GF(32003) or QQ, and the same basis
    with multiples x^a b_j below each b_i's lead added to b_i, a monic
    Groebner basis of the same module with the same leads whose tails
    need interreduction."""
    field = draw(st.sampled_from([F, QQ]))
    rank = draw(st.integers(1, 3))
    M = FreeModule(PolyRing(("x", "y", "z"), (1, 1, 1), field), rank)
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.integers(-3, 3).filter(bool)
    gens = [M.from_dict({k: field.of(c) for k, c in draw(st.dictionaries(
                st.tuples(st.integers(0, rank - 1), exps), coeffs,
                min_size=1, max_size=3)).items()})
            for _ in range(draw(st.integers(1, 5)))]
    reduced = module_buchberger(gens).basis
    tangled = []
    for bi in reduced:
        top = M.neg_key(*bi.lead()[0])
        for bj in reduced:
            a = draw(exps)
            if (bj is not bi and draw(st.booleans())
                    and M.neg_key(bj.lead()[0][0], tuple(
                        map(add, bj.lead()[0][1], a))) > top):
                bi = bi + bj.mul_term(a, field.of(draw(coeffs)))
        tangled.append(bi)
    return reduced, tangled


@settings(max_examples=80, deadline=None)
@given(tangled_bases(), st.randoms(use_true_random=False))
def test_interreduction_matches_the_vec_tail_reference(bases, rnd):
    """The interreduction of a Buchberger run, which takes the keyed
    tails the run holds, gives the reduced basis, as the Vec-tail
    reference does, in any input order."""
    reduced, tangled = bases
    assert _reference_interreduce(tangled) == reduced
    rnd.shuffle(tangled)
    assert module_buchberger(tangled).basis == reduced


def test_rank_one_vectors_are_the_poly_list_vectors():
    """as_vecs and the normal forms of `reducer` wrap each polynomial's
    terms, which are in the rank-one module's order under grevlex and
    block orders alike; a polynomial over another ring is refused."""
    rng = random.Random(5)
    for order in (None, BlockOrder((1, 2, 1), (0,))):
        R = PolyRing(("x", "y", "z"), (1, 2, 1), F, order)
        polys = [R.from_dict({e: rng.randint(1, 9) for e in rng.sample(
                     _monomials(3, 3), rng.randint(1, 5))})
                 for _ in range(6)]
        M = FreeModule(R, 1)
        want = [M.from_poly_list([(0, p)]) for p in polys]
        assert as_vecs(polys) == want
        assert as_vecs(polys, M) == want
        # an equal ring built apart is the same ring
        twin = PolyRing(("x", "y", "z"), (1, 2, 1), F, order)
        assert as_vecs([twin.from_dict(dict(p.terms)) for p in polys],
                       M) == want
        basis = groebner_basis(polys[:3])
        nf = reducer(basis)
        for p in polys:
            vecs = as_vecs(basis)
            assert nf(p) == vec_nf(M.from_poly_list([(0, p)]), vecs,
                                   reducer_index(vecs, 1)).component(0)
        for other in (PolyRing(("x", "y", "z"), (1, 2, 1), QQ, order),
                      PolyRing(("x", "y", "w"), (1, 2, 1), F, order)):
            with pytest.raises(OwnerMismatch):
                as_vecs([polys[0], other.gen(0)])
            with pytest.raises(OwnerMismatch):
                as_vecs([other.gen(0)], M)
            with pytest.raises(OwnerMismatch):
                resolve_quotient_ring(R, [other.gen(0)], {0: 1})


def _random_poly(R, rnd):
    """Sum of up to three terms of degree 0-2 with random coefficients."""
    d = {}
    for _ in range(rnd.randint(0, 3)):
        e = rnd.choice(_monomials(3, rnd.randint(0, 2)))
        d[e] = rnd.randint(1, DEFAULT_PRIME - 1)
    return R.from_dict(d)


@settings(max_examples=60, deadline=None)
@given(homogeneous_gens(), st.randoms(use_true_random=False))
def test_colon_and_division_from_the_graph_basis(gens, rnd):
    """The colon equals the first coordinates of the syzygies of
    (g, rels), reduced; a multiple of g modulo rels divides back to its
    cofactor modulo the colon, and adding a constant vector does not."""
    g, rels = gens[0], gens[1:]
    M = g.module
    firsts = [v.component(0) for v in module_syzygies([g, *rels])]
    firsts = [p for p in firsts if not p.is_zero()]
    want = groebner_basis(firsts) if firsts else []
    assert module_colon(g, rels) == want
    h = _random_poly(M.ring, rnd)
    f = mul_poly(g, h)
    for r in rels:
        f = f + mul_poly(r, _random_poly(M.ring, rnd))
    divide = divider(colon_basis([g], rels))
    off = mul_poly(g, divide(f) - h)
    if rels:
        span = module_buchberger(rels).basis
        off = vec_nf(off, span, reducer_index(span, M.rank))
    assert off.is_zero()
    # every generator entry lies in the maximal ideal, so e_i does not
    with pytest.raises(NotDivisible):
        divide(f + M.basis_vec(rnd.randrange(M.rank)))


def test_pair_cap_counts_reduced_s_vectors():
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 1)
    with pytest.raises(ResourceExceeded):
        module_buchberger([M.basis_vec(0, x * x), M.basis_vec(0, x * y)],
                          pair_cap=0)
    # coprime leads: every pair falls to the product criterion
    for polys in ([x * x, y * y], [x, y, z], [x * x + y * z, y * y]):
        data = module_buchberger([M.basis_vec(0, p) for p in polys],
                                 pair_cap=0)
        assert len(data.basis) == len(polys)


def test_input_divisible_by_an_earlier_lead_forms_no_pairs():
    """Inputs join in ascending lead order, so in either input order x*y*z
    reduces to zero against x before it joins, no S-vector is reduced
    and the basis is (x, y)."""
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 1)
    for gens in ((x, y, x * y * z), (x * y * z, x, y)):
        data = module_buchberger([M.basis_vec(0, p) for p in gens],
                                 pair_cap=0)
        assert data.basis == [M.basis_vec(0, x), M.basis_vec(0, y)]
