"""Module Groebner machinery: normal forms, syzygies, colons, division."""

import heapq
import itertools
import random
from operator import add, ge, sub

import pytest
from hypothesis import given, settings, strategies as st

from reesgor import corpus, hilbert, modules, oracle
from reesgor.errors import NotDivisible, OwnerMismatch, ResourceExceeded
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.groebner import as_vecs, groebner_basis, reducer
from reesgor.modules import (FreeModule, Vec, _index_add, colon_basis, divider, module_buchberger,
                             module_colon, module_syzygies, reducer_index,
                             schreyer_level, vec_nf)
from reesgor.hilbert import hilbert_numerator
from reesgor.orders import EliminationOrder, GrevlexOrder
from reesgor.polys import PolyRing, minimal_monomials
from reesgor.resolutions import resolve_quotient_ring, schreyer_frame

import reference
from reference import (count_calls, mul_poly, position_over_term,
                       schreyer_triples, syzygies, triple_module, tuple_key)

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
                nc = F.of(-(c * bc))
                if k == (comp, e):
                    nc = F.of(c + nc)
            else:
                nc = F.of(old - c * bc)
            if nc == F.zero:
                work.pop(k, None)
            else:
                if old is None and k != (comp, e):
                    heapq.heappush(heap, (module.neg_key(*k), k[0], k[1]))
                work[k] = nc
    items = sorted(rem.items(), key=lambda t: module.neg_key(*t[0]))
    return Vec(module, tuple(items))


@st.composite
def reduction_problems(draw, fields=(F, QQ)):
    """(f, basis): random vectors of rank 1-3 over one of `fields`, with
    coefficients -5..5 that are nonzero there; the basis is monic but
    need not be a Groebner basis."""
    field = draw(st.sampled_from(fields))
    rank = draw(st.integers(1, 3))
    M = FreeModule(PolyRing(("x", "y", "z"), (1, 1, 1), field), rank)
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeffs = st.integers(-5, 5).filter(lambda c: field.of(c) != field.zero)

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


def _keyed_tails(basis):
    """{pos: tail} of every element of basis, each tail term keyed as
    (neg_key, comp, exp, coeff)."""
    return {pos: tuple((b.module.neg_key(comp, e), comp, e, c)
                       for (comp, e), c in b.terms[1:])
            for pos, b in enumerate(basis)}


def _joined(run):
    """(run(), the elements that join a reducer index while it runs, in
    order), each index checked to hold every tail it has taken keyed as
    soon as it takes the tail."""
    joined = []
    index_add = modules._index_add

    def checked(index, pos, b):
        index_add(index, pos, b)
        joined.append(b)
        assert index[1][pos] == _keyed_tails([b])[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "_index_add", checked)
        out = run()
    return out, joined


@st.composite
def spanning_sets(draw):
    """Up to five random vectors of rank 1 or 2 in three variables over
    GF(32003) or QQ, one of them nonzero."""
    field = draw(st.sampled_from([F, QQ]))
    rank = draw(st.integers(1, 2))
    M = FreeModule(PolyRing(("x", "y", "z"), (1, 1, 1), field), rank)
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    return [M.from_dict({k: field.of(c) for k, c in draw(st.dictionaries(
                st.tuples(st.integers(0, rank - 1), exps),
                st.integers(-3, 3).filter(bool), min_size=1,
                max_size=3)).items()})
            for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=60, deadline=None)
@given(spanning_sets())
def test_index_keys_each_tail_as_its_element_joins(gens):
    """reducer_index, and every _index_add of a Buchberger run, key each
    element's tail as the element joins, before any reduction reads it."""
    data, joined = _joined(lambda: module_buchberger(gens))
    assert joined
    for basis in (gens, data.basis):
        assert reducer_index(basis, gens[0].module.rank)[1] == \
            _keyed_tails(basis)


@settings(max_examples=80, deadline=None)
@given(spanning_sets())
def test_interreduction_against_the_run_matches_the_kept_elements(gens):
    """module_buchberger reduces each kept tail against its whole run,
    elements with a redundant lead included, and returns the reduced
    basis that interreduction against the kept elements only gives."""
    data, joined = _joined(lambda: module_buchberger(gens))
    assert data.basis == reference.interreduce(joined)


@st.composite
def shifted_terms(draw):
    """(module, triples, comp, a, q): a position-over-term module of rank
    1-3 over GrevlexOrder or EliminationOrder with random positive weights
    and index, or one of the Schreyer-induced modules of levels 1-4 that
    `schreyer_level` builds over it from bases of monomial vectors, which
    are Groebner bases, with the reference order triples of its order."""
    n = draw(st.integers(1, 4))
    weights = draw(st.tuples(*[st.integers(1, 4)] * n))
    index = draw(st.none() | st.integers(0, n - 1))
    order = (GrevlexOrder(weights) if index is None
             else EliminationOrder(weights, index))
    R = PolyRing(["x%d" % i for i in range(n)], weights, F, order)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    M = FreeModule(R, draw(st.integers(1, 3)))
    triples = position_over_term(R, M.rank)
    for _ in range(draw(st.integers(0, 4))):
        terms = draw(st.sets(st.tuples(st.integers(0, M.rank - 1), exps),
                             min_size=1, max_size=4))
        basis = [Vec(M, ((t, F.one),)) for t in terms]
        syz = syzygies(basis)
        if not syz:
            break
        M, triples = syz[0].module, schreyer_triples(triples, basis)
    return (M, triples, draw(st.integers(0, M.rank - 1)), draw(exps),
            draw(exps))


@settings(max_examples=150, deadline=None)
@given(shifted_terms())
def test_key_shift_is_the_key_of_a_shifted_term(case):
    """neg_key is linear in the exponent: shifting a term by x^q adds
    key_shift(q) to its key, under position over term and under the
    Schreyer orders alike."""
    M, _, comp, a, q = case
    assert (M.neg_key(comp, tuple(map(add, a, q)))
            == M.neg_key(comp, a) + M.key_shift(q))


@st.composite
def keyed_modules(draw):
    """(module, triples, terms): a module of `shifted_terms`, or one of
    rank 1-3 whose order is random Schreyer-like triples ((h,), shift,
    tail) with one tail length, and 2-8 of its terms, with exponents up
    to 3 or up to 2**24."""
    M, triples = draw(shifted_terms())[:2]
    n = len(M.ring.zero_exp)
    if draw(st.booleans()):
        rank, width = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        small = st.integers(-50, 50)
        triples = [((draw(small),), draw(st.tuples(*[st.integers(0, 9)] * n)),
                    draw(st.tuples(*[small] * width))) for _ in range(rank)]
        M = triple_module(M.ring, triples)
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, 2**24)] * n)
    return M, triples, draw(st.lists(
        st.tuples(st.integers(0, M.rank - 1), exps), min_size=2, max_size=8))


@settings(max_examples=150, deadline=None)
@given(keyed_modules())
def test_packed_keys_compare_as_tuple_keys(case):
    """Two terms' int keys compare as their tuple keys head + rneg(exp +
    shift) + tail do, under position over term, the Schreyer orders of
    frame levels 1-4, random order triples and EliminationOrder rings
    alike; and the module that the reference packs from the triples
    equals the one given, however that one was built."""
    M, triples, terms = case
    packed = [M.neg_key(*t) for t in terms]
    tuples = [tuple_key(M.ring, triples, *t) for t in terms]
    for a, b in itertools.combinations(range(len(terms)), 2):
        assert ((packed[a] > packed[b]) - (packed[a] < packed[b])
                == (tuples[a] > tuples[b]) - (tuples[a] < tuples[b]))
    assert triple_module(M.ring, triples, M.shifts) == M


def test_a_key_field_past_2_to_31_raises():
    """An exponent of 2**31 makes a key field that 32 signed bits cannot
    hold, and keying it raises rather than misorders."""
    M = FreeModule(ring3(), 2)
    M.neg_key(1, (2**31 - 1, 0, 0))
    for e in ((2**31, 0, 0), (0, 0, 2**31)):
        with pytest.raises(ResourceExceeded):
            M.neg_key(0, e)


def test_a_frame_level_past_2_to_31_raises():
    """A Schreyer level whose degree reaches 2**31, whose key fields could
    then not be packed, raises, the level below it builds; a frame whose
    second level reaches that degree raises too."""
    R = ring3()
    x, y, z = R.gens()
    for shift in (2**31 - 2, 2**31 - 1):
        M = FreeModule(R, 1, (shift,))
        basis = [M.basis_vec(0, x), M.basis_vec(0, y)]
        index = reducer_index(basis, 1)
        if shift < 2**31 - 1:
            syz = schreyer_level(basis, index, range(3))[1]
            assert syz[0].module.shifts == (2**31 - 1,) * 2
            continue
        with pytest.raises(ResourceExceeded):
            schreyer_level(basis, index, range(3))
    M = FreeModule(R, 1)
    with pytest.raises(ResourceExceeded):
        schreyer_frame([M.basis_vec(0, x ** 2**30),
                        M.basis_vec(0, y ** 2**30)])


@settings(max_examples=120, deadline=None)
@given(reduction_problems((GF(2), GF(3), F, QQ)))
def test_vec_nf_coefficients_are_reduced(problem):
    """Over GF(2), GF(3), GF(32003) and QQ, remainders and quotients
    carry no zero coefficient, a GF(p) one lies in [0, p), the remainder
    is the reference normal form, and f plus the recorded multiples of the
    basis is the remainder."""
    f, basis = problem
    field = f.module.ring.field
    quotients = []
    r = vec_nf(f, basis, reducer_index(basis, f.module.rank), quotients)
    assert r == _reference_vec_nf(f, basis)
    coeffs = [c for _, c in r.terms] + [t[3] for t in quotients]
    assert all(coeffs)
    if field.p:
        assert all(0 <= c < field.p for c in coeffs)
    acc = f
    for _, pos, q, c in quotients:
        acc = acc + basis[pos].mul_term(q, c)
    assert acc == r


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


def test_modules_are_equal_when_their_packed_keys_are():
    """Equality reads the packed bases and the key width: position over
    term packed from triples equals the default; swapped positions, or a
    constant tail that widens every key, do not."""
    R = ring3()
    z = R.zero_exp
    assert triple_module(R, [((0,), z, ()), ((1,), z, ())]) \
        == FreeModule(R, 2)
    assert triple_module(R, [((1,), z, ()), ((0,), z, ())]) \
        != FreeModule(R, 2)
    assert triple_module(R, [((0,), z, (0,))]) != FreeModule(R, 1)


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
        lcm = tuple(map(max, ei, ej))
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
    assert reference.interreduce(tangled) == reduced
    rnd.shuffle(tangled)
    assert module_buchberger(tangled).basis == reduced


def test_rank_one_vectors_are_the_poly_list_vectors():
    """as_vecs and the normal forms of `reducer` wrap each polynomial's
    terms, which are in the rank-one module's order under grevlex and
    elimination orders alike; a polynomial over another ring is refused."""
    rng = random.Random(5)
    for order in (None, EliminationOrder((1, 2, 1), 0)):
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


def test_product_criterion_leaves_coprime_pairs_unreduced(monkeypatch):
    """(x^2, xy) reduces one S-vector; with coprime leads every pair
    falls to the product criterion and none is reduced."""
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 1)
    s_vectors = count_calls(monkeypatch, modules._s_vector)
    module_buchberger([M.basis_vec(0, x * x), M.basis_vec(0, x * y)])
    assert len(s_vectors) == 1
    for polys in ([x * x, y * y], [x, y, z], [x * x + y * z, y * y]):
        s_vectors.clear()
        data = module_buchberger([M.basis_vec(0, p) for p in polys])
        assert len(data.basis) == len(polys)
        assert s_vectors == []


def test_input_divisible_by_an_earlier_lead_forms_no_pairs(monkeypatch):
    """Inputs join in ascending lead order, so in either input order x*y*z
    reduces to zero against x before it joins, no S-vector is reduced
    and the basis is (x, y)."""
    R = ring3()
    x, y, z = R.gens()
    M = FreeModule(R, 1)
    s_vectors = count_calls(monkeypatch, modules._s_vector)
    for gens in ((x, y, x * y * z), (x * y * z, x, y)):
        data = module_buchberger([M.basis_vec(0, p) for p in gens])
        assert s_vectors == []
        assert data.basis == [M.basis_vec(0, x), M.basis_vec(0, y)]


def _checked_rule(pairs):
    """minimal_monomials, checked to keep the reference rule's pairs,
    listed by total degree."""
    pairs = list(pairs)
    got = minimal_monomials(pairs)
    assert sorted(got) == sorted(reference.minimal_monomials(pairs))
    degrees = [sum(m) for m, _ in got]
    assert degrees == sorted(degrees)
    return got


def _under_rule(rule, run):
    """(run(), the S-pairs it reduces in order as (i, lcm/lead_i, j,
    lcm/lead_j)), with `rule` picking the pairs of `module_buchberger`
    and `schreyer_level` and the minimal generators of Bigatti's pivot."""
    pairs = []
    s_vector = modules._s_vector

    def recording(basis, index, i, ui, j, uj):
        pairs.append((i, ui, j, uj))
        return s_vector(basis, index, i, ui, j, uj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "_s_vector", recording)
        patch.setattr(modules, "minimal_monomials", rule)
        patch.setattr(hilbert, "minimal_monomials", rule)
        out = run()
    return out, pairs


def _assert_the_reference_rule_agrees(run):
    """run() reduces the same S-pairs in the same order, and returns the
    same, under the pair rule and the reference rule."""
    got = _under_rule(_checked_rule, run)
    assert got == _under_rule(reference.minimal_monomials, run)
    return got


def _frame_and_numerator(gb):
    """The Schreyer frame of the monic Groebner basis gb, and the Hilbert
    numerator of its leads."""
    weights = gb[0].module.ring.weights
    return (schreyer_frame(gb),
            hilbert_numerator([b.terms[0][0][1] for b in gb], weights))


@settings(max_examples=40, deadline=None)
@given(homogeneous_gens())
def test_pair_rule_matches_the_reference_on_random_vectors(gens):
    """Buchberger runs and the frames of their bases reduce the same
    S-pairs in the same order under the pair rule and the reference, and
    give the same frames and Bigatti numerators."""
    def run():
        return _frame_and_numerator(module_buchberger(gens).basis)
    _assert_the_reference_rule_agrees(run)


@st.composite
def lead_tables(draw):
    """(leads, lex): the (component, exponent) leads of a Schreyer level
    in 2-6 variables and 1-3 components, the components interleaved at
    random, each holding minimal monomials that descend in the lex order
    `lex`, a random ranking of the variables.  A component holds variables
    only; or variables and monomials of degree 2-4; or those and the
    products g x_a of one g, whose pairs have a variable as m_ij beside
    the variable leads' pairs.  A higher-degree lead never ties with a
    later lead x_v on m_ij = x_v, which needs x_v to divide it."""
    n = draw(st.integers(2, 6))
    lex = draw(st.permutations(range(n)))
    unit = [tuple(int(u == v) for u in range(n)) for v in range(n)]
    comps = []
    for c in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["variables", "mixed", "shared"]))
        gens = {unit[v] for v in draw(st.sets(
            st.integers(0, n - 1), min_size=1,
            max_size=n if kind == "variables" else 2))}
        if kind != "variables":
            gens |= draw(st.sets(st.tuples(*[st.integers(0, 2)] * n).filter(
                lambda e: sum(e) > 1), min_size=1, max_size=10))
        if kind == "shared":
            g = draw(st.tuples(*[st.integers(0, 1)] * n))
            gens |= {tuple(map(add, g, unit[v])) for v in draw(st.sets(
                st.integers(0, n - 1), min_size=2))}
        gens = [e for e in gens
                if not any(f != e and all(map(ge, e, f)) for f in gens)]
        gens.sort(key=lambda e: [e[v] for v in lex], reverse=True)
        comps.append([(c, e) for e in gens])
    leads = []
    while any(comps):
        k = draw(st.sampled_from([k for k, c in enumerate(comps) if c]))
        leads.append(comps[k].pop(0))
    return leads, lex


@settings(max_examples=300, deadline=None)
@given(lead_tables())
def test_schreyer_pairs_match_the_reference_rule(case):
    """On a basis of monomial vectors, whose S-vectors are zero, each
    syzygy is m_ij e_i - m_ji e_j: schreyer_level keeps the pairs of the
    reference rule, in its order, with the same m_ij, partner j and m_ji,
    whether a component's leads are all variables or not."""
    leads, lex = case
    n = len(leads[0][1])
    R = PolyRing(["x%d" % v for v in range(n)], (1,) * n, F)
    M = FreeModule(R, 1 + max(c for c, _ in leads))
    basis = [Vec(M, ((lead, F.one),)) for lead in leads]
    syz = schreyer_level(basis, reducer_index(basis, M.rank), lex)[1]
    assert all(len(v.terms) == 2 for v in syz)
    assert ([(i, m, j, mji) for ((i, m), _), ((j, mji), _) in
             (v.terms for v in syz)] == reference.schreyer_pairs(leads, lex))


def test_pair_rule_matches_the_reference_on_the_corpus():
    """The corpus rings' Rees presentations at n = 2, 3, built afresh,
    their frames and Bigatti numerators: the same S-pairs in the same
    order, and the same results, under the pair rule and the reference."""
    for name in ("hochster_roberts", "two_planes", "idealization_xy",
                 "idealization_x2y3", "regular_base"):
        for n in (2, 3):
            def run():
                ring = oracle.rees_presentation(*corpus.EXAMPLES[name](),
                                                n).ring
                return _frame_and_numerator(as_vecs(list(ring.gb())))
            (frame, _), pairs = _assert_the_reference_rule_agrees(run)
            assert len(frame) > 1 and pairs, (name, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 4)] * 4), max_size=14),
       st.tuples(*[st.integers(1, 3)] * 4))
def test_bigatti_numerators_match_under_the_reference_rule(exps, weights):
    """Bigatti's pivot gives the same numerator whichever rule keeps the
    minimal generators of the input and of each colon."""
    def run():
        return hilbert_numerator(exps, weights)
    _assert_the_reference_rule_agrees(run)
