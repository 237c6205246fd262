"""Free modules over a polynomial ring and module Groebner machinery.

A Vec is an element of a free module F = sum_i P(-shift_i), stored as
((component, exponent), coefficient) terms sorted descending in the
module's order: position over term extending the ring's monomial order,
or the Schreyer order that `schreyer_level` keys off the level below.
The Buchberger loop computes reduced bases only, and picks its S-pairs
by one rule, `polys.minimal_monomials`, that the Schreyer frame shares:
of an element's pairs, those with minimal lcm, the first partner among
equal ones (Gebauer & Moeller 1988; Becker-Weispfenning's UPDATE,
Groebner Bases, 1993, filters the rest: see `module_buchberger`).

A run keeps one reducer index, extended as each element joins the basis:
per component, the (lead exp, position) of every element in basis
order, and each element's tail, keyed as it joins.  As the int `neg_key`
is linear, x^q times that tail is keyed by adding `key_shift(q)`, so
`vec_nf` keys no term per push, S-vectors included.  Interreduction
needs no second index: the run's basis is a Groebner basis, against
which a normal form is that against its kept elements alone, so each
kept element's keyed tail reduces against the run's own index.

Syzygies, colons, intersections, presentations and exact division all
come from one Groebner basis of a graph module, `colon_basis(gens, rels)`:
the submodule of F + P^s spanned by the rows (g_i, e_i) and (r_j, 0),
under position over term with the F block first.  Its elements led in
the tail P^s have no F part: a reduced Groebner basis of the tail
{u : sum u_i g_i in span(rels)} (Greuel-Pfister, A Singular Introduction
to Commutative Algebra; Singular's `syz`, `quotient`, `modulo`).  That is
the syzygies of the g_i with no rels, the colon (rels : g) for gens = [g],
whose basis `divider` reduces (f, 0) against, the intersection
(A) cap (B) = (A e_0 + B e_1) : (e_0 + e_1), and in general the
presentation of (im gens)/(im rels).  `schreyer_level` needs neither
graph rows nor a Buchberger run: each level of a frame is read off the
S-vector reductions of the last, sorted and keyed, and hands the next
its reducer index, so no term is keyed twice.
"""

import heapq
from collections import namedtuple
from operator import add, ge, sub

from .errors import NotDivisible, OwnerMismatch, ResourceExceeded, crosscheck
from .polys import Poly, _exp_mul, _reduced, _scaled, minimal_monomials


def _pack(fields):
    """fields as one int of signed 32-bit fields, first most significant,
    ordered as the tuples are; ResourceExceeded past +-2**31."""
    k = 0
    for f in fields:
        if not -2**31 < f < 2**31:
            raise ResourceExceeded("term key field %d is outside +-2**31" % f)
        k = (k << 32) + f
    return k


class FreeModule:
    """Graded free module of finite rank with per-component degree shifts.

    One int key, `neg_key(comp, exp)` = bases[comp] + key_shift(exp),
    orders the terms: ascending neg_key is descending module order.
    key_shift(q) is the ring's key rneg(q), packed by `_pack` once per
    ring, shifted left by `key_width`; so neg_key(comp, a + q) =
    neg_key(comp, a) + key_shift(q), and a sum is not checked again.  The
    default is position over term, base i shifted past the packed ring
    key and key width 0; `schreyer_level` gives the packed (bases,
    key_width) of a Schreyer order as `keys`.  Modules of equal ring,
    rank, shifts, bases and key width are equal.
    """

    def __init__(self, ring, rank, shifts=None, keys=None):
        self.ring = ring
        self.rank = rank
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        rneg, packed = ring.order.neg_key, ring.packed_keys
        if keys is None:
            width = 32 * len(rneg(ring.zero_exp))
            keys = [i << width for i in range(rank)], 0
        self.bases, self.key_width = bases, low = keys

        def key_shift(q):
            k = packed.get(q)
            if k is None:
                k = packed[q] = _pack(rneg(q))
            return k << low
        self.key_shift = key_shift
        self.neg_key = lambda comp, exp: bases[comp] + key_shift(exp)

    def zero(self):
        return Vec(self, ())

    def basis_vec(self, i, poly=None):
        if poly is None:
            poly = self.ring.one
        return self.from_poly_list([(i, poly)])

    def from_poly_list(self, pairs):
        """Build a Vec from (component, Poly) pairs."""
        d = {}
        for comp, p in pairs:
            if p.ring != self.ring:
                raise OwnerMismatch("polynomial from a different ring")
            for e, c in p.terms:
                k = (comp, e)
                d[k] = d.get(k, 0) + c
        return self.from_dict(d)

    def from_dict(self, d):
        """The Vec of {(comp, exp): coeff}, sorted: each coefficient is
        reduced once, mod p over GF(p), and zeros are dropped."""
        items = _reduced(d, self.ring.field.p)
        neg_key = self.neg_key
        items.sort(key=lambda t: neg_key(*t[0]))
        return Vec(self, tuple(items))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FreeModule) and other.ring == self.ring
            and other.rank == self.rank and other.shifts == self.shifts
            and other.key_width == self.key_width
            and other.bases == self.bases)

    def __hash__(self):
        return hash((self.ring, self.rank, self.shifts))


class Vec:
    """Immutable element of a FreeModule."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def lead(self):
        """((comp, exp), coeff) of the largest term."""
        return self.terms[0]

    def component(self, i):
        """The polynomial entry in component i.  Its terms are already in
        the ring's order: position over term and the Schreyer orders both
        key x^a e_i as bases_i + key_shift(a), key_shift(a) being the
        ring's key of a, packed."""
        return Poly(self.module.ring, tuple((e, c) for (comp, e), c
                                            in self.terms if comp == i))

    def degree(self):
        """Weighted degree (with shifts) of the highest term; -1 for zero."""
        ring, sh = self.module.ring, self.module.shifts
        return max((ring.wdeg(e) + sh[comp] for (comp, e), _ in self.terms),
                   default=-1)

    def is_homogeneous(self):
        ring, sh = self.module.ring, self.module.shifts
        return len({ring.wdeg(e) + sh[c] for (c, e), _ in self.terms}) < 2

    def __add__(self, other):
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, 0) + c
        return self.module.from_dict(d)

    def __sub__(self, other):
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, 0) - c
        return self.module.from_dict(d)

    def scale(self, c):
        """Multiply by a field scalar: coefficients only."""
        module = self.module
        return Vec(module, _scaled(self.terms, c, module.ring.field))

    def mul_term(self, exp, coeff):
        of = self.module.ring.field.of
        if not of(coeff):
            return self.module.zero()
        return Vec(self.module,
                   tuple(((comp, _exp_mul(e, exp)), of(c * coeff))
                         for (comp, e), c in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.module.ring.field.inv(self.terms[0][1]))

    def __eq__(self, other):
        return (isinstance(other, Vec) and other.module == self.module
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.module.rank, self.module.shifts, self.terms))

    def __repr__(self):
        return "<Vec %s>" % (tuple(str(self.component(i))
                                   for i in range(self.module.rank)),)


def reducer_index(basis, rank):
    """Per-component (lead exp, position) lists, and {position: tail},
    each tail term keyed as (neg_key, comp, exp, coeff)."""
    index = ([[] for _ in range(rank)], {})
    for pos, b in enumerate(basis):
        _index_add(index, pos, b)
    return index


def _index_add(index, pos, b):
    """Index b at pos: its lead exp under its component, its tail keyed."""
    (comp, e), _ = b.terms[0]
    index[0][comp].append((e, pos))
    nk = b.module.neg_key
    index[1][pos] = tuple((nk(comp, e), comp, e, c)
                          for (comp, e), c in b.terms[1:])


def _first_divisor(reducers, e):
    """(position, lead exp) of the first reducer whose lead divides e, or
    None."""
    for le, pos in reducers:
        if all(map(ge, e, le)):
            return pos, le
    return None


def vec_nf(f, basis, index, quotients=None):
    """Fully reduced normal form of f against basis (monic leads assumed).

    f is a Vec, or the work dict {neg_key: coeff} and heap of (neg_key,
    comp, exp, u) of an S-vector from `_s_vector` or of a keyed tail; a
    neg_key names its term, whose coefficient is summed with Python's
    operators, reduced mod p over GF(p) only when it pops, and whose
    exponent exp + u is formed only then, since most terms cancel first.
    `index` is basis's reducer index, which holds each tail keyed.  The
    first basis element whose lead divides a term reduces it, x^q times
    its keyed tail by adding key_shift(q); a list `quotients` gets the
    keyed term ((k << 32) + pos, pos, q, -c) per step subtracting
    c x^q basis[pos] from the term of key k, as `schreyer_level` keys
    x^q e_pos.  A term in a component that carries no lead finds no
    divisor: it records no quotient and pushes no term, so an index whose
    keyed tails leave such terms out (as a frame's do) gives the same
    quotients, and the same remainder in every component that carries a
    lead.
    """
    if isinstance(f, Vec):
        module, neg_key = f.module, f.module.neg_key
        zero_exp = module.ring.zero_exp
        heap = [(neg_key(comp, e), comp, e, zero_exp)
                for (comp, e), _ in f.terms]
        work = {h[0]: c for h, (_, c) in zip(heap, f.terms)}
    else:
        module, (work, heap) = basis[0].module, f
    leads, tails = index
    p = module.ring.field.p
    key_shift = module.key_shift
    heapq.heapify(heap)
    rem = []
    while heap:
        k, comp, e, u = heapq.heappop(heap)
        c = work.pop(k) % p if p else work.pop(k)
        if not c:
            continue
        e = tuple(map(add, e, u))
        hit = _first_divisor(leads[comp], e)
        if hit is None:
            # terms pop in descending order, so rem stays sorted
            rem.append(((comp, e), c))
            continue
        pos, le = hit
        q = tuple(map(sub, e, le))
        mc = p - c if p else -c
        if quotients is not None:
            quotients.append(((k << 32) + pos, pos, q, mc))
        shift = key_shift(q)
        # the monic lead cancels the popped term; the tail is smaller
        for bk, bcomp, be, bc in tails[pos]:
            k = bk + shift
            old = work.get(k)
            if old is None:
                work[k] = mc * bc
                heapq.heappush(heap, (k, bcomp, be, q))
            else:
                work[k] = old + mc * bc
    return Vec(module, tuple(rem))


# the result of a module Buchberger run: its reduced basis, monic, sorted
GroebnerData = namedtuple("GroebnerData", "basis")


def _s_vector(basis, index, i, ui, j, uj):
    """x^ui basis[i] - x^uj basis[j], whose monic leads cancel, as their
    shifted keyed tails in vec_nf's unreduced work dict and heap."""
    module = basis[i].module
    si, sj = module.key_shift(ui), module.key_shift(uj)
    ti = index[1][i]
    heap = [(k + si, comp, e, ui) for k, comp, e, _ in ti]
    work = {h[0]: t[3] for h, t in zip(heap, ti)}
    for k, comp, e, c in index[1][j]:
        k += sj
        if k in work:
            work[k] -= c
        else:
            work[k] = -c
            heap.append((k, comp, e, uj))
    return work, heap


def module_buchberger(gens):
    """Reduced module Groebner basis of the submodule spanned by gens.

    Pairs queue by the shifted degree of their lcm, then by the positions
    of their two elements.  When an element joins the basis, its pairs
    with the earlier elements of its component are filtered by
    `minimal_monomials`: one is kept per minimal lcm, the first partner
    among equal ones, and none whose lcm is a multiple of a kept one; on
    rank 1 only, the coprime ones are then dropped (the product
    criterion).  Queued pairs are never revisited.  An older element whose
    lead the new lead divides forms no further pairs, though its queued
    pairs stay (the G-filter of Becker-Weispfenning's UPDATE); the
    elements it leaves are those with minimal leads, which interreduction
    keeps.  The nonzero inputs join in ascending lead order; an input
    whose lead an earlier lead divides is reduced against the basis so
    far before it joins, and dropped when it reduces to zero.
    """
    if not gens:
        raise ValueError("empty generator list")
    module = gens[0].module
    rank1 = module.rank == 1
    for g in gens:
        if g.module != module:
            raise OwnerMismatch("generators from different modules")

    basis = []
    leads = []      # (comp, exp) of each basis element
    redundant = []  # whether a later lead divides this element's lead
    index = reducer_index((), module.rank)
    pairs = []      # heap of (degree of lcm, i, j, lcm/lead_i, lcm/lead_j)
    wdeg, shifts = module.ring.wdeg, module.shifts

    def update(k):
        """Queue the new element k's pairs and apply the G-filter."""
        compk, ek = leads[k]
        cands = []
        # k joins the index after its update: these are the earlier
        # elements of its component
        for ei, i in index[0][compk]:
            if redundant[i]:
                continue
            lcm = tuple(map(max, ei, ek))
            cands.append((lcm, i))
            if lcm == ei:
                redundant[i] = True
        for lcm, i in minimal_monomials(cands):
            ei = leads[i][1]
            if not rank1 or any(map(min, ei, ek)):
                heapq.heappush(pairs, (wdeg(lcm) + shifts[compk], i, k, tuple(
                    map(sub, lcm, ei)), tuple(map(sub, lcm, ek))))

    def join(h):
        k = len(basis)
        basis.append(h)
        leads.append(h.terms[0][0])
        redundant.append(False)
        update(k)
        _index_add(index, k, h)

    # ascending lead order: a divisor joins before its multiples, so every
    # input an earlier lead divides is caught before it forms any pair
    for g in sorted((g for g in gens if not g.is_zero()),
                    key=lambda g: module.neg_key(*g.terms[0][0]),
                    reverse=True):
        (comp, e), _ = g.terms[0]
        if _first_divisor(index[0][comp], e) is not None:
            g = vec_nf(g, basis, index)
            if g.is_zero():
                continue
        join(g.monic())

    while pairs:
        _, i, j, ui, uj = heapq.heappop(pairs)
        h = vec_nf(_s_vector(basis, index, i, ui, j, uj), basis, index)
        if not h.is_zero():
            join(h.monic())

    # no lead divides a lead joined after it, so the elements no later
    # lead divides have minimal leads; the basis is a Groebner basis, so
    # each kept tail, keyed in the run's index, reduces against it to its
    # normal form against the kept elements alone
    zero_exp = module.ring.zero_exp
    reduced = []
    for pos, b in enumerate(basis):
        if redundant[pos]:
            continue
        tail = index[1][pos]
        nf = vec_nf(({t[0]: t[3] for t in tail},
                     [t[:3] + (zero_exp,) for t in tail]), basis, index)
        reduced.append(Vec(module, b.terms[:1] + nf.terms))
    reduced.sort(key=lambda b: module.neg_key(*b.terms[0][0]))
    return GroebnerData(reduced)


def graph_tail(basis, target):
    """The elements of a graph basis in F + target led in the tail, which
    have no F part, as Vecs of target."""
    rank = basis[0].module.rank - target.rank
    return [Vec(target, tuple(((comp - rank, e), c)
                              for (comp, e), c in b.terms))
            for b in basis if b.lead()[0][0] >= rank]


def tail_shifts(gens):
    """The shifts of a graph module's tail on gens: deg g_i, 0 if g_i = 0."""
    return tuple(g.degree() if not g.is_zero() else 0 for g in gens)


def module_syzygies(gens):
    """The syzygies of `gens` (Vecs in F^len) as a reduced Groebner basis:
    the tail of `colon_basis(gens, [])`.  No package module calls it; it
    is the tests' reference and a layer the benchmark traces."""
    return graph_tail(colon_basis(gens, []), FreeModule(
        gens[0].module.ring, len(gens), tail_shifts(gens)))


def schreyer_level(basis, index, lex):
    """(F, syzygies, their reducer index): the free module on a Groebner
    basis, returned with no syzygies too, and the syzygies read off its
    S-pair reductions (Schreyer 1980; La Scala-Stillman 1998), keyed.

    `basis` is a monic Groebner basis under the order of its module M,
    and `index` its reducer index.  F, where the syzygies lie, has the
    degrees of the basis elements as its shifts, and the Schreyer order:
    x^a e_i is above x^b e_j when x^a lead_i is above x^b lead_j in M, or
    the two are equal and i < j.  So e_i's base is (lk_i << 32) + i, for
    lk_i = M.neg_key(lead_i), and F's key width M's plus 32; a degree in
    F of 2**31 or more raises ResourceExceeded.  Within each component the
    leads of `basis` are minimal and descend in the lex order ranking the
    variables as `lex` lists them, as the syzygies' leads do, which bounds
    an iterated frame's length by the number of variables.  For each i,
    the pairs (i, j > i) whose leads share a component and whose m_ij =
    lcm/lead_i are minimal give one syzygy each, in descending lex order
    of m_ij, picked off a table of the component's later leads.  A later
    lead x_v divides no other lead, so its m_ij = x_v equals and divides no
    other m_ij: its pair is kept as it stands, with m_ji = lead_i, and such
    pairs come in lex order.  Only the other m_ij go through
    `minimal_monomials` (the first j among equal ones) and a lex sort.
    vec_nf reduces the S-vector m_ij g_i - m_ji g_j to zero, and
    m_ij e_i - m_ji e_j plus its quotients, already sorted and keyed
    (x^q e_k by the term vec_nf popped, strictly descending below the lcm,
    then k), is the syzygy.  They are a Groebner basis under F's order, with
    leads m_ij e_i (Schreyer's theorem).  Every pair is picked before any is
    reduced: component i of F carries a lead exactly when i has a kept pair,
    and the index holds only the keyed tail terms in those components, since
    no reduction can reduce a term anywhere else (see `vec_nf`); the
    syzygies keep every term.  A nonzero remainder (no Groebner basis) fails
    a crosscheck, which covers the components that carry a lead of `basis`
    when `index` leaves the lead-free terms out, as a frame's does.
    """
    M = basis[0].module
    ring, key_shift, zero_exp = M.ring, M.key_shift, M.ring.zero_exp
    leads = [b.terms[0][0] for b in basis]
    shifts = [ring.wdeg(e) + M.shifts[comp] for comp, e in leads]
    if max(shifts) >= 2**31:
        raise ResourceExceeded("a Schreyer degree reaches 2**31")
    lks = [M.neg_key(comp, e) for comp, e in leads]
    F = FreeModule(ring, len(basis), shifts, keys=(
        [(lk << 32) + i for i, lk in enumerate(lks)], M.key_width + 32))
    one, minus_one = ring.field.one, ring.field.of(-1)

    def over(a, b):     # lcm(a, b) / b
        return tuple(map(max, map(sub, a, b), zero_exp))

    table = {}  # comp: its later leads x_v, its others, as (exp, position)
    picked = [()] * len(leads)
    for i, (comp, ei) in reversed(list(enumerate(leads))):
        ones, rest = table.setdefault(comp, ([], []))
        kept = ones[::-1]
        if rest:
            kept += minimal_monomials([(over(ej, ei), j)
                                       for ej, j in reversed(rest)])
            kept.sort(key=lambda p: [p[0][v] for v in lex], reverse=True)
        picked[i] = kept
        (ones if sum(ei) == 1 else rest).append((ei, i))
    syz = []
    syz_index = reducer_index((), F.rank)
    stuck = 0
    for i, kept in enumerate(picked):
        ei = leads[i][1]
        for m, j in kept:
            mji = ei if sum(leads[j][1]) == 1 else over(ei, leads[j][1])
            tail = [(((lks[i] + key_shift(m)) << 32) + j, j, mji, minus_one)]
            if vec_nf(_s_vector(basis, index, i, m, j, mji), basis, index,
                      tail).terms:
                stuck += 1
                continue
            syz_index[0][i].append((m, len(syz)))
            syz_index[1][len(syz)] = tuple([t for t in tail if picked[t[1]]])
            syz.append(Vec(F, (((i, m), one),)
                           + tuple([((pos, q), c) for _, pos, q, c in tail])))
    crosscheck("S-vectors of a Groebner basis whose F part is not zero",
               stuck, 0)
    return F, syz, syz_index


def colon_basis(gens, rels):
    """Groebner basis of the graph module in F + P^s spanned by the rows
    (g_i, e_i) and (r, 0), with tail shifts `tail_shifts(gens)`.  Under
    position over term with the F block first, an element led in the tail
    has no F part, and the tail is {u : sum u_i g_i in span(rels)}."""
    module = gens[0].module
    rank = module.rank
    GM = FreeModule(module.ring, rank + len(gens),
                    module.shifts + tail_shifts(gens))
    one, zero_exp = module.ring.field.one, module.ring.zero_exp
    rows = [GM.from_dict({**dict(g.terms), (rank + i, zero_exp): one})
            for i, g in enumerate(gens)]
    rows += [GM.from_dict(dict(r.terms)) for r in rels]
    return module_buchberger(rows).basis


def colon_from_basis(basis, rank):
    """The colon ideal read off the tail of a `colon_basis` over F^rank."""
    return [b.component(rank) for b in basis if b.lead()[0][0] >= rank]


def module_colon(g, rels):
    """Reduced Groebner basis (Polys) of the ideal (rels : g) = {h : h*g in
    span(rels)}; the unit ideal when g is zero."""
    return colon_from_basis(colon_basis([g], rels), g.module.rank)


def divider(basis):
    """f -> h with f - h*g in span(rels), NotDivisible when none exists,
    for basis = colon_basis([g], rels) indexed once: the normal form of
    (f, 0) keeps an F term exactly when f is outside span(g, rels), and is
    (0, -h) otherwise, (f, 0) minus it being (h*g + sum c_j r_j, h)."""
    index = reducer_index(basis, basis[0].module.rank)

    def divide(f):
        r = vec_nf(Vec(basis[0].module, f.terms), basis, index)
        if not r.is_zero() and r.lead()[0][0] < f.module.rank:
            raise NotDivisible("vector is not a multiple of the divisor")
        return -r.component(f.module.rank)
    return divide
