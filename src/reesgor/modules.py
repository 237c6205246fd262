"""Free modules over a polynomial ring and module Groebner machinery.

A Vec is an element of a free module F = sum_i P(-shift_i), stored as
((component, exponent), coefficient) terms sorted descending in the
module's order: position over term extending the ring's monomial order
by default, or an order induced through the module's `order` hook, such
as the Schreyer orders of `schreyer_level`.  The Buchberger loop
computes reduced bases only; it prunes S-pairs by the Gebauer-Moeller
update (Gebauer & Moeller 1988) as each element joins the basis, with the
product criterion on rank 1 only, where it is valid, and by the G-filter
of Becker-Weispfenning's UPDATE (Groebner Bases, 1993): an element whose
lead a later lead divides forms no further pairs.  Its `pair_cap` counts
the S-vectors actually reduced.

A run keeps one reducer index, extended as each element joins the basis:
per component, the (mask, lead exp, position) of every element in basis
order.  The mask is a short exponent vector (Greuel-Pfister, A Singular
Introduction to Commutative Algebra): bit i is set when exponent i is
nonzero, so `lm & ~em` rejects most leads that cannot divide a term
before the exponents are compared.  The index also keys each element's
tail, once, when it first reduces a term or forms an S-vector; as
`neg_key` is linear, x^q times that tail is keyed by adding
`key_shift(q)`, so `vec_nf` keys no term per push, S-vectors included.
Interreduction needs no index per element: a lead never divides a
smaller term of its own component, so each kept element's tail, keyed
in the run's index, is both the work `vec_nf` reduces and a reducer in
one index of all kept elements.

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
presentation of (im gens)/(im rels).
`schreyer_level` needs neither graph rows nor a Buchberger run: for a
Groebner basis, the quotients of its S-vectors' reductions are syzygies
that are a Groebner basis already, and come sorted and keyed, so each
level of a frame hands the next its reducer index with its tails keyed.
No term is keyed twice, and a handed-down index leaves out the tail terms
in components that carry no lead of its level, which no reduction can
touch.
"""

import heapq
from itertools import compress
from operator import add, ge, neg, sub

from .errors import (NotDivisible, OwnerMismatch, ResourceExceeded,
                     crosscheck)
from .polys import Poly, _exp_lcm, _exp_mul


class FreeModule:
    """Graded free module of finite rank with per-component degree shifts.

    One key, `neg_key(comp, exp)`, orders the terms, smaller neg_key
    larger term: ascending neg_key is descending module order.  The
    default is position over term, earlier components dominating.  An
    induced order is given as `order`, one (head, shift, tail) triple of
    tuples per component: the term x^a e_i is keyed
    head_i + neg_key(a + shift_i) + tail_i.  Position over term is the
    triple ((i,), 0, ()), and `schreyer_level` builds Schreyer orders
    this way.  neg_key(comp, a + q) = neg_key(comp, a) + key_shift(q);
    key_shift is memoized, and unequal head or tail lengths raise ValueError.
    """

    def __init__(self, ring, rank, shifts=None, order=None):
        self.ring = ring
        self.rank = rank
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        self.order = tuple(order) if order is not None else None
        rneg = ring.order.neg_key
        if order is None:
            self.neg_key = lambda comp, exp: (comp,) + rneg(exp)
            pads = {(1, 0)}
        else:
            triples = self.order

            def neg_key(comp, exp):
                head, shift, tail = triples[comp]
                return head + rneg(tuple(map(add, exp, shift))) + tail
            self.neg_key = neg_key
            pads = {(len(h), len(t)) for h, _, t in triples} or {(0, 0)}
        if len(pads) > 1:
            raise ValueError("order triples differ in head or tail length")
        (hz, tz), memo = ((0,) * n for n in pads.pop()), {}
        self.key_shift = lambda q: memo.get(q) or memo.setdefault(
            q, hz + rneg(q) + tz)

    def zero(self):
        return Vec(self, ())

    def basis_vec(self, i, poly=None):
        if poly is None:
            poly = self.ring.one
        return self.from_poly_list([(i, poly)])

    def from_poly_list(self, pairs):
        """Build a Vec from (component, Poly) pairs."""
        d = {}
        F = self.ring.field
        for comp, p in pairs:
            if p.ring != self.ring:
                raise OwnerMismatch("polynomial from a different ring")
            for e, c in p.terms:
                k = (comp, e)
                d[k] = F.add(d.get(k, F.zero), c)
        return self.from_dict(d)

    def from_dict(self, d):
        zero = self.ring.field.zero
        neg_key = self.neg_key
        items = [(ce, c) for ce, c in d.items() if c != zero]
        items.sort(key=lambda t: neg_key(*t[0]))
        return Vec(self, tuple(items))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FreeModule) and other.ring == self.ring
            and other.rank == self.rank and other.shifts == self.shifts
            and other.order == self.order)

    def __hash__(self):
        return hash((self.ring, self.rank, self.shifts))


class Vec:
    """Immutable element of a FreeModule."""

    __slots__ = ("module", "terms", "_hash")

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms
        self._hash = None

    def is_zero(self):
        return not self.terms

    def lead(self):
        """((comp, exp), coeff) of the largest term."""
        return self.terms[0]

    def component(self, i):
        """The polynomial entry in component i.  Its terms are already in
        the ring's order: every module order keys x^a e_i as head_i +
        neg_key(a + shift_i) + tail_i, and the ring's neg_key is linear."""
        return Poly(self.module.ring, tuple((e, c) for (comp, e), c
                                            in self.terms if comp == i))

    def components(self):
        polys = [dict() for _ in range(self.module.rank)]
        for (comp, e), c in self.terms:
            polys[comp][e] = c
        return [self.module.ring.from_dict(d) for d in polys]

    def degree(self):
        """Common weighted degree (with shifts) when homogeneous, else max."""
        if not self.terms:
            return -1
        ring = self.module.ring
        sh = self.module.shifts
        return max(ring.wdeg(e) + sh[comp] for (comp, e), _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        ring = self.module.ring
        sh = self.module.shifts
        degs = {ring.wdeg(e) + sh[comp] for (comp, e), _ in self.terms}
        return len(degs) == 1

    def __add__(self, other):
        F = self.module.ring.field
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = F.add(d.get(k, F.zero), c)
        return self.module.from_dict(d)

    def __sub__(self, other):
        F = self.module.ring.field
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = F.sub(d.get(k, F.zero), c)
        return self.module.from_dict(d)

    def scale(self, c):
        F = self.module.ring.field
        if c == F.zero:
            return self.module.zero()
        return Vec(self.module, tuple((k, F.mul(cc, c)) for k, cc in self.terms))

    def mul_term(self, exp, coeff):
        F = self.module.ring.field
        return Vec(self.module,
                   tuple(((comp, _exp_mul(e, exp)), F.mul(c, coeff))
                         for (comp, e), c in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.module.ring.field.inv(self.terms[0][1]))

    def __eq__(self, other):
        return (isinstance(other, Vec) and other.module == self.module
                and other.terms == self.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.module.rank, self.module.shifts, self.terms))
        return self._hash

    def __repr__(self):
        return "<Vec %s>" % (tuple(str(p) for p in self.components()),)


# bit i of a divisibility mask; variables past the last bit are left out
# of the mask, which then only lets more candidates through
_BITS = tuple(1 << i for i in range(64))


def _mask(exp):
    """Divisibility mask of exp: bit i set when exp[i] is nonzero."""
    return sum(compress(_BITS, exp))


def reducer_index(basis, rank):
    """Per-component (mask, lead exp, position) lists, and keyed tails."""
    index = ([[] for _ in range(rank)], {})
    for pos, b in enumerate(basis):
        _index_add(index, pos, b)
    return index


def _index_add(index, pos, b):
    (comp, e), _ = b.terms[0]
    index[0][comp].append((_mask(e), e, pos))


def _keyed(index, basis, pos):
    """basis[pos]'s tail as (neg_key, comp, exp, coeff), keyed once."""
    if pos not in index[1]:
        nk = basis[pos].module.neg_key
        index[1][pos] = tuple((nk(comp, e), comp, e, c)
                              for (comp, e), c in basis[pos].terms[1:])
    return index[1][pos]


def _first_divisor(reducers, e):
    """(position, lead exp) of the first reducer whose lead divides e, or
    None; a lead whose mask has a bit outside e's mask cannot divide it."""
    off = ~_mask(e)
    for lm, le, pos in reducers:
        if not lm & off and all(map(ge, e, le)):
            return pos, le
    return None


def vec_nf(f, basis, index, quotients=None):
    """Fully reduced normal form of f against basis (monic leads assumed).

    f is a Vec, or the work dict {neg_key: coeff} and heap of (neg_key,
    comp, exp, u) of an S-vector from `_s_vector`; a neg_key names its
    term, whose exponent exp + u is formed only when the term pops with a
    nonzero coefficient, since most terms of a reduction cancel first.
    `index` is basis's reducer index.  The first basis element whose lead
    divides a term reduces it, x^q times its tail keyed by adding
    key_shift(q); a list `quotients` gets the keyed term
    (k + (pos,), pos, q, -c) per step subtracting c x^q basis[pos] from
    the term of key k, as `schreyer_level` keys x^q e_pos.  A term in a
    component that carries no lead finds no divisor: it records no
    quotient and pushes no term, so an index whose keyed tails leave such
    terms out (as a frame's do) gives the same quotients, and the same
    remainder in every component that carries a lead.
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
    F = module.ring.field
    fadd, fmul, fneg, zero = F.add, F.mul, F.neg, F.zero
    key_shift = module.key_shift
    heapq.heapify(heap)
    rem = []
    while heap:
        k, comp, e, u = heapq.heappop(heap)
        c = work.pop(k, None)
        if c is None or c == zero:
            continue
        e = tuple(map(add, e, u))
        hit = _first_divisor(leads[comp], e)
        if hit is None:
            # terms pop in descending order, so rem stays sorted
            rem.append(((comp, e), c))
            continue
        pos, le = hit
        q = tuple(map(sub, e, le))
        mc = fneg(c)
        if quotients is not None:
            quotients.append((k + (pos,), pos, q, mc))
        shift = key_shift(q)
        # the monic lead cancels the popped term; the tail is smaller
        tail = tails.get(pos)
        if tail is None:
            tail = _keyed(index, basis, pos)
        for bk, bcomp, be, bc in tail:
            k = tuple(map(add, bk, shift))
            old = work.get(k)
            if old is None:
                work[k] = fmul(mc, bc)
                heapq.heappush(heap, (k, bcomp, be, q))
            else:
                nc = fadd(old, fmul(mc, bc))
                if nc == zero:
                    del work[k]
                else:
                    work[k] = nc
    return Vec(module, tuple(rem))


class GroebnerData:
    """Result bundle of a module Buchberger run."""

    def __init__(self, basis):
        self.basis = basis          # reduced Groebner basis, monic, sorted


def _s_vector(basis, index, i, j, lcm):
    """The S-vector of the monic basis[i] and basis[j] with lead lcm, their
    shifted keyed tails, as the work dict and heap `vec_nf` takes."""
    module = basis[i].module
    fsub, fneg = module.ring.field.sub, module.ring.field.neg
    ui = tuple(map(sub, lcm, basis[i].terms[0][0][1]))
    uj = tuple(map(sub, lcm, basis[j].terms[0][0][1]))
    si, sj = module.key_shift(ui), module.key_shift(uj)
    ti = _keyed(index, basis, i)
    heap = [(tuple(map(add, k, si)), comp, e, ui) for k, comp, e, _ in ti]
    work = {h[0]: t[3] for h, t in zip(heap, ti)}
    for k, comp, e, c in _keyed(index, basis, j):
        k = tuple(map(add, k, sj))
        if k in work:
            work[k] = fsub(work[k], c)
        else:
            work[k] = fneg(c)
            heap.append((k, comp, e, uj))
    return work, heap


def module_buchberger(gens, pair_cap=None):
    """Reduced module Groebner basis of the submodule spanned by gens.

    Pairs are taken by the shifted degree of their lcm, then smallest lcm
    first (the sugar strategy of Giovini et al. 1991, which reorders pairs
    only where the order does not lead with the degree), and pruned by
    the Gebauer-Moeller update each time an element joins the basis: of
    its new pairs, one is kept per lcm and none whose lcm is a multiple of
    a kept one; on rank 1 only, coprime pairs are then dropped (the
    product criterion); queued pairs whose lcm the new lead divides are
    dropped unless the lcm of either end with the new lead equals it
    (criterion B_k).  An older element whose lead the new lead divides
    forms no further pairs, though its queued pairs stay (the G-filter of
    Becker-Weispfenning's UPDATE).  The nonzero inputs join in ascending
    lead order; an input whose lead an earlier lead divides is reduced
    against the basis so far before it joins, and dropped when it reduces
    to zero.  `pair_cap` bounds the number of S-vectors actually reduced;
    one more raises ResourceExceeded.
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
    pairs = []      # heap of (degree of lcm, -neg_key of lcm, i, j, comp, lcm)
    wdeg, shifts = module.ring.wdeg, module.shifts

    def update(k):
        """Gebauer-Moeller update and G-filter for the new element k."""
        compk, ek = leads[k]
        live = [p for p in pairs
                if p[4] != compk or not all(map(ge, p[5], ek))
                or _exp_lcm(leads[p[2]][1], ek) == p[5]
                or _exp_lcm(leads[p[3]][1], ek) == p[5]]
        if len(live) != len(pairs):
            pairs[:] = live
            heapq.heapify(pairs)
        cands = []
        # k joins the index after its update: these are the earlier
        # elements of its component
        for _, ei, i in index[0][compk]:
            if redundant[i]:
                continue
            lcm = tuple(map(max, ei, ek))
            coprime = rank1 and not any(map(min, ei, ek))
            cands.append((sum(lcm), lcm, not coprime, i))
            if lcm == ei:
                redundant[i] = True
        # by total degree a divisor sorts before its multiples, and equal
        # lcms sit side by side with a coprime pair first
        cands.sort()
        kept = []
        for _, lcm, not_coprime, i in cands:
            if any(all(map(ge, lcm, m)) for m in kept):
                continue
            kept.append(lcm)
            if not_coprime:
                heapq.heappush(pairs, (wdeg(lcm) + shifts[compk], tuple(
                    map(neg, module.neg_key(compk, lcm))), i, k, compk, lcm))

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

    reduced_count = 0
    while pairs:
        reduced_count += 1
        if pair_cap is not None and reduced_count > pair_cap:
            raise ResourceExceeded("pair queue cap %d exceeded" % pair_cap)
        _, _, i, j, _comp, lcm = heapq.heappop(pairs)
        h = vec_nf(_s_vector(basis, index, i, j, lcm), basis, index)
        if not h.is_zero():
            join(h.monic())

    # no lead divides a lead joined after it, so the elements no later
    # lead divides have minimal leads; a lead never divides a smaller
    # term of its component, so every tail reduces against one index,
    # which takes each kept tail keyed from the run's index
    kept = [pos for pos, r in enumerate(redundant) if not r]
    keep = [basis[pos] for pos in kept]
    keep_index = reducer_index(keep, module.rank)
    zero_exp = module.ring.zero_exp
    tails = [_keyed(index, basis, pos) for pos in kept]
    keep_index[1].update(enumerate(tails))
    reduced = []
    for b, tail in zip(keep, tails):
        work = {t[0]: t[3] for t in tail}
        nf = vec_nf((work, [t[:3] + (zero_exp,) for t in tail]), keep,
                    keep_index)
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


def module_syzygies(gens):
    """The syzygies of `gens` (Vecs in F^len) as a reduced Groebner basis:
    the tail of `colon_basis(gens, [])`."""
    shifts = [g.degree() if not g.is_zero() else 0 for g in gens]
    return graph_tail(colon_basis(gens, []),
                      FreeModule(gens[0].module.ring, len(gens), shifts))


def schreyer_level(basis, index, lex):
    """(syzygies, their reducer index): the syzygies of a Groebner basis
    read off its S-pair reductions (Schreyer 1980; La Scala-Stillman
    1998), with their tails keyed.

    `basis` is a monic Groebner basis under the order of its module M,
    and `index` its reducer index.  The syzygies lie in F, free on the
    basis elements, graded by their degrees, under the Schreyer order they
    induce: x^a e_i is above x^b e_j when x^a lead_i is above x^b lead_j
    in M, or the two are equal and i < j, so the F key of x^a e_i is the M
    key of x^a lead_i followed by i.  For each i, the pairs (i, j > i)
    whose leads share a component and whose monomials m_ij = lcm/lead_i
    are minimal give one syzygy each: vec_nf reduces the S-vector
    m_ij g_i - m_ji g_j to zero, and m_ij e_i - m_ji e_j plus its
    quotients, already sorted and keyed (x^q e_k is keyed by the term
    vec_nf popped, strictly descending below the lcm, then k), is the
    syzygy.  These syzygies are a Groebner basis of the syzygy module
    under F's order, with leads m_ij e_i (Schreyer's theorem), so no
    Buchberger run is needed.  Every pair is picked before any is
    reduced: component i of F carries a lead of the syzygies exactly when
    i has a kept pair, and their index holds only the keyed tail terms in
    those components, since no reduction against the syzygies can reduce
    a term anywhere else (see `vec_nf`); the syzygies keep every term.
    Within a lead component they are listed with leads descending
    lexicographically, in the lex order that ranks the variables as
    `lex` lists them, most significant first, which bounds the length of
    an iterated frame by the number of variables under any lex order.  A
    nonzero remainder (no Groebner basis) fails a crosscheck; against an
    index that leaves lead-free terms out, as a frame's does, the check
    covers the components that carry a lead of `basis`.
    """
    M = basis[0].module
    ring = M.ring
    leads = [b.terms[0][0] for b in basis]
    triples = M.order or [((i,), ring.zero_exp, ()) for i in range(M.rank)]
    order = []
    for i, (comp, e) in enumerate(leads):
        head, shift, tail = triples[comp]
        order.append((head, tuple(map(add, shift, e)), tail + (i,)))
    F = FreeModule(ring, len(basis),
                   [ring.wdeg(e) + M.shifts[comp] for comp, e in leads], order)
    one, minus_one = ring.field.one, ring.field.neg(ring.field.one)
    same_comp = {}
    for i, (comp, _) in enumerate(leads):
        same_comp.setdefault(comp, []).append(i)
    pairs = []
    for i, (comp, ei) in enumerate(leads):
        cands = []
        for j in same_comp[comp]:
            if j > i:
                lcm = tuple(map(max, ei, leads[j][1]))
                m = tuple(map(sub, lcm, ei))
                cands.append((sum(m), m, j, lcm))
        # by total degree a divisor sorts before its multiples
        cands.sort()
        kept = []
        for _, m, j, lcm in cands:
            if not any(all(map(ge, m, k)) for k, _, _ in kept):
                kept.append((m, j, lcm))
        kept.sort(key=lambda t: [t[0][v] for v in lex], reverse=True)
        pairs += [(i, m, j, lcm) for m, j, lcm in kept]
    # component i of F carries a lead m_ij e_i of syz exactly when i has a
    # kept pair; a tail term anywhere else can never be reduced
    lead_comps = {i for i, _, _, _ in pairs}
    syz = []
    syz_index = reducer_index((), F.rank)
    stuck = 0
    for i, m, j, lcm in pairs:
        tail = [(M.neg_key(leads[i][0], lcm) + (j,), j,
                 tuple(map(sub, lcm, leads[j][1])), minus_one)]
        if vec_nf(_s_vector(basis, index, i, j, lcm), basis, index,
                  tail).terms:
            stuck += 1
            continue
        v = Vec(F, (((i, m), one),)
                + tuple(((pos, q), c) for _, pos, q, c in tail))
        syz_index[1][len(syz)] = tuple(t for t in tail if t[1] in lead_comps)
        _index_add(syz_index, len(syz), v)
        syz.append(v)
    crosscheck("S-vectors of a Groebner basis whose F part is not zero",
               stuck, 0)
    return syz, syz_index


def colon_basis(gens, rels):
    """Groebner basis of the graph module in F + P^s spanned by the rows
    (g_i, e_i) and (r, 0), with tail shifts deg g_i (0 for a zero g_i).
    Under position over term with the F block first, an element led in
    the tail has no F part, and the tail is {u : sum u_i g_i in
    span(rels)}."""
    module = gens[0].module
    rank = module.rank
    GM = FreeModule(module.ring, rank + len(gens), module.shifts + tuple(
        g.degree() if not g.is_zero() else 0 for g in gens))
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
    if g.is_zero():
        return [g.module.ring.one]
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
