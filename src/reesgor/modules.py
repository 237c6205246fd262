"""Free modules over a polynomial ring and module Groebner machinery.

A Vec is an element of a free module F = sum_i P(-shift_i), stored as
((component, exponent), coefficient) terms sorted descending in the
module's order: position over term extending the ring's monomial order
by default, or an order induced through the module's `order` hook, such
as the Schreyer orders of `schreyer_syzygies`.  The Buchberger loop
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
before the exponents are compared.  `vec_nf` orders its work heap by the
order's `neg_key`, so no key is negated per push.  An S-vector reaches
`vec_nf` as the unsorted term dict `_s_vector` builds, not as a sorted
Vec, so each of its terms is keyed once, when it enters the heap.
Interreduction needs no index per element: a lead never divides a
smaller term of its own component, so each kept element's tail reduces
against one index of all kept elements.

Syzygies, colons, intersections, presentations and exact division all
come from one Groebner basis of a graph module, `colon_basis(gens, rels)`:
the submodule of F + P^s spanned by the rows (g_i, e_i) and (r_j, 0),
under position over term with the F block first.  Its elements led in
the tail P^s have no F part: a reduced Groebner basis of the tail
{u : sum u_i g_i in span(rels)} (Greuel-Pfister, A Singular Introduction
to Commutative Algebra; Singular's `syz`, `quotient`, `modulo`).  That is
the syzygies of the g_i with no rels, the colon (rels : g) for gens = [g],
whose basis `module_divide` reduces (f, 0) against, the intersection
(A) cap (B) = (A e_0 + B e_1) : (e_0 + e_1), and in general the
presentation of (im gens)/(im rels).
`schreyer_syzygies` reduces graph rows too, but needs no Buchberger run:
for a Groebner basis, the S-vectors of its pairs reduce to syzygies that
are a Groebner basis already.
"""

import heapq
from itertools import compress
from operator import add, ge, neg, sub

from .errors import (NotDivisible, OwnerMismatch, ResourceExceeded,
                     crosscheck)
from .polys import _exp_lcm, _exp_mul


class FreeModule:
    """Graded free module of finite rank with per-component degree shifts.

    `key(comp, exp)` orders the terms, larger key larger term, and
    `neg_key` is key negated: ascending neg_key is descending module
    order.  The default is position over term, earlier components
    dominating.  An induced order is given as `order`, one (head, shift,
    tail) triple of tuples per component: the term x^a e_i is keyed
    head_i + neg_key(a + shift_i) + tail_i.  Position over term is the
    triple ((i,), 0, ()), and `schreyer_syzygies` builds Schreyer orders
    this way.
    """

    def __init__(self, ring, rank, shifts=None, order=None):
        self.ring = ring
        self.rank = rank
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        self.order = tuple(order) if order is not None else None
        rkey, rneg = ring.order.key, ring.order.neg_key
        if order is None:
            self.key = lambda comp, exp: (-comp,) + rkey(exp)
            self.neg_key = lambda comp, exp: (comp,) + rneg(exp)
        else:
            triples = self.order

            def neg_key(comp, exp):
                head, shift, tail = triples[comp]
                return head + rneg(tuple(map(add, exp, shift))) + tail
            self.neg_key = neg_key
            self.key = lambda comp, exp: tuple(map(neg, neg_key(comp, exp)))

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
        """The polynomial entry in component i."""
        d = {e: c for (comp, e), c in self.terms if comp == i}
        return self.module.ring.from_dict(d)

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

    def __neg__(self):
        F = self.module.ring.field
        return Vec(self.module, tuple((k, F.neg(c)) for k, c in self.terms))

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

    def mul_poly(self, p):
        F = self.module.ring.field
        d = {}
        for e1, c1 in p.terms:
            for (comp, e2), c2 in self.terms:
                k = (comp, _exp_mul(e1, e2))
                d[k] = F.add(d.get(k, F.zero), F.mul(c1, c2))
        return self.module.from_dict(d)

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
    """Per-component lists of (mask, lead exp, position), in basis order."""
    index = [[] for _ in range(rank)]
    for pos, b in enumerate(basis):
        _index_add(index, pos, b)
    return index


def _index_add(index, pos, b):
    (comp, e), _ = b.terms[0]
    index[comp].append((_mask(e), e, pos))


def _first_divisor(reducers, e):
    """(position, lead exp) of the first reducer whose lead divides e, or
    None; a lead whose mask has a bit outside e's mask cannot divide it."""
    off = ~_mask(e)
    for lm, le, pos in reducers:
        if not lm & off and all(map(ge, e, le)):
            return pos, le
    return None


def vec_nf(f, basis, index=None):
    """Fully reduced normal form of f against basis (monic leads assumed).

    f is a Vec, or the terms {(comp, exp): coeff} of a vector of the
    basis's module in any order, zero coefficients allowed, such as an
    S-vector from `_s_vector`; the dict is consumed.  Each term is keyed
    once, when it enters the work heap.  `index` is the reducer index of
    basis, built here when not given.  A term is reduced by the first
    basis element, in basis order, whose lead divides it.
    """
    if isinstance(f, Vec):
        module, work = f.module, dict(f.terms)
    else:
        module, work = basis[0].module, f
    if index is None:
        index = reducer_index(basis, module.rank)
    F = module.ring.field
    fadd, fmul, fneg, zero = F.add, F.mul, F.neg, F.zero
    neg_key = module.neg_key
    heap = [(neg_key(comp, e), comp, e) for comp, e in work]
    heapq.heapify(heap)
    rem = []
    while heap:
        _, comp, e = heapq.heappop(heap)
        c = work.pop((comp, e), None)
        if c is None or c == zero:
            continue
        hit = _first_divisor(index[comp], e)
        if hit is None:
            # terms pop in descending order, so rem stays sorted
            rem.append(((comp, e), c))
            continue
        pos, le = hit
        q = tuple(map(sub, e, le))
        mc = fneg(c)
        # the monic lead cancels the popped term; the tail is smaller
        for (bcomp, be), bc in basis[pos].terms[1:]:
            ne = tuple(map(add, be, q))
            k = (bcomp, ne)
            old = work.get(k)
            if old is None:
                work[k] = fmul(mc, bc)
                heapq.heappush(heap, (neg_key(bcomp, ne), bcomp, ne))
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


def _s_vector(bi, bj, lcm):
    """S-vector of two monic elements with the given lead lcm, as the
    unsorted term dict `vec_nf` takes; the leads cancel, so only the
    tails are multiplied."""
    F = bi.module.ring.field
    (_, ei), _ = bi.terms[0]
    (_, ej), _ = bj.terms[0]
    ui = tuple(map(sub, lcm, ei))
    uj = tuple(map(sub, lcm, ej))
    d = {(comp, tuple(map(add, e, ui))): c for (comp, e), c in bi.terms[1:]}
    for (comp, e), c in bj.terms[1:]:
        k = (comp, tuple(map(add, e, uj)))
        d[k] = F.sub(d.get(k, F.zero), c)
    return d


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
    pairs = []      # heap of (degree of lcm, key of lcm, i, j, comp, lcm)
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
        for i in range(k):
            compi, ei = leads[i]
            if compi != compk or redundant[i]:
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
                heapq.heappush(pairs, (wdeg(lcm) + shifts[compk],
                                       module.key(compk, lcm), i, k, compk,
                                       lcm))

    def join(h):
        k = len(basis)
        basis.append(h)
        leads.append(h.terms[0][0])
        redundant.append(False)
        _index_add(index, k, h)
        update(k)

    # ascending lead order: a divisor joins before its multiples, so every
    # input an earlier lead divides is caught before it forms any pair
    for g in sorted((g for g in gens if not g.is_zero()),
                    key=lambda g: module.key(*g.terms[0][0])):
        (comp, e), _ = g.terms[0]
        if _first_divisor(index[comp], e) is not None:
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
        h = vec_nf(_s_vector(basis[i], basis[j], lcm), basis, index)
        if not h.is_zero():
            join(h.monic())

    # no lead divides a lead joined after it, so the elements no later
    # lead divides have minimal leads; a lead never divides a smaller
    # term of its component, so every tail reduces against one index
    keep = [b for b, r in zip(basis, redundant) if not r]
    keep_index = reducer_index(keep, module.rank)
    reduced = [Vec(module, b.terms[:1]
                   + vec_nf(Vec(module, b.terms[1:]), keep, keep_index).terms)
               for b in keep]
    reduced.sort(key=lambda b: module.key(*b.terms[0][0]), reverse=True)
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


def schreyer_syzygies(basis):
    """Syzygies of a Groebner basis read off its S-pair reductions
    (Schreyer 1980; La Scala-Stillman 1998).

    `basis` is a monic Groebner basis under the order of its module M.
    The syzygies lie in F, free on the basis elements, graded by their
    degrees, under the Schreyer order they induce: x^a e_i is above
    x^b e_j when x^a lead_i is above x^b lead_j in M, or the two are equal
    and i < j.  For each i, the pairs (i, j > i) whose leads share a
    component and whose monomials m_ij = lcm/lead_i are minimal give one
    syzygy each: vec_nf reduces the S-vector of the rows (g_i, e_i) and
    (g_j, e_j) of M + F against all rows (g_k, e_k) to (0, m_ij e_i -
    m_ji e_j - sum q_k e_k).  These syzygies are a Groebner basis of the
    syzygy module under F's order, with leads m_ij e_i (Schreyer's
    theorem), so no Buchberger run is needed.  Within a lead component
    they are listed with leads descending lexicographically, which bounds
    the length of an iterated frame by the number of variables.  An
    S-vector whose F part does not reduce to zero (the basis was not a
    Groebner basis) fails a crosscheck.
    """
    M = basis[0].module
    ring = M.ring
    r = M.rank
    leads = [b.terms[0][0] for b in basis]
    triples = M.order or [((i,), ring.zero_exp, ()) for i in range(r)]
    order = []
    for i, (comp, e) in enumerate(leads):
        head, shift, tail = triples[comp]
        order.append((head, tuple(map(add, shift, e)), tail + (i,)))
    F = FreeModule(ring, len(basis),
                   [ring.wdeg(e) + M.shifts[comp] for comp, e in leads], order)
    # the F block first: its heads start with 0, those of the tail with 1
    GM = FreeModule(ring, r + F.rank, M.shifts + F.shifts,
                    [((0,) + h, s, t) for h, s, t in triples]
                    + [((1,) + h, s, t) for h, s, t in order])
    one, zero_exp = ring.field.one, ring.zero_exp
    rows = [Vec(GM, b.terms + (((r + i, zero_exp), one),))
            for i, b in enumerate(basis)]
    index = reducer_index(rows, GM.rank)
    same_comp = {}
    for i, (comp, _) in enumerate(leads):
        same_comp.setdefault(comp, []).append(i)
    syz = []
    stuck = 0
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
        for m, j, lcm in sorted(kept, reverse=True):
            h = vec_nf(_s_vector(rows[i], rows[j], lcm), rows, index)
            if h.terms[0][0][0] < r:
                stuck += 1
                continue
            syz.append(Vec(F, tuple(((c - r, e), v)
                                    for (c, e), v in h.terms)))
    crosscheck("S-vectors of a Groebner basis whose F part is not zero",
               stuck, 0)
    return syz


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


def module_divide(f, basis):
    """A Poly h with f - h*g in span(rels), for basis = colon_basis([g], rels);
    NotDivisible when none exists.

    The normal form of (f, 0) against the colon graph basis keeps an F
    term exactly when f is outside span(g, rels); otherwise it is (0, -h),
    since (f, 0) minus it is the row combination (h*g + sum c_j r_j, h).
    """
    rank = f.module.rank
    r = vec_nf(basis[0].module.from_dict(dict(f.terms)), basis)
    if not r.is_zero() and r.lead()[0][0] < rank:
        raise NotDivisible("vector is not a multiple of the divisor")
    return -r.component(rank)
