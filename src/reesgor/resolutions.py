"""Graded free resolutions, Ext against the dualizing module, and
finite-module invariants (length, minimal generators, annihilator, socle).

A module is the cokernel of a reduced Groebner basis of a graded free
module (`ModulePresentation(f0, cols)`), off which the length, socle,
minimal generators, resolution and annihilator are read; `subquotient`
presents (im gens)/(im rels) so, by the tail of
`modules.colon_basis(gens, rels)`.  A resolution is its free modules and
its maps, a Schreyer frame (Schreyer 1980; La Scala and Stillman,
Strategies for computing minimal free resolutions, JSC 26, 1998): it
starts from a reduced Groebner basis and its Hilbert numerator (a
module's columns or a ring's memoized `gb()`), the first level, and
`modules.schreyer_level` reads each next level, and the free module the
level lies in, off the S-pair reductions of the last, under the Schreyer
order that level induces, with no Buchberger run.  The shifts of those
modules are the resolution's only record of degrees.  The frame is exact
but never minimalized: the graded Betti numbers are the ranks of
Tor(M, k), read off the frame's constant entries (`tor_betti`; Erocal,
Motsak, Schreyer and Steenpass, Refined algorithms to compute syzygies,
JSC 74, 2016), and Ext is the cohomology of the dual of the frame.
"""

from collections import Counter
from functools import partial, reduce
from itertools import chain
from operator import ge
from types import MappingProxyType

from .errors import NotArtinian, ResourceExceeded, crosscheck
from .groebner import as_vecs
from .hilbert import INFINITE, finite_length, hilbert_numerator, upoly_add
from .idealops import intersect as intersect_ideals
from .modules import (FreeModule, colon_basis, graph_tail, module_colon,
                      reducer_index, schreyer_level, tail_shifts, vec_nf)
from .polys import _exp_mul


def minimalize_step(prev_cols, s_cols):
    """Pivot the unit entries out of the differential s_cols : F_{k+1} ->
    F_k one at a time; prev_cols lists the generators of F_k.  Each pivot
    is the first column with a constant term u, at its first one, in
    component i: alpha/u times it leaves every other column with entry
    alpha there, then generator i, component i and the columns left zero
    go.  Returns the reduced (prev_cols, s_cols)."""
    prev_cols, s_cols = list(prev_cols), list(s_cols)
    while s_cols:
        F = s_cols[0].module
        ring = F.ring
        hit = next(((c, comp, u) for c, col in enumerate(s_cols)
                    for (comp, e), u in col.terms if e == ring.zero_exp), None)
        if hit is None:
            break
        c, i, u = hit
        pivot = s_cols.pop(c).scale(ring.field.inv(u))
        del prev_cols[i]
        newF = FreeModule(ring, F.rank - 1, F.shifts[:i] + F.shifts[i + 1:])
        kept = []
        for col in s_cols:
            for e, alpha in col.component(i).terms:
                col = col - pivot.mul_term(e, alpha)
            col = newF.from_dict({(comp - (comp > i), e): v
                                  for (comp, e), v in col.terms if comp != i})
            if not col.is_zero():
                kept.append(col)
        s_cols = kept
    return prev_cols, s_cols


class GradedResolution:
    """A graded free resolution F_0 <- F_1 <- ... of a module M, held as
    its Schreyer frame, with the graded Betti numbers of M.

    modules[k] is the free module F_k, whose shifts are the degrees of
    its generators, and diffs[k] holds the columns of the frame's d_{k+1}
    as Vecs in F_k, so there is one more module than differentials;
    betti[k] maps each degree j to beta_{k,j} = dim Tor_k(M, k)_j, the
    rank of F_k in degree j of a minimal resolution.  pd and betti()
    read the Betti numbers; the frame can be longer than pd.
    """

    def __init__(self, ring, modules, diffs, betti):
        self.ring = ring
        self.modules = tuple(modules)
        # tuples and read-only mappings, because resolutions are cached
        # and shared between callers
        self.diffs = tuple(tuple(cols) for cols in diffs)
        self.graded_betti = tuple(MappingProxyType(dict(b)) for b in betti)

    @property
    def pd(self):
        return len(self.graded_betti) - 1

    def betti(self):
        """Ranks (b_0, b_1, ..., b_pd) of a minimal resolution."""
        return [sum(b.values()) for b in self.graded_betti]

    def euler_characteristic(self):
        """The alternating sum over k of t^shift over the generators of
        F_k, as {degree: coefficient}: for an exact resolution, the
        numerator of the module's Hilbert series."""
        out = Counter()
        for k, b in enumerate(self.graded_betti):
            for j, c in b.items():
                out[j] += (-1) ** k * c
        return {j: c for j, c in out.items() if c}


def _lex_ranking(gb):
    """The variables ranked for the frame's lex order, most significant
    first: those in the fewest leads of gb first, ties by index."""
    counts = [0] * gb[0].module.ring.n
    for b in gb:
        for v, a in enumerate(b.terms[0][0][1]):
            if a:
                counts[v] += 1
    return sorted(range(len(counts)), key=counts.__getitem__)


def schreyer_frame(gb, length_cap=None):
    """(modules, levels): the free modules F_0, F_1, ... of a Schreyer
    frame and the columns of d_1, d_2, ..., levels[k] Vecs in modules[k].

    gb is a monic Groebner basis in F_0, the first level; it is listed with
    leads descending lexicographically within each component, as
    `schreyer_level` lists every later level, which bounds the frame's
    length under any lex order.  The lex order ranks the variables in
    the fewest leads of gb first (`_lex_ranking`), which keeps the frame
    small.  Each next level and its module F_k are `schreyer_level` of
    the last, until a level is empty (its module ends the list) or, with
    a length cap, through d_{cap+2} in F_{cap+1}; it hands down its
    reducer index with the tails keyed, so only the first level's tails
    are keyed from their Vecs, in full.  Every later level's index keys
    only the tail terms in components that carry a lead of that level,
    which changes no quotient, so the remainder crosscheck of a later
    level's S-vectors covers the components that carry a lead; the
    Euler-characteristic crosscheck of `minimal_free_resolution` covers
    the whole frame.
    """
    lex = _lex_ranking(gb)

    def lex_descending(b):
        (comp, e), _ = b.terms[0]
        return comp, [-e[v] for v in lex]
    modules = [gb[0].module]
    frame = [sorted(gb, key=lex_descending)]
    index = reducer_index(frame[0], modules[0].rank)
    while length_cap is None or len(frame) < length_cap + 2:
        F, syz, index = schreyer_level(frame[-1], index, lex)
        modules.append(F)
        if not syz:
            break
        frame.append(syz)
    return modules, frame


def tor_betti(modules, frame):
    """{j: dim Tor_k(M, k)_j} for k < len(modules), where M = coker d_1,
    modules holds the free modules F_0, F_1, ... of a graded free
    resolution of M and frame the columns of its differentials d_1, d_2,
    ..., d_k mapping F_k to F_{k-1}; a d_k past the frame is zero.

    Tor(M, k) is the homology of F tensor k, whose differentials keep the
    constant entries of the d_k.  These maps preserve degree, so
    beta_{k,j} = f_{k,j} - rank(d_k tensor k)_j - rank(d_{k+1} tensor k)_j,
    f_{k,j} counting the shifts j of F_k: the graded Betti numbers of M
    with no minimalization.
    """
    ranks = [{}] + list(map(_constant_ranks, modules, frame)) + [{}]
    out = []
    for k, F in enumerate(modules):
        b = Counter(F.shifts)
        b.subtract(ranks[k])
        b.subtract(ranks[k + 1])
        out.append({j: c for j, c in b.items() if c})
    return out


def minimal_free_resolution(gb, f0, numerator, length_cap=None):
    """Graded free resolution of M = coker(gb : F_1 -> f0), with the
    minimal graded Betti numbers.

    gb is a reduced Groebner basis of Vecs in f0, the frame's first
    level, and numerator the Hilbert numerator of M.  Each next level is
    `schreyer_level` of the last, and the Betti numbers are the ranks of
    Tor(M, k) off the frame (`tor_betti`).  With a length cap the frame
    is built through d_{cap+2} in F_{cap+1} at most, which fixes
    beta_{cap+1}: ResourceExceeded is raised only when it is not zero,
    that is when the minimal length exceeds the cap.  The graded Euler
    characteristic of the Betti numbers, the frame's own, is crosschecked
    against the numerator, so the check covers the frame and the Tor
    ranks both.  An empty gb leaves F_0 free, a frame of no level.
    """
    modules, frame = schreyer_frame(gb, length_cap) if gb else ([f0], [])
    betti = tor_betti(modules, frame)
    while len(betti) > 1 and not betti[-1]:
        betti.pop()
    if length_cap is not None and len(betti) > length_cap + 1:
        raise ResourceExceeded("resolution length cap exceeded")
    # Ext^pd reads d_{pd+1}; no later level of the frame is needed
    res = GradedResolution(f0.ring, modules[:len(betti) + 1],
                           frame[:len(betti)], betti)
    crosscheck("graded Euler characteristic of the resolution and the "
               "Hilbert numerator of its module",
               res.euler_characteristic(), dict(numerator))
    return res


class ModulePresentation:
    """The graded module coker(cols : F1 -> f0), for cols a reduced
    Groebner basis of Vecs in the free module f0, as Singular's `modulo`
    holds one (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra).  Every invariant reads f0 and cols; the component
    numerators and annihilator are computed once per object.
    """

    def __init__(self, f0, cols):
        self.f0 = f0
        # a tuple, because presentations such as a ring's memoized Ext
        # modules are shared between callers
        self.cols = tuple(cols)
        self._numerators = None
        self._ann = None

    def component_numerators(self):
        """The Hilbert numerator of each component of F0/(columns),
        unshifted, read off the column leads, as read-only mappings."""
        if self._numerators is None:
            self._numerators = tuple(
                MappingProxyType(hilbert_numerator(exps, self.f0.ring.weights))
                for exps in _component_leads(self.f0, self.cols))
        return self._numerators

    def resolution(self):
        """The resolution of the module, whose frame starts from the
        columns and whose exactness check reads the component numerators,
        shifted and summed."""
        numerator = {}
        for shift, num in zip(self.f0.shifts, self.component_numerators()):
            numerator = upoly_add(numerator,
                                  {d + shift: c for d, c in num.items()})
        return minimal_free_resolution(self.cols, self.f0, numerator)

    def pd(self):
        return self.resolution().pd

    def length(self):
        """k-dimension, or INFINITE."""
        weights = self.f0.ring.weights
        total = 0
        for num in self.component_numerators():
            l = finite_length(num, weights)
            if l == INFINITE:
                return INFINITE
            total += l
        return total

    def is_zero(self):
        return self.length() == 0

    def min_generators(self):
        """Number of minimal generators (graded Nakayama)."""
        return self.f0.rank - sum(_constant_ranks(self.f0, self.cols).values())

    def annihilator_gens(self):
        """Generators of {f in P : f * self = 0}, as a tuple: the
        intersection of the colons (cols : e_i) over the generators e_i
        of f0.  The columns led in the last component have no other
        component, and their entries are the colon by the last e_i."""
        if self._ann is None:
            f0, ring = self.f0, self.f0.ring
            last = f0.rank - 1
            colons = [module_colon(f0.basis_vec(i), self.cols)
                      for i in range(last)]
            if f0.rank:
                colons.append([c.component(last) for c in self.cols
                               if c.lead()[0][0] == last])
            ann = (reduce(partial(intersect_ideals, ring), colons)
                   if colons else (ring.one,))
            self._ann = tuple(ann)
        return self._ann

    def socle_dim(self):
        """Length of (0 :_M m) for finite-length M, by linear algebra.

        M has a finite standard-monomial basis; the socle is the joint
        kernel of the multiplication maps by the variables.
        """
        if self.length() == INFINITE:
            raise NotArtinian("socle needs a finite-length module")
        f0, gb = self.f0, self.cols
        ring = f0.ring
        field = ring.field
        if f0.rank == 0:
            return 0
        basis = _standard_module_basis(f0, gb)
        if not basis:
            return 0
        reducers = reducer_index(gb, f0.rank)
        # column j of the stacked multiplication matrix: the coordinates
        # of x_k times basis element j, keyed (k, basis element)
        cols = []
        for comp, e in basis:
            col = {}
            for k in range(ring.n):
                exp_k = tuple(1 if i == k else 0 for i in range(ring.n))
                shifted = f0.from_dict({(comp, _exp_mul(e, exp_k)): field.one})
                for ce, coeff in vec_nf(shifted, gb, reducers).terms:
                    col[(k,) + ce] = coeff
            cols.append(col)
        # socle = kernel of the stacked multiplication matrix
        return len(basis) - _sparse_rank(field, cols)


def subquotient(ambient, gens, rels):
    """The graded subquotient (im gens)/(im rels) of the free module
    ambient, as the cokernel of the tail of `colon_basis(gens, rels)`,
    the module {u : sum u_i g_i in span(rels)} over generators of
    degrees `tail_shifts(gens)`, a reduced Groebner basis.
    Inhomogeneous generators or relations are a ValueError."""
    rels = [r for r in rels if not r.is_zero()]
    for v in chain(gens, rels):
        if not v.is_homogeneous():
            raise ValueError("inhomogeneous generator or relation %r" % v)
    f0 = FreeModule(ambient.ring, len(gens), tail_shifts(gens))
    return ModulePresentation(
        f0, graph_tail(colon_basis(gens, rels), f0) if gens else ())


def _component_leads(f0, gb):
    """The lead exponents of gb, one list per component of f0."""
    leads = [[] for _ in range(f0.rank)]
    for b in gb:
        (comp, e), _ = b.lead()
        leads[comp].append(e)
    return leads


def _standard_module_basis(f0, gb):
    """All (component, exponent) pairs outside the lead module, for a
    finite-length cokernel: the standard monomials are closed under
    division, so each component's are reached from its 1 by multiplying
    by variables, and the walk stops at the lead module."""
    units = [g.lead_exp() for g in f0.ring.gens()]
    out = []
    for comp, L in enumerate(_component_leads(f0, gb)):
        seen = {}       # an ordered set
        todo = [f0.ring.zero_exp]
        while todo:
            t = todo.pop()
            if t not in seen and not any(all(map(ge, t, e)) for e in L):
                seen[t] = None
                todo.extend(_exp_mul(t, u) for u in units)
        out.extend((comp, t) for t in seen)
    return out


def _sparse_rank(field, vectors):
    """Rank of sparse vectors {index: coeff} over the field: each is
    reduced against the pivots so far, kept monic at their least index,
    and becomes a pivot when it does not reduce to zero."""
    of = field.of
    pivots = {}
    for v in vectors:
        v = dict(v)
        while v:
            i = min(v)
            pivot = pivots.get(i)
            if pivot is None:
                inv = field.inv(v[i])
                pivots[i] = {j: of(c * inv) for j, c in v.items()}
                break
            c = v[i]
            for j, pc in pivot.items():
                x = of(v.get(j, 0) - c * pc)
                if not x:
                    v.pop(j, None)
                else:
                    v[j] = x
    return len(pivots)


def _constant_ranks(F, cols):
    """{degree j: rank over the field of the constant entries of the
    columns (Vecs in F) of degree j}: the graded pieces of the rank of
    d tensor k.  A constant entry of a column of degree j lies in a row
    of F of shift j, so the pieces are independent."""
    ring, shifts, zero_exp = F.ring, F.shifts, F.ring.zero_exp
    by_degree = {}
    for col in cols:
        units = {comp: c for (comp, e), c in col.terms if e == zero_exp}
        if units:
            by_degree.setdefault(shifts[next(iter(units))], []).append(units)
    return {j: _sparse_rank(ring.field, rows)
            for j, rows in by_degree.items()}


def resolve_quotient_ring(ring, gb, numerator, length_cap=None):
    """Free resolution of P/(gb) as a P-module, for gb the reduced
    Groebner basis of an ideal and numerator the Hilbert numerator of
    P/(gb): the frame starts from that basis and the exactness check
    reads that numerator.  A generating set that is not a Groebner basis
    fails the crosscheck of `schreyer_level`.  The unit ideal makes
    P/(gb) zero, with no Betti numbers.
    """
    f0 = FreeModule(ring, 1, (0,))
    return minimal_free_resolution(as_vecs(gb, f0), f0, numerator,
                                   length_cap)


def dual_columns(resolution, k):
    """(F_k^*, the columns of the dual map Hom(d_k, omega): F_{k-1}^* ->
    F_k^* of the frame's d_k), none for k = 0.

    omega = P(-c), c the sum of the weights, so F_k^* has shifts c - s
    for F_k's shifts s; the columns are indexed by F_{k-1}^*'s basis.
    """
    c, F = sum(resolution.ring.weights), resolution.modules[k]
    dualF = FreeModule(resolution.ring, F.rank, tuple(c - s for s in F.shifts))
    if not k:
        return dualF, []
    # one column per row of d_k, that is per basis element of F_{k-1}
    rows = [{} for _ in range(resolution.modules[k - 1].rank)]
    for j, col in enumerate(resolution.diffs[k - 1]):
        for (comp, e), coeff in col.terms:
            rows[comp][(j, e)] = coeff
    return dualF, [dualF.from_dict(row) for row in rows]


def ext_dualizing(resolution, i):
    """Ext^i_P(M, omega_P) as a ModulePresentation, from a resolution of M.

    Ext^i is the cohomology ker(d_{i+1}^*) / im(d_i^*) of the dual of the
    frame, F_k^* read off F_k (`dual_columns`), zero for i > pd.  At
    i = pd the kernel is all of F_pd^* when the frame ends there, and is
    taken when the frame is longer.
    """
    if i < 0 or i > resolution.pd:
        return ModulePresentation(FreeModule(resolution.ring, 0, ()), ())
    dualF, rels = dual_columns(resolution, i)
    if i < len(resolution.diffs):
        # kernel vectors are coefficient vectors over the dual basis of F_i
        gens = graph_tail(colon_basis(dual_columns(resolution, i + 1)[1],
                                      []), dualF)
    else:
        gens = [dualF.basis_vec(j) for j in range(dualF.rank)]
    return subquotient(dualF, gens, rels)
