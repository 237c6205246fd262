"""Ideal operations in an ambient polynomial ring, on raw generator lists.

These are the engine-level routines; the user-facing Ideal type in
rings.py wraps them with owner bookkeeping and preimage conventions.
Intersections and colons are read off one homogeneous module Groebner
basis each (`modules.graph_basis`); only `eliminate` changes the ring
order, for the oracle and for ring-map kernels.
"""

from .errors import ResourceExceeded
from .groebner import as_vecs, groebner_basis, is_member
from .hilbert import finite_length, hilbert_numerator
from .modules import graph_basis, module_colon
from .orders import BlockOrder


def reduced_gens(ring, gens):
    """Canonical generator list: the reduced Groebner basis."""
    return groebner_basis([g for g in gens if not g.is_zero()])


def lead_exps(gb):
    return [g.lead_exp() for g in gb]


def ideal_length(ring, gens):
    """k-dimension of P/(gens), or INFINITE."""
    gb = groebner_basis(gens) if gens else []
    num = hilbert_numerator(lead_exps(gb), ring.weights)
    return finite_length(num, ring.weights)


def contains(ring, gens, f):
    if f.is_zero():
        return True
    if not gens:
        return False
    return is_member(f, groebner_basis(gens))


def ideals_equal(ring, gens_a, gens_b):
    gba = groebner_basis(gens_a) if gens_a else []
    gbb = groebner_basis(gens_b) if gens_b else []
    return ([g.terms for g in gba] == [g.terms for g in gbb])


def ideal_product(ring, gens_a, gens_b):
    out = []
    for a in gens_a:
        for b in gens_b:
            p = a * b
            if not p.is_zero():
                out.append(p)
    return reduced_gens(ring, out) if out else []


def intersect(ring, gens_a, gens_b):
    """(A) cap (B): the tails of the graph basis of the rows (a, a), (b, 0)."""
    if not gens_a or not gens_b:
        return []
    rows = [(v, [(0, a)]) for v, a in zip(as_vecs(gens_a), gens_a)]
    rows += [(v, []) for v in as_vecs(gens_b)]
    return [b.component(1) for b in graph_basis(rows, (0,))
            if b.lead()[0][0] == 1]


def colon_element(ring, gens, g):
    """(gens) : g, as a reduced Groebner basis."""
    gv, *rels = as_vecs([g] + list(gens))
    return module_colon(gv, rels)


def colon(ring, gens, colon_by):
    """(gens) : (colon_by), intersecting the per-generator colons."""
    live = [g for g in colon_by if not g.is_zero()]
    if not live:
        return [ring.one]
    result = None
    for g in live:
        c = colon_element(ring, gens, g)
        result = c if result is None else intersect(ring, result, c)
    return result


def saturate(ring, gens, sat_by, cap=64):
    """Stable value of iterated colon, with the first stabilization index."""
    cur = reduced_gens(ring, gens)
    for idx in range(cap + 1):
        nxt = reduced_gens(ring, colon(ring, cur, sat_by))
        if ideals_equal(ring, cur, nxt):
            return cur, idx
        cur = nxt
    raise ResourceExceeded("saturation did not stabilize within %d steps" % cap)


def eliminate(ring, gens, block):
    """Generators of (gens) intersected with the subring without `block`.

    Returns (subring, generators transferred into the subring).
    """
    block = tuple(sorted(block))
    keep = [i for i in range(ring.n) if i not in block]
    sub = ring.restrict(keep)
    if not gens:
        return sub, []
    elim_ring = ring.with_order(BlockOrder(ring.weights, block))
    work = [elim_ring.transfer(g) for g in gens]
    gb = groebner_basis(work)
    out = []
    for g in gb:
        if all(all(e[i] == 0 for i in block) for e, _ in g.terms):
            out.append(sub.transfer(g))
    return sub, out
