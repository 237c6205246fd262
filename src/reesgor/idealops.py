"""Ideal operations in an ambient polynomial ring, on raw generator lists.

These are the engine-level routines; the user-facing Ideal type in
rings.py wraps them with owner bookkeeping and preimage conventions.
Intersections and colons are module colons, each read off one graph
basis (`modules.colon_basis`): a colon by k divisors is one colon of a
vector of P^k, not k colons and k - 1 intersections, and an intersection
is one colon of a vector of P^2.  Only `eliminate` changes the ring
order, to the elimination order of one variable (`orders`), for the
Rees ideal; it relates rings by variable position alone.
`intersect`, `colon` and `saturate` return reduced Groebner bases,
equal to `groebner_basis` of themselves: the tails of a reduced graph
basis are monic, reduced and sorted by descending lead, and no element
with an F lead can reduce a tail term.
"""

from .errors import ResourceExceeded
from .groebner import groebner_basis
from .hilbert import finite_length, hilbert_numerator
from .modules import FreeModule, module_colon
from .orders import EliminationOrder
from .polys import PolyRing

SATURATION_STEPS = 64   # the most colons `saturate` takes


def ideal_length(ring, gb):
    """k-dimension of P/(gb) for a Groebner basis gb, or INFINITE."""
    num = hilbert_numerator([g.lead_exp() for g in gb], ring.weights)
    return finite_length(num, ring.weights)


def ideal_product(gens_a, gens_b, base):
    """Reduced Groebner basis of (base) + (gens_a)(gens_b)."""
    return groebner_basis(list(base) + [a * b for a in gens_a for b in gens_b])


def intersect(ring, gens_a, gens_b):
    """(A) cap (B) as the module colon (A e_0 + B e_1) : (e_0 + e_1) in
    P^2: h lies in both exactly when h e_0 + h e_1 lies in the span."""
    if not gens_a or not gens_b:
        return []
    F = FreeModule(ring, 2)
    rels = ([F.basis_vec(0, a) for a in gens_a]
            + [F.basis_vec(1, b) for b in gens_b])
    return module_colon(F.basis_vec(0) + F.basis_vec(1), rels)


def colon(ring, gens, colon_by):
    """(gens) : (colon_by) as the module colon (rels : v) in P^k: v lists
    the k nonzero divisors and rels the rows r*e_i for r in gens, so h*v
    lies in their span exactly when every h*g_i lies in (gens)."""
    live = [g for g in colon_by if not g.is_zero()]
    if not live:
        return [ring.one]
    F = FreeModule(ring, len(live))
    v = F.from_poly_list(list(enumerate(live)))
    rels = [F.basis_vec(i, r) for r in gens for i in range(len(live))]
    return module_colon(v, rels)


def saturate(ring, gens, sat_by):
    """Stable value of iterated colon, with the first stabilization index."""
    cur = groebner_basis(gens)
    for idx in range(SATURATION_STEPS + 1):
        nxt = colon(ring, cur, sat_by)
        if nxt == cur:
            return cur, idx
        cur = nxt
    raise ResourceExceeded("saturation did not stabilize within %d steps"
                           % SATURATION_STEPS)


def eliminate(ring, gens, index):
    """Generators of (gens) intersected with the subring without the
    variable at `index`, in that subring: under its elimination order, a
    basis element whose lead is free of it has no term in it."""
    i = index
    sub = PolyRing(ring.names[:i] + ring.names[i + 1:],
                   ring.weights[:i] + ring.weights[i + 1:], ring.field)
    elim = PolyRing(ring.names, ring.weights, ring.field,
                    EliminationOrder(ring.weights, i))
    return [sub.from_dict({e[:i] + e[i + 1:]: c for e, c in g.terms})
            for g in groebner_basis([elim.embed(g) for g in gens])
            if not g.lead_exp()[i]]
