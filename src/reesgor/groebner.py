"""Ring-level Groebner bases and normal forms: the rank-one case of the
module engine.  Nothing is cached here; a reduced basis is memoized by
the ideal it belongs to (`Ideal.gb`, which a ring reads off its zero
ideal), and the ideal operations return reduced bases that callers
keep."""

from .errors import OwnerMismatch
from .modules import FreeModule, Vec, module_buchberger, reducer_index, vec_nf


def as_vecs(polys, F=None):
    """The polys as vectors of the rank-one free module F over their ring,
    built when not given.  Position over term on rank one is the ring's
    order, so each poly's terms are already in F's order."""
    if F is None:
        F = FreeModule(polys[0].ring, 1)
    ring = F.ring
    for p in polys:
        if p.ring != ring:
            raise OwnerMismatch("polynomial from a different ring")
    return [Vec(F, tuple(((0, e), c) for e, c in p.terms)) for p in polys]


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal generated by gens.

    Unique for (ideal, ring order): monic, sorted by descending lead.
    Zero generators are dropped; the zero ideal yields the empty basis.
    """
    live = [p for p in gens if not p.is_zero()]
    if not live:
        return []
    return [v.component(0) for v in module_buchberger(as_vecs(live)).basis]


def reducer(basis):
    """f -> normal_form(f, basis), with the basis indexed once; f of
    another ring raises OwnerMismatch unless the basis is empty, which
    `Ideal.reduce` checks."""
    if not basis:
        return lambda f: f
    vecs = as_vecs(list(basis))
    F = vecs[0].module
    index = reducer_index(vecs, 1)
    return lambda f: vec_nf(as_vecs([f], F)[0], vecs, index).component(0)


def normal_form(f, basis):
    """Fully reduced remainder of f modulo a Groebner basis."""
    return reducer(basis)(f)

