"""Ring-level Groebner bases and normal forms: the rank-one case of the
module engine.  Nothing is cached here; a reduced basis is memoized by
the object it belongs to (`PresentedGradedRing.gb`, `Ideal.gb`), and
the ideal operations return reduced bases that callers keep."""

from .modules import FreeModule, module_buchberger, reducer_index, vec_nf


def as_vecs(polys):
    """The polys as vectors of the rank-one free module over their ring."""
    F = FreeModule(polys[0].ring, 1)
    return [F.from_poly_list([(0, p)]) for p in polys]


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
    """f -> normal_form(f, basis), with the basis indexed once."""
    if not basis:
        return lambda f: f
    ring = basis[0].ring
    vecs = as_vecs(list(basis))
    F = vecs[0].module
    index = reducer_index(vecs, 1)

    def nf(f):
        if f.ring != ring:
            f = ring.from_dict(dict(f.terms))
        return vec_nf(F.from_poly_list([(0, f)]), vecs, index).component(0)
    return nf


def normal_form(f, basis):
    """Fully reduced remainder of f modulo a Groebner basis."""
    return reducer(basis)(f)


def is_member(f, basis):
    return normal_form(f, basis).is_zero()
