"""Ring-level Groebner bases and normal forms: the rank-one case of the
module engine, with reduced bases cached per (ideal, ring order)."""

from .modules import FreeModule, module_buchberger, vec_nf


_CACHE = {}
_CACHE_LIMIT = 4096


def as_vecs(polys):
    """The polys as vectors of the rank-one free module over their ring."""
    F = FreeModule(polys[0].ring, 1)
    return [F.from_poly_list([(0, p)]) for p in polys]


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal generated by gens.

    Unique for (ideal, ring order); cached as a tuple, so every call
    returns a fresh list.  Zero generators are dropped; the zero ideal
    yields the empty basis.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    key = (ring, ring.order, frozenset(p.terms for p in gens))
    hit = _CACHE.get(key)
    if hit is not None:
        return list(hit)
    live = [p for p in gens if not p.is_zero()]
    if live:
        data = module_buchberger(as_vecs(live))
        result = tuple(v.component(0) for v in data.basis)
    else:
        result = ()
    if len(_CACHE) > _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = result
    return list(result)


def normal_form(f, basis):
    """Fully reduced remainder of f modulo a Groebner basis."""
    if not basis:
        return f
    ring = basis[0].ring
    if f.ring != ring:
        f = ring.from_dict(dict(f.terms))
    fv, *vecs = as_vecs([f] + list(basis))
    return vec_nf(fv, vecs).component(0)


def is_member(f, basis):
    return normal_form(f, basis).is_zero()
