"""Ring-level Groebner bases, normal forms and lifts: the rank-one case of
the module engine."""

from .errors import NotAMember, crosscheck
from .modules import FreeModule, module_buchberger, module_lift, vec_nf


_CACHE = {}
_CACHE_LIMIT = 4096


def _as_vecs(polys):
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
        data = module_buchberger(_as_vecs(live))
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
    fv, *vecs = _as_vecs([f] + list(basis))
    return vec_nf(fv, vecs).component(0)


def is_member(f, basis):
    return normal_form(f, basis).is_zero()


def lift_combination(f, gens):
    """Coefficients c with sum c_i * gens_i = f, verified by re-expansion.

    The rank-one case of `modules.module_lift`; zero generators get the
    coefficient zero.
    """
    ring = f.ring
    live = [i for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        if f.is_zero():
            return [ring.zero for _ in gens]
        raise NotAMember("nonzero element, zero generators")
    fv, *vecs = _as_vecs([f] + [gens[i] for i in live])
    coeffs = [ring.zero for _ in gens]
    for i, c in zip(live, module_lift(fv, vecs)):
        coeffs[i] = c
    check = ring.zero
    for c, g in zip(coeffs, gens):
        check = check + c * g
    crosscheck("re-expansion of a lift", check, f)
    return coeffs
