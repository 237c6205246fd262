"""Ring-level Groebner bases as the rank-one case of the module engine."""

from .errors import NotAMember, crosscheck
from .modules import FreeModule, module_buchberger, vec_nf
from .polys import Poly


_CACHE = {}
_CACHE_LIMIT = 4096


def _as_vecs(polys, order=None):
    ring = polys[0].ring
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        polys = [ring.from_dict(dict(p.terms)) for p in polys]
    F = FreeModule(ring, 1)
    return [F.from_poly_list([(0, p)]) for p in polys], ring


def groebner_basis(gens, order=None, pair_cap=None):
    """Reduced Groebner basis of the ideal generated by gens.

    Unique for (ideal, order); cached as a tuple, so every call returns a
    fresh list.  Zero generators are dropped; the zero ideal yields the
    empty basis.
    """
    gens = list(gens)
    if not gens:
        return []
    key = None
    if pair_cap is None:
        okey = order if order is not None else gens[0].ring.order
        key = (gens[0].ring, okey, frozenset(p.terms for p in gens))
        hit = _CACHE.get(key)
        if hit is not None:
            return list(hit)
    if all(p.is_zero() for p in gens):
        result = ()
    else:
        vecs, ring = _as_vecs([p for p in gens if not p.is_zero()], order)
        data = module_buchberger(vecs, pair_cap=pair_cap)
        result = tuple(v.component(0) for v in data.basis)
    if key is not None:
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
    F = FreeModule(ring, 1)
    vecs = [F.from_poly_list([(0, b)]) for b in basis]
    fv = F.from_poly_list([(0, f)])
    r, _ = vec_nf(fv, vecs, track=False)
    return r.component(0)


def is_member(f, basis):
    return normal_form(f, basis).is_zero()


def lift_combination(f, gens, pair_cap=None):
    """Coefficients c with sum c_i * gens_i = f, verified by re-expansion."""
    ring = f.ring
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        if f.is_zero():
            return [ring.zero for _ in gens]
        raise NotAMember("nonzero element, zero generators")
    vecs, vring = _as_vecs([g for _, g in live])
    F = vecs[0].module
    data = module_buchberger(vecs, track_reps=True, pair_cap=pair_cap)
    fv = F.from_poly_list([(0, f)])
    r, quots = vec_nf(fv, data.basis, track=True)
    if not r.is_zero():
        raise NotAMember("polynomial is not in the ideal")
    coeffs = [ring.zero for _ in gens]
    for idx, q in enumerate(quots):
        if q.is_zero():
            continue
        for gen_idx, rep_poly in data.reps[idx].items():
            orig = live[gen_idx][0]
            coeffs[orig] = coeffs[orig] + q * rep_poly
    check = ring.zero
    for c, g in zip(coeffs, gens):
        check = check + c * g
    crosscheck("re-expansion of a lift", check, f)
    return coeffs
