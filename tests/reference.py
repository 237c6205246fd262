"""Test-only helpers: brute-force references that nothing in the package
calls, and the package's engines called on plain generators."""

from operator import add, ge

from reesgor import idealops
from reesgor.groebner import normal_form
from reesgor.hilbert import _minimalize
from reesgor.invariants import artinian_length
from reesgor.modules import reducer_index, schreyer_level
from reesgor.resolutions import ModulePresentation
from reesgor.rings import Ideal, PresentedGradedRing


def is_member(f, basis):
    """f lies in the ideal of the Groebner basis `basis`."""
    return normal_form(f, basis).is_zero()


def count_standard_monomials(exps, weights, up_to_degree):
    """Brute-force count of monomials outside the ideal, by weighted degree.

    Returns {degree: count} for degrees <= up_to_degree.  Test oracle for
    hilbert_numerator; exponential, keep inputs small.
    """
    n = len(weights)
    gens = _minimalize(exps)
    counts = {}

    def rec(i, exp, deg):
        if deg > up_to_degree:
            return
        if i == n:
            if not any(all(map(ge, exp, g)) for g in gens):
                counts[deg] = counts.get(deg, 0) + 1
            return
        e = 0
        while deg + e * weights[i] <= up_to_degree:
            rec(i + 1, exp + (e,), deg + e * weights[i])
            e += 1

    rec(0, (), 0)
    return counts


def resolve(ring, gens, length_cap=None):
    """The resolution of P/(gens) for P = ring, through a fresh presented
    ring: its frame starts from the reduced basis of gens and its
    exactness check reads that basis's Hilbert numerator."""
    return PresentedGradedRing.from_ambient(ring, gens).resolution(length_cap)


def syzygies(basis):
    """The syzygies of a Groebner basis by `schreyer_level` against a
    fresh reducer index, which keys tails in full, so the remainder
    crosscheck covers every component; the lex order ranks the variables
    by index."""
    M = basis[0].module
    return schreyer_level(basis, reducer_index(basis, M.rank),
                          range(M.ring.n))[0]


def mul_poly(v, p):
    """The Vec v times the polynomial p."""
    F = v.module.ring.field
    d = {}
    for e1, c1 in p.terms:
        for (comp, e2), c2 in v.terms:
            k = (comp, tuple(map(add, e1, e2)))
            d[k] = F.add(d.get(k, F.zero), F.mul(c1, c2))
    return v.module.from_dict(d)


def cokernel(ambient, rels):
    """ambient/(rels) as a ModulePresentation."""
    gens = [ambient.basis_vec(i) for i in range(ambient.rank)]
    return ModulePresentation(ambient, gens, rels)


def composes_to_zero(res):
    """Each differential of res composed with the one before it is zero."""
    for prev, cols in zip(res.diffs, res.diffs[1:]):
        for col in cols:
            acc = None
            for (comp, e), c in col.terms:
                term = prev[comp].mul_term(e, c)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                return False
    return True


def artinian_gorenstein_by_colon(A, J):
    """A/J is Gorenstein iff its socle (J : m)/J has length one, with
    J : m the colon of J's preimage by the variables."""
    soc = Ideal.from_basis(A, idealops.colon(A.ambient, J.preimage_gens(),
                                             A.gens()))
    return artinian_length(A, J) - artinian_length(A, soc) == 1
