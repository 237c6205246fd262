"""Test-only helpers: brute-force references that nothing in the package
calls, and the package's engines called on plain generators."""

from operator import ge

from reesgor.groebner import normal_form
from reesgor.hilbert import _minimalize
from reesgor.modules import reducer_index, schreyer_level
from reesgor.rings import PresentedGradedRing


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
