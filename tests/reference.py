"""Test-only helpers: brute-force references that nothing in the package
calls, and the package's engines called on plain generators."""

import sys
from fractions import Fraction
from math import prod
from operator import add, ge

from reesgor import idealops
from reesgor.groebner import normal_form
from reesgor.invariants import artinian_length
from reesgor.modules import reducer_index, schreyer_level
from reesgor.resolutions import subquotient
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
    counts = {}

    def rec(i, exp, deg):
        if deg > up_to_degree:
            return
        if i == n:
            if not any(all(map(ge, exp, g)) for g in exps):
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
    return PresentedGradedRing(ring, gens).resolution(length_cap)


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
    """ambient/(rels) as a ModulePresentation, the subquotient of the
    basis vectors of ambient by rels."""
    gens = [ambient.basis_vec(i) for i in range(ambient.rank)]
    return subquotient(ambient, gens, rels)


def count_calls(monkeypatch, fn):
    """A list that gains an entry per call of fn, for the rest of the
    test: fn is replaced at every binding inside the reesgor package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("reesgor"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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


def artinian_gorenstein_by_colon(J):
    """A/J, A the ring of J, is Gorenstein iff its socle (J : m)/J has
    length one, with J : m the colon of J's preimage by the variables."""
    A = J.owner
    soc = Ideal.from_basis(A, idealops.colon(A.ambient, J.preimage_gens(),
                                             A.gens()))
    return artinian_length(J) - artinian_length(soc) == 1


def hilbert_by_division(num, weights):
    """`hilbert` by dividing num by 1 - t, coefficient by coefficient, for
    as long as num(1) = 0; each division forms max deg num entries."""
    if not num:
        return -1, 0
    dim = len(weights)
    g = dict(num)
    while sum(g.values()) == 0:
        # f(t) = (1 - t) g(t): g_d = f_0 + ... + f_d, of degree deg f - 1
        f, g, acc = g, {}, 0
        for d in range(max(f)):
            acc += f.get(d, 0)
            if acc:
                g[d] = acc
        dim -= 1
    return dim, Fraction(sum(g.values()), prod(weights))


def conductor_by_colon(A, pair):
    """The conductor J : (J : b), J = (a) + I, as the module colon of J by
    the basis of J : b in P^k, k the length of that basis, with J and
    J : b built afresh."""
    a, b = pair
    amb = A.ambient
    J = A.ideal([a]).gb()
    return tuple(idealops.colon(amb, J, idealops.colon(amb, J, [b])))
