"""Test-only helpers: brute-force references that nothing in the package
calls, and the package's engines called on plain generators."""

import sys
from collections import Counter
from fractions import Fraction
from math import prod
from operator import add, ge

from reesgor import idealops
from reesgor.groebner import normal_form
from reesgor.invariants import artinian_length
from reesgor.modules import (FreeModule, Vec, _pack, reducer_index,
                             schreyer_level, vec_nf)
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
                          range(M.ring.n))[1]


def lead_degree(v):
    """The degree of a homogeneous nonzero Vec, read off its lead."""
    (comp, e), _ = v.terms[0]
    return v.module.ring.wdeg(e) + v.module.shifts[comp]


def interreduce(basis):
    """The reduced Groebner basis of the module a monic Groebner basis
    spans, sorted: the elements whose lead no other lead divides, the
    first of equal leads, each with its tail reduced as a Vec against a
    fresh index of those elements only."""
    M = basis[0].module
    leads = [b.terms[0][0] for b in basis]
    keep = [b for i, (b, (ci, ei)) in enumerate(zip(basis, leads))
            if not any(cj == ci and all(map(ge, ei, ej))
                       and (ej != ei or j < i)
                       for j, (cj, ej) in enumerate(leads) if j != i)]
    index = reducer_index(keep, M.rank)
    out = [Vec(M, b.terms[:1] + vec_nf(Vec(M, b.terms[1:]), keep,
                                       index).terms) for b in keep]
    out.sort(key=lambda b: M.neg_key(*b.terms[0][0]))
    return out


def minimal_monomials(pairs):
    """The pair rule as it was before it deduplicated: the (monomial, tag)
    pairs whose monomial is minimal, in order of total degree, then
    monomial, then tag: each is kept when no monomial kept before it
    divides it, so among equal monomials the least tag stays."""
    kept = []
    for m, tag in sorted(pairs, key=lambda p: (sum(p[0]), p)):
        if not any(all(map(ge, m, k)) for k, _ in kept):
            kept.append((m, tag))
    return kept


def schreyer_pairs(leads, lex):
    """The pair rule `schreyer_level` kept before it read its pairs off a
    table of later leads: for each i, m_ij = lcm/lead_i for every later j
    of its component, the minimal ones by `minimal_monomials`, the least
    j among equal ones, sorted descending in the lex order ranking the
    variables as `lex` lists them, as (i, m_ij, j, m_ji) for the
    (component, exponent) leads."""
    def over(a, b):
        return tuple(max(x - y, 0) for x, y in zip(a, b))
    pairs = []
    for i, (comp, ei) in enumerate(leads):
        kept = minimal_monomials([(over(ej, ei), j)
                                  for j, (cj, ej) in enumerate(leads)
                                  if j > i and cj == comp])
        kept.sort(key=lambda t: [t[0][v] for v in lex], reverse=True)
        pairs += [(i, m, j, over(ei, leads[j][1])) for m, j in kept]
    return pairs


def position_over_term(ring, rank):
    """The order triples ((i,), 0, ()) of position over term."""
    return [((i,), ring.zero_exp, ()) for i in range(rank)]


def schreyer_triples(triples, basis):
    """The order triples of the Schreyer order that the Groebner basis
    `basis` induces, its module ordered by `triples`: e_i, for lead_i =
    x^a in component c, gets (head_c, shift_c + a, tail_c + (i,))."""
    out = []
    for i, b in enumerate(basis):
        (c, a), _ = b.terms[0]
        head, shift, tail = triples[c]
        out.append((head, tuple(map(add, shift, a)), tail + (i,)))
    return out


def triple_module(ring, triples, shifts=None):
    """The FreeModule ordered by `triples`, one (head, shift, tail) per
    component, all heads of one length and all tails of one: x^a e_i is
    keyed as head_i + rneg(a + shift_i) + tail_i, rneg the ring's key,
    packed into the bases and key width that `keys=` takes."""
    rneg = ring.order.neg_key
    return FreeModule(ring, len(triples), shifts, keys=(
        [_pack(h + rneg(s) + t) for h, s, t in triples],
        32 * len(triples[0][2]) if triples else 0))


def tuple_key(ring, triples, comp, exp):
    """The tuple that a module ordered by `triples` orders x^exp e_comp
    by: head + rneg(exp + shift) + tail of comp's triple, rneg the
    ring's key."""
    head, shift, tail = triples[comp]
    return head + ring.order.neg_key(tuple(map(add, exp, shift))) + tail


def shifts(res, k):
    """The generator degrees of F_k in the minimal resolution res, sorted,
    read off its graded Betti numbers."""
    return tuple(sorted(Counter(res.graded_betti[k]).elements()))


def mul_poly(v, p):
    """The Vec v times the polynomial p."""
    F = v.module.ring.field
    d = {}
    for e1, c1 in p.terms:
        for (comp, e2), c2 in v.terms:
            k = (comp, tuple(map(add, e1, e2)))
            d[k] = F.of(d.get(k, F.zero) + c1 * c2)
    return v.module.from_dict(d)


def exact_sum(*parts):
    """sum s * d over the (s, d) in parts, d a {key: coeff} dict, with
    the coefficients added in Z or Q; zeros are kept."""
    out = {}
    for s, d in parts:
        for k, c in d.items():
            out[k] = out.get(k, 0) + s * c
    return out


def exact_product(a, b, join):
    """The product of the {key: coeff} dicts a and b in Z or Q, the term
    of keys k1 and k2 landing at join(k1, k2); zeros are kept."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = join(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def in_field(field, d):
    """The {key: coeff} dict d, computed in Z or Q, mapped into field at
    the end: each coefficient reduced mod p, or a Fraction over QQ, and
    the zeros dropped."""
    p = field.p
    out = {k: c % p if p else Fraction(c) for k, c in d.items()}
    return {k: c for k, c in out.items() if c}


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
