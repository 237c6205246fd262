"""Direct oracle for Gorensteinness of R(q^n) = A[q^n t].

The Rees algebra is presented as a graded quotient of P[T_0..T_s], where
the T_j map to g_j t and the g_j run over all degree-n monomials in the
parameters.  In the t-grading R(q^n) is the n-th Veronese subring of
R(q) (Goto-Watanabe 1978, On graded rings, I, section 3), so it is read
off R(q) rather than eliminated afresh: t is eliminated from
I + (S_j - a_j t) over the d parameters a_j once per q
(`Ideal.rees_ideal`), which gives the reduced basis of J_1, the ideal of
R(q) in P[S].  The kernel of P[T] -> P[S]/J_1, T_j -> S^(combo j), is
generated by the quadratic binomials of the Veronese of k[S] (Sturmfels,
Groebner Bases and Convex Polytopes, ch. 14) and by the products f S^b
with |b| < n, f in J_1's bihomogeneous basis and deg_S f + |b|
divisible by n, each S-monomial of degree nk written as k of the T_j.
One grevlex basis of these in P[T] is the reduced basis of the Rees
ideal, term for term what the direct elimination of t in P[T, t] gives,
since a reduced basis is unique.  Gorensteinness of the quotient is
Cohen-Macaulayness plus last Betti number one, which is valid because
every presentation here is connected graded over the base field.
"""

from collections import namedtuple
from itertools import combinations_with_replacement
from operator import add

from .errors import DepthNotOne, WrongDimension, crosscheck
from .groebner import groebner_basis
from . import invariants, rings

# ring is R(q^n) as a PresentedGradedRing; the base ring A is q.owner
ReesPresentation = namedtuple("ReesPresentation", "q n ring")


def rees_presentation(A, q, n):
    """Present R(q^n) as the n-th Veronese of R(q), with a substitution
    check."""
    amb = rings.check_owner(A, q).ambient
    d = rings.check_parameters(q)
    if n < 1:
        raise ValueError("power must be at least 1")
    # T_j -> g_j t has degree 1 + deg g_j, g_j the product of combination j
    degs = [g.degree() for g in q.gens]
    weights = tuple(1 + sum(degs[i] for i in combo)
                    for combo in combinations_with_replacement(range(d), n))
    t_names = tuple(amb.fresh_name("T%d" % j) for j in range(len(weights)))
    sub = amb.extend(t_names, weights)
    out = groebner_basis(_veronese_generators(sub, q.rees_ideal(), amb.n,
                                              d, n))
    # out is the reduced basis of the Rees ideal under the grevlex order
    # of sub, so the ring keeps it as its gb()
    ring = rings.PresentedGradedRing.from_basis(sub, out)
    rp = ReesPresentation(q, n, ring)
    _verify_substitution(rp)
    crosscheck("dimension of the Rees presentation and dim A + 1",
               ring.dim(), d + 1)
    return rp


def _veronese_generators(sub, one, m, d, n):
    """Generators of the Rees ideal of q^n in sub = P[T], the kernel of
    T_j -> S^(combo j) into P[S]/J_1 for one = J_1's basis, P having m
    variables and S d of them.  An S-monomial of degree nk, as its sorted
    list of variable indices, becomes the T-monomial of its k consecutive
    runs of n; the quadratic binomials T_a T_b - (that T-monomial of
    a + b) generate the kernel of P[T] -> P[S].  At n = 1 there are no
    binomials, and the products are J_1's basis with S renamed T."""
    field = sub.field
    unit, minus = field.one, field.of(-1)
    col = {c: m + j for j, c in enumerate(
        combinations_with_replacement(range(d), n))}

    def t_exp(x_part, svars):
        exp = list(x_part) + [0] * len(col)
        for k in range(0, len(svars), n):
            exp[col[tuple(svars[k:k + n])]] += 1
        return tuple(exp)

    out = []
    for a, b in combinations_with_replacement(list(col), 2):
        runs = t_exp(sub.zero_exp[:m], sorted(a + b))
        pair = t_exp(sub.zero_exp[:m], a + b)
        if runs != pair:
            out.append(sub.from_dict({pair: unit, runs: minus}))
    for f in one:
        # J_1 is bihomogeneous: every term of f has one S-degree
        for extra in combinations_with_replacement(
                range(d), -sum(f.lead_exp()[m:]) % n):
            terms = {}
            for e, c in f.terms:
                svars = [i for i in range(d) for _ in range(e[m + i])]
                terms[t_exp(e[:m], sorted(svars + list(extra)))] = c
            out.append(sub.from_dict(terms))
    return out


def _verify_substitution(rp):
    """Every defining generator f must die under T_j -> g_j * t mod I.

    I P[t] is the direct sum of the I t^k, so f(x, g t) lies in it exactly
    when each part of f of T-degree k, with T_j -> g_j, lies in I.  As
    g_j = q^(combo j), a term c x^a T^e maps to c x^a q^b, b counting the
    parameters in the combos of its T_j: terms are summed per (k, a, b)
    first, where the Veronese binomials cancel; each q^b is reduced
    modulo I once, as q_i times the reduced q^(b - e_i), and each part,
    the c x^a NF(q^b) summed into one dict, is built and reduced once.
    """
    A, qs = rp.q.owner, rp.q.gens
    amb, d = A.ambient, len(qs)
    m, field = amb.n, amb.field
    # b of each T_j, off the enumeration that names the T_j
    b_of = [tuple(combo.count(i) for i in range(d))
            for combo in combinations_with_replacement(range(d), rp.n)]
    nfs = {(0,) * d: amb.one}

    def power_nf(b):
        chain = []
        while b not in nfs:
            i = next(i for i, bi in enumerate(b) if bi)
            chain.append((b, i))
            b = b[:i] + (b[i] - 1,) + b[i + 1:]
        for up, i in reversed(chain):
            nfs[up] = A.reduce(qs[i] * nfs[b])
            b = up
        return nfs[b]

    for f in rp.ring.defining:
        parts = {}
        for exp, c in f.terms:
            b = (0,) * d
            for j, e in enumerate(exp[m:]):
                if e:
                    b = tuple(bi + e * bj for bi, bj in zip(b, b_of[j]))
            part = parts.setdefault(sum(exp[m:]), {})
            part[exp[:m], b] = field.of(part.get((exp[:m], b), 0) + c)
        for part in parts.values():
            image = {}
            for (a, b), c in part.items():
                if c:
                    for e, x in power_nf(b).terms:
                        e = tuple(map(add, e, a))
                        image[e] = image.get(e, 0) + c * x
            crosscheck("substitution T_j -> g_j t into a defining generator",
                       A.reduce(amb.from_dict(image)), amb.zero)


def graded_gorenstein_oracle(rp, length_cap=None):
    """CM and type from the Betti numbers of the presentation."""
    rep = invariants.depth_and_type(rp.ring, length_cap=length_cap)
    cm = rep.cm
    gorenstein = bool(cm and rep.type == 1)
    return {"gorenstein": gorenstein, "cm": cm,
            "type": rep.type if cm else None,
            "pd": rep.pd, "dim": rep.dim}


def n_neq_d_suite(A, q, d, trials, criteria_verdict=None):
    """Oracle verdicts per power n; only n = d may be Gorenstein.

    d is dim A.  When the criteria verdict for (A, q) is supplied, the
    n = d oracle outcome must match it.
    """
    A = rings.check_owner(A, q)
    if d != A.dim():
        raise WrongDimension("d = %d is not dim A = %d" % (d, A.dim()))
    rep = invariants.depth_and_type(A)
    if rep.depth != 1:
        raise DepthNotOne("the power dichotomy needs depth 1")
    out = {}
    for n in trials:
        rp = rees_presentation(A, q, n)
        verdict = graded_gorenstein_oracle(rp)["gorenstein"]
        out[n] = verdict
        if n != d:
            crosscheck("oracle at power %d, where only n = %d may be "
                       "Gorenstein" % (n, d), verdict, False)
        elif criteria_verdict is not None:
            crosscheck("oracle and criteria verdicts at n = d", verdict,
                       criteria_verdict)
    return out
