"""Direct oracle for Gorensteinness of R(q^n) = A[q^n t].

The Rees algebra is presented as a graded quotient of P[T_0..T_s] by
eliminating t from I + (T_j - g_j t), where the g_j run over all
degree-n monomials in the parameters.  Gorensteinness of the quotient is
Cohen-Macaulayness plus last Betti number one, which is valid because
every presentation here is connected graded over the base field.
"""

import itertools

from .errors import DepthNotOne, crosscheck
from . import idealops, invariants, rings


class ReesPresentation:
    def __init__(self, base, q, n, power_gens, ring):
        self.base = base            # the PresentedGradedRing A
        self.q = q
        self.n = n
        self.power_gens = power_gens  # generators of q^n, in order
        self.ring = ring            # R(q^n) as a PresentedGradedRing


def power_monomials(q_gens, n):
    """All degree-n monomials in the parameters, in a fixed order."""
    d = len(q_gens)
    out = []
    for combo in itertools.combinations_with_replacement(range(d), n):
        g = q_gens[combo[0]]
        for i in combo[1:]:
            g = g * q_gens[i]
        out.append(g)
    return out


def rees_presentation(A, q, n):
    """Present R(q^n) by elimination, with a substitution check."""
    d = rings.check_parameters(q)
    if n < 1:
        raise ValueError("power must be at least 1")
    amb = A.ambient
    gens_n = power_monomials(q.gens, n)
    t_names = tuple(_t_name(amb, j) for j in range(len(gens_n)))
    t_weights = tuple(g.degree() + 1 for g in gens_n)
    helper = "@t"
    big = amb.extend(t_names + (helper,), t_weights + (1,))
    t = big.gen(big.n - 1)
    work = [big.transfer(g) for g in A.defining]
    for j, g in enumerate(gens_n):
        work.append(big.gen(amb.n + j) - big.transfer(g) * t)
    # the eliminated generators are the reduced basis of the Rees ideal
    # under the grevlex order of `sub`, the rest block of the elimination
    # order, so the ring keeps them as its gb()
    sub, out = idealops.eliminate(big, work, (big.n - 1,))
    ring = rings.PresentedGradedRing.from_basis(sub, out)
    rp = ReesPresentation(A, q, n, gens_n, ring)
    _verify_substitution(rp)
    crosscheck("dimension of the Rees presentation and dim A + 1",
               ring.dim(), d + 1)
    return rp


def _t_name(ring, j):
    name = "T%d" % j
    while name in ring.names:
        name += "_"
    return name


def _verify_substitution(rp):
    """Every defining generator f must die under T_j -> g_j * t mod I.

    I P[t] is the direct sum of the I t^k, so f(x, g t) lies in it exactly
    when each part of f of T-degree k, with T_j -> g_j, lies in I: each
    part is reduced modulo I by `A.reduce`, and each power g_j^e or x_i^e
    is formed once.
    """
    A = rp.base
    amb = A.ambient
    # the image of each variable of the Rees ring: x_i itself, T_j -> g_j
    images = list(amb.gens()) + list(rp.power_gens)
    powers = {}
    for f in rp.ring.defining:
        parts = {}
        for exp, c in f.terms:
            term = amb.const(c)
            for i, e in enumerate(exp):
                if e:
                    if (i, e) not in powers:
                        powers[(i, e)] = images[i] ** e
                    term = term * powers[(i, e)]
            k = sum(exp[amb.n:])
            parts[k] = parts[k] + term if k in parts else term
        for part in parts.values():
            crosscheck("substitution T_j -> g_j t into a defining generator",
                       A.reduce(part), amb.zero)


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

    When the criteria verdict for (A, q) is supplied, the n = d oracle
    outcome must match it.
    """
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
