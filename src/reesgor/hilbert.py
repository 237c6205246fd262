"""Hilbert-series numerators of monomial ideals and derived invariants.

Univariate integer polynomials are dicts {degree: coefficient}.  The
Hilbert series of P/I for a monomial ideal I is N(t) / prod_i (1 - t^w_i)
with N computed by the classical pivot recursion.
"""

from operator import ge

from .errors import NotArtinian

INFINITE = "INFINITE"


def upoly_mul(a, b):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def upoly_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
        if out[d] == 0:
            del out[d]
    return out


def upoly_eval_one(a):
    return sum(a.values())


def _minimalize(exps):
    """Drop monomial generators divisible by another generator."""
    out = []
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    for i, e in enumerate(exps):
        if any(all(map(ge, e, f)) for j, f in enumerate(exps) if j != i
               and (sum(f), f) <= (sum(e), e)):
            continue
        out.append(e)
    return out


def hilbert_numerator(exps, weights):
    """Numerator N(t) for the monomial ideal generated by exps.

    Satisfies series(P / (exps)) = N(t) / prod_i (1 - t^{w_i}).
    """
    weights = tuple(weights)

    def wdeg(e):
        return sum(x * w for x, w in zip(e, weights))

    def rec(gens):
        gens = _minimalize(gens)
        if not gens:
            return {0: 1}
        if any(sum(e) == 0 for e in gens):  # contains 1
            return {}
        if len(gens) == 1:
            return {0: 1, wdeg(gens[0]): -1}
        # pure powers of distinct variables split as a product
        if all(sum(1 for x in e if x) == 1 for e in gens):
            out = {0: 1}
            for e in gens:
                out = upoly_mul(out, {0: 1, wdeg(e): -1})
            return out
        # pivot on the last generator: N(J + (g)) = N(J) - t^deg(g) N(J : g)
        g = gens[-1]
        rest = gens[:-1]
        colon = [tuple(max(x - y, 0) for x, y in zip(e, g)) for e in rest]
        return upoly_add(rec(rest),
                         {wdeg(g) + d: -c for d, c in rec(colon).items()})

    return rec(list(exps))


def divide_one_minus_t(num):
    """(k, g) with num = (1 - t)^k g and g(1) != 0 (k = 0 for num = 0)."""
    k = 0
    cur = dict(num)
    while cur and upoly_eval_one(cur) == 0:
        # f(t) = (1 - t) g(t): g_d = f_0 + ... + f_d, of degree deg f - 1
        acc = 0
        g = {}
        for d in range(max(cur)):
            acc += cur.get(d, 0)
            if acc:
                g[d] = acc
        cur = g
        k += 1
    return k, cur


def dimension_from_numerator(num, weights):
    """Krull dimension of P/I from the numerator of its Hilbert series."""
    if not num:
        return -1  # the unit ideal: empty quotient
    return len(weights) - divide_one_minus_t(num)[0]


def quotient_series(num, weights):
    """Hilbert series as a polynomial when P/I is finite dimensional.

    Divides N(t) exactly by prod (1 - t^{w_i}); raises NotArtinian when
    the division leaves a remainder (infinite-dimensional quotient).
    """
    cur = dict(num)
    for w in weights:
        if not cur:
            continue
        maxdeg = max(cur)
        # (1 - t^w) g = f  <=>  g_d = f_d + g_{d-w}; exact iff the top w
        # accumulated coefficients vanish
        g = [0] * (maxdeg + 1)
        for d in range(maxdeg + 1):
            g[d] = cur.get(d, 0) + (g[d - w] if d >= w else 0)
        cut = max(0, maxdeg - w + 1)
        if any(g[d] for d in range(cut, maxdeg + 1)):
            raise NotArtinian("Hilbert series is not a polynomial")
        cur = {d: g[d] for d in range(cut) if g[d]}
    return cur


def finite_length(num, weights):
    """k-dimension of P/I, or INFINITE."""
    if not num:
        return 0
    if dimension_from_numerator(num, weights) > 0:
        return INFINITE
    return upoly_eval_one(quotient_series(num, weights))


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
