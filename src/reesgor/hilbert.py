"""Hilbert-series numerators of monomial ideals and derived invariants.

Univariate integer polynomials are dicts {degree: coefficient}.  The
Hilbert series of P/I for a monomial ideal I is N(t) / prod_i (1 - t^w_i)
with N computed by Bigatti's pivot, on an explicit stack.
"""

from fractions import Fraction
from math import prod
from operator import ge, mul

from .errors import crosscheck

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
    """The minimal monomial exponents: by ascending total degree, each is
    checked only against those kept, as no larger degree divides it."""
    kept = []
    for e in sorted(set(exps), key=sum):
        if not any(all(map(ge, e, f)) for f in kept):
            kept.append(e)
    return kept


def hilbert_numerator(exps, weights):
    """Numerator N(t) for the monomial ideal generated by exps.

    Satisfies series(P / (exps)) = N(t) / prod_i (1 - t^{w_i}).  Bigatti's
    pivot (JPAA 119, 1997) splits N(J) = N(J + x_i^p) + t^{w_i p} N(J : x_i^p)
    for x_i in the most generators and p the median of its positive
    exponents (the least when x_i^p is a generator), on a stack of pending
    t^shift N(gens); pairwise coprime gens give prod (1 - t^{deg g}).
    """
    weights = tuple(weights)
    out = {}
    stack = [(0, _minimalize(exps))]
    while stack:
        shift, gens = stack.pop()
        if gens and not any(gens[0]):  # the unit ideal
            continue
        cols = list(zip(*gens))
        counts = [len(col) - col.count(0) for col in cols]
        i = max(range(len(counts)), key=counts.__getitem__, default=0)
        if not gens or counts[i] < 2:
            leaf = {shift: 1}
            for e in gens:
                leaf = upoly_mul(leaf, {0: 1, sum(map(mul, e, weights)): -1})
            for d, c in leaf.items():
                out[d] = out.get(d, 0) + c
            continue
        pos = sorted(x for x in cols[i] if x)
        p = pos[len(pos) // 2]
        if any(e[i] == p == sum(e) for e in gens):
            p = pos[0]
        pure = tuple(p if j == i else 0 for j in range(len(weights)))
        stack.append((shift, [e for e in gens if e[i] < p] + [pure]))
        stack.append((shift + weights[i] * p, _minimalize(
            [e[:i] + (max(e[i] - p, 0),) + e[i + 1:] for e in gens])))
    return {d: c for d, c in out.items() if c}


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


def finite_length(num, weights):
    """k-dimension of P/I from its Hilbert numerator num, or INFINITE.
    For num = (1 - t)^k g, P/I is finite dimensional when k = n, and its
    series g / prod_i (1 + t + ... + t^(w_i - 1)) is g(1) / prod_i w_i
    at t = 1, kept exact."""
    if not num:
        return 0
    k, g = divide_one_minus_t(num)
    if k < len(weights):
        return INFINITE
    length = Fraction(upoly_eval_one(g), prod(weights))
    return crosscheck("the length g(1) / prod w_i is an integer",
                      int(length), length)


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
