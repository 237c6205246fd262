"""Hilbert-series numerators of monomial ideals and derived invariants.

Univariate integer polynomials are dicts {degree: coefficient}.  The
Hilbert series of P/I for a monomial ideal I is N(t) / prod_i (1 - t^w_i)
with N computed by Bigatti's pivot, on an explicit stack.
"""

from fractions import Fraction
from itertools import count
from math import comb, prod
from operator import mul

from .errors import crosscheck
from .polys import minimal_monomials

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


def hilbert_numerator(exps, weights):
    """Numerator N(t) for the monomial ideal generated by exps.

    Satisfies series(P / (exps)) = N(t) / prod_i (1 - t^{w_i}).  Bigatti's
    pivot (JPAA 119, 1997) splits N(J) = N(J + x_i^p) + t^{w_i p} N(J : x_i^p)
    for x_i in the most generators and p the median of its positive
    exponents (the least when x_i^p is a generator), on a stack of pending
    t^shift N(gens); pairwise coprime gens give prod (1 - t^{deg g}).
    The input and each colon keep their minimal generators
    (`polys.minimal_monomials`).
    """
    weights = tuple(weights)
    out = {}
    stack = [(0, [e for e, _ in minimal_monomials((e, None) for e in exps)])]
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
        colon = (e[:i] + (max(e[i] - p, 0),) + e[i + 1:] for e in gens)
        stack.append((shift + weights[i] * p, [
            e for e, _ in minimal_monomials((e, None) for e in colon)]))
    return {d: c for d, c in out.items() if c}


def hilbert(num, weights):
    """(dim, e) for P/I with Hilbert numerator num = (1 - t)^k g, g(1) != 0
    and k = n - dim: its Krull dimension and e = g(1) / prod_i w_i, kept
    exact; (-1, 0) for num = 0, the unit ideal's empty quotient.  k is the
    least j with s_j = sum_d c_d C(d, j), num's j-th Taylor coefficient at
    t = 1, not zero, and g(1) = (-1)^k s_k, read off num's terms alone."""
    if not num:
        return -1, 0
    for k in count():
        s_k = sum(c * comb(d, k) for d, c in num.items())
        if s_k:
            return len(weights) - k, Fraction((-1) ** k * s_k, prod(weights))


def finite_length(num, weights):
    """k-dimension of P/I from its Hilbert numerator num, or INFINITE: P/I
    is finite dimensional when its dimension is at most 0, and its length
    is then the e of `hilbert`."""
    dim, length = hilbert(num, weights)
    if dim > 0:
        return INFINITE
    return crosscheck("the length g(1) / prod w_i is an integer",
                      int(length), length)
