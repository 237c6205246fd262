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


def hilbert(num, weights):
    """(dim, e) for P/I with Hilbert numerator num = (1 - t)^(n - dim) g,
    g(1) != 0: its Krull dimension and e = g(1) / prod_i w_i, the limit
    of (1 - t)^dim H(t) at t = 1, kept exact; (-1, 0) for num = 0, the
    unit ideal's empty quotient."""
    if not num:
        return -1, 0
    dim = len(weights)
    g = dict(num)
    while upoly_eval_one(g) == 0:
        # f(t) = (1 - t) g(t): g_d = f_0 + ... + f_d, of degree deg f - 1
        f, g, acc = g, {}, 0
        for d in range(max(f)):
            acc += f.get(d, 0)
            if acc:
                g[d] = acc
        dim -= 1
    return dim, Fraction(upoly_eval_one(g), prod(weights))


def finite_length(num, weights):
    """k-dimension of P/I from its Hilbert numerator num, or INFINITE: P/I
    is finite dimensional when its dimension is at most 0, and its length
    is then the e of `hilbert`."""
    dim, length = hilbert(num, weights)
    if dim > 0:
        return INFINITE
    return crosscheck("the length g(1) / prod w_i is an integer",
                      int(length), length)
