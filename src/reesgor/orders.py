"""Monomial orders on exponent vectors.

Every order exposes one key, neg_key(exp) -> tuple, comparing
lexicographically as Python tuples: a smaller neg_key means a larger
monomial, so ascending neg_key is descending monomial order.  It is
linear, neg_key(a + b) = neg_key(a) + neg_key(b) entry by entry.  Both
orders here are multiplicative well-orders: weighted grevlex, every
ring's default, and the elimination order of one variable, under which
a Groebner basis computes the elimination ideal (Cox-Little-O'Shea,
Ideals, Varieties, and Algorithms, ch. 3), as `idealops.eliminate`
does.  Ring keys stay tuples; a `modules.FreeModule` packs them into
one int per term.
"""

from operator import mul


class GrevlexOrder:
    """Weighted degree-reverse-lexicographic order."""

    def __init__(self, weights):
        if any(w <= 0 for w in weights):
            raise ValueError("all weights must be positive")
        self.weights = tuple(weights)

    def neg_key(self, exp):
        # ties broken by the last variable with differing exponent, smaller wins
        return (-sum(map(mul, exp, self.weights)),) + exp[::-1]

    def __eq__(self, other):
        return isinstance(other, GrevlexOrder) and other.weights == self.weights

    def __hash__(self):
        return hash(("grevlex", self.weights))


class EliminationOrder:
    """Elimination order of the variable at `index`: its higher power is
    the larger monomial, ties broken by weighted grevlex on the others,
    so every monomial it divides is above every monomial free of it."""

    def __init__(self, weights, index):
        if not 0 <= index < len(weights):
            raise ValueError("no variable at index %r" % (index,))
        self.weights = tuple(weights)
        self.index = index
        # the rest are ranked by weighted grevlex, which checks their weights
        self._rest = GrevlexOrder(weights[:index] + weights[index + 1:])

    def neg_key(self, exp):
        i = self.index
        return (-exp[i],) + self._rest.neg_key(exp[:i] + exp[i + 1:])

    def __eq__(self, other):
        return (isinstance(other, EliminationOrder)
                and (other.weights, other.index) == (self.weights, self.index))

    def __hash__(self):
        return hash(("elimination", self.weights, self.index))
