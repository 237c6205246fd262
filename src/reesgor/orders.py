"""Monomial orders on exponent vectors.

Every order exposes one key, neg_key(exp) -> tuple, comparing
lexicographically as Python tuples: a smaller neg_key means a larger
monomial, so ascending neg_key is descending monomial order, as the
min-heap of `modules.vec_nf` and `from_dict` use it.  It is linear,
neg_key(a + b) = neg_key(a) + neg_key(b) entry by entry.  All orders
here are multiplicative well-orders.
"""

from operator import mul


class GrevlexOrder:
    """Weighted degree-reverse-lexicographic order."""

    kind = "grevlex"

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


class BlockOrder:
    """Elimination order: the block of variables in `block` dominates.

    Product of two weighted grevlex orders; any monomial involving a block
    variable is larger than any monomial free of them, so a Groebner basis
    under this order computes elimination ideals.
    """

    kind = "block"

    def __init__(self, weights, block):
        if any(w <= 0 for w in weights):
            raise ValueError("all weights must be positive")
        self.weights = tuple(weights)
        self.block = tuple(sorted(block))
        blockset = set(self.block)
        self.rest = tuple(i for i in range(len(weights)) if i not in blockset)
        # each half is keyed like grevlex: indices reversed once, here
        self._rblock = self.block[::-1]
        self._rrest = self.rest[::-1]
        self._wblock = tuple(self.weights[i] for i in self._rblock)
        self._wrest = tuple(self.weights[i] for i in self._rrest)

    def neg_key(self, exp):
        b = [exp[i] for i in self._rblock]
        r = [exp[i] for i in self._rrest]
        return ((-sum(map(mul, b, self._wblock)),) + tuple(b)
                + (-sum(map(mul, r, self._wrest)),) + tuple(r))

    def __eq__(self, other):
        return (isinstance(other, BlockOrder) and other.weights == self.weights
                and other.block == self.block)

    def __hash__(self):
        return hash(("block", self.weights, self.block))
