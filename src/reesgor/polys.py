"""Multivariate polynomials with exact coefficients over a graded ring.

A polynomial is a tuple of (exponent, coefficient) terms kept sorted in
decreasing monomial order, so the leading term is terms[0].  Rings are
immutable; polynomials from different rings never mix.
"""

from operator import add, mul

from .errors import OwnerMismatch
from .fields import DEFAULT_PRIME, GF
from .orders import GrevlexOrder


class PolyRing:
    """A weighted polynomial ring k[x_1..x_n] with a fixed monomial order."""

    def __init__(self, names, weights=None, field=None, order=None):
        self.names = tuple(names)
        self.n = len(self.names)
        if weights is None:
            weights = (1,) * self.n
        self.weights = tuple(weights)
        if len(self.weights) != self.n:
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.field = field if field is not None else GF(DEFAULT_PRIME)
        self.order = order if order is not None else GrevlexOrder(self.weights)
        self.zero_exp = (0,) * self.n
        self.zero = Poly(self, ())
        self.one = Poly(self, ((self.zero_exp, self.field.one),))

    # -- construction -----------------------------------------------------

    def gen(self, i):
        exp = tuple(1 if j == i else 0 for j in range(self.n))
        return Poly(self, ((exp, self.field.one),))

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def const(self, c):
        c = self.field.of(c)
        if c == self.field.zero:
            return self.zero
        return Poly(self, ((self.zero_exp, c),))

    def monomial(self, exp, coeff=1):
        c = self.field.of(coeff)
        if c == self.field.zero:
            return self.zero
        return Poly(self, ((tuple(exp), c),))

    def from_dict(self, d):
        """Canonicalize {exp: coeff} into a sorted Poly, dropping zeros."""
        zero = self.field.zero
        items = [(e, c) for e, c in d.items() if c != zero]
        neg_key = self.order.neg_key
        items.sort(key=lambda t: neg_key(t[0]))
        return Poly(self, tuple(items))

    def wdeg(self, exp):
        return sum(map(mul, exp, self.weights))

    # -- derived rings ----------------------------------------------------

    def with_order(self, order):
        return PolyRing(self.names, self.weights, self.field, order)

    def extend(self, names, weights, order=None):
        """Append variables; existing exponent vectors are zero-padded."""
        return PolyRing(self.names + tuple(names),
                        self.weights + tuple(weights), self.field, order)

    def restrict(self, keep):
        """Subring on the variable indices in `keep` (sorted)."""
        keep = tuple(keep)
        return PolyRing(tuple(self.names[i] for i in keep),
                        tuple(self.weights[i] for i in keep), self.field)

    def transfer(self, f):
        """Reinterpret polynomial f from another ring, matching variables
        by name.  Exponents of variables missing here must be zero.
        """
        pos = {name: i for i, name in enumerate(self.names)}
        d = {}
        for exp, c in f.terms:
            new = [0] * self.n
            for name, e in zip(f.ring.names, exp):
                if e:
                    if name not in pos:
                        raise ValueError("variable %s has no image" % name)
                    new[pos[name]] = e
            d[tuple(new)] = self.field.add(d.get(tuple(new), self.field.zero),
                                           self.field.of(c))
        return self.from_dict(d)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.names == self.names
                and other.weights == self.weights and other.field == self.field
                and other.order == self.order)

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        k = "QQ" if self.field.kind == "rational" else "GF(%d)" % self.field.p
        vs = ", ".join("%s:%d" % (n, w) for n, w in zip(self.names, self.weights))
        return "%s[%s]" % (k, vs)


def _exp_mul(a, b):
    return tuple(map(add, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


class Poly:
    """Immutable polynomial; terms sorted descending in the ring's order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def is_zero(self):
        return not self.terms

    def lead_exp(self):
        return self.terms[0][0]

    def lead_coeff(self):
        return self.terms[0][1]

    def degree(self):
        """Weighted degree of the highest-degree term; -1 for zero."""
        if not self.terms:
            return -1
        return max(self.ring.wdeg(e) for e, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {self.ring.wdeg(e) for e, _ in self.terms}
        return len(degs) == 1

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise OwnerMismatch("operands from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = F.add(d.get(e, F.zero), c)
        return self.ring.from_dict(d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = F.sub(d.get(e, F.zero), c)
        return self.ring.from_dict(d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        F = self.ring.field
        return Poly(self.ring, tuple((e, F.neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        d = {}
        zero = F.zero
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = _exp_mul(e1, e2)
                d[e] = F.add(d.get(e, zero), F.mul(c1, c2))
        return self.ring.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c):
        """Multiply by a field scalar."""
        F = self.ring.field
        c = F.of(c) if isinstance(c, int) else c
        if c == F.zero:
            return self.ring.zero
        return Poly(self.ring, tuple((e, F.mul(cc, c)) for e, cc in self.terms))

    def mul_term(self, exp, coeff):
        """Multiply by the single term coeff * x^exp."""
        F = self.ring.field
        return Poly(self.ring,
                    tuple((_exp_mul(e, exp), F.mul(c, coeff))
                          for e, c in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.terms[0][1]))

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (isinstance(other, Poly) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.names, self.terms))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        parts = []
        for exp, c in self.terms:
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self.ring.names[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.ring.names[i], e))
            if field.kind == "prime" and c > field.p // 2:
                sign, mag = "-", field.p - c
            else:
                sign, mag = "+", c
            if not factors:
                body = str(mag)
            elif mag == field.one:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append((sign, body))
        out = []
        for i, (sign, body) in enumerate(parts):
            if i == 0:
                out.append(("-" if sign == "-" else "") + body)
            else:
                out.append((" - " if sign == "-" else " + ") + body)
        return "".join(out)

    def __repr__(self):
        return "<Poly %s>" % self
