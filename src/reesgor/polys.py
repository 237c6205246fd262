"""Multivariate polynomials with exact coefficients over a graded ring.

A polynomial is a tuple of (exponent, coefficient) terms kept sorted in
decreasing monomial order, so the leading term is terms[0], and each
coefficient a nonzero element of the ring's field.  Coefficients combine
with Python's operators: `from_dict` reduces each term's sum or product
once, mod p over GF(p), and so do the term-wise maps (`-f`, `scale`,
`mul_term`), `scale` keeping the exponents.  Rings are immutable;
polynomials from different rings never mix.  Rings relate by position
alone, through `extend` and `embed`; names are for display.
"""

from operator import add, ge, mul

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
        # exponent -> its packed order key, shared by the free modules
        # over this ring (`modules.FreeModule`)
        self.packed_keys = {}
        self.zero = Poly(self, ())
        self.one = Poly(self, ((self.zero_exp, self.field.one),))

    # -- construction -----------------------------------------------------

    def gen(self, i):
        exp = tuple(1 if j == i else 0 for j in range(self.n))
        return Poly(self, ((exp, self.field.one),))

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    def const(self, c):
        return self.one.scale(c)

    def from_dict(self, d):
        """Canonicalize {exp: coeff} into a sorted Poly: each coefficient
        is reduced once, mod p over GF(p), and zeros are dropped."""
        items = _reduced(d, self.field.p)
        neg_key = self.order.neg_key
        items.sort(key=lambda t: neg_key(t[0]))
        return Poly(self, tuple(items))

    def wdeg(self, exp):
        return sum(map(mul, exp, self.weights))

    # -- derived rings ----------------------------------------------------

    def extend(self, names, weights):
        """Append variables; existing exponent vectors are zero-padded."""
        return PolyRing(self.names + tuple(names),
                        self.weights + tuple(weights), self.field)

    def fresh_name(self, stem):
        """stem, with underscores appended until no variable has it."""
        while stem in self.names:
            stem += "_"
        return stem

    def embed(self, f):
        """f, from a ring this ring extends as `extend` makes one (the
        same field, and f.ring's names and weights a prefix of this
        ring's), with its exponents padded by zeros and its terms sorted
        by this ring's order.  Variables meet by position, never by
        name; any other f raises OwnerMismatch."""
        src, k = f.ring, f.ring.n
        if (src.field != self.field or src.names != self.names[:k]
                or src.weights != self.weights[:k]):
            raise OwnerMismatch("%r does not extend %r" % (self, src))
        pad = self.zero_exp[k:]
        return self.from_dict({e + pad: c for e, c in f.terms})

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing) and other.names == self.names
            and other.weights == self.weights and other.field == self.field
            and other.order == self.order)

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        vs = ", ".join("%s:%d" % (n, w) for n, w in zip(self.names, self.weights))
        return "%r[%s]" % (self.field, vs)


def _reduced(d, p):
    """The items of d, a {term: coeff} dict, with each coefficient
    reduced once, mod p for p > 0, and the zeros dropped."""
    if p:
        return [(k, r) for k, c in d.items() if (r := c % p)]
    return [(k, c) for k, c in d.items() if c]


def _exp_mul(a, b):
    return tuple(map(add, a, b))


def minimal_monomials(pairs):
    """The (monomial, tag) pairs whose monomial is minimal, the first tag
    of each, in order of total degree: each is kept when no monomial kept
    before it divides it, a proper divisor having the lower degree."""
    first = {}
    for m, tag in pairs:
        first.setdefault(m, tag)
    kept = []
    for m in sorted(first, key=sum):
        for k in kept:
            if all(map(ge, m, k)):
                break
        else:
            kept.append(m)
    return [(m, first[m]) for m in kept]


def _scaled(terms, c, field):
    """terms times the scalar c, their keys kept: () for a zero c, each
    coefficient reduced mod p over GF(p)."""
    c, p = field.of(c), field.p
    if not c:
        return ()
    if p:
        return tuple((k, x * c % p) for k, x in terms)
    return tuple((k, x * c) for k, x in terms)


class Poly:
    """Immutable polynomial; terms sorted descending in the ring's order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def lead_exp(self):
        return self.terms[0][0]

    def degree(self):
        """Weighted degree of the highest-degree term; -1 for zero."""
        return max((self.ring.wdeg(e) for e, _ in self.terms), default=-1)

    def is_homogeneous(self):
        return len({self.ring.wdeg(e) for e, _ in self.terms}) < 2

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
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return self.ring.from_dict(d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) - c
        return self.ring.from_dict(d)

    def __neg__(self):
        of = self.ring.field.of
        return Poly(self.ring, tuple((e, of(-c)) for e, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = _exp_mul(e1, e2)
                d[e] = d.get(e, 0) + c1 * c2
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
        """Multiply by a field scalar: coefficients only."""
        return Poly(self.ring, _scaled(self.terms, c, self.ring.field))

    def mul_term(self, exp, coeff):
        """Multiply by the single term coeff * x^exp."""
        of = self.ring.field.of
        if not of(coeff):
            return self.ring.zero
        return Poly(self.ring, tuple((_exp_mul(e, exp), of(c * coeff))
                                     for e, c in self.terms))

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (isinstance(other, Poly) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring.names, self.terms))

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
            # p - c is -c over QQ, where p = 0
            if c < 0 or field.p and c > field.p // 2:
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
