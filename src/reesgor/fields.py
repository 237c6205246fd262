"""Exact coefficient fields: one class, `Field(p)`, for GF(p) and, at
p = 0, the rationals QQ.

Elements of GF(p) are plain ints in [0, p); rationals are Fraction.
Callers add, subtract and multiply elements with Python's operators and
reduce a result with `of` (`% p` inline where it is hot) only where a
term is stored, so a GF(p) sum or product in between may leave [0, p).
All arithmetic is exact, there is no floating point anywhere.
"""

from fractions import Fraction

# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 86, 2017)
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin test; ValueError at PRIME_BOUND and
    above, where these bases no longer decide."""
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided below %d only" % PRIME_BOUND)
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The prime field of characteristic p: GF(p) for a prime p, or QQ
    for p = 0.  Elements use Python's operators; `of` brings a value to
    its canonical element."""

    def __init__(self, p):
        if p and not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, n):
        """n, an int (or over QQ a Fraction), as an element: reduced into
        [0, p), or a Fraction."""
        return n % self.p if self.p else Fraction(n)

    def inv(self, a):
        return pow(a, -1, self.p) if self.p else 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p if self.p else "QQ"


QQ = Field(0)

DEFAULT_PRIME = 32003


def GF(p):
    """GF(p); ValueError unless p is prime, so GF(0) raises."""
    if not p:
        raise ValueError("characteristic must be prime, got %r" % (p,))
    return Field(p)
