"""Exact coefficient fields: prime fields GF(p) and the rationals.

Elements of GF(p) are plain ints in [0, p); rationals are Fraction.
All arithmetic is exact, there is no floating point anywhere.
"""

from fractions import Fraction
from math import isqrt


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, isqrt(n) + 1, 2))


class PrimeField:
    """GF(p), elements represented as ints reduced mod p."""

    kind = "prime"

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        return int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class RationalField:
    """Exact rationals via fractions.Fraction."""

    kind = "rational"
    p = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()

DEFAULT_PRIME = 32003


def GF(p):
    return PrimeField(p)
