"""Exact coefficient fields: prime fields GF(p) and the rationals.

Elements of GF(p) are plain ints in [0, p); rationals are Fraction.
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


def field(char):
    """The prime field of characteristic char: QQ for 0, else GF(char)."""
    return QQ if char == 0 else GF(char)
