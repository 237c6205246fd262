"""Seeded `.ring` documents for the corpus families, each with its expected
outputs in closed form.

The expected values come from the mathematics of each family, not from a
run of the program:

- Hochster-Roberts, two-planes and the idealizations k[x,y] x (x^a, y^b)
  have depth 1 and type 1, and R(q^2) is Gorenstein.  Their first local
  cohomology is k (Hochster-Roberts, two-planes) or k[x,y]/(x^a, y^b)
  (idealization), so l(H^1) = 1 or a*b with a one-dimensional socle, and
  the conductor satisfies e_c = 2 * l(H^1).
- The regular base k[x,y] is Cohen-Macaulay, so H^1 = 0 and the criteria
  report the hypothesis outcome (verdict False, exit code 2 on the CLI).
- For n != d = 2 the Rees algebra R(q^n) is Cohen-Macaulay and not
  Gorenstein, of type n - 1; over the regular base it has type n.
- The dimension-3 idealization k[x,y,z] x (x,y,z) has H^1 = k, depth 1
  and type 1.

The graded Betti numbers of R(q^n) are recorded as computed by the seed
version of the program (`BETTI`); they agree across the three depth-one
families and do not depend on alpha, beta, a or b.
"""

import random

PRIME = 32003

# ranks b_0..b_pd of the minimal resolution of R(q^n) over its
# presentation ring, by (family kind, n)
BETTI = {
    ("depth1", 2): (1, 9, 16, 9, 1),
    ("depth1", 3): (1, 13, 30, 25, 9, 2),
    ("depth1", 4): (1, 18, 52, 60, 39, 17, 3),
    ("regular", 2): (1, 3, 2),
    ("regular", 3): (1, 6, 8, 3),
    ("regular", 4): (1, 10, 20, 15, 4),
}

AB_PAIRS = tuple((a, b) for a in range(1, 5) for b in range(1, 5))


class Case:
    """One generated input: its document text and expected outputs."""

    def __init__(self, family, text, d, h1_length, depth, kind="depth1"):
        self.family = family
        self.text = text
        self.d = d
        self.h1_length = h1_length
        self.h1_socle = 1 if h1_length else 0
        self.verdict = h1_length > 0
        self.e_c = 2 * h1_length if h1_length else None
        self.depth = depth
        self.cm = depth == d
        self.type = 1
        self.kind = kind

    def oracle(self, n):
        """Expected `graded_gorenstein_oracle` output for R(q^n)."""
        betti = BETTI[(self.kind, n)]
        if self.kind == "regular":
            ring_type = n
        else:
            ring_type = 1 if n == self.d else n - 1
        return {"gorenstein": ring_type == 1, "cm": True, "type": ring_type,
                "pd": len(betti) - 1, "dim": self.d + 1}

    def betti(self, n):
        return list(BETTI[(self.kind, n)])


def _doc(name, char, vars_, ideal, params):
    lines = ["ring %s" % name, "char %d" % char, "vars %s" % vars_]
    if ideal:
        lines.append("ideal %s" % ideal)
    lines.append("params %s" % params)
    return "\n".join(lines) + "\n"


def hochster_roberts(char):
    text = _doc("hochster_roberts", char, "a:2 b:1 c:3 d:2",
                "a^3 - c^2, a^2*b - c*d, a*b^2 - d^2, b*c - a*d", "a, b")
    return Case("hochster_roberts", text, 2, 1, 1)


def _plus(var, coeff):
    sign = "-" if coeff < 0 else "+"
    return "%s %d*%s" % (sign, abs(coeff), var)


def two_planes(alpha, beta, char):
    text = _doc("two_planes", char, "x y u v", "x*u, x*v, y*u, y*v",
                "x %s, y %s" % (_plus("u", alpha), _plus("v", beta)))
    return Case("two_planes", text, 2, 1, 1)


def idealization(a, b, char):
    text = _doc("idealization_x%dy%d" % (a, b), char,
                "x y u:%d v:%d" % (a, b),
                "u^2, u*v, v^2, y^%d*u - x^%d*v" % (b, a),
                "x^%d, y^%d" % (a, b))
    return Case("idealization", text, 2, a * b, 1)


def regular_base(char):
    text = _doc("regular_base", char, "x y", None, "x, y")
    return Case("regular_base", text, 2, 0, 2, kind="regular")


def idealization3(char):
    text = _doc("idealization_xyz", char, "x y z u v w",
                "u^2, u*v, u*w, v^2, v*w, w^2, "
                "y*u - x*v, z*u - x*w, z*v - y*w", "x, y, z")
    return Case("idealization3", text, 3, 1, 1)


def _coefficient(rng, char):
    if char == 0:
        return rng.choice([c for c in range(-9, 10) if c])
    return rng.randrange(1, char)


def cases(seed, char, rounds, idealizations=1, two_planes_count=1,
          with_dim3=False):
    """One pass of generated cases: `rounds` rounds in a seeded order.

    A round holds Hochster-Roberts and the regular base once, two-planes
    `two_planes_count` times with fresh coefficients, `idealizations`
    idealizations and, if asked, the dimension-3 idealization.  The
    idealization exponents walk a seeded permutation of all sixteen
    (a, b), so a pass of sixteen idealizations sees the same mix of sizes
    whatever the seed.
    """
    rng = random.Random(seed)
    pairs = list(AB_PAIRS)
    rng.shuffle(pairs)
    out = []
    for r in range(rounds):
        round_ = [hochster_roberts(char), regular_base(char)]
        for _ in range(two_planes_count):
            round_.append(two_planes(_coefficient(rng, char),
                                     _coefficient(rng, char), char))
        for k in range(idealizations):
            a, b = pairs[(r * idealizations + k) % len(pairs)]
            round_.append(idealization(a, b, char))
        if with_dim3:
            round_.append(idealization3(char))
        rng.shuffle(round_)
        out.extend(round_)
    return out
