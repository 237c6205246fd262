"""Built-in example rings over GF(32003): the Hochster-Roberts subring,
the two-planes ring, idealizations of parameter ideals over k[x,y] and
k[x,y,z], and the regular base used as a negative control.  Each is its
document, byte for byte its corpus/<name>.ring file, built as the CLI
builds a file, by `parse_document(text).build()`.
"""

from functools import partial
from itertools import combinations, combinations_with_replacement

from . import inputfmt, rings
from .polys import PolyRing

TEXTS = {
    "hochster_roberts": """\
ring hochster_roberts
char 32003
vars a:2 b:1 c:3 d:2
ideal a^3 - c^2, a^2*b - c*d, a*b^2 - d^2, b*c - a*d
params a, b
power 2
""",
    "two_planes": """\
ring two_planes
char 32003
vars x:1 y:1 u:1 v:1
ideal x*u, x*v, y*u, y*v
params x + u, y + v
power 2
""",
    "idealization_xy": """\
ring idealization_xy
char 32003
vars x:1 y:1 u:1 v:1
ideal u^2, u*v, v^2, y*u - x*v
params x, y
power 2
""",
    "idealization_x2y3": """\
ring idealization_x2y3
char 32003
vars x:1 y:1 u:2 v:3
ideal u^2, u*v, v^2, y^3*u - x^2*v
params x^2, y^3
power 2
""",
    "idealization_xyz": """\
ring idealization_xyz
char 32003
vars x:1 y:1 z:1 u:1 v:1 w:1
ideal u^2, u*v, u*w, v^2, v*w, w^2, y*u - x*v, z*u - x*w, z*v - y*w
params x, y, z
power 3
""",
    "regular_base": """\
ring regular_base
char 32003
vars x:1 y:1
params x, y
power 2
""",
}


def _build(text):
    A, q, _ = inputfmt.parse_document(text).build()
    return A, q


EXAMPLES = {name: partial(_build, text) for name, text in TEXTS.items()}


def build_hochster_roberts():
    """k[a,b,c,d] presenting k[x^2, y, x^3, xy], with q = (a, b)."""
    return EXAMPLES["hochster_roberts"]()


def build_two_planes():
    """k[x,y,u,v]/(xu, xv, yu, yv), with q = (x+u, y+v)."""
    return EXAMPLES["two_planes"]()


def build_regular_base():
    """k[x,y] with q = (x, y): the Cohen-Macaulay negative control."""
    return EXAMPLES["regular_base"]()


def build_idealization(b_names, b_weights, q_exprs, label=None):
    """The idealization B x Q of a parameter ideal Q over B = k[b_names].

    New variables z_i, of the degrees of Q's generators q_i, square to
    zero pairwise and satisfy the Koszul relations q_j z_i - q_i z_j,
    made monic: a system of parameters of the polynomial ring B is a
    regular sequence, so these generate its syzygies (its Koszul complex
    is exact).  q is the image of Q.  B's polynomials embed in B[z] by
    position.  The ring is built from the document these relations are
    written into.
    """
    B = PolyRing(tuple(b_names), tuple(b_weights))
    q_gens = [inputfmt.parse_poly(e, B) for e in q_exprs]
    d = rings.check_parameters(rings.PresentedGradedRing(B, []).ideal(q_gens))
    big = B.extend(tuple(_z_name(B, j) for j in range(d)),
                   tuple(g.degree() for g in q_gens))
    zs = big.gens()[B.n:]
    qs = [big.embed(g) for g in q_gens]
    defining = [zs[i] * zs[j]
                for i, j in combinations_with_replacement(range(d), 2)]
    for i, j in combinations(range(d), 2):
        rel = qs[j] * zs[i] - qs[i] * zs[j]
        defining.append(rel.scale(big.field.inv(rel.terms[0][1])))
    doc = inputfmt.InputDocument()
    doc.name = label
    doc.vars = list(zip(big.names, big.weights))
    doc.ideal_exprs = [str(g) for g in defining]
    doc.param_exprs = [str(g) for g in q_gens]
    doc.power = d
    return _build(inputfmt.print_document(doc))


def _z_name(ring, j):
    candidates = "uvwzst"
    name = candidates[j] if j < len(candidates) else "z%d" % j
    while name in ring.names:
        name = "z" + name
    return name


def example_document(name):
    """InputDocument for a named example, parsed from its text."""
    return inputfmt.parse_document(TEXTS[name])
