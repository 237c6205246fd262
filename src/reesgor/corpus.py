"""Built-in example rings: the Hochster-Roberts subring, the two-planes
ring, idealizations of parameter ideals over k[x,y] and k[x,y,z], and the
regular base used as a negative control, all over GF(32003).
"""

from . import inputfmt, rings
from .modules import FreeModule, module_syzygies
from .polys import PolyRing


def build_hochster_roberts():
    """k[a,b,c,d] presenting k[x^2, y, x^3, xy], with q = (a, b)."""
    base = rings.PresentedGradedRing(PolyRing(("x", "y")), [])
    x, y = base.gens()
    ker = rings.ring_map_kernel([x * x, y, x * x * x, x * y],
                                ("a", "b", "c", "d"), base)
    A = rings.PresentedGradedRing(ker.owner.ambient, ker.gens,
                                  label="hochster_roberts")
    a, b = A.gen(0), A.gen(1)
    return A, A.ideal([a, b])


def build_two_planes():
    """k[x,y,u,v]/(xu, xv, yu, yv), with q = (x+u, y+v)."""
    amb = PolyRing(("x", "y", "u", "v"))
    x, y, u, v = amb.gens()
    A = rings.PresentedGradedRing(amb, [x * u, x * v, y * u, y * v],
                                  label="two_planes")
    return A, A.ideal([x + u, y + v])


def build_idealization(b_names, b_weights, q_exprs, label=None):
    """The idealization B x Q of a parameter ideal Q over B = k[b_names].

    New variables square to zero pairwise and satisfy the syzygies of
    Q's generators; q is the image of Q.
    """
    B = PolyRing(tuple(b_names), tuple(b_weights))
    q_gens = [inputfmt.parse_poly(e, B) for e in q_exprs]
    rings.check_parameters(rings.PresentedGradedRing(B, []).ideal(q_gens))
    t = len(q_gens)
    z_names = tuple(_z_name(B, j) for j in range(t))
    z_weights = tuple(g.degree() for g in q_gens)
    big = B.extend(z_names, z_weights)
    zs = [big.gen(B.n + j) for j in range(t)]
    defining = []
    for i in range(t):
        for j in range(i, t):
            defining.append(zs[i] * zs[j])
    F = FreeModule(B, 1)
    vecs = [F.basis_vec(0, g) for g in q_gens]
    for syz in module_syzygies(vecs):
        rel = big.zero
        for (comp, e), c in syz.terms:
            rel = rel + zs[comp] * big.transfer(B.from_dict({e: c}))
        if not rel.is_zero():
            defining.append(rel)
    A = rings.PresentedGradedRing(big, defining, label=label)
    q = A.ideal([big.transfer(g) for g in q_gens])
    return A, q


def build_regular_base():
    """k[x,y] with q = (x, y): the Cohen-Macaulay negative control."""
    A = rings.PresentedGradedRing(PolyRing(("x", "y")), [],
                                  label="regular_base")
    x, y = A.gens()
    return A, A.ideal([x, y])


def _z_name(ring, j):
    candidates = "uvwzst"
    name = candidates[j] if j < len(candidates) else "z%d" % j
    while name in ring.names:
        name = "z" + name
    return name


EXAMPLES = {
    "hochster_roberts": build_hochster_roberts,
    "two_planes": build_two_planes,
    "idealization_xy": lambda: build_idealization(
        ("x", "y"), (1, 1), ("x", "y"), label="idealization_xy"),
    "idealization_x2y3": lambda: build_idealization(
        ("x", "y"), (1, 1), ("x^2", "y^3"), label="idealization_x2y3"),
    "idealization_xyz": lambda: build_idealization(
        ("x", "y", "z"), (1, 1, 1), ("x", "y", "z"),
        label="idealization_xyz"),
    "regular_base": build_regular_base,
}


def example_document(name):
    """InputDocument for a named example (canonical corpus form)."""
    A, q = EXAMPLES[name]()
    doc = inputfmt.InputDocument()
    doc.name = name
    doc.char = A.field.p if A.field.kind == "prime" else 0
    doc.vars = list(zip(A.names, A.weights))
    doc.ideal_exprs = [str(g) for g in A.defining]
    doc.param_exprs = [str(g) for g in q.gens]
    doc.power = A.dim()
    return doc
