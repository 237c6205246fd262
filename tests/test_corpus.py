"""The built-in examples: what their builders used to compute, kept as
checks on the documents they now are, and README's library block."""

import ast
import os

import pytest

from reesgor import corpus, decision, modules
from reesgor.hilbert import upoly_mul
from reesgor.modules import FreeModule, module_syzygies
from reesgor.polys import PolyRing

from reference import count_calls

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

IDEALIZATIONS = {
    "idealization_xy": (("x", "y"), ("x", "y")),
    "idealization_x2y3": (("x", "y"), ("x^2", "y^3")),
    "idealization_xyz": (("x", "y", "z"), ("x", "y", "z")),
}


def test_hochster_roberts_is_the_kernel_of_its_monomial_map(hr):
    """Each binomial dies under a -> x^2, b -> y, c -> x^3, d -> xy, and
    A has the Hilbert series 1/(1-t)^2 - t of k[x^2, y, x^3, xy] (every
    monomial of k[x,y] but x): containment plus equal series make the
    defining ideal the kernel."""
    A, q = hr
    S = PolyRing(("x", "y"))
    x, y = S.gens()
    images = (x ** 2, y, x ** 3, x * y)
    for f in A.defining:
        image = S.zero
        for exp, c in f.terms:
            term = S.const(c)
            for g, e in zip(images, exp):
                term = term * g ** e
            image = image + term
        assert image.is_zero(), f
    # N(t) / prod (1 - t^w) = (1 - t + 2t^2 - t^3) / (1 - t)^2
    lhs = upoly_mul(dict(A.hilbert_numerator()), {0: 1, 1: -2, 2: 1})
    rhs = {0: 1, 1: -1, 2: 2, 3: -1}
    for w in A.weights:
        rhs = upoly_mul(rhs, {0: 1, w: -1})
    assert lhs == rhs
    assert [str(g) for g in q.gens] == ["a", "b"]


def _syzygy_relations(A, q):
    """The relations sum_i z_i s_i for the syzygies s of q's generators
    over B = k[x_1..x_d], z_i the variables after B's, as
    `module_syzygies` gives them."""
    amb, d = A.ambient, len(q.gens)
    B = PolyRing(amb.names[:d], amb.weights[:d], amb.field)
    zs = amb.gens()[d:]
    F = FreeModule(B, 1)
    rels = []
    # q's generators are free of the z_i: keep their first d exponents
    for syz in module_syzygies([F.basis_vec(0, B.from_dict(
            {e[:d]: c for e, c in g.terms})) for g in q.gens]):
        rel = amb.zero
        for (comp, e), c in syz.terms:
            rel = rel + zs[comp] * amb.embed(B.from_dict({e: c}))
        rels.append(rel)
    return rels


@pytest.mark.parametrize("b_names, q_exprs", list(IDEALIZATIONS.values()) + [
    (("x", "y", "z"), ("x^2", "y", "z")), (("x", "y"), ("x+y", "x-y"))])
def test_idealization_relations_are_the_syzygies_of_its_parameters(
        b_names, q_exprs):
    """The monic Koszul relations after the products z_i z_j are the
    reduced syzygy basis of the parameters, in its order."""
    A, q = corpus.build_idealization(b_names, (1,) * len(b_names), q_exprs)
    d = len(b_names)
    products = d * (d + 1) // 2
    assert list(A.defining[products:]) == _syzygy_relations(A, q)


@pytest.mark.parametrize("name", sorted(IDEALIZATIONS))
def test_idealization_examples_are_what_the_builder_writes(name):
    b_names, q_exprs = IDEALIZATIONS[name]
    A, q = corpus.EXAMPLES[name]()
    B, qB = corpus.build_idealization(b_names, (1,) * len(b_names),
                                      q_exprs, label=name)
    assert (A, A.label, q.gens) == (B, B.label, qB.gens)


def test_idealization_variables_avoid_the_names_of_its_base():
    """A z_i whose name the base ring already has gains a leading z until
    it is fresh: over k[u,v] the new variables are zu and zv."""
    A, q = corpus.build_idealization(("u", "v"), (1, 1), ("u", "v"))
    assert A.names == ("u", "v", "zu", "zv")
    assert decision.decide(A, q).verdict


def test_examples_run_no_buchberger(monkeypatch):
    """The examples are read off their documents; building an
    idealization runs one Buchberger, for its parameter check."""
    runs = count_calls(monkeypatch, modules.module_buchberger)
    for build in (corpus.build_hochster_roberts, corpus.build_two_planes,
                  corpus.build_regular_base, *corpus.EXAMPLES.values()):
        build()
    assert runs == []
    corpus.build_idealization(("x", "y"), (1, 1), ("x+y", "x-y"))
    assert len(runs) == 1


def test_readme_library_block_states_its_values():
    """README's library block runs, and each expression line equals the
    value its comment states."""
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    env, checked = {}, 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            stated = lines[node.end_lineno - 1].partition("#")[2]
            assert eval(code, env) == ast.literal_eval(stated.strip()), code
            checked += 1
        else:
            exec(code, env)
    assert checked >= 4
