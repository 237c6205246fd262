"""Graded free resolutions and their Betti numbers, Ext duals, module
presentations."""

import contextlib
import io
import itertools
import os
from collections import Counter
from operator import ge, sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reesgor.errors import (EquivalenceViolation, NotApplicable,
                            ResourceExceeded, crosscheck)
from reesgor.fields import GF, QQ, DEFAULT_PRIME
from reesgor.groebner import as_vecs, groebner_basis
from reesgor.hilbert import INFINITE, hilbert_numerator
from reesgor.modules import (FreeModule, Vec, module_buchberger, module_colon,
                             module_syzygies, reducer_index, schreyer_level,
                             vec_nf)
from reesgor.polys import PolyRing
from reesgor import corpus, idealops, modules, oracle, resolutions
from reesgor.cli import run_cli
from reesgor.resolutions import ext_dualizing, minimalize_step, subquotient

from reference import (cokernel, composes_to_zero, count_calls, lead_degree,
                       mul_poly, position_over_term, resolve,
                       schreyer_triples, shifts, syzygies, triple_module)

F = GF(DEFAULT_PRIME)


def ring2():
    return PolyRing(("x", "y"), (1, 1), F)


def ring3():
    return PolyRing(("x", "y", "z"), (1, 1, 1), F)


def test_koszul_resolution_of_the_residue_field():
    R = ring3()
    res = resolve(R, list(R.gens()))
    assert res.betti() == [1, 3, 3, 1]
    assert [shifts(res, k) for k in range(4)] == \
        [(0,), (1, 1, 1), (2, 2, 2), (3,)]
    assert composes_to_zero(res)
    assert res.pd == 3


def test_complete_intersection_resolution():
    R = ring2()
    x, y = R.gens()
    res = resolve(R, [x ** 2, y ** 3])
    assert res.betti() == [1, 2, 1]
    # graded shifts of the last step: the Koszul relation in degree 5
    assert shifts(res, 2) == (5,)


def test_resolution_shifts_are_increasing():
    R = ring3()
    x, y, z = R.gens()
    res = resolve(R, [x * y, y * z, x * z])
    assert res.betti() == [1, 3, 2]
    for k in range(1, res.pd + 1):
        prev = shifts(res, k - 1)
        for s in shifts(res, k):
            assert s > min(prev)


def test_corpus_resolutions_minimal_and_exact(corpus_instances):
    for name, (A, _) in corpus_instances.items():
        res = resolve(A.ambient, A.defining)
        ref = _reference_quotient_resolution(A.ambient, A.defining)
        assert res.graded_betti == ref.graded_betti, name
        assert composes_to_zero(res), name
        if A.defining:
            # rank additivity: a resolution of a torsion quotient
            assert sum((-1) ** k * b for k, b in enumerate(res.betti())) == 0


def test_two_planes_betti_numbers(two_planes):
    A, _ = two_planes
    res = resolve(A.ambient, A.defining)
    assert res.betti() == [1, 4, 4, 1]


def test_cached_ring_resolution_is_immutable(two_planes):
    A, _ = two_planes
    res = A.resolution()
    with pytest.raises(AttributeError):
        res.diffs.pop()
    with pytest.raises(AttributeError):
        res.diffs[-1].append(res.diffs[-1][0])
    with pytest.raises(TypeError):
        res.graded_betti[0][0] = 2
    assert A.resolution().betti() == [1, 4, 4, 1]


def test_memoized_ext_numerators_are_read_only():
    """A ring's memoized Ext hands out its component numerators as
    read-only mappings: editing one raises, and the length of the shared
    Ext stays 1."""
    A, _ = corpus.build_two_planes()
    ext = A.ext(3)
    assert ext.length() == 1
    with pytest.raises(AttributeError):
        ext.component_numerators()[0].clear()
    with pytest.raises(TypeError):
        ext.component_numerators()[0][0] = 0
    assert A.ext(3).length() == 1


def test_ext_vanishes_below_codimension(two_planes):
    A, _ = two_planes
    res = resolve(A.ambient, A.defining)
    # codim 2 inside 4 variables: Ext^0 and Ext^1 against omega vanish
    for i in (0, 1):
        assert ext_dualizing(res, i).is_zero()


def test_ext_top_length_is_h1(hr):
    """Ext^(n-1)(A, omega) is the Matlis dual of the first cohomology."""
    A, _ = hr
    res = resolve(A.ambient, A.defining)
    ext = ext_dualizing(res, A.ambient.n - 1)
    assert ext.length() == 1
    assert ext.min_generators() == 1


def test_presentation_length_and_generators():
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 1)
    mod = cokernel(Fm, [Fm.basis_vec(0, x ** 2),
                        Fm.basis_vec(0, y ** 3)])
    assert mod.length() == 6
    assert mod.min_generators() == 1
    assert not mod.is_zero()


def test_free_presentation_is_immutable():
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 1)
    mod = cokernel(Fm, [Fm.basis_vec(0, x ** 2),
                        Fm.basis_vec(0, y ** 3)])
    with pytest.raises(AttributeError):
        mod.cols.pop()
    assert mod.length() == 6


def test_presentation_basis_is_computed_once(monkeypatch):
    """The presentation columns are one graph basis and a Groebner basis
    already: building the cokernel, its length, socle, minimal generators
    and the resolution together run one Buchberger."""
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 2, (1, 0))
    runs = count_calls(monkeypatch, modules.module_buchberger)
    mod = cokernel(
        Fm, [Fm.basis_vec(0, x), Fm.basis_vec(0, y ** 2),
             Fm.basis_vec(1, x ** 2) + Fm.basis_vec(0, y), Fm.basis_vec(1, y)])
    assert mod.length() == 4
    assert mod.socle_dim() == 1
    assert mod.min_generators() == 2
    assert mod.resolution().betti() == [2, 3, 1]
    assert mod.length() == 4
    assert len(runs) == 1


def test_numerators_are_computed_once_per_presentation(monkeypatch):
    """A presentation computes the Hilbert numerator of each component of
    its presentation once, for length, is_zero, socle_dim and the
    resolution's exactness check alike, and `artinian_length` reads the
    ideal's memoized numerator."""
    from reesgor import corpus, hilbert, invariants
    A, q = corpus.build_two_planes()
    ext = A.ext(A.ambient.n - 1)
    J = A.maximal_ideal()
    J.hilbert_numerator()
    calls = count_calls(monkeypatch, hilbert.hilbert_numerator)
    for _ in range(2):
        assert ext.length() == 1
        assert not ext.is_zero()
        assert ext.socle_dim() == 1
        assert ext.resolution().pd == A.ambient.n
    assert len(calls) == ext.f0.rank
    calls.clear()
    assert invariants.artinian_length(J) == 1
    assert calls == []


def test_presentation_rejects_inhomogeneous_vectors():
    """x^2 e1 + y e0 has degrees 2 and 1 when both generators sit in
    degree 0; once accepted, its resolution failed the Euler
    characteristic crosscheck (exit 5) instead."""
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 2)
    bad = Fm.basis_vec(1, x ** 2) + Fm.basis_vec(0, y)
    good = [Fm.basis_vec(0, x), Fm.basis_vec(0, y ** 2), Fm.basis_vec(1, y)]
    with pytest.raises(ValueError, match=r"inhomogeneous .*'x\^2'"):
        cokernel(Fm, good + [bad])
    with pytest.raises(ValueError, match=r"inhomogeneous .*'x\^2'"):
        subquotient(Fm, [bad], good)


def _reference_annihilator(ring, gens, rels):
    """The intersection of the colons (rels : g) over the nonzero
    generators g, each colon from its own graph basis."""
    result = None
    for g in gens:
        if not g.is_zero():
            ann = module_colon(g, rels)
            result = (ann if result is None
                      else idealops.intersect(ring, result, ann))
    return (ring.one,) if result is None else tuple(result)


def test_annihilator_reads_the_last_colon_off_the_presentation(
        corpus_instances):
    """The annihilator of a subquotient, the colons (cols : e_i) of its
    cokernel with the last read off the columns, is the intersection of
    the per-generator colons (rels : g): with a zero last generator, with
    no rels (the zero ideal), with no generators (the unit ideal), on
    several generators of a rank-one ambient, on a cokernel of rank two,
    and on every Ext^i of the corpus, as a cokernel."""
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 2)
    F1 = FreeModule(R, 1)
    rels = [Fm.basis_vec(0, x ** 2), Fm.basis_vec(1, y ** 2),
            Fm.basis_vec(0, y) + Fm.basis_vec(1, x)]
    basis = [Fm.basis_vec(0), Fm.basis_vec(1)]
    special = [
        (Fm, [Fm.basis_vec(0), Fm.zero()], rels,
         tuple(module_colon(Fm.basis_vec(0), rels))),
        (Fm, [Fm.basis_vec(0, x), Fm.basis_vec(1)], [], ()),
        (Fm, [], rels, (R.one,)),
        # ann((x, y)/(x^2, xy, y^3)) = (x^2, xy, y^3) : (x, y)
        (F1, [F1.basis_vec(0, x), F1.basis_vec(0, y)],
         [F1.basis_vec(0, g) for g in (x ** 2, x * y, y ** 3)],
         tuple(groebner_basis([x, y ** 2]))),
        # coker(rels) needs both generators: its annihilator is
        # (x^2, y^3) : e_0 cap (x^3, y^2) : e_1
        (Fm, basis, rels, tuple(groebner_basis([x ** 2 * y ** 2, x ** 3,
                                                y ** 3]))),
    ]
    for ambient, gens, rels_, want in special:
        mod = subquotient(ambient, gens, rels_)
        assert mod.annihilator_gens() == want, (gens, rels_)
        assert _reference_annihilator(R, gens, rels_) == want
    assert subquotient(Fm, basis, rels).min_generators() == 2
    for name, (A, _) in corpus_instances.items():
        for i in range(A.ambient.n + 1):
            mod = A.ext(i)
            gens = [mod.f0.basis_vec(j) for j in range(mod.f0.rank)]
            assert mod.annihilator_gens() == \
                _reference_annihilator(A.ambient, gens, mod.cols), (name, i)


def test_presentation_of_infinite_length_module():
    R = ring2()
    x, _ = R.gens()
    Fm = FreeModule(R, 1)
    mod = cokernel(Fm, [Fm.basis_vec(0, x)])
    assert mod.length() == INFINITE


def test_annihilator_of_residue_field():
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 1)
    mod = cokernel(Fm, [Fm.basis_vec(0, x),
                        Fm.basis_vec(0, y)])
    ann = mod.annihilator_gens()
    gens = {str(g) for g in ann}
    assert gens == {"x", "y"}


def test_socle_dimensions():
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 1)
    # k[x,y]/(x^2, y): socle spanned by x
    one = cokernel(Fm, [Fm.basis_vec(0, x * x),
                        Fm.basis_vec(0, y)])
    assert one.socle_dim() == 1
    # k^2: everything is socle
    F2 = FreeModule(R, 2)
    two = cokernel(
        F2, [F2.basis_vec(i, g) for i in (0, 1) for g in (x, y)])
    assert two.socle_dim() == 2
    # k[x,y]/(x^2, xy, y^2): socle = (x, y)/m^2, dimension 2
    fat = cokernel(
        Fm, [Fm.basis_vec(0, x * x), Fm.basis_vec(0, x * y),
             Fm.basis_vec(0, y * y)])
    assert fat.socle_dim() == 2


def test_gorenstein_artinian_socle_is_one():
    R = ring2()
    x, y = R.gens()
    Fm = FreeModule(R, 1)
    mod = cokernel(Fm, [Fm.basis_vec(0, x ** 3),
                        Fm.basis_vec(0, y ** 2)])
    assert mod.socle_dim() == 1


def test_socle_walks_the_standard_monomials_not_their_box():
    """k[x,y,z]/(x^N, y^N, z^N, xy, yz, xz) has length 3N - 2 and socle
    (x^(N-1), y^(N-1), z^(N-1)).  At N = 120 the box of its pure-power
    bounds holds 1,728,000 monomials; the walk from 1 meets only the 358
    standard ones and their multiples by a variable."""
    R = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = R.gens()
    Fm = FreeModule(R, 1)
    n = 120
    gb = groebner_basis([x ** n, y ** n, z ** n, x * y, y * z, x * z])
    mod = resolutions.ModulePresentation(
        Fm, [Fm.basis_vec(0, g) for g in gb])
    basis = resolutions._standard_module_basis(mod.f0, mod.cols)
    assert len(set(basis)) == len(basis) == mod.length() == 3 * n - 2
    assert mod.socle_dim() == 3


def test_auslander_buchsbaum_on_corpus(corpus_instances):
    from reesgor import invariants
    for name, (A, _) in corpus_instances.items():
        res = resolve(A.ambient, A.defining)
        rep = invariants.depth_and_type(A)
        assert rep.pd == res.pd, name
        assert rep.depth == A.ambient.n - res.pd, name


# -- minimalize_step against the per-pivot algorithm -----------------------
#
# The reference below takes one pivot per pass and renumbers the
# components after each; minimalize_step must pick the same pivots and
# return the same columns, term for term.

def _reference_column_entry(vec, comp):
    d = {e: c for (cc, e), c in vec.terms if cc == comp}
    return vec.module.ring.from_dict(d)


def _reference_drop_component(vecs, comp, new_module):
    out = []
    for v in vecs:
        d = {}
        for (cc, e), c in v.terms:
            if cc == comp:
                continue
            d[(cc - 1 if cc > comp else cc, e)] = c
        out.append(new_module.from_dict(d))
    return out


def _reference_unit_entry(vec):
    zero_exp = vec.module.ring.zero_exp
    for (comp, e), c in vec.terms:
        if e == zero_exp:
            return comp, c
    return None


def _reference_minimalize_step(prev_cols, s_cols):
    prev_cols = list(prev_cols)
    s_cols = list(s_cols)
    while True:
        hit = None
        for c, col in enumerate(s_cols):
            u = _reference_unit_entry(col)
            if u is not None:
                hit = (c, u[0], u[1])
                break
        if hit is None:
            break
        c, i, u = hit
        ring = s_cols[0].module.ring
        F = s_cols[0].module
        pivot = s_cols[c]
        inv = ring.field.inv(u)
        new_cols = []
        for c2, col in enumerate(s_cols):
            if c2 == c:
                continue
            alpha = _reference_column_entry(col, i)
            if not alpha.is_zero():
                col = col - mul_poly(pivot, alpha.scale(inv))
            new_cols.append(col)
        del prev_cols[i]
        new_shifts = F.shifts[:i] + F.shifts[i + 1:]
        newF = FreeModule(ring, F.rank - 1, new_shifts)
        s_cols = [v for v in _reference_drop_component(new_cols, i, newF)
                  if not v.is_zero()]
        if not s_cols:
            break
    return prev_cols, s_cols


def _monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n)
            if sum(e) == degree]


@st.composite
def differentials(draw):
    """(module, columns): small homogeneous columns rich in unit entries.

    Shifts 0..2 make columns of degree equal to a shift carry constant
    entries, often several in one column and in one row; some columns are
    zero, and some are multiples or sums of earlier ones, so a pivot
    can cancel them.
    """
    field = draw(st.sampled_from([GF(DEFAULT_PRIME), QQ]))
    n = draw(st.integers(min_value=1, max_value=3))
    R = PolyRing(("x", "y", "z")[:n], (1,) * n, field)
    rank = draw(st.integers(min_value=1, max_value=5))
    shifts = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=rank, max_size=rank))
    Fm = FreeModule(R, rank, shifts)
    coeff = st.integers(min_value=-3, max_value=3).map(field.of)
    cols = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        kind = draw(st.sampled_from(["random"] * 4 + ["zero", "combo"]))
        if kind == "zero":
            cols.append(Fm.zero())
            continue
        if kind == "combo" and cols:
            a = draw(st.sampled_from(cols))
            b = draw(st.sampled_from(cols))
            if a.is_zero() or b.is_zero() or a.degree() == b.degree():
                cols.append(a.scale(draw(coeff)) + b.scale(draw(coeff)))
                continue
        degree = draw(st.sampled_from(shifts + [sh + 1 for sh in shifts]))
        d = {}
        for comp, sh in enumerate(shifts):
            if degree < sh or not draw(st.booleans()):
                continue
            for e in draw(st.lists(st.sampled_from(_monomials(n, degree - sh)),
                                   min_size=1, max_size=3)):
                d[(comp, e)] = draw(coeff)
        cols.append(Fm.from_dict(d))
    return Fm, cols


def _reordering_differential():
    """Pivoting (1, x) out of (x, y^2) leaves y^2 - x^2: terms re-sorted."""
    R = PolyRing(("x", "y"), (1, 1), F)
    x, y = R.gens()
    Fm = FreeModule(R, 2, (1, 0))
    return Fm, [Fm.from_poly_list([(0, R.one), (1, x)]),
                Fm.from_poly_list([(0, x), (1, y * y)])]


@settings(max_examples=300, deadline=None)
@given(differentials())
@example(_reordering_differential())
def test_minimalize_step_matches_per_pivot_reference(diff):
    Fm, cols = diff
    labels = ["g%d" % i for i in range(Fm.rank)]
    prev, out = minimalize_step(labels, cols)
    ref_prev, ref_out = _reference_minimalize_step(labels, cols)
    assert prev == ref_prev
    assert [v.terms for v in out] == [v.terms for v in ref_out]
    assert [v.module.shifts for v in out] == [v.module.shifts for v in ref_out]
    assert all(_reference_unit_entry(v) is None for v in out)


# -- the Schreyer frame against the iterated-syzygy loop -------------------
#
# The reference is a minimal resolution by a loop with no frame: a fresh
# module_syzygies of each differential, minimalized against it by
# minimalize_step.  Its Betti numbers are the generator degrees of its
# free modules, those of F_{k+1} the degrees of d_{k+1}'s columns, with no
# Tor ranks.

def _reference_resolution(cols, f0, minimalize_f0=False):
    diffs = [[c for c in cols if not c.is_zero()]]
    shifts = f0.shifts
    if minimalize_f0 and diffs[0]:
        kept, diffs[0] = minimalize_step(range(f0.rank), diffs[0])
        shifts = [shifts[i] for i in kept]
    while diffs[-1]:
        diffs[-1], syz = minimalize_step(diffs[-1],
                                         module_syzygies(diffs[-1]))
        diffs.append(syz)
    while diffs and not diffs[-1]:
        diffs.pop()
    assert all(_reference_unit_entry(v) is None
               for level in diffs for v in level)
    modules = [FreeModule(f0.ring, len(s), s) for s in [shifts] + [
        [v.degree() for v in level] for level in diffs]]
    betti = [Counter(F.shifts) for F in modules]
    return resolutions.GradedResolution(f0.ring, modules, diffs, betti)


def _reference_quotient_resolution(R, gens):
    f0 = FreeModule(R, 1, (0,))
    return _reference_resolution([f0.from_poly_list([(0, g)]) for g in gens],
                                 f0)


@st.composite
def homogeneous_ideals(draw):
    """(ring, generators): 2-4 homogeneous generators of degree 1-3 with
    1-3 terms, in 4 or 5 variables over GF(2), GF(3) or GF(32003)."""
    field = GF(draw(st.sampled_from([2, 3, DEFAULT_PRIME])))
    n = draw(st.integers(min_value=4, max_value=5))
    R = PolyRing(("a", "b", "c", "d", "e")[:n], (1,) * n, field)
    gens = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        monos = _monomials(n, draw(st.sampled_from([1, 2, 2, 3])))
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                              unique=True))
        coeffs = draw(st.lists(st.integers(min_value=1, max_value=field.p - 1),
                               min_size=len(terms), max_size=len(terms)))
        gens.append(R.from_dict({e: field.of(c)
                                 for e, c in zip(terms, coeffs)}))
    return R, gens


def _long_frame_ideal():
    """A complete intersection in 6 variables, pd 3, whose frame has 6
    levels: capped at its pd, the frame is cut at d_5."""
    R = PolyRing(("a", "b", "c", "d", "e", "f"), (1,) * 6, F)
    a, b, c, d, e, f = R.gens()
    return R, [a ** 3 + a * d ** 2, a * b * c + a * e ** 2 + c * e ** 2,
               d ** 2 * e + b * d * f]


@settings(max_examples=60, deadline=None)
@given(homogeneous_ideals())
@example(_long_frame_ideal())
def test_frame_resolution_matches_iterated_syzygies(ideal):
    R, gens = ideal
    res = resolve(R, gens)
    ref = _reference_quotient_resolution(R, gens)
    assert res.betti() == ref.betti()
    for k in range(res.pd + 1):
        assert shifts(res, k) == shifts(ref, k), k
    assert composes_to_zero(res)
    # a cap at the minimal length cuts the frame at d_{pd+2} and succeeds
    capped = resolve(R, gens, length_cap=ref.pd)
    assert [shifts(capped, k) for k in range(capped.pd + 1)] == \
        [shifts(res, k) for k in range(res.pd + 1)]
    if ref.pd:
        with pytest.raises(ResourceExceeded):
            resolve(R, gens, length_cap=ref.pd - 1)


def test_frame_resolves_presentations_like_iterated_syzygies(
        corpus_instances):
    """A module presentation's frame starts from its columns, with no
    generator dropped first, and has the Betti numbers of the reference,
    which minimalizes the generators before it resolves: each Ext module
    of a corpus ring, and q modulo I as s2 presents an ideal of A."""
    for name, (A, q) in corpus_instances.items():
        mods = [A.ext(i) for i in range(A.ambient.n + 1)]
        Fm = FreeModule(A.ambient, 1)
        mods.append(subquotient(
            Fm, [Fm.basis_vec(0, g) for g in q.gb()],
            [Fm.basis_vec(0, g) for g in A.defining]))
        for i, mod in enumerate(mods):
            res = mod.resolution()
            ref = _reference_resolution(mod.cols, mod.f0, minimalize_f0=True)
            assert res.betti() == ref.betti(), (name, i)
            for k in range(res.pd + 1):
                assert shifts(res, k) == shifts(ref, k), (name, i, k)
            assert composes_to_zero(res), (name, i)


@settings(max_examples=60, deadline=None)
@given(homogeneous_ideals())
@example(_long_frame_ideal())
def test_tor_ranks_of_the_frame_give_the_betti_numbers(ideal):
    """The graded ranks of Tor(P/I, k), read off the constant entries of
    the frame, are the graded Betti numbers of the reference minimal
    resolution."""
    R, gens = ideal
    f0 = FreeModule(R, 1, (0,))
    cols = [f0.from_poly_list([(0, g)]) for g in gens]
    tor = resolutions.tor_betti(
        *resolutions.schreyer_frame(module_buchberger(cols).basis))
    ref = [dict(b) for b in _reference_resolution(cols, f0).graded_betti]
    assert tor == ref + [{}] * (len(tor) - len(ref))


def test_ext_from_the_frame_matches_the_minimal_resolution(hr):
    """The frame of Hochster-Roberts' Rees ring at n = 2 is one level
    longer than its minimal resolution; every Ext^i read off the frame
    has the invariants of Ext^i off the reference minimal resolution."""
    A, q = hr
    rees = oracle.rees_presentation(A, q, 2).ring
    res = rees.resolution()
    ref = _reference_quotient_resolution(rees.ambient, rees.gb())
    assert res.betti() == ref.betti()
    assert len(res.diffs) == res.pd + 1 == len(ref.diffs) + 1
    for i in range(rees.ambient.n + 1):
        got, want = ext_dualizing(res, i), ext_dualizing(ref, i)
        assert got.length() == want.length(), i
        assert got.min_generators() == want.min_generators(), i
        assert got.annihilator_gens() == want.annihilator_gens(), i


def test_unit_ideal_has_the_empty_resolution():
    """P/(x, 1) is the zero module: the Tor ranks of its frame find no
    generators in any degree."""
    R = ring2()
    x, _ = R.gens()
    for gens in ([R.one], [x, R.one]):
        res = resolve(R, gens)
        assert res.betti() == [0] and res.pd == 0
        assert res.euler_characteristic() == {}


def test_schreyer_syzygies_of_a_non_basis_raise():
    """x^2 and x*y + y^2 are no Groebner basis: their S-vector leaves y^3;
    nor are x e_0 + y e_1 and y e_0, whose S-vector leaves y^2 e_1."""
    R = ring2()
    x, y = R.gens()
    Fm, Gm = FreeModule(R, 1), FreeModule(R, 2)
    for basis in ([Fm.basis_vec(0, x * x), Fm.basis_vec(0, x * y + y * y)],
                  [Gm.from_poly_list([(0, x), (1, y)]), Gm.basis_vec(0, y)]):
        for level in (syzygies, _reference_schreyer_syzygies):
            with pytest.raises(EquivalenceViolation):
                level(basis)


def test_schreyer_syzygy_leads():
    """On a Groebner basis the syzygies lead with m_ij e_i, descending
    lexicographically within each e_i, and each is a syzygy."""
    R = ring3()
    x, y, z = R.gens()
    Fm = FreeModule(R, 1)
    basis = [Fm.basis_vec(0, g) for g in (x * y, x * z, y * z)]
    syz = syzygies(basis)
    assert syz[0].module.shifts == (2, 2, 2)
    # the pairs (0, 1) and (0, 2) share m = z, so one of them is kept
    assert [v.lead() for v in syz] == [((0, (0, 0, 1)), 1),
                                       ((1, (0, 1, 0)), 1)]
    for v in syz:
        acc = Fm.zero()
        for (comp, e), c in v.terms:
            acc = acc + basis[comp].mul_term(e, c)
        assert acc.is_zero()


def _reference_schreyer_syzygies(basis, lex=None, triples=None):
    """schreyer_level's syzygies as they were before it recorded
    quotients: each S-vector of the graph rows (g_i, e_i) of M + F
    reduces against all the rows, and the F part of the remainder is the
    syzygy.  M's order is given by its reference `triples` (position over
    term when not given), and F's and the graph module's are packed from
    order triples by `triple_module`.  The M block comes first; its tails
    are padded by a constant 0 to the length of F's, which leaves the
    order unchanged.  Within a lead component the
    syzygies descend in the lex order ranking the variables as `lex`
    lists them (by index when not given)."""
    M = basis[0].module
    ring = M.ring
    r = M.rank
    leads = [b.terms[0][0] for b in basis]
    triples = triples or position_over_term(ring, r)
    order = schreyer_triples(triples, basis)
    Fm = triple_module(ring, order,
                       [ring.wdeg(e) + M.shifts[c] for c, e in leads])
    GM = triple_module(ring, [((0,) + h, s, t + (0,)) for h, s, t in triples]
                       + [((1,) + h, s, t) for h, s, t in order],
                       M.shifts + Fm.shifts)
    one = ring.field.one
    rows = [Vec(GM, b.terms + (((r + i, ring.zero_exp), one),))
            for i, b in enumerate(basis)]
    index = reducer_index(rows, GM.rank)
    syz = []
    stuck = 0
    for i, (comp, ei) in enumerate(leads):
        cands = []
        for j, (compj, ej) in enumerate(leads):
            if j > i and compj == comp:
                lcm = tuple(map(max, ei, ej))
                m = tuple(map(sub, lcm, ei))
                cands.append((sum(m), m, j, lcm))
        cands.sort()
        kept = []
        for _, m, j, lcm in cands:
            if not any(all(map(ge, m, k)) for k, _, _ in kept):
                kept.append((m, j, lcm))
        rank = list(lex) if lex is not None else list(range(ring.n))
        for m, j, lcm in sorted(kept, reverse=True,
                                key=lambda t: [t[0][v] for v in rank]):
            uj = tuple(map(sub, lcm, leads[j][1]))
            h = vec_nf(rows[i].mul_term(m, one) - rows[j].mul_term(uj, one),
                       rows, index)
            if h.terms[0][0][0] < r:
                stuck += 1
                continue
            syz.append(Vec(Fm, tuple(((c - r, e), v)
                                     for (c, e), v in h.terms)))
    crosscheck("S-vectors of a Groebner basis whose F part is not zero",
               stuck, 0)
    return syz


def _assert_next_level_matches_reference(level, syz, index, lex, triples):
    """syz equals the reference's next level term for term, in a module
    equal to the one the reference builds from order triples, `triples`
    being those of level's module; each syzygy's terms strictly descend
    under its module's neg_key, and the index handed down with syz is a
    fresh reducer index of syz holding every tail keyed as F.neg_key keys
    it, restricted to the components that carry a lead of syz."""
    assert syz == _reference_schreyer_syzygies(level, lex, triples)
    for v in syz:
        keys = [v.module.neg_key(*ce) for ce, _ in v.terms]
        assert all(a < b for a, b in zip(keys, keys[1:]))
    assert index[0] == reducer_index(syz, len(level))[0]
    assert index[1] == _lead_keyed_tails(syz)


def _lead_keyed_tails(level):
    """{pos: tail} of every element of level, each tail term keyed by
    neg_key when its component carries a lead of level, and dropped when
    it does not."""
    lead_comps = {v.terms[0][0][0] for v in level}
    return {pos: tuple((v.module.neg_key(comp, e), comp, e, c)
                       for (comp, e), c in v.terms[1:] if comp in lead_comps)
            for pos, v in enumerate(level)}


@st.composite
def monic_groebner_bases(draw):
    """Reduced Groebner bases of random vectors of rank 1-3 in three
    variables over GF(32003) or QQ."""
    field = draw(st.sampled_from([F, QQ]))
    rank = draw(st.integers(1, 3))
    M = FreeModule(PolyRing(("x", "y", "z"), (1, 1, 1), field), rank)
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    gens = [M.from_dict({k: field.of(c) for k, c in draw(st.dictionaries(
                st.tuples(st.integers(0, rank - 1), exps),
                st.integers(-3, 3).filter(bool), min_size=1,
                max_size=3)).items()})
            for _ in range(draw(st.integers(1, 4)))]
    return module_buchberger(gens).basis


@settings(max_examples=60, deadline=None)
@given(monic_groebner_bases(), st.data())
def test_lead_free_tail_terms_change_no_quotient(basis, data):
    """The index schreyer_level hands down keys the syzygies' tails in the
    components that carry a lead only.  A term elsewhere finds no divisor,
    so it never records a quotient or pushes a term: reducing against
    that index records the quotients of the full tails, and the same
    remainder in every component that carries a lead."""
    _, syz, index = schreyer_level(basis, reducer_index(
        basis, basis[0].module.rank), range(3))
    assume(syz)
    S = syz[0].module
    field = S.ring.field
    assert index[1] == _lead_keyed_tails(syz)
    lead_comps = {v.terms[0][0][0] for v in syz}
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    f = S.from_dict({k: field.of(c) for k, c in data.draw(st.dictionaries(
        st.tuples(st.integers(0, S.rank - 1), exps),
        st.integers(-3, 3).filter(bool), max_size=6)).items()})
    full, lead = [], []
    r_full = vec_nf(f, syz, reducer_index(syz, S.rank), full)
    r_lead = vec_nf(f, syz, index, lead)
    assert lead == full
    assert ([t for t in r_lead.terms if t[0][0] in lead_comps]
            == [t for t in r_full.terms if t[0][0] in lead_comps])


@settings(max_examples=60, deadline=None)
@given(monic_groebner_bases())
def test_schreyer_syzygies_match_the_graph_row_reference(basis):
    """Three levels, each reduced against the index the last handed
    down, as in a frame, each in a module keyed off the level below that
    equals the reference's, built from the order triples it tracks."""
    index = reducer_index(basis, basis[0].module.rank)
    triples = position_over_term(basis[0].module.ring, basis[0].module.rank)
    for _ in range(3):
        F, syz, index = schreyer_level(basis, index, range(3))
        assert syz == syzygies(basis)
        assert all(v.module is F for v in syz)
        assert F.shifts == tuple(map(lead_degree, basis))
        _assert_next_level_matches_reference(basis, syz, index, range(3),
                                             triples)
        if not syz:
            break
        basis, triples = syz, schreyer_triples(triples, basis)


def test_corpus_frames_match_the_graph_row_reference(corpus_instances,
                                                     monkeypatch):
    """Every level of the Rees rings' frames at n = 2, 3, and the index
    it hands down, equals the graph-row reference's, whose modules are
    built from order triples tracked level by level, in the lex order
    that ranks the variables in the fewest leads of the first level
    first, ties by index."""
    handed, orders = [], []

    def recording(basis, index, lex):
        orders.append(list(lex))
        handed.append(schreyer_level(basis, index, lex))
        return handed[-1]
    monkeypatch.setattr(resolutions, "schreyer_level", recording)
    for name, (A, q) in corpus_instances.items():
        for n in (2, 3):
            gb = as_vecs(list(oracle.rees_presentation(A, q, n).ring.gb()))
            counts = Counter(v for b in gb
                             for v, a in enumerate(b.terms[0][0][1]) if a)
            lex = sorted(range(gb[0].module.ring.n),
                         key=lambda v: (counts[v], v))
            del handed[:], orders[:]
            modules, frame = resolutions.schreyer_frame(gb)
            assert orders == [lex] * len(handed), (name, n)
            assert frame[0] == sorted(
                gb, key=lambda b: [-b.terms[0][0][1][v] for v in lex])
            assert [syz for _, syz, _ in handed] == frame[1:] + [[]]
            assert [F for F, _, _ in handed] == modules[1:]
            triples = position_over_term(gb[0].module.ring, 1)
            for lower, (_, upper, index) in zip(frame, handed):
                _assert_next_level_matches_reference(lower, upper, index,
                                                     lex, triples)
                triples = schreyer_triples(triples, lower)


def _rees_frames(corpus_instances):
    """(name, n, first level) of the Rees rings' frames at n = 2, 3."""
    for name, (A, q) in corpus_instances.items():
        for n in (2, 3):
            yield name, n, as_vecs(list(
                oracle.rees_presentation(A, q, n).ring.gb()))


def test_frame_modules_carry_the_lead_degrees_of_the_level_below(
        corpus_instances):
    """On the Rees rings' frames at n = 2, 3, each level lies in its
    module, and the shifts of the module after it, the only degrees
    tor_betti and Ext read, are the lead degrees of the level's columns,
    the last level's included."""
    for name, n, gb in _rees_frames(corpus_instances):
        modules, frame = resolutions.schreyer_frame(gb)
        assert len(modules) == len(frame) + 1, (name, n)
        for k, cols in enumerate(frame):
            assert all(v.module is modules[k] for v in cols), (name, n, k)
            assert modules[k + 1].shifts == tuple(
                map(lead_degree, cols)), (name, n, k)


def test_a_cut_frame_gives_the_uncut_betti_numbers_through_its_cap(
        corpus_instances):
    """A frame cut at cap c builds d_{c+2} in F_{c+1} at most, no F_{c+2},
    and its Tor ranks are the uncut frame's beta_0, ..., beta_{c+1}."""
    for name, n, gb in _rees_frames(corpus_instances):
        full = resolutions.tor_betti(*resolutions.schreyer_frame(gb))
        for cap in range(len(full)):
            modules, frame = resolutions.schreyer_frame(gb, cap)
            assert len(frame) <= len(modules) <= cap + 2, (name, n, cap)
            assert (resolutions.tor_betti(modules, frame)
                    == full[:cap + 2]), (name, n, cap)


def test_euler_characteristic_is_the_hilbert_numerator(corpus_instances):
    for name, (A, _) in corpus_instances.items():
        num = hilbert_numerator([g.lead_exp() for g in A.gb()],
                                A.ambient.weights)
        assert A.resolution().euler_characteristic() == num, name


def test_inexact_resolution_fails_the_crosscheck(monkeypatch, two_planes):
    """A frame that loses a syzygy, a column of its last level and with
    it a generator of its last module, breaks the Euler characteristic;
    the CLI reports it as a disagreement (exit 5)."""
    real = resolutions.schreyer_frame

    def lossy(gb, length_cap=None):
        modules, frame = real(gb, length_cap)
        F = modules[-1]
        return (modules[:-1] + [FreeModule(F.ring, F.rank - 1, F.shifts[1:])],
                frame[:-1] + [frame[-1][1:]])

    monkeypatch.setattr(resolutions, "schreyer_frame", lossy)
    A, _ = two_planes
    with pytest.raises(EquivalenceViolation):
        resolve(A.ambient, A.defining)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus",
                        "two_planes.ring")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["invariants", path]) == 5
