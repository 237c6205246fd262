"""The (S2)-ification machinery: filter-regular pairs, the overring
A~ = (1/a)(aA : b) represented through its colon ideal, the conductor by
two independent routes, first-cohomology invariants, the cohomology
hypothesis profile, and the standardness test for parameter ideals.

The pair's colon (I, a) : b and its module (aA : b)/aA, presenting
H^1_m(A), come from the ring's memoized `colon_graph`: the filter-regular
test, the overring CM check and `s2_construct` share one graph basis.
"""

import random
from collections import namedtuple
from itertools import permutations

from .errors import (HypothesisNotVerified, NotApplicable, PairNotFound,
                     crosscheck)
from . import rings
from .hilbert import INFINITE
from .modules import FreeModule
from .resolutions import ModulePresentation


def is_filter_regular(A, a, b):
    """b filter-regular on A/aA: the colon module (aA : b)/aA has finite
    length, i.e. (I, a) : b lies in the saturation (I, a) : m^inf."""
    return A.colon_graph((a,), b).module.length() != INFINITE


def filter_regular_pair(A, q, seed=0):
    """A pair (a, b) from q with a regular on A and b filter-regular mod a.

    Tests q as a system of parameters, then tries ordered pairs of q's
    generators, then seeded random combinations of equal-degree ones.
    """
    rings.check_parameters(q)
    gens = list(q.gens)
    candidates = list(permutations(gens, 2))
    rng = random.Random(seed)
    by_deg = {}
    for g in gens:
        by_deg.setdefault(g.degree(), []).append(g)
    field = A.field
    for _ in range(20):
        combo = []
        for deg, group in sorted(by_deg.items()):
            if len(group) < 2:
                continue
            f = A.ambient.zero
            g = A.ambient.zero
            for h in group:
                f = f + h.scale(field.of(rng.randrange(1, 100)))
                g = g + h.scale(field.of(rng.randrange(1, 100)))
            combo.append((f, g))
        for f, g in combo:
            candidates.append((f, g))
            candidates.append((g, f))
    for a, b in candidates:
        if A.is_zero_element(a) or A.is_zero_element(b):
            continue
        if not A.is_regular_element(a):
            continue
        if is_filter_regular(A, a, b):
            return a, b
    raise PairNotFound("no filter-regular pair among the tried candidates")


# everything the decision procedure needs about A~ and the conductor: the
# fraction numerators g_j, not in aA, give g_j/a generating A~ over A, and
# h1_module presents (aA : b)/aA
S2Data = namedtuple("S2Data", "pair h1_length conductor fraction_numerators "
                              "h1_module")


def s2_construct(A, pair):
    """Assemble S2Data for a validated filter-regular pair."""
    a, b = pair
    _, colon_ideal, h1_mod = A.colon_graph((a,), b)
    h1_length = h1_mod.length()
    if h1_length == INFINITE:
        raise HypothesisNotVerified("first cohomology has infinite length")
    if h1_length == 0:
        conductor = A.unit_ideal()
    else:
        conductor = rings.Ideal.from_basis(A, h1_mod.annihilator_gens())
    aA = A.ideal([a])
    numerators = [g for g in colon_ideal.gb() if not aA.contains(g)]
    return S2Data(pair, h1_length, conductor, numerators, h1_mod)


def conductor_crosscheck(A, data):
    """Conductor by the duality route: ann(Ext^(n-1)(A, omega)).

    Must agree with the colon-module route; disagreement certifies a bug.
    """
    ext = A.ext(A.ambient.n - 1)
    if ext.length() == 0:
        route2 = A.unit_ideal()
    else:
        route2 = rings.Ideal.from_basis(A, ext.annihilator_gens())
    crosscheck("conductor by Ext and by the colon module",
               route2.gb(), data.conductor.gb())
    return route2


# vanishing pattern of Ext^(n-i)(A, omega) for 0 <= i < d: ext_lengths
# maps each i to its length or INFINITE
HypothesisProfile = namedtuple("HypothesisProfile", "d ext_lengths verdict")


def hypothesis_profile(A, pair):
    """Check H^i(A) = 0 for i not in {1, d} (i < d) and l(H^1) finite.

    Also cross-checks the verdict against Cohen-Macaulayness of the
    colon module aA : b (pd = n - d), which presents a*A~.
    """
    d = A.dim()
    n = A.ambient.n
    ext_lengths = {}
    verdict = True
    for i in range(d):
        l = ext_lengths[i] = A.ext(n - i).length()
        if l == INFINITE or (l != 0 and i != 1):
            verdict = False
    a, b = pair
    # the colon module aA : b presents a*A~ only when a*A~ sits inside A,
    # i.e. when a lies in the conductor; gate the cross-check on that
    in_conductor = True
    if ext_lengths.get(1) not in (None, 0, INFINITE):
        in_conductor = rings.Ideal.from_basis(
            A, A.ext(n - 1).annihilator_gens()).contains(a)
    if in_conductor:
        col = A.colon_graph((a,), b).ideal
        crosscheck("cohomology profile and the CM test for the overring",
                   _ideal_module(A, col).pd() == n - d, verdict)
    return HypothesisProfile(d, ext_lengths, verdict)


def h1_socle(A, data):
    """Socle dimension of the first cohomology of A.

    Computed as the minimal generator count of its Matlis dual
    Ext^(n-1)(A, omega); cross-checked against the socle of the colon
    module presentation.
    """
    if data.h1_length == 0:
        raise NotApplicable("first cohomology vanishes")
    socle = A.ext(A.ambient.n - 1).min_generators()
    return crosscheck("socle of the first cohomology", socle,
                      data.h1_module.socle_dim())


def is_standard_parameters(A, q, profile, data):
    """q is standard iff q is inside the conductor, under the profile."""
    if not profile.verdict:
        raise HypothesisNotVerified(
            "standardness test requires the cohomology hypothesis")
    # for a standard q the colon module realizes the first cohomology;
    # a length mismatch against the duality route certifies non-standard q
    if profile.ext_lengths.get(1, 0) != data.h1_length:
        return False
    return data.conductor.contains_ideal(q)


def _ideal_module(A, ideal):
    """An ideal of A as a subquotient P-module (preimage modulo I)."""
    F = FreeModule(A.ambient, 1)
    gens = [F.basis_vec(0, g) for g in ideal.gb()]
    rels = [F.basis_vec(0, g) for g in A.defining]
    return ModulePresentation(F, gens, rels)
