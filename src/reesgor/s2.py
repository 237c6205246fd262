"""The (S2)-ification machinery: filter-regular pairs, the overring
A~ = (1/a)(aA : b) represented through its colon ideal, the conductor by
two independent routes, first-cohomology invariants, the cohomology
hypothesis profile, and the standardness test for parameter ideals.

The pair's colon J : b and J = (a) + I, its base, come from the ring's
memoized `colon_graph`, so the filter-regular test, the overring CM check
and `s2_construct` share one graph basis and one basis of J.  H^1_m(A) =
(aA : b)/aA has the length of the exact sequence 0 -> (J : b)/J -> P/J
-> P/(J : b) -> 0, read off the two ideals' memoized Hilbert numerators.
`s2_construct` presents H^1 only when it is not zero, crosschecks its
length, and reads the conductor J : (J : b) off it as its annihilator.
"""

import random
from collections import namedtuple
from itertools import permutations

from .errors import (HypothesisNotVerified, NotApplicable, PairNotFound,
                     crosscheck)
from . import rings
from .groebner import as_vecs
from .hilbert import INFINITE, finite_length, upoly_add
from .modules import FreeModule
from .resolutions import subquotient


def _h1_length(A, a, b):
    """The length of (aA : b)/aA, or INFINITE: the numerator of P/J less
    that of P/(J : b), J = (a) + I the base of the pair's colon graph, by
    the exact sequence 0 -> (J : b)/J -> P/J -> P/(J : b) -> 0."""
    graph = A.colon_graph((a,), b)
    num = upoly_add(graph.base.hilbert_numerator(), {
        d: -c for d, c in graph.ideal.hilbert_numerator().items()})
    return finite_length(num, A.weights)


def is_filter_regular(A, a, b):
    """b filter-regular on A/aA: the colon module (aA : b)/aA has finite
    length, i.e. (I, a) : b lies in the saturation (I, a) : m^inf."""
    return _h1_length(A, a, b) != INFINITE


def filter_regular_pair(A, q, seed=0):
    """A pair (a, b) from q with a regular on A and b filter-regular mod a.

    Tests q as a system of parameters of A, then tries ordered pairs of
    q's generators, then seeded random combinations of equal-degree ones.
    """
    A = rings.check_owner(A, q)
    rings.check_parameters(q)
    for a, b in _pair_candidates(q, seed):
        if (not A.is_zero_element(a) and not A.is_zero_element(b)
                and A.is_regular_element(a) and is_filter_regular(A, a, b)):
            return a, b
    raise PairNotFound("no filter-regular pair among the tried candidates")


def _pair_candidates(q, seed):
    """The ordered pairs of q's generators, then 20 seeded rounds of
    (f, g) and (g, f) for f, g random combinations of each degree's
    generators, when there are two or more, drawn only once reached."""
    yield from permutations(q.gens, 2)
    rng = random.Random(seed)
    by_deg = {}
    for g in q.gens:
        by_deg.setdefault(g.degree(), []).append(g)
    A = q.owner
    of = A.field.of
    for _ in range(20):
        for _, group in sorted(by_deg.items()):
            if len(group) < 2:
                continue
            f = g = A.ambient.zero
            for h in group:
                f = f + h.scale(of(rng.randrange(1, 100)))
                g = g + h.scale(of(rng.randrange(1, 100)))
            yield f, g
            yield g, f


# everything the decision procedure needs about A~ and the conductor: the
# fraction numerators g_j, not in aA, give g_j/a generating A~ over A, and
# h1_module presents (aA : b)/aA, None when it is zero
S2Data = namedtuple("S2Data", "pair h1_length conductor fraction_numerators "
                              "h1_module")


def s2_construct(A, pair):
    """Assemble S2Data for a validated filter-regular pair; the conductor
    J : (J : b) is the annihilator of the presented H^1 = (J : b)/J."""
    a, b = pair
    graph = A.colon_graph((a,), b)
    J = graph.base
    h1_length = _h1_length(A, a, b)
    if h1_length == INFINITE:
        raise HypothesisNotVerified("first cohomology has infinite length")
    numerators = [g for g in graph.ideal.gb() if not J.contains(g)]
    conductor, h1_mod = A.unit_ideal(), None
    if h1_length:
        # the numerators, outside J, generate (J : b)/J
        F = FreeModule(A.ambient, 1)
        h1_mod = subquotient(F, as_vecs(numerators, F),
                             as_vecs(J.preimage_gens(), F))
        crosscheck("length of the first cohomology by its presentation "
                   "and by the exact sequence", h1_mod.length(), h1_length)
        conductor = rings.Ideal.from_basis(A, h1_mod.annihilator_gens())
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
        # the colon ideal as a P-module, its preimage modulo I
        F = FreeModule(A.ambient, 1)
        colon_module = subquotient(
            F, as_vecs(A.colon_graph((a,), b).ideal.gb(), F),
            as_vecs(A.defining, F))
        crosscheck("cohomology profile and the CM test for the overring",
                   colon_module.pd() == n - d, verdict)
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


def is_standard_parameters(q, profile, data):
    """q is standard iff q is inside the conductor, under the profile."""
    if not profile.verdict:
        raise HypothesisNotVerified(
            "standardness test requires the cohomology hypothesis")
    # for a standard q the colon module realizes the first cohomology;
    # a length mismatch against the duality route certifies non-standard q
    if profile.ext_lengths.get(1, 0) != data.h1_length:
        return False
    return data.conductor.contains_ideal(q)
