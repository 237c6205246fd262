"""Numerical invariants of a presented graded ring at the irrelevant ideal:
dimension, depth, type, Artinian lengths, Hilbert-Samuel multiplicities
(from the Hilbert series for parameter ideals), reduction numbers, and the
Artinian Gorenstein test.
"""

from collections import namedtuple
from math import prod

from .errors import NoStabilization, NotArtinian, NotContained, crosscheck
from . import idealops
from .groebner import as_vecs, reducer
from .hilbert import INFINITE, finite_length, hilbert
from .modules import FreeModule
from .resolutions import ModulePresentation
from . import rings

NOT_FOUND = "NOT_FOUND"
MULTIPLICITY_STEPS = 30     # the most powers of J `multiplicity` forms
MAX_REDUCTION_NUMBER = 10   # the largest r `is_reduction` tries


# dim/depth/pd/CM classification of a ring, with its type when defined
InvariantReport = namedtuple("InvariantReport", "dim depth pd cm type")


def depth_and_type(A, length_cap=None):
    """Depth via Auslander-Buchsbaum on the Betti numbers of A over P.

    For CM rings the type is the last Betti number.  For
    depth-1 non-CM rings the type r_A(A) = dim Soc H^1_m(A) is the minimal
    generator count of Ext^{n-1}_P(A, omega_P), the Matlis dual of H^1:
    duality turns the socle of H^1 into the generators of its dual.
    """
    amb = A.ambient
    res = A.resolution(length_cap)
    pd = res.pd
    depth = amb.n - pd
    dim = A.dim()
    cm = (dim == depth)
    ring_type = None
    if cm:
        ring_type = res.betti()[-1] if pd > 0 else 1
    elif depth == 1:
        ring_type = A.ext(amb.n - 1).min_generators()
    return InvariantReport(dim, depth, pd, cm, ring_type)


def artinian_length(J):
    """Length of A/J, A the ring of J, for an Artinian quotient, read off
    J's memoized Hilbert numerator."""
    l = finite_length(J.hilbert_numerator(), J.owner.weights)
    if l == INFINITE:
        raise NotArtinian("A/J has positive dimension")
    return l


def multiplicity(J):
    """Hilbert-Samuel multiplicity e_J(A), A the ring of J, by d-th
    difference stabilization.

    Computes l(A/J^n) for n = 1, 2, ... and returns the d-th finite
    difference once three consecutive values agree (d = dim A).  Each
    power is kept as the reduced basis of J^n + I, and the next one is
    J * (J^n + I) + I.
    """
    if J.quotient_dim() != 0:
        raise NotArtinian("multiplicity needs an m-primary ideal")
    A = J.owner
    d = A.dim()
    lengths = []
    power = J.gb()
    streak = []
    for n in range(1, MULTIPLICITY_STEPS + 1):
        l = idealops.ideal_length(A.ambient, power)
        if l == INFINITE:
            raise NotArtinian("power of J is not m-primary")
        lengths.append(l)
        if len(lengths) >= d + 1:
            diffs = list(lengths)
            for _ in range(d):
                diffs = [y - x for x, y in zip(diffs, diffs[1:])]
            streak.append(diffs[-1])
            if len(streak) >= 3 and streak[-1] == streak[-2] == streak[-3]:
                return streak[-1]
        power = idealops.ideal_product(power, J.gens, A.gb())
    raise NoStabilization("difference scheme did not settle within %d steps"
                          % MULTIPLICITY_STEPS)


def parameter_multiplicity(q):
    """e_q(A) for a homogeneous system of parameters q of A, with no power
    of q: e_q(A) = chi(q; A) = (prod_i deg q_i) * lim_{t->1} (1-t)^d H_A(t)
    (Serre, Algebre locale, multiplicites), the limit read by `hilbert`
    exactly."""
    rings.check_parameters(q)
    A = q.owner
    chi = (hilbert(A.hilbert_numerator(), A.weights)[1]
           * prod(f.degree() for f in q.gens))
    return crosscheck("chi(q; A) is an integer", int(chi), chi)


def is_reduction(q, c):
    """Least r with c^(r+1) = q * c^r, or NOT_FOUND.

    Requires q contained in c (as ideals of their common ring), so the
    test is c * (c^r + I) in q c^r + I, by the products c_i * h for h in
    the basis of c^r + I against that of q c^r + I (q.gb() at r = 0).
    c^(r+1) + I (c.gb() at r = 0) and q c^(r+1) + I are formed on failure.
    """
    if not c.contains_ideal(q):
        raise NotContained("q is not contained in c")
    A = q.owner
    c_pow = [A.ambient.one]  # c^0 + I
    q_side = q.gb()
    for r in range(MAX_REDUCTION_NUMBER + 1):
        nf = reducer(q_side)
        if all(nf(g * h).is_zero() for g in c.gens for h in c_pow):
            return r
        c_pow = (idealops.ideal_product(c_pow, c.gens, A.gb()) if r
                 else c.gb())
        q_side = idealops.ideal_product(c_pow, q.gens, A.gb())
    return NOT_FOUND


def reduction_multiplicity(q, c):
    """(r, e_c(A)) for a parameter ideal q inside c, r as `is_reduction`
    gives it.  When q reduces c, e_c = e_q (Northcott-Rees) is read off
    the Hilbert series of A; otherwise it comes from the difference
    scheme."""
    red = is_reduction(q, c)
    return red, (parameter_multiplicity(q) if red != NOT_FOUND
                 else multiplicity(c))


def artinian_gorenstein(J):
    """True iff the Artinian ring A/J, A the ring of J, is Gorenstein: the
    socle of A/J, the cokernel of the basis of J's preimage, is
    one-dimensional.  NotArtinian when A/J has positive dimension."""
    F = FreeModule(J.owner.ambient, 1)
    return ModulePresentation(F, as_vecs(J.gb(), F)).socle_dim() == 1
