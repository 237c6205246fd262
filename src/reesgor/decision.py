"""Decision procedures for Gorensteinness of the Rees algebra of a power
of a parameter ideal: the two criteria routes with consequence checks,
the dimension-two Shimoda test, and the Buchsbaum multiplicity test.
"""

from collections import namedtuple

from .errors import DepthNotOne, HypothesisNotVerified, WrongDimension
from . import errors, invariants, rings, s2


# full certificate of the criteria evaluation for (A, q): cond2 and cond3
# are the dicts of `decide_condition2` and `decide_condition3`,
# consequences is None unless the verdict is true and oracle_verdict None
# unless the oracle ran
DecisionReport = namedtuple(
    "DecisionReport", "ring q d profile standard h1_length h1_socle "
                      "conductor sigma cond2 cond3 consequences "
                      "oracle_verdict verdict")

BuchsbaumReport = namedtuple(
    "BuchsbaumReport", "e_m reduction_number b_ideal len_b verdict")


def prepare(q, seed=0):
    """Shared certificate inputs for both condition routes and the s2
    command: (d, profile, data), each hypothesis gate run before the
    conductor crosscheck that needs it; data.pair is the parameter pair."""
    A = q.owner
    d = rings.check_parameters(q)
    if d < 2:
        raise WrongDimension("the (S2)-ification route needs dim A >= 2")
    pair = s2.filter_regular_pair(A, q, seed)
    profile = s2.hypothesis_profile(A, pair=pair)
    if not profile.verdict:
        raise HypothesisNotVerified("cohomology hypothesis fails for A")
    data = s2.s2_construct(A, pair)
    if not s2.is_standard_parameters(q, profile=profile, data=data):
        raise HypothesisNotVerified("q is not a standard parameter ideal")
    s2.conductor_crosscheck(A, data)
    return d, profile, data


def decide_condition2(q, data):
    """First cohomology nonzero with simple socle, and c equals the
    colon-sum ideal of the parameters.  `data` is the (S2)-ification data
    of `prepare(q)`."""
    h1_nonzero = data.h1_length > 0
    socle = s2.h1_socle(q.owner, data) if h1_nonzero else 0
    socle_is_1 = socle == 1
    sigma = rings.sigma_tilde(q)
    c_equals_sigma = rings.ideals_equal(data.conductor, sigma)
    verdict = h1_nonzero and socle_is_1 and c_equals_sigma
    return {
        "h1_nonzero": h1_nonzero,
        "socle_is_1": socle_is_1,
        "c_equals_sigma": c_equals_sigma,
        "h1_socle": socle,
        "sigma": sigma,
        "verdict": verdict,
    }


def decide_condition3(q, data):
    """Depth one, type one, the multiplicity equation for the conductor,
    and q a reduction of the conductor.  `data` is the (S2)-ification
    data of `prepare(q)`.  e_c is reported only when q reduces c: then
    e_c = e_q = chi(q; A) (Northcott-Rees), read off the Hilbert series of
    A.  Otherwise, as when H^1 = 0, e_c is None and the verdict false."""
    rep = invariants.depth_and_type(q.owner)
    depth_is_1 = rep.depth == 1
    type_is_1 = rep.type == 1
    e_c = len_c = red = None
    if data.h1_length > 0:   # else c = A, and the depth test fails
        red = invariants.is_reduction(q, data.conductor)
        len_c = invariants.artinian_length(data.conductor)
        if red != invariants.NOT_FOUND:
            e_c = invariants.parameter_multiplicity(q)
    mult_eq = e_c is not None and e_c == 2 * len_c
    verdict = depth_is_1 and type_is_1 and mult_eq
    return {
        "depth_is_1": depth_is_1,
        "type_is_1": type_is_1,
        "e_c": e_c,
        "len_a_mod_c": len_c,
        "multiplicity_equation": mult_eq,
        "reduction_number": red,
        "verdict": verdict,
    }


def _consequences(q, data):
    """Checks that must hold whenever the verdict is true."""
    A = q.owner
    a, _ = data.pair
    # a_i * (A~ generators): a_i itself (a/a) and each a_i * g_j / a
    products = [[ai] + [rings.ring_division(A.reduce(ai * g), a, A)
                        for g in data.fraction_numerators]
                for ai in q.gens]
    # contraction of q*A~ to A
    contraction = A.ideal([g for row in products for g in row])
    c_equals_qatilde = rings.ideals_equal(data.conductor, contraction)
    len_eq = (data.h1_length == invariants.artinian_length(data.conductor))
    # the Artinian quotient by (a_1..a_{d-1})A~ * A + a_d A
    proj_gens = [q.gens[-1]] + [g for row in products[:-1] for g in row]
    proj_gorenstein = invariants.artinian_gorenstein(A.ideal(proj_gens))
    return {
        "c_equals_qatilde": c_equals_qatilde,
        "h1_length_equals_len_a_mod_c": len_eq,
        "artinian_proj_gorenstein": proj_gorenstein,
    }


def decide(A, q, run_oracle=False, seed=0, length_cap=None):
    """Full decision: both criteria, agreement assertion, consequence
    suite on a true verdict, and optionally the resolution oracle, whose
    resolution length_cap bounds."""
    A = rings.check_owner(A, q)
    d, profile, data = prepare(q, seed)
    cond2 = decide_condition2(q, data)
    cond3 = decide_condition3(q, data)
    verdict = errors.crosscheck("condition (2) and condition (3) verdicts",
                                cond2["verdict"], cond3["verdict"])
    consequences = oracle_verdict = None
    if verdict:
        consequences = _consequences(q, data)
        errors.crosscheck("consequence checks on a true verdict",
                          consequences, dict.fromkeys(consequences, True))
    if run_oracle:
        from . import oracle
        rp = oracle.rees_presentation(A, q, d)
        o = oracle.graded_gorenstein_oracle(rp, length_cap=length_cap)
        oracle_verdict = errors.crosscheck(
            "oracle and criteria verdicts", o["gorenstein"], verdict)
    return DecisionReport(A, q, d, profile, True, data.h1_length,
                          cond2["h1_socle"], data.conductor, cond2["sigma"],
                          cond2, cond3, consequences, oracle_verdict, verdict)


def shimoda_check(A, a, b):
    """The dimension-two criterion on a parameter pair (a, b)."""
    if A.dim() != 2:
        raise WrongDimension("the pairwise criterion needs dim A = 2")
    q = A.ideal([a, b])
    rings.check_parameters(q)
    regular = A.is_regular_element(a) and A.is_regular_element(b)
    aA, bA = A.ideal([a]), A.ideal([b])
    col_ab = rings.colon(aA, b)
    col_ba = rings.colon(bA, a)
    if regular:
        lhs = rings.intersect(col_ab, col_ba)
        rhs = rings.intersect(aA, bA)
        colon_intersection = rings.ideals_equal(lhs, rhs)
        ab = A.reduce(a * b)
        third_gens = ([ab]
                      + [A.reduce(a * g) for g in col_ab.gens]
                      + [A.reduce(b * g) for g in col_ba.gens])
        third = invariants.artinian_gorenstein(A.ideal(third_gens))
    else:
        colon_intersection = False
        third = False
    verdict = regular and colon_intersection and third
    return {
        "nonzerodivisors": regular,
        "colon_intersection": colon_intersection,
        "artinian_gorenstein": third,
        "verdict": verdict,
    }


def buchsbaum_criterion(A, q):
    """The multiplicity-two corollary: if A is Buchsbaum of depth one with
    e_m(A) = 2 and q reduces m, then R(q^d) is Gorenstein.

    The premises are read off the certificate of `decide(A, q)`, under the
    profile `prepare` verifies (H^0 = 0 = H^i for 1 < i < d): depth one;
    Buchsbaum, i.e. conductor m, as m H^i_m(A) = 0 (i < d) for Buchsbaum
    A and, conversely, "A is Buchsbaum if the canonical maps
    Ext^i_A(k, A) -> H^i_m(A) are surjective for all i < d"
    (Stueckrad-Vogel, Buchsbaum Rings and Applications, ch. I), where
    only i = 1 counts and H^0 = 0 makes that map the inclusion of the
    socle of H^1; q reduces m; and e_m = e_q = 2.  A failed premise raises
    DepthNotOne or HypothesisNotVerified.  When all hold, decide's verdict
    must be true, and e_q must equal the length of A/b, b the ideal
    (q_1..q_{d-1}) : q_d + (q_d).
    """
    rep = decide(A, q)
    A, red, e_m = rep.ring, rep.cond3["reduction_number"], rep.cond3["e_c"]
    if not rep.cond3["depth_is_1"]:
        raise DepthNotOne("the multiplicity criterion needs depth 1")
    if not rings.ideals_equal(rep.conductor, A.maximal_ideal()):
        raise HypothesisNotVerified("m does not annihilate H^1: A is not "
                                    "Buchsbaum")
    if red == invariants.NOT_FOUND:
        raise HypothesisNotVerified("q is not a reduction of m")
    col = rings.colon(A.ideal(q.gens[:-1]), q.gens[-1])
    b_ideal = A.ideal([*col.gens, q.gens[-1]])
    len_b = invariants.artinian_length(b_ideal)
    errors.crosscheck("multiplicity of q and the length of A/b", e_m, len_b)
    if e_m != 2:
        raise HypothesisNotVerified("e_m(A) = %d, not 2" % e_m)
    verdict = errors.crosscheck("the multiplicity-two criterion and the "
                                "criteria verdict", True, rep.verdict)
    return BuchsbaumReport(e_m, red, b_ideal, len_b, verdict)
