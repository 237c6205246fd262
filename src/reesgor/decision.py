"""Decision procedures for Gorensteinness of the Rees algebra of a power
of a parameter ideal: the two criteria routes with consequence checks,
the dimension-two Shimoda test, and the Buchsbaum multiplicity test.
"""

from collections import namedtuple

from .errors import DepthNotOne, HypothesisNotVerified, WrongDimension
from .hilbert import INFINITE
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


def prepare(A, q, seed=0):
    """Shared certificate inputs for both condition routes and the s2
    command: (d, pair, profile, data), each hypothesis gate run before
    the conductor crosscheck that needs it."""
    d = rings.check_parameters(q)
    pair = s2.filter_regular_pair(A, q, seed)
    profile = s2.hypothesis_profile(A, pair=pair)
    if not profile.verdict:
        raise HypothesisNotVerified("cohomology hypothesis fails for A")
    data = s2.s2_construct(A, pair)
    if not s2.is_standard_parameters(A, q, profile=profile, data=data):
        raise HypothesisNotVerified("q is not a standard parameter ideal")
    s2.conductor_crosscheck(A, data)
    return d, pair, profile, data


def decide_condition2(A, q, prepared):
    """First cohomology nonzero with simple socle, and c equals the
    colon-sum ideal of the parameters.  `prepared` is `prepare(A, q)`."""
    d, pair, profile, data = prepared
    h1_nonzero = data.h1_length > 0
    socle = s2.h1_socle(A, data) if h1_nonzero else 0
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


def decide_condition3(A, q, prepared):
    """Depth one, type one, the multiplicity equation for the conductor,
    and q a reduction of the conductor.  `prepared` is `prepare(A, q)`.
    When q reduces c, e_c = e_q (Northcott-Rees) is read off the Hilbert
    series of A; otherwise it comes from the difference scheme."""
    d, pair, profile, data = prepared
    rep = invariants.depth_and_type(A)
    depth_is_1 = rep.depth == 1
    type_is_1 = rep.type == 1
    c = data.conductor
    if data.h1_length == 0:
        # conductor is the unit ideal; the depth test already fails
        e_c = len_c = red = None
        mult_eq = red_found = False
    else:
        red, e_c = invariants.reduction_multiplicity(A, q, c)
        red_found = red != invariants.NOT_FOUND
        len_c = invariants.artinian_length(A, c)
        mult_eq = (e_c == 2 * len_c)
    verdict = depth_is_1 and type_is_1 and mult_eq and red_found
    return {
        "depth_is_1": depth_is_1,
        "type_is_1": type_is_1,
        "e_c": e_c,
        "len_a_mod_c": len_c,
        "multiplicity_equation": mult_eq,
        "reduction_number": red,
        "verdict": verdict,
    }


def _consequences(A, q, data):
    """Checks that must hold whenever the verdict is true."""
    a, _ = data.pair
    # a_i * (A~ generators): a_i itself (a/a) and each a_i * g_j / a
    products = [[ai] + [rings.ring_division(A.reduce(ai * g), a, A)
                        for g in data.fraction_numerators]
                for ai in q.gens]
    # contraction of q*A~ to A
    contraction = A.ideal([g for row in products for g in row])
    c_equals_qatilde = rings.ideals_equal(data.conductor, contraction)
    len_eq = (data.h1_length == invariants.artinian_length(A, data.conductor))
    # the Artinian quotient by (a_1..a_{d-1})A~ * A + a_d A
    proj_gens = [q.gens[-1]] + [g for row in products[:-1] for g in row]
    proj_gorenstein = invariants.artinian_gorenstein(A, A.ideal(proj_gens))
    return {
        "c_equals_qatilde": c_equals_qatilde,
        "h1_length_equals_len_a_mod_c": len_eq,
        "artinian_proj_gorenstein": proj_gorenstein,
    }


def decide(A, q, run_oracle=False, seed=0, length_cap=None):
    """Full decision: both criteria, agreement assertion, consequence
    suite on a true verdict, and optionally the resolution oracle, whose
    resolution length_cap bounds."""
    prepared = prepare(A, q, seed)
    d, pair, profile, data = prepared
    cond2 = decide_condition2(A, q, prepared)
    cond3 = decide_condition3(A, q, prepared)
    verdict = errors.crosscheck("condition (2) and condition (3) verdicts",
                                cond2["verdict"], cond3["verdict"])
    consequences = oracle_verdict = None
    if verdict:
        consequences = _consequences(A, q, data)
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
        third = invariants.artinian_gorenstein(A, A.ideal(third_gens))
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
    """Multiplicity-two test: e_m(A) = 2 and q a reduction of m.

    e_q, read off the Hilbert series of A, is crosschecked against the
    length of A/b and is e_m when q reduces m; otherwise e_m comes from the
    difference scheme.  The Buchsbaum property of A itself is a caller
    assertion and is not machine-verified, but its necessary condition
    that H^i_m(A), dual to Ext^(n-i)(A, omega), has finite length for
    every i < d is tested first.
    """
    rep = invariants.depth_and_type(A)
    if rep.depth != 1:
        raise DepthNotOne("the multiplicity criterion needs depth 1")
    d = rings.check_parameters(q)
    if any(A.ext(A.ambient.n - i).length() == INFINITE for i in range(d)):
        raise HypothesisNotVerified("local cohomology below dim A has "
                                    "infinite length: A is not Buchsbaum")
    red, e_m = invariants.reduction_multiplicity(A, q, A.maximal_ideal())
    e_q = invariants.parameter_multiplicity(A, q)
    head, last = q.gens[:-1], q.gens[-1]
    col = rings.colon(A.ideal(head), last)
    b_ideal = A.ideal([*col.gens, last])
    len_b = invariants.artinian_length(A, b_ideal)
    errors.crosscheck("multiplicity of q and the length of A/b", e_q, len_b)
    verdict = (e_m == 2) and red != invariants.NOT_FOUND
    return BuchsbaumReport(e_m, red, b_ideal, len_b, verdict)
