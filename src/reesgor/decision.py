"""Decision procedures for Gorensteinness of the Rees algebra of a power
of a parameter ideal: the two criteria routes with consequence checks,
the dimension-two Shimoda test, and the Buchsbaum multiplicity test.
"""

from .errors import (DepthNotOne, HypothesisNotVerified, NotParameters,
                     WrongDimension)
from . import errors, invariants, rings, s2


class DecisionReport:
    """Full certificate of the criteria evaluation for (A, q)."""

    def __init__(self, ring, q, d):
        self.ring = ring
        self.q = q
        self.d = d
        self.profile = None
        self.standard = None
        self.h1_length = None
        self.h1_socle = None
        self.conductor = None
        self.sigma = None
        self.cond2 = None        # dict: h1_nonzero, socle_is_1, c_equals_sigma, verdict
        self.cond3 = None        # dict: depth_is_1, type_is_1, e_c, len_a_mod_c,
        #                          multiplicity_equation, reduction_number, verdict
        self.consequences = None
        self.oracle_verdict = None
        self.verdict = None


class BuchsbaumReport:
    def __init__(self, e_m, reduction_number, b_ideal, len_b, verdict):
        self.e_m = e_m
        self.reduction_number = reduction_number
        self.b_ideal = b_ideal
        self.len_b = len_b
        self.verdict = verdict


def _validate_parameters(A, q):
    d = A.dim()
    if len(q.gens) != d or q.quotient_dim() != 0:
        raise NotParameters("q must be generated by a system of parameters")
    return d


def _prepare(A, q, seed=0):
    """Shared certificate inputs for both condition routes."""
    d = _validate_parameters(A, q)
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
    colon-sum ideal of the parameters.  `prepared` is `_prepare(A, q)`."""
    d, pair, profile, data = prepared
    h1_nonzero = data.h1_length > 0
    socle = s2.h1_socle(A, data) if h1_nonzero else 0
    socle_is_1 = socle == 1
    sigma = rings.sigma_tilde(q.gens, A)
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


def decide_condition3(A, q, prepared, r_max=10):
    """Depth one, type one, the multiplicity equation for the conductor,
    and q a reduction of the conductor.  `prepared` is `_prepare(A, q)`."""
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
        e_c = invariants.multiplicity(A, c)
        len_c = invariants.artinian_length(A, c)
        mult_eq = (e_c == 2 * len_c)
        red = invariants.is_reduction(q, c, r_max=r_max)
        red_found = red != invariants.NOT_FOUND
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
    contraction = [g for row in products for g in row]
    c_equals_qatilde = rings.ideals_equal(
        data.conductor, A.ideal([g for g in contraction
                                 if not A.is_zero_element(g)]))
    len_eq = (data.h1_length == invariants.artinian_length(A, data.conductor))
    # the Artinian quotient by (a_1..a_{d-1})A~ * A + a_d A
    proj_gens = [q.gens[-1]] + [g for row in products[:-1] for g in row]
    proj = A.ideal([g for g in proj_gens if not A.is_zero_element(g)])
    proj_gorenstein = invariants.artinian_gorenstein(A, proj)
    return {
        "c_equals_qatilde": c_equals_qatilde,
        "h1_length_equals_len_a_mod_c": len_eq,
        "artinian_proj_gorenstein": proj_gorenstein,
    }


def decide(A, q, run_oracle=False, seed=0):
    """Full decision: both criteria, agreement assertion, consequence
    suite on a true verdict, and optionally the resolution oracle."""
    report = DecisionReport(A, q, A.dim())
    prepared = _prepare(A, q, seed)
    d, pair, profile, data = prepared
    report.d = d
    report.profile = profile
    report.standard = True
    report.h1_length = data.h1_length
    report.conductor = data.conductor
    report.cond2 = decide_condition2(A, q, prepared)
    report.sigma = report.cond2["sigma"]
    report.h1_socle = report.cond2["h1_socle"]
    report.cond3 = decide_condition3(A, q, prepared)
    report.verdict = errors.crosscheck(
        "condition (2) and condition (3) verdicts",
        report.cond2["verdict"], report.cond3["verdict"])
    if report.verdict:
        report.consequences = _consequences(A, q, data)
        errors.crosscheck("consequence checks on a true verdict",
                          report.consequences,
                          dict.fromkeys(report.consequences, True))
    if run_oracle:
        from . import oracle
        rp = oracle.rees_presentation(A, q, d)
        o = oracle.graded_gorenstein_oracle(rp)
        report.oracle_verdict = errors.crosscheck(
            "oracle and criteria verdicts", o["gorenstein"], report.verdict)
    return report


def shimoda_check(A, a, b):
    """The dimension-two criterion on a parameter pair (a, b)."""
    if A.dim() != 2:
        raise WrongDimension("the pairwise criterion needs dim A = 2")
    q = A.ideal([a, b])
    _validate_parameters(A, q)
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
        third_ideal = A.ideal([g for g in third_gens
                               if not A.is_zero_element(g)])
        third = invariants.artinian_gorenstein(A, third_ideal)
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


def buchsbaum_criterion(A, q, r_max=10):
    """Multiplicity-two test: e_m(A) = 2 and q a reduction of m.

    The Buchsbaum property of A itself is a caller assertion and is not
    machine-verified.
    """
    rep = invariants.depth_and_type(A)
    if rep.depth != 1:
        raise DepthNotOne("the multiplicity criterion needs depth 1")
    _validate_parameters(A, q)
    m = A.maximal_ideal()
    e_m = invariants.multiplicity(A, m)
    red = invariants.is_reduction(q, m, r_max=r_max)
    red_found = red != invariants.NOT_FOUND
    head, last = q.gens[:-1], q.gens[-1]
    col = rings.colon(A.ideal(head), last)
    b_ideal = A.ideal([*col.gens, last])
    len_b = invariants.artinian_length(A, b_ideal)
    errors.crosscheck("multiplicity of q and the length of A/b",
                      invariants.multiplicity(A, q), len_b)
    verdict = (e_m == 2) and red_found
    return BuchsbaumReport(e_m, red, b_ideal, len_b, verdict)
