"""The two criteria, their agreement, and the Shimoda and Buchsbaum
variants."""

import pytest

from reesgor import corpus, decision, invariants, modules, oracle, rings, s2
from reesgor.errors import (DepthNotOne, HypothesisNotVerified,
                            NotParameters, OwnerMismatch, WrongDimension)
from reesgor.fields import GF, DEFAULT_PRIME
from reesgor.polys import PolyRing

from reference import count_calls

F = GF(DEFAULT_PRIME)

VERDICTS = {
    "hochster_roberts": True,
    "two_planes": True,
    "idealization_xy": True,
    "idealization_x2y3": True,
    "regular_base": False,
}


def test_decide_on_corpus(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        report = decision.decide(A, q)
        assert report.verdict == VERDICTS[name], name
        assert report.cond2["verdict"] == report.cond3["verdict"], name


def test_decide_certificate_hochster_roberts(hr):
    A, q = hr
    report = decision.decide(A, q)
    assert report.verdict
    assert report.d == 2
    assert report.h1_length == 1
    assert report.h1_socle == 1
    assert rings.ideals_equal(report.conductor, A.maximal_ideal())
    assert rings.ideals_equal(report.sigma, report.conductor)
    assert report.cond3["e_c"] == 2
    assert report.cond3["len_a_mod_c"] == 1
    assert report.cond3["reduction_number"] == 1


def test_decide_consequences_on_true_verdicts(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        if not VERDICTS[name]:
            continue
        report = decision.decide(A, q)
        assert report.consequences is not None, name
        assert all(report.consequences.values()), (name, report.consequences)


def test_decide_negative_control(regular_base):
    A, q = regular_base
    report = decision.decide(A, q)
    assert not report.verdict
    assert report.h1_length == 0
    assert not report.cond2["h1_nonzero"]
    assert not report.cond3["depth_is_1"]
    assert report.cond3["e_c"] is None


def test_decide_rejects_non_parameters(two_planes):
    A, _ = two_planes
    x, y, u, v = A.gens()
    with pytest.raises(NotParameters):
        decision.decide(A, A.ideal([A.reduce(x + u), y]))


def test_decide_rejects_non_standard_parameters(ideal_x2y3):
    A, _ = ideal_x2y3
    with pytest.raises(HypothesisNotVerified):
        decision.decide(A, A.ideal([A.gen(0), A.gen(1)]))


def test_decide_with_oracle_agrees(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        report = decision.decide(A, q, run_oracle=True)
        assert report.oracle_verdict == report.verdict, name


# -- Shimoda ---------------------------------------------------------------

def test_shimoda_matches_decide_in_dimension_two(corpus_instances):
    for name, (A, q) in corpus_instances.items():
        if len(q.gens) != 2:
            continue
        rep = decision.shimoda_check(A, q.gens[0], q.gens[1])
        assert rep["verdict"] == VERDICTS[name], name


def test_shimoda_clauses_on_hochster_roberts(hr):
    A, q = hr
    rep = decision.shimoda_check(A, q.gens[0], q.gens[1])
    assert rep["nonzerodivisors"]
    assert rep["colon_intersection"]
    assert rep["artinian_gorenstein"]


def test_shimoda_negative_on_the_plane(regular_base):
    A, q = regular_base
    rep = decision.shimoda_check(A, q.gens[0], q.gens[1])
    assert not rep["verdict"]
    assert not rep["artinian_gorenstein"]   # socle dimension 2 quotient


def test_shimoda_zerodivisor_fails_first_clause():
    # a plane with an embedded nilpotent direction: x + z kills z
    amb = PolyRing(("x", "y", "z"), (1, 1, 1), F)
    x, y, z = amb.gens()
    A = rings.PresentedGradedRing(amb, [z * z, x * z])
    rep = decision.shimoda_check(A, A.reduce(x + z), y)
    assert not rep["nonzerodivisors"]
    assert not rep["verdict"]


def test_shimoda_needs_dimension_two():
    A = rings.PresentedGradedRing(PolyRing(("x", "y", "z"), (1, 1, 1), F), [])
    with pytest.raises(WrongDimension):
        decision.shimoda_check(A, A.gen(0), A.gen(1))


# -- Buchsbaum -------------------------------------------------------------

def test_buchsbaum_two_planes(two_planes):
    A, q = two_planes
    rep = decision.buchsbaum_criterion(A, q)
    assert rep.e_m == 2
    assert rep.reduction_number == 1
    assert rep.len_b == 2
    assert rep.verdict
    assert decision.decide(A, q).verdict == rep.verdict


def test_paper_example_in_dimension_three():
    """k[x,y,z] x (x,y,z): Buchsbaum of depth one and multiplicity two,
    so R(q^3) is Gorenstein (criteria route only)."""
    A, q = corpus.build_idealization(("x", "y", "z"), (1, 1, 1),
                                     ("x", "y", "z"))
    report = decision.decide(A, q)
    assert report.verdict is True
    assert report.cond3["e_c"] == 2
    assert report.cond3["len_a_mod_c"] == 1
    assert report.cond3["reduction_number"] == 1
    rep = decision.buchsbaum_criterion(A, q)
    assert rep.e_m == 2
    assert rep.verdict


def test_buchsbaum_rejects_non_parameters(two_planes):
    A, _ = two_planes
    x, y, u, v = A.gens()
    with pytest.raises(NotParameters):
        decision.buchsbaum_criterion(A, A.ideal([A.reduce(x + u), y]))


def test_buchsbaum_needs_depth_one(regular_base):
    A, q = regular_base
    with pytest.raises(DepthNotOne):
        decision.buchsbaum_criterion(A, q)


def test_decide_resolves_the_ring_once(monkeypatch):
    from reesgor import cli, s2
    calls = {}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(rings, "resolve_quotient_ring")
    counting(rings, "ext_dualizing")
    counting(s2, "h1_socle")
    A, q = corpus.build_hochster_roberts()
    first = cli._report_pairs(decision.decide(A, q))
    assert calls == {"resolve_quotient_ring": 1, "ext_dualizing": 2,
                     "h1_socle": 1}
    calls.clear()
    second = cli._report_pairs(decision.decide(A, q))
    assert calls.get("resolve_quotient_ring", 0) == 0
    assert calls.get("ext_dualizing", 0) == 0
    assert second == first


def test_true_verdict_forms_no_multiplicity_by_differences(monkeypatch):
    """A true verdict has q reducing the conductor, so e_c comes from the
    Hilbert series of A.  No `decide` or `buchsbaum_criterion` call runs
    the difference scheme at all: on every corpus ring the Buchsbaum test
    reads its premises off decide's certificate, and a premise that fails
    raises (the CLI tests cover rings where q does not reduce m)."""
    calls = count_calls(monkeypatch, invariants.multiplicity)
    unmet = {"regular_base": DepthNotOne,
             "idealization_x2y3": HypothesisNotVerified}
    for name in sorted(corpus.EXAMPLES):
        A, q = corpus.EXAMPLES[name]()
        report = decision.decide(A, q)
        assert report.verdict == (name != "regular_base"), name
        if report.verdict:
            assert report.cond3["e_c"] == 2 * report.cond3["len_a_mod_c"]
        if name in unmet:
            with pytest.raises(unmet[name]):
                decision.buchsbaum_criterion(A, q)
        else:
            assert decision.buchsbaum_criterion(A, q).e_m == 2, name
    assert calls == []


def test_decide_computes_the_quotient_dimension_of_q_once(monkeypatch):
    """`prepare` and `sigma_tilde` both test q as a system of parameters,
    and both read q's memo: one `decide` computes the Hilbert numerator
    of A/q, and from it dim A/q, once."""
    real = rings.hilbert_numerator
    computed = []

    def recording(exps, weights):
        computed.append(sorted(exps))
        return real(exps, weights)

    monkeypatch.setattr(rings, "hilbert_numerator", recording)
    A, q = corpus.EXAMPLES["hochster_roberts"]()
    assert decision.decide(A, q).verdict
    assert computed.count(sorted(g.lead_exp() for g in q.gb())) == 1


def _input_key(value):
    """A hashable picture of a graph-basis, colon or syzygy input."""
    if isinstance(value, (list, tuple)):
        return tuple(_input_key(v) for v in value)
    return getattr(value, "terms", value)


def test_decide_builds_each_graph_basis_once(monkeypatch):
    """A criteria-only `decide` runs Buchberger on no input twice, on
    every corpus ring with H^1 != 0: the basis of J = (a) + I comes from
    the base of the pair's memoized colon graph, the conductor from the
    H^1 presentation, and the regularity tests and the divisions from
    the ring's memoized colon graphs."""
    import sys
    from reesgor import modules
    seen = {}

    def recording(name):
        fn = getattr(modules, name)

        def wrapper(*args, **kwargs):
            key = (name, _input_key(args))
            seen[key] = seen.get(key, 0) + 1
            return fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("reesgor"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)

    for name in ("module_buchberger", "module_syzygies"):
        recording(name)
    repeated, built = [], set()
    for name in ("hochster_roberts", "two_planes", "idealization_xy",
                 "idealization_x2y3", "idealization_xyz"):
        for char in (32003, 0, 2, 3):
            A, q, _ = corpus.example_document(name).build(char_override=char)
            seen.clear()
            report = decision.decide(A, q)
            assert report.verdict and report.h1_length > 0, (name, char)
            repeated += [(name, char, key[0], n)
                         for key, n in seen.items() if n > 1]
            built.update(key[0] for key in seen)
    # the module presentations read their columns off `colon_basis`, so
    # no syzygy module is built on its own
    assert built == {"module_buchberger"}
    assert not repeated, repeated


# (ring, parameters of another ring) pairs: two_planes and the
# idealization k[x,y] x (x,y) share the ambient ring k[x,y,u,v];
# hochster_roberts and regular_base do not
CROSS_RING = {
    "decide": (lambda A, q: decision.decide(A, q),
               "two_planes", "idealization_xy"),
    "filter_regular_pair": (lambda A, q: s2.filter_regular_pair(A, q),
                            "two_planes", "idealization_xy"),
    "n_neq_d_suite": (lambda A, q: oracle.n_neq_d_suite(A, q, 2, (2,)),
                      "two_planes", "idealization_xy"),
    "buchsbaum_criterion": (lambda A, q: decision.buchsbaum_criterion(A, q),
                            "two_planes", "idealization_xy"),
    "rees_presentation": (lambda A, q: oracle.rees_presentation(A, q, 2),
                          "hochster_roberts", "regular_base"),
    "rees_presentation_reversed": (
        lambda A, q: oracle.rees_presentation(A, q, 2),
        "regular_base", "hochster_roberts"),
}


@pytest.mark.parametrize("case", sorted(CROSS_RING))
def test_entry_points_refuse_parameters_of_another_ring(monkeypatch, case):
    """An entry point handed A beside q checks that q is an ideal of A
    before any Groebner work; fresh rings, so no memo hides the work."""
    call, ring_name, params_name = CROSS_RING[case]
    A, _ = corpus.EXAMPLES[ring_name]()
    _, q = corpus.EXAMPLES[params_name]()
    runs = count_calls(monkeypatch, modules.module_buchberger)
    with pytest.raises(OwnerMismatch):
        call(A, q)
    assert runs == []


def test_ring_built_twice_from_one_document_passes_the_check():
    """Rings built twice from one document are equal, so each one's
    parameters are parameters of the other; the work goes on in q's
    ring, whose memos serve both calls."""
    A, _ = corpus.EXAMPLES["two_planes"]()
    B, q = corpus.EXAMPLES["two_planes"]()
    assert A is not B and A == B
    assert rings.check_owner(A, q) is B
    report = decision.decide(A, q)
    assert report.verdict and report.ring is B
    assert oracle.rees_presentation(A, q, 2).ring.dim() == 3
