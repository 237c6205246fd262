"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate   # noqa: E402
import families    # noqa: E402
import harness     # noqa: E402
import layertrace  # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

import reesgor     # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _tiny(name):
    """The named workload on eleven cheap tasks, the fewest a run has."""
    wl = workloads.WORKLOADS[name]
    gf = families.PRIME
    if name == "corpus_check":
        tasks = [families.regular_base(gf)] * 10 \
            + [families.idealization(4, 4, gf)]
    elif name == "power_oracle":
        tasks = [(families.regular_base(gf), n) for n in (2, 3)] * 5 \
            + [(families.idealization(4, 4, gf), 3)]
    else:
        tasks = [families.regular_base(0)] * 10 \
            + [families.idealization3(0)]
    return workloads.Workload(wl.op, wl.warm,
                              lambda seed, traced=False: [tasks],
                              wl.round_s, wl.collect)


def _one_round(name, tasks, tracer=None):
    runs = harness.run_rounds(workloads.WORKLOADS[name], [tasks],
                              n_rounds=1, tracer=tracer,
                              hard_deadline=_deadline())
    assert len(runs) == 1
    return runs[0]


def _args(name):
    return argparse.Namespace(workload=name, seed=3, seconds=0.0)


def _deadline():
    return time.monotonic() + 120


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name):
    wl = _tiny(name)
    result = run.timed(wl, wl.plan(0), _args(name), _deadline())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_SAMPLES
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    wl = _tiny(name)
    first = run.traced(wl, _args(name), _deadline())
    assert first["correct"]
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    second = run.traced(wl, _args(name), _deadline())
    counts = [k for k, unit in _units(first).items() if unit == "count"]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"]


def test_corrupted_expectation_counts_as_failure():
    case = families.idealization(4, 4, families.PRIME)
    case.h1_length += 1
    good = families.regular_base(families.PRIME)
    got = _one_round("corpus_check", [good, case])
    assert got.failed == 1
    assert "h1_length" in got.records[1]["bad"][0]
    assert not got.records[0]["bad"]


def test_corrupted_betti_numbers_count_as_failure_under_tracing():
    case = families.regular_base(families.PRIME)
    case.kind = "depth1"       # expect the depth-one Betti table instead
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.collect = workloads.WORKLOADS["power_oracle"].collect
    try:
        got = _one_round("power_oracle", [(case, 3)], tracer)
    finally:
        tracer.uninstall()
    assert got.failed == 1
    assert any(b.startswith("betti") for b in got.records[0]["bad"])


def test_unexpected_exception_is_a_failure_not_a_crash():
    case = families.regular_base(families.PRIME)
    case.text = "ring broken\nvars x y\nparams x, y\nunknown_directive 1\n"
    got = _one_round("session_qq", [case, families.regular_base(0)])
    assert got.failed == 1 and got.aborted is None
    assert got.records[0]["bad"][0].startswith("InputError")
    assert not got.records[1]["bad"]


def _rec(solve, factor, bad=()):
    return {"solve_s": solve, "busy_s": 1.0 if solve is None else solve,
            "host_factor": factor, "bad": list(bad)}


def test_summary_pools_every_execution_at_reference_speed():
    fast = harness.Run([_rec(float(i), 1.0) for i in range(11)], wall_s=60.0)
    # the same work on a host at half speed: twice the time, host factor
    # one half
    slow = harness.Run([_rec(2.0 * i, 0.5) for i in range(11)]
                       + [_rec(None, 1.0, ["wrong"])], wall_s=125.0)
    s = harness.summarize([fast, slow])
    assert s["samples"] == 22 and s["p50"] == 5.0
    assert (s["tail"], s["tail_pct"]) == (5.0, 100.0 * 12 / 22)
    assert s["ops_per_s"] == 22 / 111.0   # a failed operation's time counts
    assert s["raw_p50"] == 6.5 and s["raw_ops_per_s"] == 22 / 185.0
    assert (s["attempted"], s["failed"]) == (23, 1)


def test_records_carry_the_host_factor():
    got = _one_round("corpus_check",
                     [families.regular_base(families.PRIME)])
    rec = got.records[0]
    assert 0 < rec["solve_s"] <= rec["busy_s"]
    assert rec["host_factor"] > 0 and rec["host_samples"] == 2


def test_sampler_ticks_inside_a_block_and_the_clock_skips_them():
    with calibrate.Sampler(0.05) as host:
        c0, t0 = calibrate.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        c1, t1 = calibrate.clock(), time.perf_counter()
    assert len(host.refs) >= 5
    # every tick inside the loop is left out of the clock
    assert (t1 - t0) - (c1 - c0) >= 0.9 * sum(host.refs[1:-1])
    assert host.host_factor == sum(
        calibrate.REF_S / r for r in host.refs) / len(host.refs)


def test_wrapping_reaches_aliased_bindings_and_is_undone():
    import reesgor.idealops as idealops
    import reesgor.resolutions as resolutions
    plain = idealops.intersect
    assert resolutions.intersect_ideals is plain
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert idealops.intersect is not plain
        assert resolutions.intersect_ideals is idealops.intersect
        assert reesgor.decide_condition2 is reesgor.decision.decide_condition2
        assert reesgor.decision.decide_condition2.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert idealops.intersect is plain
    assert resolutions.intersect_ideals is plain


def test_self_time_excludes_nested_calls():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        A, q = workloads.build(families.regular_base(families.PRIME))
        reesgor.depth_and_type(A)
    finally:
        tracer.uninstall()
    st = tracer.stats["invariants.depth_and_type"]
    assert st["calls"] == 1
    assert 0 <= st["self_s"] < st["total_s"]
    names = {s[3] for s in tracer.spans}
    assert "resolutions.resolve_quotient_ring" in names


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail(list(range(10))) == (None, None)
    assert harness.tail(list(range(11))) == (0, 100.0 / 11)
    assert harness.tail(list(range(20))) == (9, 50.0)


def test_generated_documents_repeat_per_seed():
    for name, wl in workloads.WORKLOADS.items():
        a, b, c = (_cases(wl.plan(s)) for s in (7, 7, 8))
        assert [t.text for t in a] == [t.text for t in b]
        assert [t.text for t in a] != [t.text for t in c]


def test_corpus_check_rounds_cover_every_idealization_size():
    for tasks in workloads.WORKLOADS["corpus_check"].plan(5):
        got = sorted(c.h1_length for c in tasks
                     if c.family == "idealization")
        assert got == sorted(a * b for a, b in families.AB_PAIRS)


def test_power_oracle_round_sweeps_every_family_at_every_power():
    rounds = workloads.WORKLOADS["power_oracle"].plan(5)
    assert len(rounds) == 1
    tasks = rounds[0]
    assert {(c.family, n) for c, n in tasks} == {
        (f, n) for n in workloads.POWERS for f in (
            "hochster_roberts", "regular_base", "two_planes",
            "idealization")}
    got = {c.h1_length for c, _ in tasks if c.family == "idealization"}
    assert got == {a * b for a, b in families.AB_PAIRS}
    # only the n = 4 calls on the three depth-one families and
    # Hochster-Roberts at n = 3 lie above the n = 3 calls
    assert sum(1 for c, n in tasks if n == 3) > len(tasks) // 2 + 10


def test_round_count_follows_seconds_not_host_speed():
    wl = workloads.WORKLOADS["power_oracle"]
    assert wl.rounds_for(0) == 1
    assert wl.rounds_for(2 * wl.round_s) == 2
    tasks = [families.regular_base(families.PRIME)] * 6
    runs = harness.run_rounds(workloads.WORKLOADS["corpus_check"], [tasks],
                              3, hard_deadline=_deadline())
    assert [len(r.records) for r in runs] == [6, 6, 6]


def _cases(rounds):
    return [t[0] if isinstance(t, tuple) else t
            for tasks in rounds for t in tasks]


def test_without_the_library_the_command_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as src:
                (tmp_path / "perfbench" / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
