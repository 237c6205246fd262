"""reesgor benchmark: one command per workload run.

    python3 perfbench/run.py --workload corpus_check --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
`src/`.  Workloads (see BENCHMARK.json and perfbench/design.json):

- corpus_check  cold, GF(32003): `decide(A, q, run_oracle=True)` per input
- power_oracle  cold, GF(32003): `rees_presentation` and
                `graded_gorenstein_oracle` at n = 2, 3 and 4
- session_qq    warm, char 0: the README library session in one process

Inputs are generated from --seed by `families` as rounds of tasks; every
output is checked against closed-form expectations.  With --trace 0 the
run executes round(--seconds / round_s) whole rounds in cyclic order,
where round_s is the workload's round time at the seed version, so every
run of the same --seconds does the same work and pools the same number of
samples whatever the host's speed; it reports the end-to-end metrics,
with times scaled to a reference host speed measured around and inside
every operation (see calibrate).  With --trace 1 it runs a shorter plan
once untraced and once traced, and reports the per-layer metrics and the
tracing overhead; the spans go to perfbench/out/.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import calibrate    # noqa: E402  (stdlib-only modules of the benchmark)
import harness      # noqa: E402
import layertrace   # noqa: E402

SETUP_PROBES = 11
# a timed run samples the host speed this often inside an operation
TICK_S = 1.0
PROBE_TIMEOUT_S = 30.0
# every child is killed once the run is this old, so the run always ends
# well inside three minutes
HARD_LIMIT_S = 150.0

END_TO_END = (("solve_s.p50", "s"), ("solve_s.tail", "s"),
              ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_EXTRA = (("trace.ops_per_s_untraced", "1/s"),
               ("trace.ops_per_s_traced", "1/s"),
               ("trace.overhead_ops_per_s", "1/s"))


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus_check", "power_oracle", "session_qq"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p


def _cases(rounds):
    seen = {}
    for task in (task for tasks in rounds for task in tasks):
        case = task[0] if isinstance(task, tuple) else task
        seen[id(case)] = case
    return list(seen.values())


def setup_probe(workload, seed):
    """Import reesgor, generate the run's documents and build them all."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    wl = workloads.WORKLOADS[workload]
    for case in _cases(wl.plan(seed)):
        workloads.build(case)
    setup = time.perf_counter() - t0
    print(repr(setup), repr(calibrate.reference_s()))
    return 0


def _setup_seconds(workload, seed):
    """Set-up time of SETUP_PROBES fresh interpreters, each scaled by the
    host-speed reference the interpreter takes right after it."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        setup, ref_s = map(float, proc.stdout.split()[-2:])
        out.append(setup * calibrate.factor(ref_s))
    return out


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _report_failures(run):
    bad = [r["bad"] for r in run.records if r["bad"]]
    for reasons in bad[:5]:
        print("  FAILED: %s" % "; ".join(reasons))
    if run.aborted:
        print("  run stopped early: %s" % run.aborted)


def timed(wl, rounds, args, hard_deadline):
    setup = _setup_seconds(args.workload, args.seed)
    n_rounds = harness.timed_rounds(rounds, wl.rounds_for(args.seconds))
    runs = harness.run_rounds(wl, rounds, n_rounds,
                              hard_deadline=hard_deadline, tick_s=TICK_S)
    s = harness.summarize(runs)
    metrics = {
        "solve_s.p50": (s["p50"] or 0.0, "s"),
        "solve_s.tail": (s["tail"] or 0.0, "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    print("workload %s, seed %d: %d rounds, %d operations in %.2f s; "
          "host speed factor %.3f (median), unscaled p50 %.6g s and "
          "%.6g ops per wall second"
          % (args.workload, args.seed, len(runs), s["attempted"],
             sum(r.wall_s for r in runs), s["host_factor"] or 0.0,
             s["raw_p50"] or 0.0, s["raw_ops_per_s"]))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "solve_s.tail" and s["tail_pct"] is not None:
            note = "  (p%.1f of %d samples)" % (s["tail_pct"], s["samples"])
        elif name == "setup_s":
            note = "  (median of %d fresh interpreters)" % len(setup)
        print("%-14s %.6g %s%s" % (name, value, unit, note))
    print("%-14s %.6g  (%d of %d)" % (
        "failed_frac", s["failed"] / s["attempted"], s["failed"],
        s["attempted"]))
    for run in runs:
        _report_failures(run)
    return _result(s["failed"] == 0, s["attempted"], s["failed"], metrics)


def traced(wl, args, hard_deadline):
    """The traced plan once untraced, then once traced."""
    rounds = wl.plan(args.seed, traced=True)
    plain = harness.run_rounds(wl, rounds, len(rounds),
                               hard_deadline=hard_deadline)
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.collect = wl.collect
    try:
        runs = harness.run_rounds(wl, rounds, len(rounds), tracer=tracer,
                                  hard_deadline=hard_deadline)
    finally:
        tracer.uninstall()
    stats = {}
    spans = []
    for rec in (rec for run in runs for rec in run.records):
        layertrace.merge(stats, rec.get("stats", {}))
        spans.extend(rec.get("spans", []))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["op", "span", "parent", "name", "start",
                              "end"], "spans": spans}, fh)
    metrics = {name: (m["value"], m["unit"])
               for name, m in layertrace.layer_metrics(stats).items()}
    untraced = harness.summarize(plain)
    traced_ = harness.summarize(runs)
    metrics["trace.ops_per_s_untraced"] = (untraced["ops_per_s"], "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_["ops_per_s"], "1/s")
    metrics["trace.overhead_ops_per_s"] = (
        traced_["ops_per_s"] - untraced["ops_per_s"], "1/s")
    attempted = untraced["attempted"] + traced_["attempted"]
    failed = untraced["failed"] + traced_["failed"]
    print("workload %s, seed %d: %d operations untraced (%.2f s) and traced "
          "(%.2f s), %d spans written to %s"
          % (args.workload, args.seed, untraced["attempted"],
             sum(r.wall_s for r in plain), sum(r.wall_s for r in runs),
             len(spans), os.path.relpath(path, ROOT)))
    for name, (value, unit) in metrics.items():
        if value:
            print("%-52s %.6g %s" % (name, value, unit))
    for run in plain + runs:
        _report_failures(run)
    return _result(failed == 0, attempted, failed, metrics)


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print("cannot import reesgor from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced(wl, args, hard_deadline)
    else:
        result = timed(wl, wl.plan(args.seed), args, hard_deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
