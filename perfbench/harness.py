"""Process isolation, the measuring loop and the end-to-end statistics.

The parent imports reesgor and generates the tasks but never calls into
the library, so it stays cold.  A cold workload runs every operation in a
fresh child forked from that idle parent; a warm workload runs its whole
loop in one forked child, whose module-level caches then carry over from
call to call.  Results come back through a pipe as JSON.  Every child is
waited for; one that outlives its time limit is killed and its operations
count as failed.
"""

import json
import os
import resource
import select
import signal
import statistics
import time
import traceback

import calibrate

# a timed run has at least this many operations, so that a percentile
# with ten samples beyond it exists
MIN_SAMPLES = 11


def in_child(fn, timeout):
    """Run fn() in a forked child; return (its JSON result, error or None)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    chunks = []
    killed = False
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    if killed:
        return None, "killed after %.0f s" % timeout
    if status != 0 or not chunks:
        return None, "child exited with status %d" % status
    return json.loads(b"".join(chunks)), None


def _run_op(op, task, tracer, held, index, tick_s):
    if tracer is not None:
        tracer.reset(index)
    with calibrate.Sampler(tick_s) as host:
        started = calibrate.clock()
        try:
            solve, bad = op(task, tracer, held)
        except Exception as exc:           # an unexpected library error
            solve, bad = None, ["%s: %s" % (type(exc).__name__, exc)]
        busy = calibrate.clock() - started
    out = {"solve_s": solve, "busy_s": busy, "host_factor": host.host_factor,
           "host_samples": len(host.refs), "bad": bad}
    if tracer is not None:
        out["stats"] = tracer.stats
        out["spans"] = tracer.spans
        tracer.reset(index)
    return out


class Run:
    """Per-operation records and wall time of one round."""

    def __init__(self, records=(), wall_s=0.0, aborted=None):
        # one {"solve_s", "busy_s", "host_factor", "bad", ...} per task;
        # busy_s is the whole operation, input building included, and
        # host_factor the host speed measured around and during it (see
        # calibrate)
        self.records = list(records)
        self.wall_s = wall_s
        self.aborted = aborted        # why the run stopped early, if it did

    @property
    def failed(self):
        return sum(1 for r in self.records if r["bad"])

    def correct(self):
        return [r for r in self.records if not r["bad"]]


def timed_rounds(rounds, n_rounds):
    """`n_rounds`, or more if they hold fewer than MIN_SAMPLES operations,
    so that a timed run always has a tail."""
    n = n_rounds
    while sum(len(rounds[i % len(rounds)]) for i in range(n)) < MIN_SAMPLES:
        n += 1
    return n


def _one_round(tasks, run_op, first_index):
    started = time.perf_counter()
    records = []
    for task in tasks:
        rec = run_op(task, first_index + len(records))
        records.append(rec)
        if rec.get("aborted"):
            break
    return {"records": records, "wall_s": time.perf_counter() - started}


def run_rounds(workload, rounds, n_rounds, tracer=None, hard_deadline=None,
               tick_s=None):
    """Run `n_rounds` rounds in cyclic order.  Returns one Run per round.
    With `tick_s`, the host speed is also sampled every tick_s seconds
    inside each operation.

    A cold workload forks a fresh child per operation; a warm workload
    runs all its rounds in one child, so later calls find the caches the
    earlier ones filled.
    """
    op = workload.op
    if workload.warm:
        def loop():
            held = {}
            done = []
            while len(done) < n_rounds:
                done.append(_one_round(
                    rounds[len(done) % len(rounds)],
                    lambda task, i: _run_op(op, task, tracer, held, i,
                                           tick_s),
                    sum(len(d["records"]) for d in done)))
            return done

        payload, err = in_child(loop, _limit(hard_deadline))
        if err:
            return [Run([{"solve_s": None, "bad": [err]}] * len(rounds[0]),
                        0.0, err)]
        return [Run(d["records"], d["wall_s"]) for d in payload]

    def cold(task, index):
        payload, err = in_child(
            lambda: _run_op(op, task, tracer, None, index, tick_s),
            _limit(hard_deadline))
        if err:
            return {"solve_s": None, "bad": [err], "aborted": err}
        return payload

    runs = []
    while len(runs) < n_rounds:
        d = _one_round(rounds[len(runs) % len(rounds)], cold,
                       sum(len(r.records) for r in runs))
        aborted = next((r["aborted"] for r in d["records"]
                        if r.get("aborted")), None)
        runs.append(Run(d["records"], d["wall_s"], aborted))
        if aborted:
            break
    return runs


def summarize(runs):
    """End-to-end figures of a timed run's rounds; every execution is one
    sample.  Times are scaled to the reference host speed operation by
    operation (calibrate.factor); the unscaled figures come with them."""
    good = [rec for r in runs for rec in r.correct()]
    times = [rec["solve_s"] * rec["host_factor"] for rec in good]
    busy = sum(rec["busy_s"] * rec["host_factor"]
               for r in runs for rec in r.records if "busy_s" in rec)
    wall = sum(r.wall_s for r in runs)
    tail_s, tail_pct = tail(times)
    raw = [rec["solve_s"] for rec in good]
    return {
        "p50": statistics.median(times) if times else None,
        "tail": tail_s,
        "tail_pct": tail_pct,
        "samples": len(times),
        "ops_per_s": len(times) / busy if busy else 0.0,
        "attempted": sum(len(r.records) for r in runs),
        "failed": sum(r.failed for r in runs),
        "raw_p50": statistics.median(raw) if raw else None,
        "raw_ops_per_s": len(times) / wall if wall else 0.0,
        "host_factor": statistics.median(
            [rec["host_factor"] for rec in good]) if good else None,
    }


def _limit(hard_deadline):
    if hard_deadline is None:
        return 3600.0
    return max(1.0, hard_deadline - time.monotonic())


def tail(samples):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it, or (None, None) when there are too few samples."""
    if len(samples) < MIN_SAMPLES:
        return None, None
    s = sorted(samples)
    i = len(s) - MIN_SAMPLES
    return s[i], 100.0 * (i + 1) / len(s)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
