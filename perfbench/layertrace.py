"""Outside-in tracing of reesgor's layers.

The listed library functions are wrapped from outside the package: every
module attribute of ``reesgor.*`` that *is* the target function object is
replaced by the wrapper, so names bound by ``from .modules import
module_buchberger`` or ``import intersect as intersect_ideals`` are traced
too.  Methods are wrapped on their class.  Nothing private is touched.

Each wrapped call records a span (operation id, span id, parent span id,
name, start, end) in memory, plus per-function aggregates: calls, inclusive
time (outermost activation only, so recursion is not double counted), self
time (duration minus the time of nested wrapped calls) and the counts named
in ``COUNTS``.  Spans are kept in memory and written out when the run ends.

``fields``, ``orders`` and ``polys`` are not wrapped: a wrapper there would
cost more than the call.  Their time shows as the self time of ``vec_nf``
and ``module_buchberger``.  ``vec_nf`` itself is aggregated but records no
span per call, because it runs tens of thousands of times per operation.
"""

import sys
import time

# (module, attribute path) of every wrapped function, in report order.
TARGETS = (
    ("modules", "module_buchberger"),
    ("modules", "vec_nf"),
    ("modules", "module_syzygies"),
    ("groebner", "groebner_basis"),
    ("groebner", "normal_form"),
    ("idealops", "ideal_product"),
    ("idealops", "intersect"),
    ("idealops", "colon"),
    ("idealops", "saturate"),
    ("idealops", "eliminate"),
    ("idealops", "ideal_length"),
    ("hilbert", "hilbert_numerator"),
    ("resolutions", "minimal_free_resolution"),
    ("resolutions", "minimalize_step"),
    ("resolutions", "ext_dualizing"),
    ("resolutions", "resolve_quotient_ring"),
    ("resolutions", "ModulePresentation.length"),
    ("resolutions", "ModulePresentation.annihilator_gens"),
    ("resolutions", "ModulePresentation.socle_dim"),
    ("invariants", "multiplicity"),
    ("invariants", "is_reduction"),
    ("invariants", "depth_and_type"),
    ("invariants", "artinian_length"),
    ("s2", "filter_regular_pair"),
    ("s2", "hypothesis_profile"),
    ("s2", "s2_construct"),
    ("s2", "conductor_crosscheck"),
    ("s2", "h1_socle"),
    ("decision", "decide_condition2"),
    ("decision", "decide_condition3"),
    ("oracle", "rees_presentation"),
    ("oracle", "graded_gorenstein_oracle"),
    ("inputfmt", "parse_document"),
    ("inputfmt", "InputDocument.build"),
)

# Reported stats per function; every function also has calls.
REPORTED = {
    "modules.module_buchberger": ("total_s", "self_s", "basis_len"),
    "modules.vec_nf": ("self_s",),
    "modules.module_syzygies": ("total_s", "rank_max"),
    "groebner.groebner_basis": ("total_s", "self_s"),
    "hilbert.hilbert_numerator": ("self_s", "gens_max"),
    "resolutions.minimal_free_resolution": ("total_s", "betti_sum"),
    "resolutions.minimalize_step": ("self_s",),
    "resolutions.resolve_quotient_ring": (),
}
DEFAULT_REPORTED = ("total_s",)

NO_SPANS = frozenset(["modules.vec_nf"])

UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
         "basis_len": "count", "rank_max": "count", "betti_sum": "count",
         "gens_max": "count"}


def _basis_len(args, result):
    return len(result.basis)


def _rank_max(args, result):
    gens = args[0]
    return gens[0].module.rank + len(gens)


def _betti_sum(args, result):
    return sum(result.betti())


def _gens_max(args, result):
    return len(args[0])


# name -> (stat, extractor(args, result)); a *_max stat keeps the largest
# value over calls, any other stat the sum
COUNTS = {
    "modules.module_buchberger": ("basis_len", _basis_len),
    "modules.module_syzygies": ("rank_max", _rank_max),
    "resolutions.minimal_free_resolution": ("betti_sum", _betti_sum),
    "hilbert.hilbert_numerator": ("gens_max", _gens_max),
}


def metric_names():
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, attr in TARGETS:
        key = "%s.%s" % (mod, attr)
        out.append((key + ".calls", "count"))
        for stat in REPORTED.get(key, DEFAULT_REPORTED):
            out.append(("%s.%s" % (key, stat), UNITS[stat]))
        if key == "groebner.groebner_basis":
            out.append(("groebner.cache_hit_ratio", "ratio"))
    return out


class Tracer:
    """Span stack and per-function aggregates for one process."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.results = []        # (name, result) of the `collect` targets
        self.collect = frozenset()
        self.op = 0
        self._stack = []
        self._active = {}
        self._next_span = 0
        self._buchberger_runs = 0
        self._restore = []

    def reset(self, op):
        """Forget everything recorded; spans from now on carry `op`."""
        self.stats = {}
        self.spans = []
        self.results = []
        self.op = op
        self._stack.clear()      # the wrappers hold these two objects
        self._active.clear()
        self._buchberger_runs = 0

    def install(self):
        """Wrap every target at every binding inside the reesgor package."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "reesgor"
                                      or name.startswith("reesgor."))]
        for mod, attr in TARGETS:
            key = "%s.%s" % (mod, attr)
            home = sys.modules["reesgor." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(key, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(key, orig)
            bound = 0
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, orig, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError("no binding of %s found" % key)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    def _set(self, owner, name, orig, wrapped):
        self._restore.append((owner, name, orig))
        setattr(owner, name, wrapped)

    def _wrap(self, key, fn):
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        count = COUNTS.get(key)
        keep_span = key not in NO_SPANS
        is_buchberger = key == "modules.module_buchberger"
        is_gb = key == "groebner.groebner_basis"
        tracer = self

        def traced(*args, **kwargs):
            if is_buchberger:
                tracer._buchberger_runs += 1
            runs_before = tracer._buchberger_runs
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                active[key] = depth
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                else:
                    parent = None
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0}
                st["calls"] += 1
                st["self_s"] += dur - frame[0]
                if depth == 0:
                    st["total_s"] += dur
                if count is not None and result is not None:
                    stat, extract = count
                    _fold(st, stat, extract(args, result))
                if is_gb and tracer._buchberger_runs != runs_before:
                    st["misses"] = st.get("misses", 0) + 1
                if keep_span:
                    tracer.spans.append((tracer.op, span_id, parent, key,
                                         t0, t1))
                if key in tracer.collect and result is not None:
                    tracer.results.append((key, result))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def _fold(acc, stat, value):
    if stat.endswith("_max"):
        acc[stat] = max(acc.get(stat, 0), value)
    else:
        acc[stat] = acc.get(stat, 0) + value


def merge(into, stats):
    """Fold one operation's aggregates into a run's aggregates."""
    for key, st in stats.items():
        acc = into.setdefault(key, {})
        for stat, value in st.items():
            _fold(acc, stat, value)


def layer_metrics(stats):
    """Every per-layer metric from a run's merged aggregates."""
    out = {}
    for name, unit in metric_names():
        if name == "groebner.cache_hit_ratio":
            st = stats.get("groebner.groebner_basis", {})
            calls = st.get("calls", 0)
            value = (calls - st.get("misses", 0)) / calls if calls else 0.0
        else:
            key, stat = name.rsplit(".", 1)
            value = stats.get(key, {}).get(stat, 0)
        out[name] = {"value": value, "unit": unit}
    return out
