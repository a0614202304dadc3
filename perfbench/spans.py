"""Spans and exact counters recorded around calls into classprop's layers.

The tracer works from outside the package: it replaces each public function
of a layer module with a wrapper that records one span (name, start, end,
parent).  One wrapper is made per function and bound under every name that
refers to the function in any classprop module, so a call counts once
whichever namespace it comes through (``fixed_point_indices`` is defined in
``matgroup`` and imported into ``stats``; ``has_small_degree_factor`` is
defined in ``gf`` and imported into ``matgroup``).

A span's self time is its duration minus the durations of its child spans.
Time spent in an unwrapped callee therefore counts as self time of the
nearest wrapped caller.  Spans stay in memory; a process reports only the
summary of them.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("gf", "cyclo", "series", "limits", "matgroup", "stats", "cli")

# Public helpers left unwrapped.  A profile of the workloads shows each of
# them called from hundreds of thousands to millions of times per pass
# (polynomial and vector arithmetic, per-element subspace helpers), where a
# wrapper would cost more than the work it measures.
PRIMITIVES = {
    "gf": {
        "is_prime", "prime_power", "mobius", "pnorm", "pdeg", "padd", "psub",
        "pscale", "pmul", "pdivmod", "pmod", "pmonic", "pgcd", "ppowmod",
        "peval", "is_irreducible", "irreducibles", "conjugate_star",
        "conjugate_tilde", "det_residue", "unitary_residue",
    },
    "matgroup": {
        "gaussian_binomial", "subspace_vectors", "rref_basis", "perp_basis_dot",
        "perp_basis_form", "sieve_free", "tau_sieve_free",
        "fixes_some_small_subspace",
    },
}


class Tracer:
    """In-memory span records plus exact counters for one process."""

    def __init__(self):
        self.records = []  # (name, start_ns, end_ns, parent record index or -1)
        self.counters = defaultdict(int)
        self.hit_spans = set()  # build_group records served from the disk cache
        self.external = []  # (record index, summary) of traced child processes
        self._stack = []

    def wrap(self, fn, name, before=None, after=None):
        """Span-recording wrapper; before/after hooks run outside the span."""
        records, stack, clock = self.records, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = len(records)
            records.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx] = (name, start, end, stack[-1] if stack else -1)
            if after:
                after(args, kwargs, result, state, idx)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span opened by the benchmark itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    def add_child_process(self, summary):
        """Nest a traced child process's summary under the innermost open span."""
        self.external.append((self._stack[-1] if self._stack else -1, summary))

    def summary(self):
        """Per-name calls, total and self seconds, plus the exact counters."""
        child_ns = [0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        for parent, ext in self.external:
            if parent >= 0:
                child_ns[parent] += int(ext["top_s"] * 1e9)
        spans = {}
        top_ns = hit_self_ns = refine = 0
        for i, (name, start, end, parent) in enumerate(self.records):
            dur = end - start
            row = spans.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns[i]
            if parent < 0:
                top_ns += dur
            if i in self.hit_spans:
                hit_self_ns += dur - child_ns[i]
            if (name == "limits.exp_enclosure" and parent >= 0
                    and self.records[parent][0] == "limits.limit_value"):
                refine += 1
        out = {
            "spans": {k: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                      for k, (c, t, s) in spans.items()},
            "counters": dict(self.counters),
            "top_s": top_ns / 1e9,
            "hit_self_s": hit_self_ns / 1e9,
        }
        out["counters"]["limits.refine_passes"] = refine
        for _, ext in self.external:
            _merge_nested(out, ext)
        return out


def _merge_nested(into, ext):
    for name, row in ext["spans"].items():
        dst = into["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in dst:
            dst[key] += row[key]
    for name, value in ext["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    into["hit_self_s"] += ext["hit_self_s"]


# ---------------------------------------------------------------------------
# Installing the wrappers.

def _cache_listing():
    root = os.environ.get("CLASSPROP_CACHE")
    if not root or not os.path.isdir(root):
        return {}
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(root)
            if not e.name.endswith(".tmp")}


def _hooks(tracer):
    """Exact counters taken from outside, keyed by wrapped function name."""
    c = tracer.counters
    built = set()

    def closure_after(args, kwargs, result, state, idx):
        gens = args[1] if len(args) > 1 else kwargs["gens"]
        c["matgroup.closure_products"] += len(result[0]) * len(gens)

    def build_after(args, kwargs, result, before, idx):
        # a table is served from disk when its first request in this process
        # writes no cache file while a cache directory is configured
        key = (args, tuple(sorted(kwargs.items())))
        if key in built or not os.environ.get("CLASSPROP_CACHE"):
            built.add(key)
            return
        built.add(key)
        after = _cache_listing()
        writes = sum(1 for name, mtime in after.items() if before.get(name) != mtime)
        if writes:
            c["matgroup.cache_writes"] += writes
        else:
            c["matgroup.cache_hits"] += 1
            tracer.hit_spans.add(idx)

    def scanned(args, kwargs, result, state, idx):
        table = args[0] if args else kwargs["table"]
        c["matgroup.elements_scanned"] += len(table.elements)

    def points(args, kwargs, result, state, idx):
        c["matgroup.action_points"] += len(result)

    def batch_rows(args, kwargs, result, state, idx):
        rows = args[0] if args else kwargs["rows"]
        c["stats.mc.batch_rows"] += int(rows.shape[0])

    def mc_accepted(args, kwargs, result, state, idx):
        if (result.method == "montecarlo" and result.q == 2 and result.t == 1
                and result.coset is None):
            c["stats.mc.accepted"] += result.sample_size

    return {
        "matgroup.bfs_closure": (None, closure_after),
        "matgroup.build_group": (lambda a, k: _cache_listing(), build_after),
        "matgroup.membership_sets": (None, scanned),
        "matgroup.tau_membership": (None, scanned),
        "matgroup.enumerate_action": (None, points),
        "stats.gf2_nonsingular_batch": (None, batch_rows),
        "stats.proportion": (None, mc_accepted),
    }


def install(tracer):
    """Wrap every public layer function of the imported classprop modules."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "classprop" or name.startswith("classprop."))]
    hooks = _hooks(tracer)
    for layer in LAYERS:
        mod = sys.modules.get(f"classprop.{layer}")
        if mod is None:
            continue
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or attr in PRIMITIVES.get(layer, ())
                    or inspect.isgeneratorfunction(fn)):
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(fn, name, *hooks.get(name, (None, None)))
            for m in modules:
                for a, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, a, wrapper)
    cyclo = sys.modules.get("classprop.cyclo")
    if cyclo is not None:
        _count_method(tracer, cyclo.CycNum, ("__mul__", "__rmul__"),
                      "cyclo.CycNum.mul.calls")


def _count_method(tracer, cls, attrs, counter):
    c = tracer.counters
    for attr in attrs:
        fn = getattr(cls, attr)

        def counted(self, other, _fn=fn):
            c[counter] += 1
            return _fn(self, other)

        setattr(cls, attr, counted)
