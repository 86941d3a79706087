"""In-memory spans around fbmvar's module boundaries, and the layer metrics.

The traced benchmark child replaces the public names through which the
modules call each other with timing wrappers (`install`); nothing inside the
package changes. A span is (id, name, start, end, parent, thread, n): `n` is
the grid size for replica-level spans and None elsewhere. The parent is the
innermost open span on the same thread; a span opened on a worker thread with
nothing open takes the runner span that is open on the calling thread, so the
replica spans of a threaded ladder hang under their harness span.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LADDER_N = (128, 512, 2048, 8192)

# (module, attribute, span name, grid-size extractor or None, opens a runner).
# A boundary that the package no longer has is reported as missing, not wrapped.
BOUNDARIES = (
    ("fbmvar.harness", "sample_fbm", "sampler", lambda args: args[1], False),
    ("fbmvar.harness", "evaluate_statistic", "statistics.stat", lambda args: args[0].n, False),
    ("fbmvar.harness", "limit_functional", "statistics.limit", lambda args: args[0].n, False),
    ("fbmvar.cli", "run_l2_experiment", "harness", None, True),
    ("fbmvar.cli", "run_clt_diagnostics", "harness", None, True),
    ("fbmvar.cli", "parse_config", "cli.parse", None, False),
    ("fbmvar.cli", "_write_csv", "cli.write", None, False),
    ("fbmvar.cli", "_write_json", "cli.write", None, False),
    ("fbmvar.cli", "_write_dat", "cli.write", None, False),
    ("fbmvar.sampler", "increment_autocov_seq", "kernels", None, False),
)
WEIGHTS_BOUNDARY = ("fbmvar.harness", "builtin")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    n: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; `spans` holds Span-shaped tuples in memory."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._runner = None

    def wrap(self, name, fn, n_of=None, runner=False):
        # Work done before `start` and after `end` falls outside every layer
        # and is charged to the enclosing span, so the wrapper stays lean.
        local, lock, ids, record = self._local, self._lock, self._ids, self.spans.append
        clock, thread_id = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else self._runner
            with lock:
                sid = next(ids)
            stack.append(sid)
            if runner:
                outer, self._runner = self._runner, sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if runner:
                    self._runner = outer
                n = None
                if n_of is not None:
                    try:
                        n = int(n_of(args))
                    except (IndexError, AttributeError, TypeError, ValueError):
                        pass
                with lock:
                    record((sid, name, start, end, parent, thread_id(), n))

        return traced


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every boundary found in `modules` (name -> module); return the missing ones."""
    missing = []
    for mod_name, attr, name, n_of, runner in BOUNDARIES:
        module = modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, n_of=n_of, runner=runner))

    mod_name, attr = WEIGHTS_BOUNDARY
    module = modules[mod_name]
    lookup = getattr(module, attr, None)
    if lookup is None:
        missing.append(f"{mod_name}.{attr}")
        return missing

    def timed_builtin(weight_id):
        w = lookup(weight_id)
        return dataclasses.replace(w, evaluators=tuple(tracer.wrap("weights", e) for e in w.evaluators))

    setattr(module, attr, timed_builtin)
    return missing


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def layer_metrics(spans, evaluations: int, threads: int) -> dict:
    """Per-layer figures of one traced run of `evaluations` replica evaluations."""
    own = self_times(spans)
    runners = [s for s in spans if s.name == "harness"]
    # Runners run one after another on the calling thread and nothing else
    # runs beside them, so a span inside a runner's interval belongs to it.
    in_run = [s for s in spans if s.name != "harness" and any(r.start <= s.start <= r.end for r in runners)]

    def named(name):
        return [s for s in in_run if s.name == name]

    def mean_self_us(items, n):
        at_n = [own[s.id] for s in items if s.n == n]
        return 1e6 * sum(at_n) / len(at_n) if at_n else 0.0

    sampler, stat, limit, weights = named("sampler"), named("statistics.stat"), named("statistics.limit"), named("weights")
    replica_time = sum(s.duration for s in sampler + stat + limit)
    runner_ids = {r.id for r in runners}
    child_time = sum(s.duration for s in in_run if s.parent in runner_ids)
    wall = sum(r.duration for r in runners)
    out = {}
    for n in LADDER_N:
        out[f"sampler.us_per_call.n{n}"] = mean_self_us(sampler, n)
    out["sampler.calls"] = len(sampler)
    out["sampler.share"] = sum(own[s.id] for s in sampler) / replica_time if replica_time else 0.0
    for n in LADDER_N:
        out[f"statistics.stat_self_us.n{n}"] = mean_self_us(stat, n)
    for n in LADDER_N:
        out[f"statistics.limit_self_us.n{n}"] = mean_self_us(limit, n)
    out["weights.evals_per_replica"] = len(weights) / evaluations
    out["weights.us_per_replica"] = 1e6 * sum(s.duration for s in weights) / evaluations
    out["harness.self_us_per_replica"] = 1e6 * sum(own[r.id] for r in runners) / evaluations
    out["harness.busy_share"] = child_time / (wall * threads) if wall else 0.0
    kernels = [s for s in spans if s.name == "kernels"]
    out["kernels.embedding_builds"] = len(kernels)
    out["kernels.setup_s"] = sum(s.duration for s in kernels)
    parses = [s.duration for s in spans if s.name == "cli.parse"]
    out["cli.parse_s"] = sum(parses) / len(parses) if parses else 0.0
    out["cli.write_s"] = sum(s.duration for s in spans if s.name == "cli.write")
    return out
