#!/usr/bin/env python3
"""Time each layer of one block of replicas and print one JSON line.

The harness evaluates replicas in blocks of B = `harness.block_size(n)`
paths; this script times the layers of one such block at each grid size n
and reports microseconds per replica (a block's time divided by B):

- `rekey_normals_us`: `draw_normals`, which re-keys the Philox generator
  of the workspace it is given to each row's `(seed, stream)` and draws the
  row's 2n normals into a new array;
- `synthesis_us`: `_block_fgn` on stored normals into a workspace whose
  buffers grew to one block on the first call, the half-spectrum products
  and the one inverse FFT along the rows;
- `assembly_us`: what `sample_fbm` does with a block's stored increments,
  the copy of its rows into a new increments array, freezing it and handing
  it to a new path;
- `statistic_us`: `evaluate_statistic` on a new path built around a new view
  of the stored increments each call, so that the partial sums that the
  weighted form reads are formed in every call, as in a run, and the
  workspace's derivative table starts empty, as it does at each new block;
- `partial_sums_us`: the part of `statistic_us` that forms those partial
  sums, the first read of `values` of such a new path;
- `limit_us`: `limit_functional` on the sampled block, whose partial sums
  are formed once, on the first call; since every call reads that one
  block, the workspace's table is emptied by hand before each, so that the
  limit evaluates its weight derivative instead of reading the one that an
  earlier call left there;
- `layers_sum_us`: the sum of the five layers, with `partial_sums_us`
  counted once, inside `statistic_us`;
- `stat_limit_us`: the statistic and then the limit on one new path, whose
  table starts empty, as a run evaluates a block: the limit reads the weight
  derivatives that the statistic left in the workspace's table, so for the
  cubic form, whose limit reads the cos its compensator read (h''' = -cos,
  with the limit's constant negated), it is below
  `statistic_us + limit_us`;
- `embedding_build_us`: one `_circulant_coeffs(HURST, n)` call, the
  circulant embedding that a path group builds once per (H, n) key before
  its first walk; microseconds per build, not per replica, and not in
  `layers_sum_us`;
- `block_us`: the harness's own loop (`_replica_values`) drawing and
  evaluating two whole blocks end to end, per replica. What it adds to
  `layers_sum_us` is cost that no layer shows alone, such as the page faults
  of large buffers that chained calls free and allocate again;
- `block_minflt`: the minor page faults (`resource.getrusage`) of that loop
  per block, over CALLS calls after a warm-up call;
- `first_minflt`: the minor page faults per block of one call of that loop
  on a new thread, as in a process's first run. Like every call of the
  loop, it makes one workspace per worker, with its own generator, which
  all its blocks reuse.

Beside the layers it times one ladder, LADDER = (128, 512), on one walk of
`harness.walk_rows(LADDER)` replicas (`ladder`):

- `ladder_us`: `_replica_values` walking the ladder, whose streams are
  re-keyed and drawn once, at n = 512, and read again at n = 128;
- `rungs_us`: the two one-rung plans of as many replicas run one after the
  other, each drawing its own normals.

It also times one walk of a path group of 17 plans at distinct H (0.05 to
0.69 in steps of 0.04, `unweighted_centered`) at n = SWEEP_GRID_SIZE = 2048
(`sweep`):

- `embedding_builds`: the circulant embeddings the walk builds, counted at
  `sampler.increment_autocov_seq`; the group resolves each key once, so 17;
- `us_per_replica`: the walk's microseconds per replica. Each call is a
  group of its own, which builds all 17 embeddings and frees them when it
  ends.

The plan of `layers` is acceptance criterion 6's (H = 0.1, centred
quadratic form, weight x2); `cubic_layers` times criterion 7's (H = 0.1,
compensated cubic form, weight sin) at n = 128, whose weight derivatives
cost the most and are shared between its statistic and its limit. Each op is timed in its own loop over prebuilt inputs, so a call
reuses the buffers that the previous call of the same op freed: each figure
is the minimum over RUNS runs of the mean over CALLS calls, after one
warm-up call.

    PYTHONPATH=src python3 scripts/bench_sampler.py
"""

import json
import platform
import resource
import threading
import time

import numpy as np

from fbmvar import (
    ExperimentPlan,
    FbmPath,
    SamplerConfig,
    StatForm,
    StatisticSpec,
    builtin,
    evaluate_statistic,
    limit_functional,
    sample_fbm,
)
from fbmvar import harness
from fbmvar import sampler as sampler_mod

HURST = 0.1
SEED = 20080612
SPEC = StatisticSpec(kappa=2, weight="x2", form=StatForm.CENTERED_QUADRATIC)
CUBIC = StatisticSpec(kappa=3, weight="sin", form=StatForm.COMPENSATED_CUBIC)
GRID_SIZES = (128, 2048, 8192)
CUBIC_GRID_SIZE = 128
LADDER = (128, 512)
SWEEP_HURSTS = tuple(round(0.05 + 0.04 * i, 2) for i in range(17))
SWEEP_GRID_SIZE = 2048
CALLS = 100
RUNS = 5


def best_us(fn, calls, runs):
    """The minimum over `runs` of the mean wall time of fn over `calls` calls, in us."""
    clock = time.perf_counter
    fn()
    best = float("inf")
    for _ in range(runs):
        start = clock()
        for _ in range(calls):
            fn()
        best = min(best, (clock() - start) / calls * 1e6)
    return best


def faults_per_call(fn, calls):
    """Minor page faults of the process per call of fn, over `calls` calls after a warm-up call."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def first_faults(fn):
    """Minor page faults of the process during one call of fn on a new thread."""
    thread = threading.Thread(target=fn)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    thread.start()
    thread.join()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def layer_times(n, calls, runs, spec=SPEC):
    block = harness.block_size(n)
    h = builtin(spec.weight)
    work = sampler_mod.Workspace()
    z = sampler_mod.draw_normals(SEED, 0, block, n, work)
    # a copy: the synthesis returns a view of the workspace's buffer, which the next block overwrites
    embedding = sampler_mod._circulant_coeffs(HURST, n)
    fgn = sampler_mod._block_fgn(embedding, n, z, work).copy()
    path = sample_fbm(HURST, n, SamplerConfig(seed=SEED), block)
    plan = ExperimentPlan(hurst=HURST, spec=spec, n_ladder=(n,), replicas=2 * block, seed=SEED)

    # new paths around the stored arrays, which are read-only and kept as they are, as sample_fbm hands its own over
    def assemble():
        increments = np.empty((block, n))
        increments[:] = fgn
        increments.flags.writeable = False
        return FbmPath._adopt(path.hurst, increments)

    def fresh():
        # a new view is a new increments array, whose derivative table starts empty, as a new block's does
        return FbmPath._adopt(path.hurst, path.increments[:])

    def table():
        # the workspace with its derivative table emptied by hand, for a loop that reads one block again and again
        work.derivatives.clear()
        return work

    def stat_limit():
        p = fresh()
        evaluate_statistic(p, h, spec, work)
        return limit_functional(p, h, spec, work)

    def whole_blocks():
        return harness._replica_values({plan: h}, 1)[plan]

    first = first_faults(whole_blocks)
    per_block = {
        "rekey_normals_us": lambda: sampler_mod.draw_normals(SEED, 0, block, n, work),
        "synthesis_us": lambda: sampler_mod._block_fgn(embedding, n, z, work),
        "assembly_us": assemble,
        "statistic_us": lambda: evaluate_statistic(fresh(), h, spec, work),
        "limit_us": lambda: limit_functional(path, h, spec, table()),
    }
    layers = {name: best_us(fn, calls, runs) / block for name, fn in per_block.items()}
    layers["layers_sum_us"] = sum(layers.values())
    layers["partial_sums_us"] = best_us(lambda: fresh().values, calls, runs) / block  # inside statistic_us
    layers["stat_limit_us"] = best_us(stat_limit, calls, runs) / block
    layers["embedding_build_us"] = best_us(lambda: sampler_mod._circulant_coeffs(HURST, n), calls, runs)  # per build
    layers["block_us"] = best_us(whole_blocks, calls, runs) / plan.replicas
    out = {"block": block, **{name: round(us, 2) for name, us in layers.items()}}
    out["block_minflt"] = round(faults_per_call(whole_blocks, calls) * block / plan.replicas, 2)
    out["first_minflt"] = round(first * block / plan.replicas, 2)
    return out


def ladder_times(calls, runs):
    """Microseconds per replica of one walk down LADDER against its rungs run as separate one-rung plans."""
    h = builtin(SPEC.weight)
    replicas = harness.walk_rows(LADDER)

    def values(ladder):
        plan = ExperimentPlan(hurst=HURST, spec=SPEC, n_ladder=ladder, replicas=replicas, seed=SEED)
        return lambda: harness._replica_values({plan: h}, 1)

    walk = values(LADDER)
    rungs = [values((n,)) for n in LADDER]
    times = {
        "ladder_us": best_us(walk, calls, runs) / replicas,
        "rungs_us": best_us(lambda: [rung() for rung in rungs], calls, runs) / replicas,
    }
    return {"ladder": list(LADDER), "replicas": replicas, **{name: round(us, 2) for name, us in times.items()}}


def sweep_times(calls, runs):
    """Embedding builds and microseconds per replica of one walk of a group of one plan per SWEEP_HURSTS at SWEEP_GRID_SIZE."""
    replicas = harness.walk_rows((SWEEP_GRID_SIZE,))
    spec = StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED)
    one = builtin("one")
    weights = {ExperimentPlan(hurst=h, spec=spec, n_ladder=(SWEEP_GRID_SIZE,), replicas=replicas, seed=SEED): one for h in SWEEP_HURSTS}
    builds = []
    seq = sampler_mod.increment_autocov_seq
    sampler_mod.increment_autocov_seq = lambda H, n: builds.append((H, n)) or seq(H, n)
    try:
        harness._replica_values(weights, 1)
    finally:
        sampler_mod.increment_autocov_seq = seq
    us = best_us(lambda: harness._replica_values(weights, 1), calls, runs) / replicas
    return {"hursts": len(SWEEP_HURSTS), "n": SWEEP_GRID_SIZE, "replicas": replicas, "embedding_builds": len(builds), "us_per_replica": round(us, 2)}


def main():
    result = {
        "hurst": HURST,
        "form": SPEC.form.value,
        "weight": SPEC.weight,
        "calls": CALLS,
        "runs": RUNS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": {f"n{n}": layer_times(n, CALLS, RUNS) for n in GRID_SIZES},
        "cubic_layers": {f"n{CUBIC_GRID_SIZE}": layer_times(CUBIC_GRID_SIZE, CALLS, RUNS, CUBIC)},
        "ladder": ladder_times(CALLS, RUNS),
        "sweep": sweep_times(CALLS, RUNS),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
