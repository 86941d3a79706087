#!/usr/bin/env python3
"""Time each layer of one block of replicas and print one JSON line.

The harness evaluates replicas in blocks of B = `harness.block_size(n)`
paths; this script times the layers of one such block at each grid size n
and reports microseconds per replica (a block's time divided by B):

- `rekey_normals_us`: `_block_normals`, which re-keys the thread's Philox
  generator to each row's `(seed, stream)` and draws the row's 2n normals.
  Each timed call starts at the stream after the last call's block, because
  a call with the key of the thread's last draw returns the held normals
  without drawing;
- `synthesis_us`: `_block_fgn` on stored normals, the half-spectrum products
  and the one inverse FFT along the rows;
- `assembly_us`: `_block_paths` on stored increments, the cumulative sum into
  a new path array and the `FbmPath` validation;
- `statistic_us`: `evaluate_statistic` on a stored block;
- `limit_us`: `limit_functional` on a stored block;
- `layers_sum_us`: the sum of the five;
- `block_us`: the harness's own loop (`_replica_values`) drawing and
  evaluating two whole blocks end to end, per replica, so that no draw has
  the key of the one before it. What it adds to
  `layers_sum_us` is cost that no layer shows alone, such as the page faults
  of large buffers that chained calls free and allocate again;
- `block_minflt`: the minor page faults (`resource.getrusage`) of that loop
  per block, over CALLS calls after a warm-up call.

The plan is acceptance criterion 6's (H = 0.1, centred quadratic form,
weight x2). Each op is timed in its own loop over prebuilt inputs, so a call
reuses the buffers that the previous call of the same op freed: each figure
is the minimum over RUNS runs of the mean over CALLS calls, after one
warm-up call that also fills the coefficient cache.

    PYTHONPATH=src python3 scripts/bench_sampler.py
"""

import itertools
import json
import platform
import resource
import time

import numpy as np

from fbmvar import (
    ExperimentPlan,
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
GRID_SIZES = (128, 2048, 8192)
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


def layer_times(n, calls, runs):
    block = harness.block_size(n)
    h = builtin(SPEC.weight)
    # copies: both calls return this thread's scratch buffers, which the next draw overwrites
    z = sampler_mod._block_normals(SEED, 0, block, n).copy()
    fgn = sampler_mod._block_fgn(HURST, n, z).copy()
    path = sample_fbm(HURST, n, SamplerConfig(seed=SEED), block)
    # two whole blocks, which alternate in the thread's one remembered draw
    plan = ExperimentPlan(hurst=HURST, spec=SPEC, n_ladder=(n,), replicas=2 * block, seed=SEED)
    streams = itertools.count(block, block)
    per_block = {
        "rekey_normals_us": lambda: sampler_mod._block_normals(SEED, next(streams), block, n),
        "synthesis_us": lambda: sampler_mod._block_fgn(HURST, n, z),
        "assembly_us": lambda: sampler_mod._block_paths(path.hurst, fgn),
        "statistic_us": lambda: evaluate_statistic(path, h, SPEC),
        "limit_us": lambda: limit_functional(path, h, SPEC),
    }
    layers = {name: best_us(fn, calls, runs) / block for name, fn in per_block.items()}
    layers["layers_sum_us"] = sum(layers.values())
    def whole_blocks():
        return harness._replica_values({plan: h}, n, 1, block)[plan]

    layers["block_us"] = best_us(whole_blocks, calls, runs) / plan.replicas
    out = {"block": block, **{name: round(us, 2) for name, us in layers.items()}}
    out["block_minflt"] = round(faults_per_call(whole_blocks, calls) * block / plan.replicas, 2)
    return out


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
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
