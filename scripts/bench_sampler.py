#!/usr/bin/env python3
"""Time each layer of one block of replicas and print one JSON line.

The harness evaluates replicas in blocks of B = `harness.block_size(n)`
paths; this script times one such block at each grid size n and reports
microseconds per replica (the block's time divided by B):

- `rekey_normals_us`: `_block_normals`, which re-keys the thread's Philox
  generator to each row's `(seed, stream)` and draws the row's 2n normals;
- `synthesis_us`: `_block_fgn`, the half-spectrum products and the one
  inverse FFT along the rows;
- `assembly_us`: `sample_fbm` minus the two calls above, i.e. the cumulative
  sum and the `FbmPath` validation and copy;
- `statistic_us`: `evaluate_statistic` on the block;
- `limit_us`: `limit_functional` on the block;
- `total_us`: the sum of the five.

The plan is acceptance criterion 6's (H = 0.1, centred quadratic form,
weight x2). Each timed call is the minimum over RUNS runs of its mean over
CALLS calls, after one warm-up call that fills the coefficient cache;
assembly is a difference of those minima.

    PYTHONPATH=src python3 scripts/bench_sampler.py
"""

import json
import platform
import time

import numpy as np

from fbmvar import SamplerConfig, StatForm, StatisticSpec, builtin, evaluate_statistic, limit_functional, sample_fbm
from fbmvar import harness
from fbmvar import sampler as sampler_mod

HURST = 0.1
SPEC = StatisticSpec(kappa=2, weight="x2", form=StatForm.CENTERED_QUADRATIC)
GRID_SIZES = (128, 2048, 8192)
CALLS = 100
RUNS = 5


def best_us(ops, calls, runs):
    """Per op, the minimum over `runs` of its mean wall time over `calls` calls, in us.

    The ops are called in turn within each round, so a change of the host's
    speed during a run reaches all of them alike and their differences stay
    meaningful.
    """
    clock = time.perf_counter
    for fn in ops.values():
        fn()
    best = dict.fromkeys(ops, float("inf"))
    for _ in range(runs):
        spent = dict.fromkeys(ops, 0.0)
        for _ in range(calls):
            for name, fn in ops.items():
                start = clock()
                fn()
                spent[name] += clock() - start
        for name in ops:
            best[name] = min(best[name], spent[name] / calls * 1e6)
    return best


def layer_times(n, calls, runs):
    seed, stream = 20080612, 7
    block = harness.block_size(n)
    config = SamplerConfig(seed=seed, stream=stream)
    h = builtin(SPEC.weight)
    z = sampler_mod._block_normals(seed, stream, block, n)
    path = sample_fbm(HURST, n, config, block)
    t = best_us(
        {
            "normals": lambda: sampler_mod._block_normals(seed, stream, block, n),
            "fgn": lambda: sampler_mod._block_fgn(HURST, n, z),
            "sample": lambda: sample_fbm(HURST, n, config, block),
            "statistic": lambda: evaluate_statistic(path, h, SPEC),
            "limit": lambda: limit_functional(path, h, SPEC.form, SPEC.kappa),
        },
        calls,
        runs,
    )
    layers = {
        "rekey_normals_us": t["normals"],
        "synthesis_us": t["fgn"],
        "assembly_us": t["sample"] - t["normals"] - t["fgn"],
        "statistic_us": t["statistic"],
        "limit_us": t["limit"],
        "total_us": t["sample"] + t["statistic"] + t["limit"],
    }
    return {"block": block, **{name: round(us / block, 2) for name, us in layers.items()}}


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
