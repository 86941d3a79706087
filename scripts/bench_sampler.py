#!/usr/bin/env python3
"""Time each layer of one circulant `sample_fbm` call and print one JSON line.

Layers, in microseconds per call, at each grid size n:

- `philox_us`: `_rng(seed, stream)`, which hands out the generator keyed to
  the start of the stream;
- `normals_us`: the 2n standard normals drawn from it;
- `synthesis_us`: `_sample_fgn_circulant` minus its normals, i.e. the
  spectral synthesis of the increments from cached coefficients;
- `assembly_us`: `sample_fbm` minus the two calls above, i.e. the cumulative
  sum, the n^{-H} scale where the synthesis does not fold it in, and the
  `FbmPath` validation and copy;
- `sample_fbm_us`: the whole call.

Each timed call is the minimum over RUNS runs of its mean over CALLS calls,
after one warm-up call that fills the coefficient cache; the two derived
layers are differences of those minima. The layers are measured through the
sampler's private names `_rng` and `_sample_fgn_circulant`, which have the
same signatures in earlier versions, so the script can time an older checkout
by putting its `src` first on PYTHONPATH.

    PYTHONPATH=src python3 scripts/bench_sampler.py
"""

import json
import platform
import time

import numpy as np

from fbmvar import SamplerConfig, sample_fbm
from fbmvar import sampler as sampler_mod

HURST = 0.3  # the clt_n8192 workload's H
GRID_SIZES = (128, 2048, 8192)
CALLS = 200
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


def layer_times(h, n, calls, runs):
    seed, stream = 20080612, 7
    config = SamplerConfig(seed=seed, stream=stream)
    rng = sampler_mod._rng(seed, stream)
    t = best_us(
        {
            "philox": lambda: sampler_mod._rng(seed, stream),
            "normals": lambda: rng.standard_normal(2 * n),
            "fgn": lambda: sampler_mod._sample_fgn_circulant(h, n, rng),
            "total": lambda: sample_fbm(h, n, config),
        },
        calls,
        runs,
    )
    layers = {
        "philox_us": t["philox"],
        "normals_us": t["normals"],
        "synthesis_us": t["fgn"] - t["normals"],
        "assembly_us": t["total"] - t["philox"] - t["fgn"],
        "sample_fbm_us": t["total"],
    }
    return {name: round(us, 2) for name, us in layers.items()}


def main():
    result = {
        "hurst": HURST,
        "calls": CALLS,
        "runs": RUNS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": {f"n{n}": layer_times(HURST, n, CALLS, RUNS) for n in GRID_SIZES},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
