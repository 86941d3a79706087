"""Smoke tests of the scripts under scripts/, which reach into private names of the package."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_sampler_times_every_layer():
    # the script calls sampler._block_normals/_block_fgn/_block_paths and harness._replica_values
    script = load_script("bench_sampler")
    times = ("rekey_normals_us", "synthesis_us", "assembly_us", "statistic_us", "limit_us", "layers_sum_us", "block_us")
    for n in script.GRID_SIZES:
        out = script.layer_times(n, calls=2, runs=3)
        assert set(out) == {"block", "block_minflt", *times}
        assert out["block"] == 8192 // n
        assert all(out[name] > 0 for name in times), out
        # drawing normals costs 20 to 30 times the limit; a draw that returned
        # the thread's held normals instead would cost a small share of it
        assert out["rekey_normals_us"] > out["limit_us"], (n, out)
