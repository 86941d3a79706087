"""Smoke tests of the scripts under scripts/, which reach into private names of the package."""

import importlib.util
from pathlib import Path

from fbmvar.cli import parse_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_sampler_times_every_layer():
    # the script calls sampler.draw_normals/_block_fgn and harness._replica_values
    script = load_script("bench_sampler")
    times = ("rekey_normals_us", "synthesis_us", "assembly_us", "statistic_us", "partial_sums_us", "limit_us", "layers_sum_us", "stat_limit_us", "embedding_build_us", "block_us")
    cases = [(n, script.SPEC) for n in script.GRID_SIZES] + [(script.CUBIC_GRID_SIZE, script.CUBIC)]
    for n, spec in cases:
        out = script.layer_times(n, calls=2, runs=3, spec=spec)
        assert set(out) == {"block", "block_minflt", "first_minflt", *times}
        assert out["block"] == 8192 // n
        assert all(out[name] > 0 for name in times), out
        assert out["first_minflt"] >= 0
        # drawing normals costs 20 to 30 times the limit
        assert out["rekey_normals_us"] > out["limit_us"], (n, out)


def test_bench_sampler_times_the_ladder():
    script = load_script("bench_sampler")
    out = script.ladder_times(calls=2, runs=3)
    assert out["ladder"] == list(script.LADDER) and out["replicas"] == 64
    assert out["ladder_us"] > 0 and out["rungs_us"] > 0, out


def test_bench_sampler_counts_the_sweep_builds():
    script = load_script("bench_sampler")
    out = script.sweep_times(calls=2, runs=3)
    assert (out["hursts"], out["n"], out["replicas"]) == (17, 2048, 4)
    assert out["embedding_builds"] == 17
    assert out["us_per_replica"] > 0, out


def test_snapshot_outputs_writes_both_thread_counts_alike(tmp_path):
    script = load_script("snapshot_outputs")
    script.snapshot(tmp_path, replicas=2)
    # a plan's .csv, .json and .dat, and one .path per grid size of its ladder
    per_run = sum(3 + len(entry.plan.n_ladder) for config in script.CONFIGS for entry in parse_config(config))
    runs = [sorted(p.relative_to(tmp_path / f"threads{t}") for p in (tmp_path / f"threads{t}").rglob("*") if p.is_file()) for t in script.THREADS]
    assert len(runs[0]) == per_run > 0 and runs[0] == runs[1]
    for rel in runs[0]:
        assert (tmp_path / "threads1" / rel).read_bytes() == (tmp_path / "threads2" / rel).read_bytes(), rel
