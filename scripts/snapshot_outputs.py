#!/usr/bin/env python3
"""Write every config's run outputs at --threads 1 and 2, for a byte-identity check.

Each CONFIG runs with `--replicas 400 --dump-paths` at `--threads` 1 and 2,
into OUT/threads1/<config stem> and OUT/threads2/<config stem>. Without a
CONFIG it runs every configs/*.ini and the config of each workload that
BENCHMARK.json gates, which `perfbench/workloads.make_config` generates at
perfbench's default seed into OUT/configs/<workload>.ini. Two source trees
give the same outputs when `diff -r` of their OUT directories prints
nothing; within one tree, OUT/threads1 and OUT/threads2 hold the same bytes.

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUT [CONFIG ...]
"""

import importlib.util
import json
import sys
from pathlib import Path

from fbmvar import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
THREADS = (1, 2)


def workload_configs(out):
    """Write the config of each workload that BENCHMARK.json gates to out/configs/<workload>.ini; return their paths."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up while the class is built
    spec.loader.exec_module(workloads)
    dest = Path(out) / "configs"
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
        path = dest / f"{entry['name']}.ini"
        path.write_text(workloads.make_config(workloads.WORKLOADS[entry["name"]], workloads.DEFAULT_SEED), encoding="utf-8")
        paths.append(path)
    return paths


def snapshot(out, configs=None, replicas=400):
    """Run each config (default: CONFIGS and the gated workloads' configs) at each of THREADS into out/threads<T>/<config stem>; SystemExit on a failed run."""
    if configs is None:
        configs = CONFIGS + workload_configs(out)
    for threads in THREADS:
        for config in configs:
            dest = Path(out) / f"threads{threads}" / Path(config).stem
            argv = ["run", "--config", str(config), "--out", str(dest), "--replicas", str(replicas), "--threads", str(threads), "--dump-paths"]
            rc = cli.main(argv)
            if rc:
                raise SystemExit(f"{config} at --threads {threads} exited {rc}")


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    snapshot(argv[0], argv[1:] or None)


if __name__ == "__main__":
    main(sys.argv[1:])
