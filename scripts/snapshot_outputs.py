#!/usr/bin/env python3
"""Write every config's run outputs at --threads 1 and 2, for a byte-identity check.

Each CONFIG (default: every configs/*.ini) runs with
`--replicas 400 --dump-paths` at `--threads` 1 and 2, into
OUT/threads1/<config stem> and OUT/threads2/<config stem>. Two source trees
give the same outputs when `diff -r` of their OUT directories prints
nothing; within one tree, OUT/threads1 and OUT/threads2 hold the same bytes.

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUT [CONFIG ...]
"""

import sys
from pathlib import Path

from fbmvar import cli

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
THREADS = (1, 2)


def snapshot(out, configs=CONFIGS, replicas=400):
    """Run each config at each of THREADS into out/threads<T>/<config stem>; SystemExit on a failed run."""
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
    snapshot(argv[0], argv[1:] or CONFIGS)


if __name__ == "__main__":
    main(sys.argv[1:])
