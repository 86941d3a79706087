"""Store each workload's CSVs at the default seed as the benchmark's reference.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Run from the repository root. Only a change of a workload's plans, or an
intended change of the program's results, is a reason to run it again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main(names) -> int:
    root = Path.cwd().resolve()
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        work = root / run.OUT_DIR / f"record-{name}"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.ini"
        config.write_text(workloads.make_config(workload, workloads.DEFAULT_SEED), encoding="utf-8")
        report = run.run_child(root, work, config, workload.thread_count())
        if "error" in report:
            print(f"{name}: {report['error']}", file=sys.stderr)
            return 1
        csvs = {p.stem: (work / "out" / f"{p.stem}.csv").read_text(encoding="utf-8") for p in workload.plans}
        workloads.EXPECTED_DIR.mkdir(exist_ok=True)
        workloads.expected_path(workload).write_text(json.dumps(csvs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: stored {len(csvs)} plan CSVs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
