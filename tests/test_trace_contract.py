"""perfbench's traced child still finds every module boundary it wraps, and the replica layers run inside a runner.

perfbench/spans.py wraps `cli.run_l2_experiment` and `cli.run_clt_diagnostics`
as its harness span and the sampler, statistic and limit calls of the harness
as layer spans. A refactor that calls around those names would leave every
layer metric at 0 without failing the benchmark, so this runs one traced child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[l2]
hurst = 0.10
kappa = 2
weight = x2
form = centered_quadratic
n_ladder = 16 32
replicas = 4
seed = 11

[diagnostic]
hurst = 0.5
kappa = 2
weight = one
form = unweighted_centered
n_ladder = 16 32
replicas = 4
seed = 12
"""


def test_traced_child_finds_every_boundary_and_nests_layers_in_runners(tmp_path):
    cfg = tmp_path / "plans.ini"
    cfg.write_text(CONFIG, encoding="utf-8")
    report = tmp_path / "report.json"
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(src), "--config", str(cfg),
            "--out", str(tmp_path / "out"), "--threads", "2", "--report", str(report), "--trace", "0",
        ],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(report.read_text())["trace"]
    assert trace["missing"] == []
    spans = [dict(zip(("id", "name", "start", "end", "parent", "thread", "n"), s)) for s in trace["spans"]]
    runners = [s for s in spans if s["name"] == "harness"]
    assert len(runners) == 2
    layers = [s for s in spans if s["name"] in ("sampler", "statistics.stat", "statistics.limit")]
    assert {s["name"] for s in layers} == {"sampler", "statistics.stat", "statistics.limit"}
    outside = [s for s in layers if not any(r["start"] <= s["start"] and s["end"] <= r["end"] for r in runners)]
    assert outside == []
