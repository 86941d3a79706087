"""perfbench's traced child still finds every module boundary it wraps, nests the replica layers in runners and writes the untraced bytes.

perfbench/spans.py wraps `cli.run_l2_experiment` and `cli.run_clt_diagnostics`
as its harness span and the sampler, statistic and limit calls of the harness
as layer spans. A refactor that calls around those names would leave every
layer metric at 0 without failing the benchmark, so this runs one traced child.
The traced child also replaces each weight's evaluators with timing wrappers,
so a traced run must write the same bytes as an untraced one.
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

# every weighted form, and plans at one H whose weights share evaluators (cos, -cos)
SHARED_CONFIG = """
[quadratic]
hurst = 0.10
kappa = 2
weight = x2
form = centered_quadratic
n_ladder = 16 64 256
replicas = 70
seed = 11

[cubic]
hurst = 0.10
kappa = 3
weight = sin
form = compensated_cubic
n_ladder = 16 64 256
replicas = 70
seed = 11

[quadratic_cos]
hurst = 0.10
kappa = 2
weight = cos
form = centered_quadratic
n_ladder = 16 64 256
replicas = 70
seed = 11

[drift]
hurst = 0.35
kappa = 3
weight = exp_neg_x2
form = odd_weighted
n_ladder = 16 64 256
replicas = 70
seed = 11

[mixing]
hurst = 0.35
kappa = 2
weight = x3
form = mixing_normalized
n_ladder = 16 64 256
replicas = 70
seed = 11
"""


def run_child(tmp_path, config, name, trace):
    """Run perfbench/child.py on `config` at 2 threads, traced as run 0 or not (trace None); return (out dir, report)."""
    work = tmp_path / name
    work.mkdir()
    cfg = work / "plans.ini"
    cfg.write_text(config, encoding="utf-8")
    report = work / "report.json"
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(src), "--config", str(cfg),
        "--out", str(work / "out"), "--threads", "2", "--report", str(report),
    ]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=work, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return work / "out", json.loads(report.read_text())


def test_traced_child_finds_every_boundary_and_nests_layers_in_runners(tmp_path):
    _, report = run_child(tmp_path, CONFIG, "traced", 0)
    trace = report["trace"]
    assert trace["missing"] == []
    spans = [dict(zip(("id", "name", "start", "end", "parent", "thread", "n"), s)) for s in trace["spans"]]
    runners = [s for s in spans if s["name"] == "harness"]
    assert len(runners) == 2
    layers = [s for s in spans if s["name"] in ("sampler", "statistics.stat", "statistics.limit")]
    assert {s["name"] for s in layers} == {"sampler", "statistics.stat", "statistics.limit"}
    outside = [s for s in layers if not any(r["start"] <= s["start"] and s["end"] <= r["end"] for r in runners)]
    assert outside == []


def test_traced_child_writes_the_untraced_bytes(tmp_path):
    (plain, _), (traced, report) = (run_child(tmp_path, SHARED_CONFIG, name, trace) for name, trace in (("plain", None), ("traced", 0)))
    assert report["trace"]["missing"] == []
    assert any(s[1] == "weights" for s in report["trace"]["spans"])
    names = sorted(p.name for p in plain.iterdir())
    assert len(names) == 3 * 5 and names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
