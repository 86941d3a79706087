"""fbmvar benchmark: Monte Carlo workloads through `fbmvar run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src. Each
measured unit is one fresh child process (child.py) running the workload's
generated config through `fbmvar.cli.main(["run", ...])`. Children repeat
until --seconds have passed (at least MIN_CHILDREN of them) and each metric is
the median over the children. Every child's CSVs are checked (see
workloads.py); a plan that exits nonzero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced children and reports the per-layer metrics of the traced ones, plus the
tracing overhead. The last line of stdout is the JSON result; the same result
with the machine block and every sample goes to
.perfbench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

MIN_CHILDREN = 3
# The whole run must end within 180 s; no child starts after this budget.
RUN_BUDGET_S = 170.0
OUT_DIR = ".perfbench_out"
HERE = Path(__file__).resolve().parent
T_BEGIN = time.monotonic()


def run_child(root: Path, work: Path, config: Path, threads: int, trace_id=None, warmup=False) -> dict:
    """Run one child process; return its report plus the spawn time, or an error."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--src", str(root / "src"),
        "--config", str(config),
        "--out", str(out),
        "--threads", str(threads),
        "--report", str(report_path),
    ]
    if trace_id is not None:
        cmd += ["--trace", str(trace_id)]
    if warmup:
        cmd.append("--warmup")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - T_BEGIN))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f}s"}
    if proc.returncode != 0 or not report_path.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["t_spawn"] = t_spawn
    return report


def check_outputs(workload, out: Path, seed: int, first_csvs: dict) -> tuple:
    """Check every plan's CSV; return (failed plan count, problems, csv texts)."""
    stored = workloads.load_stored(workload) if seed == workloads.DEFAULT_SEED else None
    failed, problems, csvs = 0, [], {}
    for plan in workload.plans:
        path = out / f"{plan.stem}.csv"
        try:
            text = path.read_text(encoding="utf-8")
            rows = workloads.parse_csv(text)
        except (OSError, ValueError) as exc:
            failed += 1
            problems.append(f"{plan.stem}: {exc}")
            continue
        csvs[plan.stem] = text
        found = workloads.theory_problems(plan, rows)
        if stored is not None:
            found += workloads.stored_problems(plan, rows, stored[plan.stem])
        if plan.stem in first_csvs and text != first_csvs[plan.stem]:
            found.append(f"{plan.stem}: CSV differs from the first run of the same config")
        if found:
            failed += 1
            problems += found
    return failed, problems, csvs


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _read_first_line(path: Path, prefix: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(root: Path) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first_line(Path("/proc/cpuinfo"), "model name"),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < workloads.MAX_SEED:
        parser.error(f"--seed must be in [0, 2^64), got {args.seed}")

    root = Path.cwd().resolve()
    if not (root / "src" / "fbmvar" / "cli.py").is_file():
        print(f"perfbench: no fbmvar source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    threads = workload.thread_count()
    evaluations = workload.evaluations()
    work = root / OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.ini"
    config.write_text(workloads.make_config(workload, args.seed), encoding="utf-8")

    try:
        warm = run_child(root, work, config, threads, warmup=True)
        if "error" in warm:
            print(f"perfbench: warm-up child failed: {warm['error']}", file=sys.stderr)
            return 1
        samples = {"untraced": [], "traced": []}
        attempted = failed = 0
        problems, first_csvs, layers, bytes_written = [], {}, [], []
        kinds = ("untraced", "traced") if args.trace else ("untraced",)
        t0 = time.monotonic()
        for rounds in range(1, 10**6):
            for kind in kinds:
                report = run_child(root, work, config, threads, trace_id=len(samples[kind]) if kind == "traced" else None)
                attempted += len(workload.plans)
                if "error" in report:
                    failed += len(workload.plans)
                    problems.append(report["error"])
                    continue
                n_bad, found, csvs = check_outputs(workload, work / "out", args.seed, first_csvs)
                failed += n_bad
                problems += found
                for stem, text in csvs.items():
                    first_csvs.setdefault(stem, text)
                samples[kind].append(
                    {
                        "replicas_per_s": evaluations / (report["t_done"] - report["t_setup"]),
                        "wall_s": report["t_done"] - report["t_spawn"],
                        "setup_s": report["t_setup"] - report["t_spawn"],
                        "peak_rss_mb": report["peak_rss_kib"] * 1024 / 1e6,
                    }
                )
                if kind == "traced":
                    trace = report["trace"]
                    if trace["missing"]:
                        problems.append("trace: boundaries not found: " + ", ".join(trace["missing"]))
                    recorded = [spans.Span(*row) for row in trace["spans"]]
                    layers.append(spans.layer_metrics(recorded, evaluations, threads))
                    bytes_written.append(output_bytes(work / "out"))
            now = time.monotonic()
            if rounds >= MIN_CHILDREN and now - t0 >= args.seconds:
                break
            if now - T_BEGIN + (now - t0) / rounds > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not samples["untraced"] or (args.trace and not samples["traced"]):
        print("perfbench: no child run completed", file=sys.stderr)
        for p in problems[:20]:
            print(f"  {p}", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        untraced_rps = statistics.median([s["replicas_per_s"] for s in samples["untraced"]])
        traced_rps = statistics.median([s["replicas_per_s"] for s in samples["traced"]])
        for name in layers[0]:
            metrics[name] = statistics.median([lay[name] for lay in layers])
        metrics["cli.bytes_written"] = statistics.median(bytes_written)
        metrics["trace.overhead_share"] = 1.0 - traced_rps / untraced_rps
        units = UNITS_PER_LAYER
    else:
        for name in ("replicas_per_s", "wall_s", "setup_s", "peak_rss_mb"):
            metrics[name] = statistics.median([s[name] for s in samples["untraced"]])
        units = UNITS_END_TO_END

    machine = machine_block(root)
    n_children = len(samples["untraced"]) + len(samples["traced"])
    print(f"workload {workload.name}: seed {args.seed}, {threads} thread(s), {evaluations} replica evaluations per run")
    print(f"children {n_children} ({len(samples['untraced'])} untraced, {len(samples['traced'])} traced); metrics are medians")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} plan runs)")
    for p in list(dict.fromkeys(problems))[:20]:
        print(f"problem: {p}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results_dir = root / OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace, machine=machine, samples=samples, layers=layers, problems=problems)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


UNITS_END_TO_END = {"replicas_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS_PER_LAYER = {
    **{f"sampler.us_per_call.n{n}": "us" for n in spans.LADDER_N},
    "sampler.calls": "count",
    "sampler.share": "share",
    **{f"statistics.stat_self_us.n{n}": "us" for n in spans.LADDER_N},
    **{f"statistics.limit_self_us.n{n}": "us" for n in spans.LADDER_N},
    "weights.evals_per_replica": "count",
    "weights.us_per_replica": "us",
    "harness.self_us_per_replica": "us",
    "harness.busy_share": "share",
    "kernels.embedding_builds": "count",
    "kernels.setup_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_share": "share",
}

if __name__ == "__main__":
    sys.exit(main())
