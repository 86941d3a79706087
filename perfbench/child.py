"""One `fbmvar run` in a fresh process, timed from outside the package.

    python3 perfbench/child.py --src SRC --config CONFIG --out DIR --threads T
        --report REPORT.json [--trace RUN_ID] [--warmup]

Set-up is import, `parse_config` and one `sample_fbm` call per (H, n) of the
config, which builds the circulant coefficients that the run then reuses.
The timed section is `fbmvar.cli.main(["run", ...])`. Timestamps are
time.monotonic(), which on Linux is one clock for every process, so the
parent can subtract its own spawn time. With --trace the module boundaries
are wrapped (see spans.py) and the spans go into the report; with --warmup
the child stops after set-up, which only compiles bytecode and fills the OS
file cache.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=None)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    import fbmvar.cli
    import fbmvar.harness
    import fbmvar.sampler

    src = Path(args.src).resolve()
    if src not in Path(fbmvar.__file__).resolve().parents:
        print(f"child: imported fbmvar from {fbmvar.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer, missing = None, []
    if args.trace is not None:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(
            tracer, {m.__name__: m for m in (fbmvar.cli, fbmvar.harness, fbmvar.sampler)}
        )

    for entry in fbmvar.cli.parse_config(args.config):
        plan = entry.plan
        for n in plan.n_ladder:
            cfg = fbmvar.sampler.SamplerConfig(method=plan.method, seed=plan.seed, stream=0)
            fbmvar.sampler.sample_fbm(plan.hurst, n, cfg)
    t_setup = time.monotonic()

    rc = 0
    t_done = t_setup
    if not args.warmup:
        rc = fbmvar.cli.main(["run", "--config", args.config, "--out", args.out, "--threads", args.threads])
        t_done = time.monotonic()

    report = {
        "t_setup": t_setup,
        "t_done": t_done,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = {"run_id": args.trace, "missing": missing, "spans": [list(s) for s in tracer.spans]}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
