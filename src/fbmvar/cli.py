"""Command-line driver: run experiment configs, print the regime table.

Config documents are flat INI: one section per plan, keys hurst, kappa,
weight, form, n_ladder, replicas, seed, method and optionally out (file stem;
the section name by default).
`run` writes one CSV, one JSON summary and one .dat (log-log plot data) per
plan; numeric CSV fields carry 17 significant digits so they round-trip to the
exact float64. Diagnostics go to stderr, data to files/stdout. Exit codes:
0 ok, 2 config or usage error, 3 regime error, 4 embedding error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

from . import kernels
from .errors import ConfigError, EmbeddingError, FbmvarError, OutputError, RegimeError
from .harness import (
    MAX_REPLICAS,
    ExperimentPlan,
    McRecord,
    McReport,
    PathGroups,
    rate_target,
    run_clt_diagnostics,
    run_l2_experiment,
)
from .sampler import SamplerConfig, dump_path, sample_fbm
from .statistics import FORMS, StatisticSpec, classify_regime

# every McRecord field but n, which leads the row before the plan columns
_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(McRecord) if f.name != "n")
CSV_HEADER = ",".join(("n", "H", "kappa", "weight", "form") + _STAT_FIELDS)
# `regimes` refuses a table of more (kappa, H) rows than this (exit 2).
REGIMES_MAX_ROWS = 1_000_000


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclasses.dataclass(frozen=True)
class PlanEntry:
    name: str
    plan: ExperimentPlan
    out_stem: str


_REQUIRED_KEYS = ("hurst", "kappa", "weight", "form", "n_ladder", "replicas", "seed")
_KNOWN_KEYS = _REQUIRED_KEYS + ("method", "out")


def _number(key: str, text: str):
    """A config value as an int if it spells one (exactly: a seed keeps all 64 bits), else a float; else a ValueError naming `key`."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    raise ValueError(f"{key} must be a number, got {text!r}")


def parse_config(path, seed_override=None, replicas_override=None) -> list[PlanEntry]:
    """Parse an experiment config document into plans.

    ConfigError on a defect, including an output stem that is not a bare file
    name or that an earlier plan already uses; RegimeError on a plan whose
    form does not admit its (kappa, H). Both name the plan's section.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not parser.sections():
        raise ConfigError(f"{path}: config declares no plan sections")

    entries = []
    stems = {}
    for section in parser.sections():
        sec = parser[section]
        where = f"{path}: plan [{section}]"
        for key in _REQUIRED_KEYS:
            if key not in sec:
                raise ConfigError(f"{where}: missing required field '{key}'")
        for key in sec:
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{where}: unknown field '{key}'")
        try:
            ladder = tuple(_number("n_ladder entry", tok) for tok in sec["n_ladder"].replace(",", " ").split())
            replicas = replicas_override if replicas_override is not None else _number("replicas", sec["replicas"])
            seed = seed_override if seed_override is not None else _number("seed", sec["seed"])
            method = sec.get("method", "circulant")
            plan = ExperimentPlan(
                hurst=kernels.as_hurst(_number("hurst", sec["hurst"])),
                spec=StatisticSpec(kappa=_number("kappa", sec["kappa"]), weight=sec["weight"], form=sec["form"]),
                n_ladder=ladder,
                replicas=replicas,
                seed=seed,
                method=method,
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        except RegimeError as exc:
            raise RegimeError(f"{where}: {exc}") from exc
        stem = sec.get("out", section)
        if stem in ("", ".", "..") or "/" in stem or "\0" in stem:
            raise ConfigError(
                f"{where}: out stem {stem!r} must be a bare file name: not empty, '.' or '..', no '/' or NUL"
            )
        if stem in stems:
            raise ConfigError(f"{where}: out stem '{stem}' is already used by plan [{stems[stem]}]")
        stems[stem] = section
        entries.append(PlanEntry(name=section, plan=plan, out_stem=stem))
    return entries


@contextlib.contextmanager
def _output(path, name=None):
    """`path` opened for UTF-8 text with LF line ends.

    An OSError of the open, a write or the close becomes an OutputError naming `name`, by default `path`.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"{name or path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _stdout():
    """Print to stdout, flushed at the end; a failed print or flush becomes an OutputError naming <stdout>.

    On failure stdout's descriptor is pointed at the null device, so that the
    interpreter's own flush at exit finds no closed pipe to report.
    """
    try:
        yield
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise OutputError(f"<stdout>: {exc.strerror}") from exc


def _write_csv(path: Path, plan: ExperimentPlan, report: McReport) -> None:
    lead = [_fmt(plan.hurst.value), str(plan.spec.kappa), plan.spec.weight, plan.spec.form.value]
    with _output(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in report.records:
            fh.write(",".join([str(rec.n), *lead, *(_fmt(getattr(rec, f)) for f in _STAT_FIELDS)]) + "\n")


def _write_json(path: Path, name: str, plan: ExperimentPlan, report: McReport) -> None:
    doc = {
        "plan": {
            "name": name,
            "hurst": plan.hurst.value,
            "kappa": plan.spec.kappa,
            "weight": plan.spec.weight,
            "form": plan.spec.form.value,
            "n_ladder": list(plan.n_ladder),
            "replicas": plan.replicas,
            "seed": plan.seed,
            "method": plan.method,
        },
        "records": [dataclasses.asdict(rec) for rec in report.records],
        "rate_fit": None if report.rate_fit is None else dataclasses.asdict(report.rate_fit),
    }
    with _output(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_dat(path: Path, plan: ExperimentPlan, report: McReport) -> None:
    # log-log plot data; diagnostic plans plot the unnormalized sum variance
    points = [(rec.n, rate_target(plan.spec, rec)) for rec in report.records]
    lines = [f"{_fmt(math.log(n))} {_fmt(math.log(y))}" for n, y in points if y > 0]
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_plan(out: Path, entry: PlanEntry, report: McReport, dump_paths: bool) -> None:
    """The plan's .csv, .json and .dat, and with dump_paths its replica-0 path per grid size.

    A record value that overflowed float64 (inf or NaN, which JSON cannot
    hold) is an FbmvarError naming the plan and its kappa, before any file.
    """
    plan = entry.plan
    for rec in report.records:
        bad = [f"{f} = {getattr(rec, f)}" for f in _STAT_FIELDS if not math.isfinite(getattr(rec, f))]
        if bad:
            raise FbmvarError(
                f"plan [{entry.name}]: kappa = {plan.spec.kappa} overflows float64 at n = {rec.n} ({', '.join(bad)})"
            )
    _write_csv(out / f"{entry.out_stem}.csv", plan, report)
    _write_json(out / f"{entry.out_stem}.json", entry.name, plan, report)
    _write_dat(out / f"{entry.out_stem}.dat", plan, report)
    if dump_paths:
        for n in plan.n_ladder:
            path = sample_fbm(plan.hurst, n, SamplerConfig(method=plan.method, seed=plan.seed, stream=0))
            with _output(out / f"{entry.out_stem}_n{n}.path") as fh:
                dump_path(path, fh)


def cmd_run(args) -> int:
    if args.threads < 1:
        raise FbmvarError(f"--threads must be >= 1, got {args.threads}")
    # a bad override is the flag's, not the first plan's that takes it
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise FbmvarError(f"--seed must be in [0, 2^64), got {args.seed}")
    if args.replicas is not None and not 2 <= args.replicas <= MAX_REPLICAS:
        raise FbmvarError(f"--replicas must be in [2, MAX_REPLICAS = {MAX_REPLICAS}], got {args.replicas}")
    # every plan is built before the first group runs, so a bad one leaves no files
    entries = parse_config(args.config, seed_override=args.seed, replicas_override=args.replicas)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"--out {args.out}: {exc.strerror}") from exc
    groups = PathGroups([entry.plan for entry in entries])
    # an overflow ends as a record that is not finite, which _write_plan reports by plan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for entry in entries:
            runner = run_clt_diagnostics if FORMS[entry.plan.spec.form].limit is None else run_l2_experiment
            report = runner(entry.plan, threads=args.threads, groups=groups)
            _write_plan(out, entry, report, args.dump_paths)
    return 0


def _regime_table(args, rows: int, csv_path):
    """The (kappa, H) -> regime table as stdout lines, one row per (kappa, H), then its legend.

    Each row's CSV line goes to csv_path once the row is yielded. The caller
    prints, so a failed print is never taken for a failed CSV write.
    """
    legend = {}
    with _output(csv_path, f"--csv {csv_path}") as csv:
        yield f"# regime table: H grid = multiples of {args.h_step:g} strictly inside (0, 1)"
        yield "# open theorem endpoints (1/4, 3/4 where applicable) label as boundary_unsupported"
        yield f"{'kappa':>5} {'H':>8}  {'unweighted':<24} {'weighted':<24}"
        csv.write("kappa,H,unweighted_regime,unweighted_citation,weighted_regime,weighted_citation\n")
        for kappa in args.kappas:
            for k in range(1, rows // len(args.kappas) + 1):
                hv = round(k * args.h_step, 12)
                plain = classify_regime(kappa, hv, False)
                weighted = classify_regime(kappa, hv, True)
                legend[(plain.label.value, plain.citation)] = None
                legend[(weighted.label.value, weighted.citation)] = None
                yield f"{kappa:>5} {hv:>8.4g}  {plain.label.value:<24} {weighted.label.value:<24}"
                csv.write(
                    f"{kappa},{_fmt(hv)},{plain.label.value},\"{plain.citation}\","
                    f"{weighted.label.value},\"{weighted.citation}\"\n"
                )
    yield "# legend:"
    for name, citation in legend:
        yield f"#   {name}: {citation}"


def cmd_regimes(args) -> int:
    """Print the regime table as it is classified; no rows, or more than REGIMES_MAX_ROWS, exit 2 before any is built."""
    rows = len(args.kappas) * max(0, math.ceil((1.0 - 1e-12) / args.h_step) - 1)
    if rows == 0:
        raise FbmvarError(f"--h-step {args.h_step!r} gives no H strictly inside (0, 1), so no rows")
    if rows > REGIMES_MAX_ROWS:
        raise FbmvarError(f"--h-step {args.h_step:g} gives {rows} rows, more than the cap of {REGIMES_MAX_ROWS}")
    # without --csv the CSV rows go to the null device
    with _stdout():
        for line in _regime_table(args, rows, os.devnull if args.csv is None else args.csv):
            print(line)
    return 0


def kappa_list(text: str) -> tuple:
    """Comma- or space-separated kappas, each read as a config's kappa is: an integer >= 2, "2.0" as 2."""
    try:
        kappas = tuple(kernels.as_integer(_number("kappa", tok), "kappa", 2) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not kappas:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 2, got {text!r}")
    return kappas


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbmvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the plans in a config document")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override every plan's seed")
    p_run.add_argument("--replicas", type=int, default=None, help="override every plan's replica count")
    p_run.add_argument("--threads", type=int, default=1, help="worker thread cap (>= 1; also capped by cores)")
    p_run.add_argument("--dump-paths", action="store_true", help="dump replica-0 paths as text")
    p_run.set_defaults(handler=cmd_run)

    p_reg = sub.add_parser("regimes", help="print the regime classification table")
    p_reg.add_argument("--kappas", type=kappa_list, default="2,3", help="comma-separated kappa list (each >= 2)")
    p_reg.add_argument(
        "--h-step", type=positive_float, default=0.05,
        help=f"H grid step (> 0, below 1; at most {REGIMES_MAX_ROWS} rows in all)",
    )
    p_reg.add_argument("--csv", default=None, help="also write the table as CSV here")
    p_reg.set_defaults(handler=cmd_regimes)

    return parser


# exit code and stderr label of an FbmvarError, by its first matching class
EXITS = (
    (ConfigError, 2, "config error"),
    (RegimeError, 3, "regime error"),
    (EmbeddingError, 4, "embedding error"),
    (FbmvarError, 2, "error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FbmvarError as exc:
        code, label = next((code, label) for cls, code, label in EXITS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
