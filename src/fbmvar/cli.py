"""Command-line driver: run experiment configs, print the regime table, selftest.

Config documents are flat INI: one section per plan, keys hurst, kappa,
weight, form, n_ladder, replicas, seed, method and optionally out (file stem;
the section name by default).
`run` writes one CSV, one JSON summary and one .dat (log-log plot data) per
plan; numeric CSV fields carry 17 significant digits so they round-trip to the
exact float64. Diagnostics go to stderr, data to files/stdout. Exit codes:
0 ok, 2 config or usage error, 3 regime error, 4 embedding error (1 = failed
selftest).
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
from pathlib import Path

import numpy as np

from . import kernels, weights
from .errors import ConfigError, EmbeddingError, FbmvarError, OutputError, RegimeError
from .harness import (
    ExperimentPlan,
    McRecord,
    McReport,
    PathGroups,
    rate_target,
    run_clt_diagnostics,
    run_l2_experiment,
)
from .sampler import SamplerConfig, dump_path, sample_fbm
from .statistics import FORMS, StatisticSpec, breuer_major_variance, classify_regime

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


def parse_config(path, seed_override=None, replicas_override=None) -> list[PlanEntry]:
    """Parse an experiment config document into plans.

    ConfigError on a defect, including an output stem that is not a bare file
    name or that an earlier plan already uses; RegimeError on a plan whose
    form does not admit its (kappa, H). Both name the plan's section.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
            hurst = float(sec["hurst"])
            kappa = int(sec["kappa"])
            ladder = tuple(int(tok) for tok in sec["n_ladder"].replace(",", " ").split())
            replicas = int(replicas_override if replicas_override is not None else sec["replicas"])
            seed = int(seed_override if seed_override is not None else sec["seed"])
            method = sec.get("method", "circulant")
            plan = ExperimentPlan(
                hurst=kernels.as_hurst(hurst),
                spec=StatisticSpec(kappa=kappa, weight=sec["weight"], form=sec["form"]),
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
    """The plan's .csv, .json and .dat, and with dump_paths its replica-0 path per grid size."""
    plan = entry.plan
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
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    # every plan is built before the first group runs, so a bad one leaves no files
    entries = parse_config(args.config, seed_override=args.seed, replicas_override=args.replicas)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"--out {args.out}: {exc.strerror}") from exc
    groups = PathGroups([entry.plan for entry in entries])
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
    """Print the regime table as it is classified; more than REGIMES_MAX_ROWS rows exit 2 before any is built."""
    rows = len(args.kappas) * max(0, math.ceil((1.0 - 1e-12) / args.h_step) - 1)
    if rows > REGIMES_MAX_ROWS:
        print(f"error: --h-step {args.h_step:g} gives {rows} rows, more than the cap of {REGIMES_MAX_ROWS}", file=sys.stderr)
        return 2
    # without --csv the CSV rows go to the null device
    with _stdout():
        for line in _regime_table(args, rows, os.devnull if args.csv is None else args.csv):
            print(line)
    return 0


def _selftest_checks():
    import itertools

    def kernel_identities():
        for h in (0.05, 0.1, 0.25, 0.5, 0.75):
            for n in (4, 16, 64):
                cov = kernels.covariance_matrix(h, n)
                for k, ell in itertools.product(range(n), repeat=2):
                    pair = kernels.GridIndexPair(n=n, k=k, ell=ell)
                    want = cov[ell, k + 1] - cov[ell, k]
                    if abs(kernels.eps_delta_inner(h, pair) - want) > 1e-12:
                        return f"eps_delta mismatch at H={h}, n={n}, k={k}, ell={ell}"
                    want2 = cov[k + 1, ell + 1] - cov[k + 1, ell] - cov[k, ell + 1] + cov[k, ell]
                    if abs(kernels.delta_delta_inner(h, pair) - want2) > 1e-12:
                        return f"delta_delta mismatch at H={h}, n={n}, k={k}, ell={ell}"
        return None

    def variance_constant_converged():
        # the constant is the n -> infinity limit, so it must not move with the lag truncation
        for kappa, h in ((2, 0.7), (3, 0.45), (5, 0.3)):
            short = breuer_major_variance(h, kappa, lag_truncation=10**3)
            long = breuer_major_variance(h, kappa, lag_truncation=10**5)
            if abs(short - long) > 1e-8 * abs(long):
                return f"variance constant at kappa={kappa}, H={h}: {short:.10g} at P=1e3, {long:.10g} at P=1e5"
        return None

    def circulant_law():
        # the synthesis is linear in its 2n normals: fed the unit vectors it
        # gives A^T with fgn = A z, and A A^T must be n^{-2H} Toeplitz(rho_H)
        from .sampler import _block_fgn

        for n in (1, 2, 64):
            lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            for h in (0.1, 0.5, 0.9):
                a_t = _block_fgn(h, n, np.eye(2 * n))
                scale = float(n) ** (-2 * h)
                want = scale * kernels.increment_autocov_seq(h, n)[lag]
                err = float(np.max(np.abs(a_t.T @ a_t - want))) / scale
                if err > 2 * n * (math.log2(2 * n) + 2) * np.finfo(np.float64).eps:
                    return f"synthesis covariance off by {err:.2e} of its diagonal at H={h}, n={n}"
        return None

    def weight_derivatives():
        grid = np.linspace(-5.0, 5.0, 41)
        for wid in weights.BUILTIN_IDS:
            w = weights.builtin(wid)
            for order in range(1, w.max_order + 1):
                err = weights.check_derivatives(w, order, grid, 1e-4)
                if err > 1e-5:
                    return f"weight {wid} derivative order {order} off by {err:.2e}"
        return None

    def variance_constant():
        if abs(breuer_major_variance(0.5, 2, lag_truncation=10) - 2.0) > 1e-12:
            return "Brownian quadratic variance constant != 2"
        return None

    def circulant_spectrum():
        from .sampler import EIG_TOL, circulant_eigenvalues

        for h in (0.1, 0.5, 0.9):
            lam = circulant_eigenvalues(h, 512)
            if float(lam.min()) < -EIG_TOL * float(lam.max()):
                return f"negative circulant eigenvalue at H={h}"
        return None

    return (
        ("kernel_inner_product_identities", kernel_identities),
        ("variance_constant_converged", variance_constant_converged),
        ("circulant_law_exact", circulant_law),
        ("weight_derivative_table", weight_derivatives),
        ("brownian_variance_constant", variance_constant),
        ("circulant_spectrum_nonnegative", circulant_spectrum),
    )


def cmd_selftest(args) -> int:
    status = 0
    with _stdout():
        for name, check in _selftest_checks():
            detail = check()
            if detail is None:
                print(f"PASS {name}")
            else:
                print(f"FAIL {name}: {detail}")
                status = 1
    return status


def kappa_list(text: str) -> tuple:
    kappas = tuple(int(tok) for tok in text.replace(",", " ").split())
    if not kappas or min(kappas) < 2:
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
        help=f"H grid step (> 0; at most {REGIMES_MAX_ROWS} rows in all)",
    )
    p_reg.add_argument("--csv", default=None, help="also write the table as CSV here")
    p_reg.set_defaults(handler=cmd_regimes)

    sub.add_parser("selftest", help="run the fast invariant suite").set_defaults(handler=cmd_selftest)
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
