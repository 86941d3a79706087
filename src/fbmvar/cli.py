"""Command-line driver: run experiment configs, print the regime table, selftest.

Config documents are flat INI: one section per plan, keys hurst, kappa,
weight, form, n_ladder, replicas, seed, method and optionally out (file stem).
`run` writes one CSV, one JSON summary and one .dat (log-log plot data) per
plan; numeric CSV fields carry 17 significant digits so they round-trip to the
exact float64. Diagnostics go to stderr, data to files/stdout. Exit codes:
0 ok, 2 config error, 3 regime error, 4 embedding error (1 = failed selftest).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels, weights
from .errors import ConfigError, EmbeddingError, FbmvarError, RegimeError
from .harness import ExperimentPlan, McRecord, McReport, rate_target, run_clt_diagnostics, run_l2_experiment
from .sampler import SamplerConfig, dump_path, sample_fbm
from .statistics import FORMS, StatisticSpec, classify_regime

# every McRecord field but n, which leads the row before the plan columns
_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(McRecord) if f.name != "n")
CSV_HEADER = ",".join(("n", "H", "kappa", "weight", "form") + _STAT_FIELDS)


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
    """Parse an experiment config document into plans; ConfigError on defects."""
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
            spec = StatisticSpec(kappa=kappa, weight=sec["weight"], form=sec["form"])
            if spec.weight not in weights.BUILTIN_IDS:
                raise ValueError(f"unknown weight id '{spec.weight}'")
            plan = ExperimentPlan(
                hurst=kernels.as_hurst(hurst),
                spec=spec,
                n_ladder=ladder,
                replicas=replicas,
                seed=seed,
                method=method,
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        entries.append(PlanEntry(name=section, plan=plan, out_stem=sec.get("out", section)))
    return entries


def _write_csv(path: Path, plan: ExperimentPlan, report: McReport) -> None:
    lead = [_fmt(plan.hurst.value), str(plan.spec.kappa), plan.spec.weight, plan.spec.form.value]
    lines = [CSV_HEADER]
    for rec in report.records:
        lines.append(",".join([str(rec.n), *lead, *(_fmt(getattr(rec, f)) for f in _STAT_FIELDS)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def _write_dat(path: Path, plan: ExperimentPlan, report: McReport) -> None:
    # log-log plot data; diagnostic plans plot the unnormalized sum variance
    lines = []
    for rec in report.records:
        y = rate_target(plan.spec, rec)
        if y > 0:
            lines.append(f"{_fmt(math.log(rec.n))} {_fmt(math.log(y))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def cmd_run(config_path, out_dir, seed=None, replicas=None, threads=1, dump_paths=False) -> int:
    if threads < 1:
        print(f"error: --threads must be >= 1, got {threads}", file=sys.stderr)
        return 2
    try:
        entries = parse_config(config_path, seed_override=seed, replicas_override=replicas)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        for entry in entries:
            plan = entry.plan
            runner = run_clt_diagnostics if FORMS[plan.spec.form].limit is None else run_l2_experiment
            report = runner(plan, threads=threads)
            _write_csv(out / f"{entry.out_stem}.csv", plan, report)
            _write_json(out / f"{entry.out_stem}.json", entry.name, plan, report)
            _write_dat(out / f"{entry.out_stem}.dat", plan, report)
            if dump_paths:
                for n in plan.n_ladder:
                    cfg = SamplerConfig(method=plan.method, seed=plan.seed, stream=0)
                    path = sample_fbm(plan.hurst, n, cfg)
                    with open(out / f"{entry.out_stem}_n{n}.path", "w", encoding="utf-8", newline="\n") as fh:
                        dump_path(path, fh)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    except EmbeddingError as exc:
        print(f"embedding error: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_regimes(kappas=(2, 3), h_step=0.05, csv_path=None) -> int:
    """Print the (kappa, H) -> regime table, one row per (kappa, H).

    Each row carries the unweighted and the weighted regime label; the legend
    below the table maps every label that occurred to its citation.
    """
    grid = []
    k = 1
    while True:
        hv = k * h_step
        if hv >= 1.0 - 1e-12:
            break
        grid.append(round(hv, 12))
        k += 1
    print(f"# regime table: H grid = multiples of {h_step:g} strictly inside (0, 1)")
    print("# boundary H values (1/6, 1/4, 1/2, 3/4 where applicable) label as boundary_unsupported")
    print(f"{'kappa':>5} {'H':>8}  {'unweighted':<24} {'weighted':<24}")
    rows = []
    legend = {}
    for kappa in kappas:
        for hv in grid:
            plain = classify_regime(kappa, hv, False)
            weighted = classify_regime(kappa, hv, True)
            rows.append((kappa, hv, plain, weighted))
            legend[(plain.label.value, plain.citation)] = None
            legend[(weighted.label.value, weighted.citation)] = None
            print(f"{kappa:>5} {hv:>8.4g}  {plain.label.value:<24} {weighted.label.value:<24}")
    print("# legend:")
    for name, citation in legend:
        print(f"#   {name}: {citation}")
    if csv_path is not None:
        lines = ["kappa,H,unweighted_regime,unweighted_citation,weighted_regime,weighted_citation"]
        for kappa, hv, plain, weighted in rows:
            lines.append(
                f"{kappa},{_fmt(hv)},{plain.label.value},\"{plain.citation}\","
                f"{weighted.label.value},\"{weighted.citation}\""
            )
        Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
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

    def increment_sum_bound():
        # 1e-9 slack covers float rounding of the powers at magnitudes <= 1e6
        x = np.linspace(0.0, 1e6, 20001)
        for h in (0.05, 0.2, 0.35, 0.5):
            g = (x + 1.0) ** (2 * h) - x ** (2 * h)
            if not (np.all(g >= -1e-9) and np.all(g <= 1.0 + 1e-9)):
                return f"increment bound violated for H={h}"
        return None

    def cholesky_reconstruction():
        n = 64
        for h in (0.1, 0.5, 0.9):
            sigma = kernels.covariance_matrix(h, n)[1:, 1:]
            factor = np.linalg.cholesky(sigma)
            err = float(np.max(np.abs(factor @ factor.T - sigma)))
            if err > 1e-10:
                return f"cholesky reconstruction error {err:.2e} at H={h}"
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
        spec = kernels.BreuerMajorSpec(hurst=kernels.HurstIndex(0.5), kappa=2, lag_truncation=10)
        if abs(kernels.breuer_major_variance(spec) - 2.0) > 1e-12:
            return "Brownian quadratic variance constant != 2"
        return None

    def circulant_spectrum():
        from .sampler import circulant_eigenvalues

        for h in (0.1, 0.5, 0.9):
            lam = circulant_eigenvalues(h, 512)
            if float(lam.min()) < -1e-9 * float(lam.max()):
                return f"negative circulant eigenvalue at H={h}"
        return None

    return (
        ("kernel_inner_product_identities", kernel_identities),
        ("increment_power_bound", increment_sum_bound),
        ("cholesky_reconstruction_n64", cholesky_reconstruction),
        ("weight_derivative_table", weight_derivatives),
        ("brownian_variance_constant", variance_constant),
        ("circulant_spectrum_nonnegative", circulant_spectrum),
    )


def cmd_selftest() -> int:
    status = 0
    for name, check in _selftest_checks():
        detail = check()
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            status = 1
    return status


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

    p_reg = sub.add_parser("regimes", help="print the regime classification table")
    p_reg.add_argument("--kappas", default="2,3", help="comma-separated kappa list")
    p_reg.add_argument("--h-step", type=float, default=0.05, help="H grid step")
    p_reg.add_argument("--csv", default=None, help="also write the table as CSV here")

    sub.add_parser("selftest", help="run the fast invariant suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(
                args.config,
                args.out,
                seed=args.seed,
                replicas=args.replicas,
                threads=args.threads,
                dump_paths=args.dump_paths,
            )
        if args.command == "regimes":
            kappas = tuple(int(tok) for tok in args.kappas.replace(",", " ").split())
            return cmd_regimes(kappas=kappas, h_step=args.h_step, csv_path=args.csv)
        if args.command == "selftest":
            return cmd_selftest()
    except FbmvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entrypoint() -> None:
    sys.exit(main())
