"""Workload definitions, config generation and output checks.

A workload is a list of plans plus a worker-thread count. Each plan becomes
one INI section of the config that `fbmvar run` receives; the workload seed
is written into every section's `seed` field and nowhere else, so the program
sees only the generated config.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20080612
MAX_SEED = 2**64
CSV_FIELDS = (
    "n",
    "H",
    "kappa",
    "weight",
    "form",
    "l2_error",
    "stderr",
    "stat_mean",
    "stat_var",
    "skewness",
    "excess_kurtosis",
)
# Catches a changed law or random stream (those move every field by ~1/sqrt(R))
# while tolerating the ~1e-15 relative float changes of an equivalent FFT path.
STORED_REL_TOL = 1e-9
STORED_ABS_TOL = 1e-12
# Theory checks in standard errors, sized so that a correct program fails them
# with negligible probability at any seed.
CLT_VAR_SE = 5.0
L2_STEP_RISE_SE = 3.0
MIXING_FLAT_SE = 4.0
CLT_MAX_LAG = 10**6

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
LADDER_FULL = (128, 512, 2048, 8192)


@dataclass(frozen=True)
class Plan:
    stem: str
    hurst: float
    kappa: int
    weight: str
    form: str
    n_ladder: tuple
    replicas: int

    def evaluations(self) -> int:
        return self.replicas * len(self.n_ladder)


@dataclass(frozen=True)
class Workload:
    name: str
    plans: tuple
    threads: str  # "1" or "nproc"

    def thread_count(self) -> int:
        return 1 if self.threads == "1" else len(os.sched_getaffinity(0))

    def evaluations(self) -> int:
        return sum(p.evaluations() for p in self.plans)


def _quadratic(ladder, replicas):
    return Plan("crit6_quadratic_l2", 0.10, 2, "x2", "centered_quadratic", ladder, replicas)


def _cubic(ladder, replicas):
    return Plan("crit7_cubic_l2", 0.10, 3, "sin", "compensated_cubic", ladder, replicas)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clt_n8192",
            (Plan("crit5_breuer_major", 0.3, 2, "one", "unweighted_centered", (8192,), 1000),),
            "1",
        ),
        Workload(
            "l2_small_n",
            (
                _quadratic((128, 512), 2000),
                _cubic((128, 512), 2000),
                Plan("crit8_odd_drift", 0.35, 3, "x", "odd_weighted", (128, 512), 2000),
            ),
            "1",
        ),
        Workload(
            "ladder_threads",
            (
                _quadratic(LADDER_FULL, 400),
                _cubic(LADDER_FULL, 400),
                Plan("crit9_mixing_scaling", 0.35, 2, "x2", "mixing_normalized", LADDER_FULL, 400),
            ),
            "nproc",
        ),
    )
}


@functools.lru_cache(maxsize=None)
def quadratic_clt_variance(hurst: float) -> float:
    """Breuer-Major variance of the centred quadratic variation: 2 sum_p rho_H(p)^2.

    Computed here, independently of the package, from the fGn autocovariance
    rho_H(p) = (|p+1|^2H + |p-1|^2H - 2|p|^2H) / 2; the lag tail beyond
    CLT_MAX_LAG decays like p^(4H-4) and is negligible for H <= 0.3.
    """
    p = np.arange(CLT_MAX_LAG + 1, dtype=np.float64)
    two_h = 2.0 * hurst
    rho = 0.5 * ((p + 1.0) ** two_h + np.abs(p - 1.0) ** two_h - 2.0 * p**two_h)
    return 2.0 * (rho[0] ** 2 + 2.0 * float(np.sum(rho[1:] ** 2)))


def make_config(workload: Workload, seed: int) -> str:
    """INI text of the workload's plans, every section seeded with `seed`."""
    lines = []
    for p in workload.plans:
        lines += [
            f"[{p.stem}]",
            f"hurst = {p.hurst!r}",
            f"kappa = {p.kappa}",
            f"weight = {p.weight}",
            f"form = {p.form}",
            "n_ladder = " + " ".join(str(n) for n in p.n_ladder),
            f"replicas = {p.replicas}",
            f"seed = {seed}",
            "method = circulant",
            "",
        ]
    return "\n".join(lines)


def parse_csv(text: str) -> list:
    """Rows of a plan CSV as dicts; ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_FIELDS:
        raise ValueError("CSV header differs from the documented field list")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_FIELDS):
            raise ValueError(f"CSV row has {len(cells)} fields: {line!r}")
        row = dict(zip(CSV_FIELDS, cells))
        for key in CSV_FIELDS:
            if key not in ("weight", "form"):
                row[key] = float(row[key])
        rows.append(row)
    return rows


def _se_pair(a: dict, b: dict) -> float:
    return math.hypot(a["stderr"], b["stderr"])


def theory_problems(plan: Plan, rows: list) -> list:
    """Checks of the plan's rows against its theory target, at any seed."""
    problems = []
    if [int(r["n"]) for r in rows] != list(plan.n_ladder):
        return [f"{plan.stem}: ladder {[r['n'] for r in rows]} != {list(plan.n_ladder)}"]
    for r in rows:
        numbers = [r[k] for k in CSV_FIELDS if k not in ("weight", "form")]
        if not all(math.isfinite(x) for x in numbers):
            problems.append(f"{plan.stem}: non-finite field at n={r['n']:.0f}")
    if problems:
        return problems
    if plan.form == "unweighted_centered":  # kappa = 2 in every workload
        r = rows[-1]
        clt_variance = quadratic_clt_variance(plan.hurst)
        z = abs(r["stat_var"] - clt_variance) / r["stderr"]
        if not z <= CLT_VAR_SE:
            problems.append(f"{plan.stem}: stat_var {r['stat_var']:.5g} is {z:.1f} SE from {clt_variance:.5g}")
    elif plan.form == "mixing_normalized":
        # n * Var(sum) ~ n means the normalized variance stays flat along the ladder
        z = abs(rows[-1]["stat_var"] - rows[0]["stat_var"]) / _se_pair(rows[0], rows[-1])
        if not z <= MIXING_FLAT_SE:
            problems.append(f"{plan.stem}: stat_var moves {z:.1f} SE along the ladder")
    else:
        if not rows[-1]["l2_error"] < rows[0]["l2_error"]:
            problems.append(f"{plan.stem}: L2 ladder does not decrease from first to last n")
        for a, b in zip(rows, rows[1:]):
            rise = (b["l2_error"] - a["l2_error"]) / _se_pair(a, b)
            if rise > L2_STEP_RISE_SE:
                problems.append(f"{plan.stem}: L2 error rises {rise:.1f} SE from n={a['n']:.0f} to {b['n']:.0f}")
    return problems


def stored_problems(plan: Plan, rows: list, stored_text: str) -> list:
    """Field-by-field comparison with the CSV stored for the default seed."""
    want = parse_csv(stored_text)
    if len(want) != len(rows):
        return [f"{plan.stem}: {len(rows)} rows, stored {len(want)}"]
    problems = []
    for got_row, want_row in zip(rows, want):
        for key in CSV_FIELDS:
            got, exp = got_row[key], want_row[key]
            same = got == exp if isinstance(exp, str) else math.isclose(
                got, exp, rel_tol=STORED_REL_TOL, abs_tol=STORED_ABS_TOL
            )
            if not same:
                problems.append(f"{plan.stem}: n={want_row['n']:.0f} {key} {got!r} != stored {exp!r}")
    return problems


def expected_path(workload: Workload) -> Path:
    return EXPECTED_DIR / f"{workload.name}.json"


def load_stored(workload: Workload) -> dict:
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)
