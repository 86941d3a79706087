"""Monte Carlo estimation of mean-square gaps and CLT diagnostics.

Replica r of a plan always samples from the stream keyed (seed, r), so results
are a pure function of the plan. Replicas are evaluated in blocks of B paths,
B a function of the grid size alone; workers may be added or removed freely
and each block's values land in a buffer indexed by r before any reduction.
All reductions go through numpy's pairwise summation on those buffers, which
makes every reported number bit-identical across thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFit
from .kernels import HurstIndex, as_hurst
from .sampler import SamplerConfig, sample_fbm
from .statistics import FORMS, StatisticSpec, evaluate_statistic, limit_functional, require_form_admissible
from .weights import builtin

# A block of B >= 1 replicas at grid size n holds B * n <= BLOCK_POINTS points: its buffers
# stay well under 1 MB, and the per-call cost is paid once per block, not once per path.
BLOCK_POINTS = 8192


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a statistic, a ladder of grid sizes, seeded replicas."""

    hurst: HurstIndex
    spec: StatisticSpec
    n_ladder: tuple
    replicas: int
    seed: int
    method: str = "circulant"

    def __post_init__(self):
        object.__setattr__(self, "hurst", as_hurst(self.hurst))
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"n_ladder must be strictly increasing and nonempty, got {self.n_ladder}")
        if any(n < 1 for n in ladder):
            raise ValueError("ladder entries must be positive")
        object.__setattr__(self, "n_ladder", ladder)
        if self.replicas < 2:
            raise ValueError(f"replicas must be >= 2, got {self.replicas}")
        SamplerConfig(method=self.method, seed=self.seed)  # ValueError on a bad method or seed


@dataclass(frozen=True)
class McRecord:
    """Per-grid-size summary of the replica sample."""

    n: int
    l2_error: float
    stderr: float
    stat_mean: float
    stat_var: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class McReport:
    records: tuple
    rate_fit: RateFit | None


def block_size(n: int) -> int:
    """Replicas per block at grid size n: the largest B with B * n <= BLOCK_POINTS, at least 1."""
    return max(1, BLOCK_POINTS // n)


def _replica_values(plan: ExperimentPlan, h, n: int, threads: int, block: int) -> np.ndarray:
    """(statistic, limit or 0) of replicas 0..R-1 at grid size n, row r of a (R, 2) array.

    Replicas are drawn and evaluated in blocks of `block`. Workers are capped
    by the cores this process may run on and by the block count: more threads
    than that only add switching cost.
    """
    spec = plan.spec
    has_limit = FORMS[spec.form].limit is not None
    out = np.empty((plan.replicas, 2), dtype=np.float64)
    starts = range(0, plan.replicas, block)

    def work(r0: int) -> None:
        count = min(block, plan.replicas - r0)
        path = sample_fbm(plan.hurst, n, SamplerConfig(method=plan.method, seed=plan.seed, stream=r0), count)
        out[r0 : r0 + count, 0] = evaluate_statistic(path, h, spec)
        out[r0 : r0 + count, 1] = limit_functional(path, h, spec) if has_limit else 0.0

    workers = min(threads, len(os.sched_getaffinity(0)), len(starts))
    if workers <= 1:
        for r0 in starts:
            work(r0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, starts))
    return out


def _sample_moments(x: np.ndarray):
    """mean, unbiased variance, skewness and excess kurtosis of a sample."""
    r = x.size
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    var = m2 * r / (r - 1)
    if m2 > 0.0:
        skew = m3 / m2**1.5
        exkurt = m4 / m2**2 - 3.0
    else:
        skew = 0.0
        exkurt = 0.0
    return mean, var, skew, exkurt, m2, m4


def variance_stderr(m2: float, m4: float, r: int) -> float:
    """Standard error of the unbiased variance of a size-r sample with central moments m2 and m4."""
    inner = m4 - m2 * m2 * (r - 3) / (r - 1)
    return math.sqrt(max(inner, 0.0) / r)


def rate_target(spec: StatisticSpec, rec: McRecord) -> float:
    """What the rate fit regresses on n (log-log): l2_error for a form with a
    pathwise limit, the unnormalized sum variance n * stat_var otherwise."""
    return rec.n * rec.stat_var if FORMS[spec.form].limit is None else rec.l2_error


def _run_ladder(plan: ExperimentPlan, threads: int) -> McReport:
    """The ladder loop of both runners; its reduction depends on whether the form has a limit."""
    spec = plan.spec
    has_limit = FORMS[spec.form].limit is not None
    require_form_admissible(spec.form, spec.kappa, plan.hurst)
    h = builtin(spec.weight)
    records = []
    for n in plan.n_ladder:
        vals = _replica_values(plan, h, n, threads, block_size(n))
        stats = vals[:, 0]
        mean, var, skew, exkurt, m2, m4 = _sample_moments(stats)
        if has_limit:
            gaps_sq = (stats - vals[:, 1]) ** 2
            l2 = float(np.mean(gaps_sq))
            stderr = float(np.std(gaps_sq, ddof=1) / math.sqrt(plan.replicas))
        else:
            l2, stderr = 0.0, variance_stderr(m2, m4, plan.replicas)
        records.append(
            McRecord(
                n=n,
                l2_error=l2,
                stderr=stderr,
                stat_mean=mean,
                stat_var=var,
                skewness=skew,
                excess_kurtosis=exkurt,
            )
        )
    fit = None
    ys = [rate_target(spec, rec) for rec in records]
    if len(records) >= 3 and all(y > 0 for y in ys):
        fit = fit_rate([rec.n for rec in records], ys)
    return McReport(records=tuple(records), rate_fit=fit)


def run_l2_experiment(plan: ExperimentPlan, threads: int = 1) -> McReport:
    """Estimate E[(statistic - pathwise limit)^2] along the ladder.

    For each n the report records the mean of the squared pathwise gap, its
    standard error, and moments of the statistic sample; the rate fit
    regresses log(l2_error) on log(n).
    """
    if FORMS[plan.spec.form].limit is None:
        raise ValueError(f"run_l2_experiment needs an L2-limit form, got {plan.spec.form.value}")
    return _run_ladder(plan, threads)


def run_clt_diagnostics(plan: ExperimentPlan, threads: int = 1) -> McReport:
    """Moment diagnostics for the CLT/mixing regimes.

    l2_error is not meaningful here and is reported as 0; the stderr column
    carries the standard error of stat_var, which is the quantity the variance
    targets are checked against. The rate fit regresses the log of the
    unnormalized sum variance, log(n * stat_var), on log(n), matching the
    second-moment scaling question for the mixing regime.
    """
    if FORMS[plan.spec.form].limit is not None:
        raise ValueError(f"run_clt_diagnostics needs a diagnostic form, got {plan.spec.form.value}")
    return _run_ladder(plan, threads)


def fit_rate(ns: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Ordinary least squares of log(error) on log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if ns.shape != errors.shape or ns.size < 3:
        raise DegenerateFit(f"need >= 3 matched points, got {ns.size} and {errors.size}")
    if np.any(errors <= 0.0):
        raise DegenerateFit("all errors must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
