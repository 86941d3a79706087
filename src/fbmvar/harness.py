"""Monte Carlo estimation of mean-square gaps and CLT diagnostics.

Replica r of a plan always samples from the stream keyed (seed, r), so results
are a pure function of the plan. Plans with equal (seed, method, n_ladder,
replicas) hold one replica set and run as one group: each block's normals are
drawn once, its paths are synthesized once per H of the group, and every
member evaluates its statistic on its H's paths. Replicas are evaluated in
blocks of B paths, B a function of the grid size alone; workers may be added
or removed freely and each block's values land in a buffer indexed by r
before any reduction. All reductions go through numpy's pairwise summation on those
buffers, which makes every reported number bit-identical across thread counts
and the same whether a plan runs alone or in a group.
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
from .sampler import MAX_GRID_SIZE, SamplerConfig, block_size, sample_fbm
from .statistics import FORMS, StatisticSpec, evaluate_statistic, limit_functional, require_form_admissible
from .weights import builtin

# The largest replica count a plan may ask for, so that a run's memory stays bounded: a run
# of one plan at n = 16 and 1 thread peaks at about 343 MiB RSS at this count.
MAX_REPLICAS = 10**7


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a statistic on a cell its form admits, a ladder of grid sizes, seeded replicas."""

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
        if ladder[-1] > MAX_GRID_SIZE:
            raise ValueError(f"n_ladder entries must be at most MAX_GRID_SIZE = {MAX_GRID_SIZE}, got {ladder[-1]}")
        object.__setattr__(self, "n_ladder", ladder)
        if not 2 <= self.replicas <= MAX_REPLICAS:
            raise ValueError(f"replicas must be in [2, MAX_REPLICAS = {MAX_REPLICAS}], got {self.replicas}")
        SamplerConfig(method=self.method, seed=self.seed)  # ValueError on a bad method or seed
        require_form_admissible(self.spec.form, self.spec.kappa, self.hurst)


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


def _path_key(plan: ExperimentPlan):
    """A plan's replica set: replica r < R reads stream (seed, r) of this sampler at each rung; H enters only the synthesis."""
    return plan.seed, plan.method, plan.n_ladder, plan.replicas


def _replica_values(weights: dict, n: int, threads: int, block: int) -> dict:
    """(statistic, limit or 0) of each plan's replicas at grid size n, row r of a (R, 2) array per plan.

    `weights` maps plans of one path key to their weight functions. Each block
    of `block` paths is drawn once per H, in the order the plans first name
    it, and every plan at that H evaluates its statistic on all of its rows;
    the sampler reuses the block's normals after the first H. Workers are
    capped by the cores this process may run on and by the block count: more
    threads than that only add switching cost.
    """
    seed, method, _, replicas = _path_key(next(iter(weights)))
    outs = {plan: np.empty((replicas, 2), dtype=np.float64) for plan in weights}
    by_hurst = {}
    for plan, h in weights.items():
        by_hurst.setdefault(plan.hurst, {})[plan] = h
    starts = range(0, replicas, block)

    def work(r0: int) -> None:
        count = min(block, replicas - r0)
        config = SamplerConfig(method=method, seed=seed, stream=r0)
        for hurst, members in by_hurst.items():
            path = sample_fbm(hurst, n, config, count)
            for plan, h in members.items():
                out = outs[plan][r0 : r0 + count]
                out[:, 0] = evaluate_statistic(path, h, plan.spec)
                out[:, 1] = limit_functional(path, h, plan.spec) if FORMS[plan.spec.form].limit is not None else 0.0

    workers = min(threads, len(os.sched_getaffinity(0)), len(starts))
    if workers <= 1:
        for r0 in starts:
            work(r0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, starts))
    return outs


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


def _record(plan: ExperimentPlan, n: int, vals: np.ndarray) -> McRecord:
    """One ladder step's summary of the (R, 2) replica values; its reduction depends on whether the form has a limit."""
    stats = vals[:, 0]
    mean, var, skew, exkurt, m2, m4 = _sample_moments(stats)
    if FORMS[plan.spec.form].limit is not None:
        gaps_sq = (stats - vals[:, 1]) ** 2
        l2 = float(np.mean(gaps_sq))
        stderr = float(np.std(gaps_sq, ddof=1) / math.sqrt(plan.replicas))
    else:
        l2, stderr = 0.0, variance_stderr(m2, m4, plan.replicas)
    return McRecord(
        n=n,
        l2_error=l2,
        stderr=stderr,
        stat_mean=mean,
        stat_var=var,
        skewness=skew,
        excess_kurtosis=exkurt,
    )


def _run_group(plans: Sequence[ExperimentPlan], threads: int) -> dict:
    """The report of every plan of one path key, from one draw of the shared normals.

    Grid sizes run in ladder order; at each, every plan holds one (R, 2)
    buffer until its record is reduced.
    """
    weights = {plan: builtin(plan.spec.weight) for plan in plans}
    records = {plan: [] for plan in plans}
    for n in plans[0].n_ladder:
        for plan, vals in _replica_values(weights, n, threads, block_size(n)).items():
            records[plan].append(_record(plan, n, vals))
    reports = {}
    for plan, recs in records.items():
        fit = None
        ys = [rate_target(plan.spec, rec) for rec in recs]
        if len(recs) >= 3 and all(y > 0 for y in ys):
            fit = fit_rate([rec.n for rec in recs], ys)
        reports[plan] = McReport(records=tuple(recs), rate_fit=fit)
    return reports


class PathGroups:
    """The plans of one run grouped by the paths they read, and each group's reports once computed.

    Plans with equal (seed, method, n_ladder, replicas) read the same replica
    streams, whatever their H. The first report asked of a group runs all its
    members on one draw of each block's normals, synthesized once per H of the
    group; later requests return the stored reports.
    """

    def __init__(self, plans: Sequence[ExperimentPlan]):
        self._groups = {}
        for plan in plans:
            self._groups.setdefault(_path_key(plan), {})[plan] = None
        self._reports = {}

    def report(self, plan: ExperimentPlan, threads: int) -> McReport:
        if plan not in self._reports:
            members = self._groups.get(_path_key(plan), {})
            if plan not in members:
                raise ValueError("plan is not one of this run's plans")
            self._reports.update(_run_group(tuple(members), threads))
        return self._reports[plan]


def run_l2_experiment(plan: ExperimentPlan, threads: int = 1, groups: PathGroups | None = None) -> McReport:
    """Estimate E[(statistic - pathwise limit)^2] along the ladder.

    For each n the report records the mean of the squared pathwise gap, its
    standard error, and moments of the statistic sample; the rate fit
    regresses log(l2_error) on log(n). With `groups`, the plan shares its
    paths with the other plans of its group; without, it runs alone.
    """
    if FORMS[plan.spec.form].limit is None:
        raise ValueError(f"run_l2_experiment needs an L2-limit form, got {plan.spec.form.value}")
    return (PathGroups([plan]) if groups is None else groups).report(plan, threads)


def run_clt_diagnostics(plan: ExperimentPlan, threads: int = 1, groups: PathGroups | None = None) -> McReport:
    """Moment diagnostics for the CLT/mixing regimes.

    l2_error is not meaningful here and is reported as 0; the stderr column
    carries the standard error of stat_var, which is the quantity the variance
    targets are checked against. The rate fit regresses the log of the
    unnormalized sum variance, log(n * stat_var), on log(n), matching the
    second-moment scaling question for the mixing regime. `groups` is as for
    `run_l2_experiment`.
    """
    if FORMS[plan.spec.form].limit is not None:
        raise ValueError(f"run_clt_diagnostics needs a diagnostic form, got {plan.spec.form.value}")
    return (PathGroups([plan]) if groups is None else groups).report(plan, threads)


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
