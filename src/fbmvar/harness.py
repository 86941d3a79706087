"""Monte Carlo estimation of mean-square gaps and CLT diagnostics.

Replica r of a plan always samples from the stream keyed (seed, r), so results
are a pure function of the plan. Plans with equal (seed, method, n_ladder,
replicas) hold one replica set and run as one group, which resolves the
embedding of each (H, n) once. Its replicas are split into walks of
`walk_rows(ladder)` streams, and a walk visits every rung of the ladder, top
rung first. The walk owns its normals: it draws each stream's normals once, at
the top rung, and hands every block at every rung n the first 2n columns of its
rows. At each rung a walk runs in blocks of block_size(n) paths; each block is
synthesized once per H of the group, and every member evaluates its statistic
on its H's paths. Workers take whole walks and may be added or removed freely;
each block's values land in the rung's buffer, indexed by r, before any
reduction. All reductions go through numpy's pairwise summation on those
buffers, in ladder order, which makes every reported number bit-identical
across thread counts and the same whether a plan runs alone or in a group.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFit
from .kernels import HurstIndex, as_hurst, as_integer
from .sampler import BLOCK_POINTS, MAX_GRID_SIZE, SamplerConfig, Workspace, _circulant_coeffs, block_size, draw_normals, sample_fbm
from .statistics import FORMS, StatisticSpec, evaluate_statistic, limit_functional, require_form_admissible
from .weights import builtin

# The largest replica count a plan may ask for, so that a run's memory stays bounded: a run
# of one plan at n = 16 and 1 thread peaks at about 343 MiB RSS at this count, and each
# further rung of its ladder holds another 160 MB (R, 2) buffer until its records are reduced.
MAX_REPLICAS = 10**7

# The normals of one walk stay within HELD_POINTS floats (512 KiB), or within one block at
# its top rung where that alone is larger.
HELD_POINTS = 8 * BLOCK_POINTS


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a statistic on a cell its form admits, a ladder of grid sizes, seeded replicas.

    The ladder's entries are strictly increasing integers in [1, MAX_GRID_SIZE]; replicas is an integer in [2, MAX_REPLICAS].
    """

    hurst: HurstIndex
    spec: StatisticSpec
    n_ladder: tuple
    replicas: int
    seed: int
    method: str = "circulant"

    def __post_init__(self):
        object.__setattr__(self, "hurst", as_hurst(self.hurst))
        ladder = tuple(as_integer(n, "n_ladder entry", 1) for n in self.n_ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"n_ladder must be strictly increasing and nonempty, got {self.n_ladder}")
        if ladder[-1] > MAX_GRID_SIZE:
            raise ValueError(f"n_ladder entries must be at most MAX_GRID_SIZE = {MAX_GRID_SIZE}, got {ladder[-1]}")
        object.__setattr__(self, "n_ladder", ladder)
        object.__setattr__(self, "replicas", as_integer(self.replicas, "replicas", 2))
        if self.replicas > MAX_REPLICAS:
            raise ValueError(f"replicas must be at most MAX_REPLICAS = {MAX_REPLICAS}, got {self.replicas}")
        object.__setattr__(self, "seed", SamplerConfig(method=self.method, seed=self.seed).seed)  # ValueError on a bad method or seed
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


def walk_rows(ladder: Sequence[int], block=block_size) -> int:
    """Replicas per walk down the ladder: a block at its lowest rung, capped by the streams whose top-rung normals fit in HELD_POINTS floats, or one block there.

    `block` gives the rows of one block at a grid size; a one-rung ladder walks
    exactly one block.
    """
    top = ladder[-1]
    return min(block(ladder[0]), max(block_size(top), HELD_POINTS // (2 * top)))


def _replica_values(weights: dict, threads: int, block=block_size) -> dict:
    """(statistic, limit or 0) of each plan's replicas at each rung, row r of one (R, 2) array per plan and rung.

    `weights` maps plans of one path key to their weight functions. Replicas
    are split into walks of `walk_rows` rows, and a walk visits every rung,
    top first: it draws its streams' normals once, at the top rung, and each
    block at each rung n is synthesized from the first 2n columns of its
    rows, with the embedding of (H, n) that the group resolved before its
    first walk and frees when it returns. At each rung the walk runs in
    blocks of `block(n)` rows; each block is synthesized once per H, in the
    order the plans first name it, and every plan at that H evaluates its
    statistic on all of its rows. Worker i of w takes walks i, i + w, ...
    and keeps one `Workspace` for all of them (one per walk would fault its
    pages in again); w is capped by the cores this process may run on (the
    CPU count where the OS has no `sched_getaffinity`) and by the walk
    count, since more threads only add switching cost.
    """
    seed, method, ladder, replicas = _path_key(next(iter(weights)))
    outs = {plan: [np.empty((replicas, 2), dtype=np.float64) for _ in ladder] for plan in weights}
    by_hurst = {}
    for plan, h in weights.items():
        by_hurst.setdefault(plan.hurst, {})[plan] = h
    walk = [(k, ladder[k], block(ladder[k])) for k in reversed(range(len(ladder)))]
    rows = walk_rows(ladder, block)
    starts = range(0, replicas, rows)
    embeddings = {(hurst, n): _circulant_coeffs(hurst.value, n) for _, n, _ in walk for hurst in by_hurst}

    def work(r0: int, workspace: Workspace) -> None:
        stop = min(r0 + rows, replicas)
        normals = draw_normals(seed, r0, stop - r0, ladder[-1], workspace)
        for k, n, step in walk:
            for s0 in range(r0, stop, step):
                count = min(step, stop - s0)
                config = SamplerConfig(method=method, seed=seed, stream=s0)
                z = normals[s0 - r0 : s0 - r0 + count]
                for hurst, members in by_hurst.items():
                    path = sample_fbm(hurst, n, config, count, z, embeddings[hurst, n], workspace)
                    for plan, h in members.items():
                        out = outs[plan][k][s0 : s0 + count]
                        out[:, 0] = evaluate_statistic(path, h, plan.spec, workspace)
                        out[:, 1] = limit_functional(path, h, plan.spec, workspace) if FORMS[plan.spec.form].limit is not None else 0.0

    def worker(walk_starts: range) -> None:
        workspace = Workspace()
        for r0 in walk_starts:
            work(r0, workspace)  # frees the walk's normals before the next walk draws its own

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, cores, len(starts))
    if workers <= 1:
        worker(starts)
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here: a run at one worker never needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(worker, [starts[i::workers] for i in range(workers)]))
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
        try:
            skew = m3 / m2**1.5
            exkurt = m4 / m2**2 - 3.0
        except OverflowError:  # m2 past the square root of the float64 range
            skew = exkurt = math.nan
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

    Every plan holds one (R, 2) buffer per rung until the walks end; the
    records are then reduced in ladder order.
    """
    values = _replica_values({plan: builtin(plan.spec.weight) for plan in plans}, threads)
    reports = {}
    for plan, per_rung in values.items():
        recs = [_record(plan, n, vals) for n, vals in zip(plan.n_ladder, per_rung)]
        try:
            fit = fit_rate([rec.n for rec in recs], [rate_target(plan.spec, rec) for rec in recs])
        except DegenerateFit:
            fit = None
        reports[plan] = McReport(records=tuple(recs), rate_fit=fit)
    return reports


class PathGroups:
    """The plans of one run grouped by the paths they read, and each group's reports once computed.

    Plans with equal (seed, method, n_ladder, replicas) read the same replica
    streams, whatever their H. The first report asked of a group runs all its
    members on one draw of each stream's normals, synthesized once per H of
    the group at each rung; later requests return the stored reports.
    """

    def __init__(self, plans: Sequence[ExperimentPlan]):
        self._groups = {}
        for plan in plans:
            self._groups.setdefault(_path_key(plan), {})[plan] = None
        self._reports = {}

    def report(self, plan: ExperimentPlan, threads: int) -> McReport:
        threads = as_integer(threads, "threads", 1)
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
    """Ordinary least squares of log(error) on log(n); DegenerateFit unless there are >= 3 points, all finite and positive, and n takes >= 2 values."""
    ns = np.asarray(ns, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if ns.shape != errors.shape or ns.size < 3:
        raise DegenerateFit(f"need >= 3 matched points, got {ns.size} and {errors.size}")
    for name, values in (("grid sizes", ns), ("errors", errors)):
        if not np.all(np.isfinite(values) & (values > 0.0)):
            raise DegenerateFit(f"all {name} must be finite and positive for a log-log fit")
    if np.unique(ns).size < 2:
        raise DegenerateFit(f"need >= 2 distinct grid sizes, got {ns.tolist()}")
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
