"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 4-9 are executed through the CLI at their full protocols, once per
worker-thread count (1, 4, 8); the numeric checks read the threads=1 reports
and criterion 10 byte-compares the CSV outputs across thread counts. The
statistical criteria use fixed seeds, so every number here is reproducible.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from fbmvar import (
    GridIndexPair,
    HurstIndex,
    SamplerConfig,
    breuer_major_variance,
    covariance_matrix,
    delta_delta_inner,
    eps_delta_inner,
    sample_fbm,
)
from fbmvar import cli
from fbmvar.sampler import Workspace, _block_fgn, _circulant_coeffs
from oracles import exact_odd_drift_mean, exact_unweighted_variance

ACCEPTANCE_SEED = 20080612

CRITERIA_CONFIG = f"""
[crit4_brownian_clt]
hurst = 0.5
kappa = 2
weight = one
form = unweighted_centered
n_ladder = 4096
replicas = 10000
seed = {ACCEPTANCE_SEED}

[crit5_breuer_major]
hurst = 0.3
kappa = 2
weight = one
form = unweighted_centered
n_ladder = 8192
replicas = 10000
seed = {ACCEPTANCE_SEED}

[crit6_quadratic_l2]
hurst = 0.10
kappa = 2
weight = x2
form = centered_quadratic
n_ladder = 128 512 2048 8192
replicas = 2000
seed = {ACCEPTANCE_SEED}

[crit7_cubic_l2]
hurst = 0.10
kappa = 3
weight = sin
form = compensated_cubic
n_ladder = 128 512 2048 8192
replicas = 2000
seed = {ACCEPTANCE_SEED}

[crit8_odd_drift]
hurst = 0.35
kappa = 3
weight = x
form = odd_weighted
n_ladder = 128 512 2048 8192
replicas = 2000
seed = {ACCEPTANCE_SEED}

[crit9_mixing_scaling]
hurst = 0.35
kappa = 2
weight = x2
form = mixing_normalized
n_ladder = 128 512 2048 8192
replicas = 2000
seed = {ACCEPTANCE_SEED}
"""

STEMS = (
    "crit4_brownian_clt",
    "crit5_breuer_major",
    "crit6_quadratic_l2",
    "crit7_cubic_l2",
    "crit8_odd_drift",
    "crit9_mixing_scaling",
)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def best_of_two(fn):
    """Run fn twice, return (first result, best elapsed).

    The sub-second runtime budgets measure the cost of the computation, not
    transient host load; the minimum over two runs filters scheduler noise.
    """
    t0 = time.perf_counter()
    result = fn()
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    fn()
    return result, min(first, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """Run the criteria-4..9 config under 1, 4 and 8 worker threads."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = base / "criteria.ini"
    cfg.write_text(CRITERIA_CONFIG, encoding="utf-8")
    runs = {}
    for threads in (1, 4, 8):
        out = base / f"threads{threads}"
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        elapsed = time.perf_counter() - t0
        assert rc == 0, f"cli run failed under {threads} threads"
        runs[threads] = {"out": out, "elapsed": elapsed}
    return runs


def load_report(cli_runs, stem):
    doc = json.loads((cli_runs[1]["out"] / f"{stem}.json").read_text())
    return doc["records"], doc["rate_fit"], doc["plan"]


def test_criterion_01_kernel_exactness():
    """Inner products equal covariance differences, 1e-12, all n <= 64.

    The identity is checked for every (H, n, k, ell) with a vectorized
    transcription of the closed forms, and the scalar operations themselves
    are exercised on every (k, ell) pair for a subset of n spanning the range
    (the scalar sweep over all ~537k triples alone would breach the 1s budget).
    """

    def sweep():
        hs = (0.05, 0.1, 0.15, 0.25, 0.5, 0.75)
        worst = 0.0
        for h in hs:
            two_h = 2.0 * h
            for n in range(1, 65):
                cov = covariance_matrix(h, n)
                k = np.arange(n)
                ell = np.arange(n)
                kk, ll = np.meshgrid(k, ell, indexing="ij")
                eps = 0.5 * float(n) ** -two_h * (
                    (kk + 1.0) ** two_h
                    - kk**two_h
                    - np.abs(ll - kk - 1.0) ** two_h
                    + np.abs(ll - kk) ** two_h
                )
                eps_oracle = (cov[:, 1:] - cov[:, :-1]).T[:, :n]
                worst = max(worst, float(np.max(np.abs(eps - eps_oracle[kk, ll]))))
                dd = float(n) ** -two_h * 0.5 * (
                    np.abs(kk - ll + 1.0) ** two_h
                    + np.abs(kk - ll - 1.0) ** two_h
                    - 2.0 * np.abs(kk - ll) ** two_h
                )
                dd_oracle = cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]
                worst = max(worst, float(np.max(np.abs(dd - dd_oracle))))
            for n in (1, 2, 3, 4, 5, 6, 7, 8, 16, 33, 64):
                cov = covariance_matrix(h, n)
                for k_, l_ in itertools.product(range(n), repeat=2):
                    pair = GridIndexPair(n=n, k=k_, ell=l_)
                    worst = max(worst, abs(eps_delta_inner(h, pair) - (cov[l_, k_ + 1] - cov[l_, k_])))
                    four = cov[k_ + 1, l_ + 1] - cov[k_ + 1, l_] - cov[k_, l_ + 1] + cov[k_, l_]
                    worst = max(worst, abs(delta_delta_inner(h, pair) - four))
        return worst

    worst, elapsed = best_of_two(sweep)
    report(1, "kernel_exactness", worst < 1e-12 and elapsed < 1.0, f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_increment_power_bound_sweep():
    """0 <= (x+1)^{2H} - x^{2H} <= 1 for 1e6 sampled x in [0, 1e6], H <= 1/2.

    The inequality is exact mathematics; evaluating it in float64 leaves
    rounding of order ulp(x^{2H}) <= ulp(1e6) ~ 1.2e-10 on each side (at
    H = 1/2 the difference is exactly 1, so any float excess is pure
    rounding of x + 1), hence the 1e-9 evaluation slack.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([ACCEPTANCE_SEED, 2], dtype=np.uint64)))
    x = rng.uniform(0.0, 1e6, size=1_000_000)
    x[:3] = [0.0, 1.0, 1e6]
    slack = 1e-9

    def sweep():
        ok = True
        for h in np.arange(0.05, 0.5001, 0.05):
            g = (x + 1.0) ** (2 * h) - x ** (2 * h)
            ok = ok and bool(np.all(g >= -slack) and np.all(g <= 1.0 + slack))
        return ok

    ok, elapsed = best_of_two(sweep)
    report(2, "increment_power_bound", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_03_sampler_law():
    """Empirical covariance within 5 MC standard errors; the synthesis's exact path law to 1e-10."""
    t0 = time.perf_counter()
    reps, n = 10_000, 64
    ok = True
    detail = []
    for h in (0.1, 0.3, 0.7):
        paths = sample_fbm(h, n, SamplerConfig(seed=ACCEPTANCE_SEED, stream=0), reps).values
        emp = paths.T @ paths / reps
        exact = covariance_matrix(h, n)
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / reps)
        z = np.abs(emp - exact)[1:, 1:] / se[1:, 1:]
        ok = ok and bool(np.all(paths[:, 0] == 0.0)) and float(z.max()) < 5.0
        detail.append(f"H={h}: max z {z.max():.2f}")
    # the synthesis is linear in its 2n normals: fed the unit vectors, row i of
    # a_t is column i of the A with fgn = A z, so with p_t = cumsum(a_t) the
    # paths B_{k/n}, k = 1..n, have covariance p_t^T p_t with no Monte Carlo error
    worst_law = 0.0
    for h in (0.1, 0.25, 0.5, 0.75, 0.9):
        p_t = np.cumsum(_block_fgn(_circulant_coeffs(h, 256), 256, np.eye(512), Workspace()), axis=1)
        worst_law = max(worst_law, float(np.max(np.abs(p_t.T @ p_t - covariance_matrix(h, 256)[1:, 1:]))))
    ok = ok and worst_law < 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(3, "sampler_law", ok, "; ".join(detail) + f"; law err {worst_law:.1e}; {elapsed:.1f}s")


def test_criterion_04_brownian_clt(cli_runs):
    """H=1/2, kappa=2, n=4096, 1e4 replicas: Var -> 2, small excess kurtosis."""
    records, _, _ = load_report(cli_runs, "crit4_brownian_clt")
    rec = records[-1]
    dv = abs(rec["stat_var"] - 2.0)
    ok = dv < 5.0 * rec["stderr"] and abs(rec["excess_kurtosis"]) < 0.15
    report(
        4,
        "brownian_clt",
        ok,
        f"var {rec['stat_var']:.4f} (target 2 +- 5*{rec['stderr']:.4f}), exkurt {rec['excess_kurtosis']:.3f}",
    )


def test_criterion_05_breuer_major_variance(cli_runs):
    """H=0.3, kappa=2: empirical variance within 5% of the series constant.

    The series itself is cross-validated against the exact small-n pairing
    (Isserlis) oracle by Richardson extrapolation in 1/n before the MC check.
    """
    h = 0.3
    series = breuer_major_variance(HurstIndex(h), 2)
    v16 = exact_unweighted_variance(h, 16, 2)
    v32 = exact_unweighted_variance(h, 32, 2)
    extrap = 2 * v32 - v16
    oracle_ok = abs(extrap - series) < 1e-3 * series
    records, _, _ = load_report(cli_runs, "crit5_breuer_major")
    rec = records[-1]
    rel = abs(rec["stat_var"] - series) / series
    ok = oracle_ok and rel < 0.05
    report(
        5,
        "breuer_major_variance",
        ok,
        f"series {series:.6f}, pairing-extrapolated {extrap:.6f}, empirical {rec['stat_var']:.4f} (rel {rel:.3%})",
    )


def _ladder_checks(records, ratio_bound, two_se_steps):
    errs = [rec["l2_error"] for rec in records]
    ses = [rec["stderr"] for rec in records]
    steps_ok = True
    for (e0, s0), (e1, s1) in zip(zip(errs, ses), zip(errs[1:], ses[1:])):
        gap = e0 - e1
        need = 2.0 * math.sqrt(s0 * s0 + s1 * s1) if two_se_steps else 0.0
        steps_ok = steps_ok and gap > need
    ratio = errs[-1] / errs[0]
    return steps_ok, ratio, ratio < ratio_bound


def test_criterion_06_quadratic_l2_ladder(cli_runs):
    """Weighted quadratic statistic: L2 gap to (1/4) n^{-1} sum h''(B) shrinks."""
    records, fit, _ = load_report(cli_runs, "crit6_quadratic_l2")
    steps_ok, ratio, ratio_ok = _ladder_checks(records, 0.25, two_se_steps=True)
    errs = ", ".join(f"{rec['l2_error']:.4f}" for rec in records)
    report(
        6,
        "quadratic_l2_ladder",
        steps_ok and ratio_ok,
        f"l2 errors [{errs}], final/initial {ratio:.3f} (< 0.25), fitted slope {fit['slope']:.2f}",
    )


def test_criterion_07_cubic_l2_ladder(cli_runs):
    """Compensated cubic statistic: L2 gap to -(1/8) n^{-1} sum h'''(B) shrinks."""
    records, fit, _ = load_report(cli_runs, "crit7_cubic_l2")
    steps_ok, ratio, ratio_ok = _ladder_checks(records, 0.25, two_se_steps=True)
    errs = ", ".join(f"{rec['l2_error']:.4f}" for rec in records)
    report(
        7,
        "cubic_l2_ladder",
        steps_ok and ratio_ok,
        f"l2 errors [{errs}], final/initial {ratio:.3f} (< 0.25), fitted slope {fit['slope']:.2f}",
    )


def test_criterion_08_odd_drift(cli_runs):
    """Odd kappa=3 drift: L2 distance to the limit shrinks; mean tracks -3/2.

    The drift theorem is a limit in n and says nothing about E[stat] at a
    fixed n. For h(x) = x, Isserlis gives the exact finite-n mean
    m_n = -(mu_{kappa+1}/2)(1 - n^{2H-1}): -1.3995 at n = 2^13 and H = 0.35,
    about 10 standard errors of the 2000-replica mean away from -mu_4/2 = -3/2.
    So the reference for each rung is m_n, computed by the pairing oracle
    rather than taken from the program, and the drift constant is checked in
    the limit: a weighted fit of the rung means to a + b n^{2H-1}, the
    exponent of the exact mean, must put a within 5 standard errors of -3/2.
    The rungs share the (seed, replica) streams, so their means are
    correlated; with c the fit's intercept weights, sum |c_i| se_i bounds the
    standard error of a whatever the correlation.
    """
    records, _, plan = load_report(cli_runs, "crit8_odd_drift")
    assert plan["weight"] == "x", "the exact-mean oracle covers h(x) = x only"
    hurst, kappa, replicas = plan["hurst"], plan["kappa"], plan["replicas"]
    steps_ok, ratio, ratio_ok = _ladder_checks(records, 0.5, two_se_steps=False)
    means = np.array([rec["stat_mean"] for rec in records])
    ses = np.array([math.sqrt(rec["stat_var"] / replicas) for rec in records])
    exact = np.array([exact_odd_drift_mean(hurst, rec["n"], kappa) for rec in records])
    z = (means - exact) / ses
    finite_ok = bool(np.all(np.abs(z) < 5.0))
    drift = -0.5 * math.prod(range(1, kappa + 1, 2))
    design = np.column_stack([np.ones(len(records)), [rec["n"] ** (2 * hurst - 1.0) for rec in records]])
    weighted = design.T / ses**2
    coef = np.linalg.solve(weighted @ design, weighted)
    a, b = coef @ means
    a_se = float(np.abs(coef[0]) @ ses)
    limit_ok = abs(a - drift) < 5.0 * a_se
    zs = ", ".join(f"{rec['n']}: {zi:+.2f}" for rec, zi in zip(records, z))
    report(
        8,
        "odd_drift",
        steps_ok and ratio_ok and finite_ok and limit_ok,
        f"final/initial {ratio:.3f} (< 0.5), z vs exact finite-n mean [{zs}] (|z| < 5), "
        f"extrapolated a {a:.4f} vs {drift} (se <= {a_se:.4f}, 5*se {5 * a_se:.4f}), b {b:.3f}",
    )


def test_criterion_09_mixing_scaling(cli_runs):
    """Var(sum h(B)[n^{2H} dB^2 - 1]) scales like n: log-log slope within 0.15 of 1."""
    records, fit, _ = load_report(cli_runs, "crit9_mixing_scaling")
    slope = fit["slope"]
    ok = abs(slope - 1.0) < 0.15
    vars_ = ", ".join(f"{rec['n'] * rec['stat_var']:.0f}" for rec in records)
    report(9, "mixing_scaling", ok, f"slope {slope:.3f}, n*var ladder [{vars_}]")


def test_criterion_10_determinism(cli_runs):
    """Criteria 4-9 outputs byte-identical under 1, 4 and 8 worker threads."""
    blobs = {}
    for threads, run in cli_runs.items():
        blobs[threads] = b"".join((run["out"] / f"{stem}.csv").read_bytes() for stem in STEMS)
    ok = blobs[1] == blobs[4] == blobs[8]
    times = ", ".join(f"{t}t: {run['elapsed']:.0f}s" for t, run in cli_runs.items())
    report(10, "determinism", ok, f"runs [{times}]")


def test_runtime_budgets(cli_runs):
    """Stated runtime ceilings for the CLI-run criteria (4-9 share one run)."""
    # budgets: crit4 < 60s, crit5 < 120s, crit6/7/8 < 300s each, crit9 < 180s;
    # the single-threaded run of all six plans must sit inside the sum
    budget = 60 + 120 + 300 * 3 + 180
    elapsed = cli_runs[1]["elapsed"]
    assert elapsed < budget, f"threads=1 acceptance run took {elapsed:.0f}s"
