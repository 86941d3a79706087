"""Monte Carlo harness: determinism, stderr scaling, rate fitting."""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from fbmvar import (
    FORMS,
    DegenerateFit,
    ExperimentPlan,
    HurstIndex,
    PathGroups,
    RegimeError,
    StatForm,
    StatisticSpec,
    builtin,
    fit_rate,
    run_clt_diagnostics,
    run_l2_experiment,
)
from fbmvar import harness, sampler


def l2_plan(replicas=32, ladder=(16, 32, 64), H=0.1, seed=7):
    return ExperimentPlan(
        hurst=HurstIndex(H),
        spec=StatisticSpec(kappa=2, weight="x2", form=StatForm.CENTERED_QUADRATIC),
        n_ladder=ladder,
        replicas=replicas,
        seed=seed,
    )


class TestPlanValidation:
    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            l2_plan(ladder=(32, 32))
        with pytest.raises(ValueError):
            l2_plan(ladder=(64, 32))

    def test_replicas_minimum(self):
        with pytest.raises(ValueError):
            l2_plan(replicas=1)

    def test_replica_cap(self):
        assert l2_plan(replicas=harness.MAX_REPLICAS).replicas == harness.MAX_REPLICAS
        with pytest.raises(ValueError, match="replicas"):
            l2_plan(replicas=harness.MAX_REPLICAS + 1)

    def test_grid_size_cap(self):
        assert l2_plan(ladder=(16, sampler.MAX_GRID_SIZE)).n_ladder[-1] == sampler.MAX_GRID_SIZE
        with pytest.raises(ValueError, match="n_ladder"):
            l2_plan(ladder=(16, sampler.MAX_GRID_SIZE + 1))


class TestRunL2Experiment:
    def test_report_shape(self):
        rep = run_l2_experiment(l2_plan())
        assert len(rep.records) == 3
        for rec in rep.records:
            assert rec.l2_error >= 0.0
            assert rec.stderr >= 0.0
        assert rep.rate_fit is not None

    def test_regime_mismatch_rejected(self):
        # an inadmissible cell has no plan to run
        with pytest.raises(RegimeError):
            ExperimentPlan(
                hurst=HurstIndex(0.3),
                spec=StatisticSpec(kappa=2, weight="x2", form=StatForm.CENTERED_QUADRATIC),
                n_ladder=(16, 32),
                replicas=8,
                seed=1,
            )

    def test_diagnostic_form_rejected(self):
        plan = ExperimentPlan(
            hurst=HurstIndex(0.3),
            spec=StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED),
            n_ladder=(16, 32),
            replicas=8,
            seed=1,
        )
        with pytest.raises(ValueError):
            run_l2_experiment(plan)

    def test_rerun_bit_identical(self):
        a = run_l2_experiment(l2_plan(replicas=2))
        b = run_l2_experiment(l2_plan(replicas=2))
        assert a == b

    def test_thread_count_invariance(self):
        base = run_l2_experiment(l2_plan(), threads=1)
        for threads in (4, 8):
            assert run_l2_experiment(l2_plan(), threads=threads) == base

    def test_workers_capped_by_cores_and_replicas(self, monkeypatch):
        asked = []

        class RecordingPool:
            # runs the work inline and records the pool size; starts no thread
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        # workers = min(threads, cores, blocks); B = 1 at n = 8192 and 2 at n = 4096
        plan = l2_plan(replicas=4, ladder=(8192,))
        assert run_l2_experiment(plan, threads=10**6) == run_l2_experiment(plan, threads=1)
        assert asked == [3]
        run_l2_experiment(l2_plan(replicas=4, ladder=(4096,)), threads=10**6)
        assert asked == [3, 2]
        run_l2_experiment(l2_plan(replicas=4, ladder=(8192,)), threads=2)
        assert asked == [3, 2, 2]
        # a single block runs on the calling thread, without a pool
        run_l2_experiment(l2_plan(replicas=2 * harness.block_size(16), ladder=(16,)), threads=10**6)
        run_l2_experiment(l2_plan(replicas=harness.block_size(16), ladder=(16,)), threads=10**6)
        assert asked == [3, 2, 2, 2]

    def test_vanishing_limit_reduces_to_second_moment(self):
        # h = x2 has h''' = 0, so the cubic limit functional is identically 0
        plan = ExperimentPlan(
            hurst=HurstIndex(0.12),
            spec=StatisticSpec(kappa=3, weight="x2", form=StatForm.COMPENSATED_CUBIC),
            n_ladder=(16, 32, 64),
            replicas=48,
            seed=3,
        )
        rep = run_l2_experiment(plan)
        for rec in rep.records:
            r = plan.replicas
            second_moment = rec.stat_mean**2 + rec.stat_var * (r - 1) / r
            assert rec.l2_error == pytest.approx(second_moment, rel=1e-12)

    def test_stderr_scales_like_inverse_sqrt_replicas(self):
        small = run_l2_experiment(l2_plan(replicas=200, ladder=(32,)))
        big = run_l2_experiment(l2_plan(replicas=800, ladder=(32,)))
        ratio = small.records[0].stderr / big.records[0].stderr
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_stderr_scaling_on_synthetic_gaussian(self):
        # same estimator formula on plain Gaussian samples
        rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], dtype=np.uint64)))
        sample = rng.standard_normal(4000)
        se_small = np.std(sample[:1000], ddof=1) / np.sqrt(1000)
        se_big = np.std(sample, ddof=1) / np.sqrt(4000)
        assert 2.0 * 0.8 <= se_small / se_big <= 2.0 * 1.2


# One admissible (H, kappa, weight) per form. The weights are transcendental,
# whose vector kernels are the likeliest to round differently on differently
# shaped inputs, and nonzero at B_0 = 0, so that even at n = 1 every replica
# has its own value.
BLOCK_CASES = {
    StatForm.CENTERED_QUADRATIC: (0.1, 2, "cos"),
    StatForm.COMPENSATED_CUBIC: (0.1, 3, "exp_neg_x2"),
    StatForm.ODD_WEIGHTED: (0.35, 3, "cos"),
    StatForm.UNWEIGHTED_CENTERED: (0.3, 2, "one"),
    StatForm.UNWEIGHTED_ODD: (0.4, 3, "one"),
    StatForm.MIXING_NORMALIZED: (0.35, 2, "exp_neg_x2"),
}


class TestReplicaBlocks:
    def test_cases_cover_every_form(self):
        assert set(BLOCK_CASES) == set(FORMS)

    @pytest.mark.parametrize("form", list(StatForm), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 8192])
    def test_blocks_match_single_replica_blocks(self, form, n):
        # the block runner's per-replica (stat, limit) against blocks of one;
        # the replica count leaves a partial last block wherever B > 1
        H, kappa, weight = BLOCK_CASES[form]
        block = harness.block_size(n)
        replicas = 3 if block == 1 else block + block // 2 + 1
        plan = ExperimentPlan(
            hurst=HurstIndex(H),
            spec=StatisticSpec(kappa=kappa, weight=weight, form=form),
            n_ladder=(n,),
            replicas=replicas,
            seed=20080612,
        )
        h = builtin(weight)
        blocked = harness._replica_values({plan: h}, n, 1, block)[plan]
        single = harness._replica_values({plan: h}, n, 1, 1)[plan]
        assert blocked.shape == (replicas, 2)
        assert np.array_equal(blocked, single)
        assert np.array_equal(harness._replica_values({plan: h}, n, 2, block)[plan], single)
        if FORMS[form].limit is None:
            assert np.all(blocked[:, 1] == 0.0)

    def test_more_workers_than_cores_match_serial(self, monkeypatch):
        # four workers on at most two real cores, switching every microsecond,
        # each writing its own rows of the shared buffer
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        plan = l2_plan(replicas=9, ladder=(2048,))
        h = builtin("x2")
        serial = harness._replica_values({plan: h}, 2048, 1, 1)[plan]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for _ in range(5):
                assert np.array_equal(harness._replica_values({plan: h}, 2048, 4, 1)[plan], serial)
            assert time.perf_counter() - start < 60.0
        finally:
            sys.setswitchinterval(interval)

    def test_block_size_within_budget(self):
        for n in [*range(1, 20000), 2**15, 10**6, 2**40]:
            b = harness.block_size(n)
            assert b >= 1
            assert b * n <= sampler.BLOCK_POINTS or b == 1
            assert (b + 1) * n > sampler.BLOCK_POINTS


def plan_of(H, kappa, weight, form, ladder, replicas, seed=20080612):
    return ExperimentPlan(
        hurst=HurstIndex(H),
        spec=StatisticSpec(kappa=kappa, weight=weight, form=form),
        n_ladder=ladder,
        replicas=replicas,
        seed=seed,
    )


def runner_of(plan):
    return run_clt_diagnostics if FORMS[plan.spec.form].limit is None else run_l2_experiment


GROUP_CASES = {
    "equal_ladders": (
        plan_of(0.1, 2, "x2", StatForm.CENTERED_QUADRATIC, (16, 128, 512), 40),
        plan_of(0.1, 3, "sin", StatForm.COMPENSATED_CUBIC, (16, 128, 512), 40),
    ),
    # B = 128 at n = 64 and 32 at n = 256: 130 replicas leave a partial last
    # block at every rung, which both members read in full
    "partial_blocks": (
        plan_of(0.1, 2, "cos", StatForm.CENTERED_QUADRATIC, (16, 64, 256), 130),
        plan_of(0.1, 2, "one", StatForm.UNWEIGHTED_CENTERED, (16, 64, 256), 130),
    ),
    "l2_and_diagnostic": (
        plan_of(0.35, 3, "x", StatForm.ODD_WEIGHTED, (32, 128, 512), 48),
        plan_of(0.35, 2, "x2", StatForm.MIXING_NORMALIZED, (32, 128, 512), 48),
    ),
    # one replica set at two H, with the partial blocks of "partial_blocks"
    "two_hursts": (
        plan_of(0.1, 2, "x2", StatForm.CENTERED_QUADRATIC, (16, 64, 256), 130),
        plan_of(0.35, 3, "x", StatForm.ODD_WEIGHTED, (16, 64, 256), 130),
    ),
}


def record_draws(monkeypatch):
    """The (n, first stream, count) of every block the harness draws from now on."""
    draws = []
    sample = harness.sample_fbm

    def counting(H, n, config, count=1):
        draws.append((n, config.stream, count))
        return sample(H, n, config, count)

    monkeypatch.setattr(harness, "sample_fbm", counting)
    return draws


class TestPathGroups:
    @pytest.mark.parametrize("case", list(GROUP_CASES))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_members_match_plans_run_alone(self, case, threads):
        plans = GROUP_CASES[case]
        groups = PathGroups(plans)
        for plan in plans:
            grouped = runner_of(plan)(plan, threads=threads, groups=groups)
            alone = runner_of(plan)(plan)
            assert grouped.records == alone.records
            assert grouped.rate_fit == alone.rate_fit

    def test_group_draws_each_block_once(self, monkeypatch):
        draws = record_draws(monkeypatch)
        first, second = GROUP_CASES["partial_blocks"]
        groups = PathGroups([first, second])
        groups.report(first, threads=1)
        for n in first.n_ladder:
            block = harness.block_size(n)
            at_n = [d for d in draws if d[0] == n]
            assert len(at_n) == math.ceil(first.replicas / block), n
            assert sorted(stream for _, stream, _ in at_n) == list(range(0, first.replicas, block))
        # the other member's report is stored, not drawn again
        drawn = len(draws)
        groups.report(second, threads=1)
        assert len(draws) == drawn

    def test_group_across_hursts_draws_normals_once(self, monkeypatch):
        # each block is synthesized at both H from one re-keyed draw of its streams
        draws = record_draws(monkeypatch)
        rekeys = []
        rng = sampler._rng
        monkeypatch.setattr(sampler, "_rng", lambda seed, stream: rekeys.append(stream) or rng(seed, stream))
        sampler._thread_state.normals = None
        first, second = GROUP_CASES["two_hursts"]
        PathGroups([first, second]).report(second, threads=1)
        assert len(rekeys) == first.replicas * len(first.n_ladder)
        blocks = sum(math.ceil(first.replicas / harness.block_size(n)) for n in first.n_ladder)
        assert len(draws) == 2 * blocks

    @pytest.mark.parametrize("change", [{"n_ladder": (16, 64, 512)}, {"replicas": 77}], ids=["n_ladder", "replicas"])
    def test_plans_with_another_replica_set_draw_separately(self, monkeypatch, change):
        draws = record_draws(monkeypatch)
        first, second = GROUP_CASES["partial_blocks"]
        second = dataclasses.replace(second, **change)
        groups = PathGroups([first, second])
        reports = [groups.report(plan, threads=1) for plan in (first, second)]
        blocks = [math.ceil(plan.replicas / harness.block_size(n)) for plan in (first, second) for n in plan.n_ladder]
        assert len(draws) == sum(blocks)
        for plan, grouped in zip((first, second), reports):
            assert grouped == runner_of(plan)(plan)

    def test_groups_split_by_path_key(self):
        base = GROUP_CASES["equal_ladders"][0]
        others = [
            plan_of(0.2, 2, "x2", StatForm.CENTERED_QUADRATIC, base.n_ladder, base.replicas),
            plan_of(0.1, 2, "x2", StatForm.CENTERED_QUADRATIC, base.n_ladder, base.replicas, seed=3),
        ]
        groups = PathGroups([base, *others])
        for plan in (base, *others):
            assert groups.report(plan, threads=1) == runner_of(plan)(plan)

    def test_plan_outside_the_groups_rejected(self):
        plans = GROUP_CASES["equal_ladders"]
        with pytest.raises(ValueError, match="not one of"):
            PathGroups(plans[:1]).report(plans[1], threads=1)


class TestRunCltDiagnostics:
    def test_report_fields(self):
        plan = ExperimentPlan(
            hurst=HurstIndex(0.5),
            spec=StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED),
            n_ladder=(64, 128, 256),
            replicas=400,
            seed=11,
        )
        rep = run_clt_diagnostics(plan)
        for rec in rep.records:
            assert rec.l2_error == 0.0
            assert rec.stderr > 0.0
        # unnormalized sum variance grows ~ n for the Brownian case
        assert rep.rate_fit.slope == pytest.approx(1.0, abs=0.2)

    def test_regime_mismatch_rejected(self):
        # an inadmissible cell has no plan to run
        with pytest.raises(RegimeError):
            ExperimentPlan(
                hurst=HurstIndex(0.8),
                spec=StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED),
                n_ladder=(16, 32),
                replicas=8,
                seed=1,
            )

    @pytest.mark.parametrize(
        "kappa,form,target",
        [(2, StatForm.UNWEIGHTED_CENTERED, 2.0), (3, StatForm.UNWEIGHTED_ODD, 15.0)],
    )
    def test_brownian_variance_targets(self, kappa, form, target):
        # mu_{2k} - mu_k^2: 2 for kappa=2, 15 for kappa=3
        plan = ExperimentPlan(
            hurst=HurstIndex(0.5),
            spec=StatisticSpec(kappa=kappa, weight="one", form=form),
            n_ladder=(1024,),
            replicas=2000,
            seed=13,
        )
        rec = run_clt_diagnostics(plan).records[0]
        assert abs(rec.stat_var - target) < 5 * rec.stderr

    def test_l2_form_rejected(self):
        with pytest.raises(ValueError):
            run_clt_diagnostics(l2_plan())

    def test_thread_count_invariance(self):
        plan = ExperimentPlan(
            hurst=HurstIndex(0.35),
            spec=StatisticSpec(kappa=2, weight="x2", form=StatForm.MIXING_NORMALIZED),
            n_ladder=(16, 32, 64),
            replicas=40,
            seed=5,
        )
        base = run_clt_diagnostics(plan, threads=1)
        assert run_clt_diagnostics(plan, threads=8) == base

    def test_weighted_one_consistency_with_l2_runner(self):
        # same streams, h = one: the centered quadratic statistic relates to the
        # normalized diagnostic statistic by the factor n^{2H - 1/2} per replica
        H, seed, reps = 0.1, 19, 64
        ladder = (16, 32, 64)
        l2 = run_l2_experiment(
            ExperimentPlan(
                hurst=HurstIndex(H),
                spec=StatisticSpec(kappa=2, weight="one", form=StatForm.CENTERED_QUADRATIC),
                n_ladder=ladder,
                replicas=reps,
                seed=seed,
            )
        )
        diag = run_clt_diagnostics(
            ExperimentPlan(
                hurst=HurstIndex(H),
                spec=StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED),
                n_ladder=ladder,
                replicas=reps,
                seed=seed,
            )
        )
        for rec_l2, rec_d in zip(l2.records, diag.records):
            n = rec_l2.n
            scale = float(n) ** (2 * (2 * H - 0.5))
            mom_l2 = rec_l2.stat_mean**2 + rec_l2.stat_var * (reps - 1) / reps
            mom_d = rec_d.stat_mean**2 + rec_d.stat_var * (reps - 1) / reps
            # l2_error has limit functional 0 under h = one
            assert rec_l2.l2_error == pytest.approx(mom_l2, rel=1e-12)
            assert mom_l2 == pytest.approx(scale * mom_d, rel=1e-10)


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array([10, 100, 1000, 10000])
        fit = fit_rate(ns, 3.0 * ns**-1.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors(self):
        fit = fit_rate([10, 100, 1000], [0.5, 0.5, 0.5])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_power_law(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
        ns = np.array([64, 128, 256, 512, 1024, 2048])
        errors = 2.2 * ns**-0.6 * (1.0 + 0.01 * rng.standard_normal(ns.size))
        fit = fit_rate(ns, errors)
        assert fit.slope == pytest.approx(-0.6, abs=0.05)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_rate([10, 100], [1.0, 0.1])
        with pytest.raises(DegenerateFit):
            fit_rate([10, 100, 1000], [1.0, 0.0, 0.1])
        with pytest.raises(DegenerateFit):
            fit_rate([10, 100, 1000], [1.0, -0.5, 0.1])
