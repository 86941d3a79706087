"""Monte Carlo harness: determinism, stderr scaling, rate fitting."""

import numpy as np
import pytest

from fbmvar import (
    DegenerateFit,
    ExperimentPlan,
    HurstIndex,
    RegimeError,
    StatForm,
    StatisticSpec,
    fit_rate,
    run_clt_diagnostics,
    run_l2_experiment,
)
from fbmvar import harness


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


class TestRunL2Experiment:
    def test_report_shape(self):
        rep = run_l2_experiment(l2_plan())
        assert len(rep.records) == 3
        for rec in rep.records:
            assert rec.l2_error >= 0.0
            assert rec.stderr >= 0.0
        assert rep.rate_fit is not None

    def test_regime_mismatch_rejected(self):
        plan = ExperimentPlan(
            hurst=HurstIndex(0.3),
            spec=StatisticSpec(kappa=2, weight="x2", form=StatForm.CENTERED_QUADRATIC),
            n_ladder=(16, 32),
            replicas=8,
            seed=1,
        )
        with pytest.raises(RegimeError):
            run_l2_experiment(plan)

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
        plan = l2_plan(replicas=4, ladder=(16,))
        assert run_l2_experiment(plan, threads=10**6) == run_l2_experiment(plan, threads=1)
        assert asked == [3]
        run_l2_experiment(l2_plan(replicas=2, ladder=(16,)), threads=10**6)
        assert asked == [3, 2]

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
        plan = ExperimentPlan(
            hurst=HurstIndex(0.8),
            spec=StatisticSpec(kappa=2, weight="one", form=StatForm.UNWEIGHTED_CENTERED),
            n_ladder=(16, 32),
            replicas=8,
            seed=1,
        )
        with pytest.raises(RegimeError):
            run_clt_diagnostics(plan)

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
