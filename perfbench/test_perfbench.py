"""Tests of the benchmark's own logic: span arithmetic, tracing, configs, checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import threading
from pathlib import Path

import pytest

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def span(sid, name, start, end, parent=None, thread=1, n=None):
    return spans.Span(sid, name, start, end, parent, thread, n)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        intervals = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0), (-2.0, -1.0)]
        assert spans.covered(intervals, 0.0, 10.0) == pytest.approx(4.0 + 1.0 + 1.0)

    def test_covered_of_nothing_is_zero(self):
        assert spans.covered([], 0.0, 1.0) == 0.0

    def test_self_time_subtracts_children_only(self):
        recorded = [
            span(1, "statistics.stat", 0.0, 10.0),
            span(2, "weights", 1.0, 3.0, parent=1),
            span(3, "weights", 4.0, 5.0, parent=1),
            span(4, "kernels", 20.0, 21.0),
        ]
        own = spans.self_times(recorded)
        assert own == pytest.approx({1: 7.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_threaded_children_count_once_in_runner_self_time(self):
        recorded = [
            span(1, "harness", 0.0, 10.0),
            span(2, "sampler", 1.0, 6.0, parent=1, thread=2, n=128),
            span(3, "sampler", 2.0, 7.0, parent=1, thread=3, n=128),
        ]
        assert spans.self_times(recorded)[1] == pytest.approx(4.0)


class TestLayerMetrics:
    def recorded(self):
        # one runner of 2 replicas at n = 128; 1 time unit of harness overhead
        return [
            span(1, "cli.parse", 0.0, 0.5),
            span(2, "kernels", 0.6, 0.8),
            span(10, "harness", 1.0, 11.0),
            span(11, "sampler", 1.0, 4.0, parent=10, n=128),
            span(12, "statistics.stat", 4.0, 5.0, parent=10, n=128),
            span(13, "weights", 4.2, 4.6, parent=12),
            span(14, "statistics.limit", 5.0, 6.0, parent=10, n=128),
            span(15, "weights", 5.0, 5.5, parent=14),
            span(21, "sampler", 6.0, 9.0, parent=10, n=128),
            span(22, "statistics.stat", 9.0, 10.0, parent=10, n=128),
            span(23, "weights", 9.2, 9.6, parent=22),
            span(30, "cli.write", 11.0, 11.25),
        ]

    def test_values(self):
        m = spans.layer_metrics(self.recorded(), evaluations=2, threads=1)
        assert m["sampler.calls"] == 2
        assert m["sampler.us_per_call.n128"] == pytest.approx(3e6)
        assert m["sampler.us_per_call.n8192"] == 0.0
        assert m["sampler.share"] == pytest.approx(6.0 / 9.0)
        assert m["statistics.stat_self_us.n128"] == pytest.approx(0.6e6)
        assert m["statistics.limit_self_us.n128"] == pytest.approx(0.5e6)
        assert m["weights.evals_per_replica"] == pytest.approx(1.5)
        assert m["weights.us_per_replica"] == pytest.approx(0.65e6)
        assert m["harness.self_us_per_replica"] == pytest.approx(0.5e6)
        assert m["harness.busy_share"] == pytest.approx(0.9)
        assert m["kernels.embedding_builds"] == 1
        assert m["kernels.setup_s"] == pytest.approx(0.2)
        assert m["cli.parse_s"] == pytest.approx(0.5)
        assert m["cli.write_s"] == pytest.approx(0.25)

    def test_layer_self_times_and_harness_self_sum_to_runner_wall(self):
        recorded = self.recorded()
        own = spans.self_times(recorded)
        under_runner = [s for s in recorded if 10 <= s.id < 30]
        assert sum(own[s.id] for s in under_runner) == pytest.approx(10.0)


class TestTracer:
    def test_nesting_and_grid_size(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("weights", lambda x: x + 1)
        outer = tracer.wrap("statistics.stat", lambda path: inner(path.n), n_of=lambda a: a[0].n)

        class Path:
            n = 64

        assert outer(Path()) == 65
        recorded = [spans.Span(*row) for row in tracer.spans]
        by_name = {s.name: s for s in recorded}
        assert by_name["weights"].parent == by_name["statistics.stat"].id
        assert by_name["statistics.stat"].n == 64
        assert by_name["statistics.stat"].parent is None

    def test_span_is_recorded_when_the_call_raises(self):
        tracer = spans.Tracer()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            tracer.wrap("sampler", boom)()
        assert len(tracer.spans) == 1

    def test_worker_spans_hang_under_the_runner_without_lost_updates(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("sampler", lambda: None)
        workers, calls = 8, 500
        together = threading.Barrier(workers)

        def work():
            together.wait(timeout=60)
            for _ in range(calls):
                leaf()
            together.wait(timeout=60)

        def run_ladder():
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            return [t.is_alive() for t in threads]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            alive = tracer.wrap("harness", run_ladder, runner=True)()
        finally:
            sys.setswitchinterval(old)
        assert not any(alive)
        recorded = [spans.Span(*row) for row in tracer.spans]
        runner = [s for s in recorded if s.name == "harness"]
        leaves = [s for s in recorded if s.name == "sampler"]
        assert len(runner) == 1 and len(leaves) == workers * calls
        assert len({s.id for s in recorded}) == len(recorded)
        assert all(s.parent == runner[0].id for s in leaves)
        assert len({s.thread for s in leaves}) == workers


class TestConfig:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_config(self, name):
        w = workloads.WORKLOADS[name]
        assert workloads.make_config(w, 17) == workloads.make_config(w, 17)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_other_seed_changes_only_the_seed_fields(self, name):
        w = workloads.WORKLOADS[name]
        a = workloads.make_config(w, 17).splitlines()
        b = workloads.make_config(w, 18).splitlines()
        changed = [(x, y) for x, y in zip(a, b) if x != y]
        assert len(a) == len(b)
        assert changed == [("seed = 17", "seed = 18")] * len(w.plans)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_config_parses_to_the_workload_plans(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(SRC))
        from fbmvar import cli

        w = workloads.WORKLOADS[name]
        path = tmp_path / "w.ini"
        path.write_text(workloads.make_config(w, 5), encoding="utf-8")
        entries = cli.parse_config(path)
        assert [e.name for e in entries] == [p.stem for p in w.plans]
        for entry, plan in zip(entries, w.plans):
            assert entry.plan.seed == 5
            assert entry.plan.n_ladder == plan.n_ladder
            assert entry.plan.replicas == plan.replicas

    def test_stored_reference_covers_every_plan(self):
        for w in workloads.WORKLOADS.values():
            stored = workloads.load_stored(w)
            assert sorted(stored) == sorted(p.stem for p in w.plans)
            for plan in w.plans:
                rows = workloads.parse_csv(stored[plan.stem])
                assert [int(r["n"]) for r in rows] == list(plan.n_ladder)


L2_PLAN = workloads.WORKLOADS["l2_small_n"].plans[0]
CLT_PLAN = workloads.WORKLOADS["clt_n8192"].plans[0]


def row(n, l2=0.0, se=0.01, var=1.0, plan=L2_PLAN):
    return {
        "n": float(n),
        "H": plan.hurst,
        "kappa": float(plan.kappa),
        "weight": plan.weight,
        "form": plan.form,
        "l2_error": l2,
        "stderr": se,
        "stat_mean": 0.0,
        "stat_var": var,
        "skewness": 0.0,
        "excess_kurtosis": 0.0,
    }


def csv_text(rows):
    lines = [",".join(workloads.CSV_FIELDS)]
    for r in rows:
        lines.append(",".join(r[k] if isinstance(r[k], str) else f"{r[k]:.17g}" for k in workloads.CSV_FIELDS))
    return "\n".join(lines) + "\n"


class TestChecks:
    def test_decreasing_ladder_passes(self):
        assert workloads.theory_problems(L2_PLAN, [row(128, 0.5, 0.05), row(512, 0.2, 0.02)]) == []

    def test_rising_ladder_fails(self):
        assert workloads.theory_problems(L2_PLAN, [row(128, 0.2, 0.01), row(512, 0.5, 0.01)])

    def test_wrong_ladder_fails(self):
        assert workloads.theory_problems(L2_PLAN, [row(128, 0.5), row(1024, 0.2)])

    def test_clt_variance_in_standard_errors(self):
        target = workloads.quadratic_clt_variance(CLT_PLAN.hurst)
        assert target == pytest.approx(2.2503910107, rel=1e-9)
        good = [row(8192, var=target + 0.3, se=0.1, plan=CLT_PLAN)]
        bad = [row(8192, var=target + 0.6, se=0.1, plan=CLT_PLAN)]
        assert workloads.theory_problems(CLT_PLAN, good) == []
        assert workloads.theory_problems(CLT_PLAN, bad)

    def test_stored_comparison_tolerates_rounding_but_not_a_new_stream(self):
        rows = [row(128, 0.5, 0.05), row(512, 0.2, 0.02)]
        stored = csv_text(rows)
        rounded = [dict(r, l2_error=r["l2_error"] * (1 + 4e-15)) for r in rows]
        moved = [dict(r, l2_error=r["l2_error"] * (1 + 1e-6)) for r in rows]
        assert workloads.stored_problems(L2_PLAN, rounded, stored) == []
        assert workloads.stored_problems(L2_PLAN, moved, stored)

    def test_parse_csv_rejects_other_header(self):
        with pytest.raises(ValueError):
            workloads.parse_csv("a,b\n1,2\n")


def test_reported_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS_END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.UNITS_PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    layer_names = set(spans.layer_metrics([], evaluations=1, threads=1))
    assert layer_names | {"cli.bytes_written", "trace.overhead_share"} == set(run.UNITS_PER_LAYER)
