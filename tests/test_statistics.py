"""Statistics against term-by-term transcriptions of the displayed formulas."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import (
    FORMS,
    FbmPath,
    HurstIndex,
    OrderError,
    RegimeError,
    SamplerConfig,
    StatForm,
    StatisticSpec,
    WeightFunction,
    breuer_major_variance,
    builtin,
    classify_regime,
    evaluate_statistic,
    limit_functional,
    require_form_admissible,
    sample_fbm,
)
from fbmvar.sampler import Workspace
from fbmvar.statistics import HALF, QUARTER, SIXTH, THREE_QUARTERS, RegimeName, derivative_at_left
from fbmvar.weights import BUILTIN_IDS
from oracles import (
    centered_quadratic_oracle,
    compensated_cubic_oracle,
    exact_odd_drift_mean,
    limit_functional_oracle,
    mixing_normalized_oracle,
    odd_weighted_oracle,
    unweighted_oracle,
)


def synthetic_path(increments, H=0.3):
    """A block holding the one path of `increments`."""
    increments = np.asarray(increments, dtype=np.float64)
    return FbmPath(HurstIndex(H), increments[np.newaxis, :])


def sampled(H, n, seed=2024, stream=0):
    """A block holding the one path of stream (seed, stream)."""
    return sample_fbm(H, n, SamplerConfig(seed=seed, stream=stream))


def only(per_path):
    """The value of a one-path block."""
    assert per_path.shape == (1,)
    return per_path[0]


def spec_for(kappa, h, form):
    """The spec of a weighted form at kappa for weight h.

    The kernels evaluate the weight they are handed and read spec.weight
    nowhere; a spec names a registered id, so an unregistered test weight's
    spec names 'x'.
    """
    return StatisticSpec(kappa, h.id if h.id in BUILTIN_IDS else "x", form)


def quadratic(p, h):
    return only(evaluate_statistic(p, h, spec_for(2, h, StatForm.CENTERED_QUADRATIC)))


def cubic(p, h):
    return only(evaluate_statistic(p, h, spec_for(3, h, StatForm.COMPENSATED_CUBIC)))


def odd(p, h, kappa):
    return only(evaluate_statistic(p, h, spec_for(kappa, h, StatForm.ODD_WEIGHTED)))


def unweighted(p, kappa):
    form = StatForm.UNWEIGHTED_CENTERED if kappa % 2 == 0 else StatForm.UNWEIGHTED_ODD
    return only(evaluate_statistic(p, builtin("one"), StatisticSpec(kappa, "one", form)))


def mixing(p, h):
    return only(evaluate_statistic(p, h, spec_for(2, h, StatForm.MIXING_NORMALIZED)))


def limit(p, h, form, kappa=None):
    """The limit functional of the form at kappa, or at the form's smallest kappa."""
    return only(limit_functional(p, h, spec_for(kappa or FORMS[form].kappa[0], h, form)))


def weight_from(*evaluators):
    """A test weight with evaluators (h, h', ..., h^(k)); k is its max order.

    Each of `evaluators` is a function of x alone; the weight's evaluators
    also take `out`, as the evaluator contract asks, and copy into it.
    """

    def writing(f):
        def e(x, out=None):
            if out is None:
                return f(x)
            out[...] = f(x)
            return out

        return e

    return WeightFunction(id="test", evaluators=tuple(map(writing, evaluators)), growth_bound=(1.0, 6))


def combination(a, w1, b, w2):
    """The weight a*w1 + b*w2, derivatives combined order by order."""
    return weight_from(*(lambda x, f=f, g=g: a * f(x) + b * g(x) for f, g in zip(w1.evaluators, w2.evaluators)))


def zeros(x):
    return np.zeros_like(np.asarray(x, dtype=np.float64))


class TestCenteredQuadratic:
    def test_unit_bracket_vanishes(self):
        n, H = 8, 0.25
        inc = np.full(n, n**-H)
        inc[::2] *= -1.0
        p = synthetic_path(inc, H=H)
        assert quadratic(p, builtin("one")) == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight(self):
        p = sampled(0.1, 32)
        assert quadratic(p, weight_from(zeros, zeros, zeros)) == 0.0

    def test_term_by_term_oracle(self):
        p = sampled(0.1, 8, seed=99)
        got = quadratic(p, builtin("x2"))
        want = centered_quadratic_oracle(list(p.values[0]), 0.1, lambda x: x * x)
        assert got == pytest.approx(want, rel=1e-13)

    def test_one_weight_reduces_to_quadratic_variation(self):
        p = sampled(0.15, 128, seed=3)
        n, H = p.n, 0.15
        qv = np.sum(np.diff(p.values[0]) ** 2)
        want = n ** (2 * H - 1) * (n ** (2 * H) * qv - n)
        assert quadratic(p, builtin("one")) == pytest.approx(want, rel=1e-12)


class TestCompensatedCubic:
    def test_one_weight_drops_compensator(self):
        p = sampled(0.12, 64, seed=5)
        n, H = p.n, 0.12
        d = np.diff(p.values[0])
        want = n ** (3 * H - 1) * np.sum(n ** (3 * H) * d**3)
        assert cubic(p, builtin("one")) == pytest.approx(want, rel=1e-12)

    def test_zero_weight(self):
        p = sampled(0.12, 16)
        assert cubic(p, weight_from(zeros, zeros)) == 0.0

    def test_term_by_term_oracle(self):
        p = sampled(0.12, 16, seed=17)
        got = cubic(p, builtin("sin"))
        want = compensated_cubic_oracle(list(p.values[0]), 0.12, math.sin, math.cos)
        assert got == pytest.approx(want, rel=1e-13)


class TestOddWeighted:
    def test_symmetric_increments_cancel(self):
        a = 0.8
        p = synthetic_path([a, -a], H=0.35)
        assert odd(p, builtin("one"), 3) == pytest.approx(0.0, abs=1e-14)

    def test_even_kappa_rejected(self):
        with pytest.raises(ValueError, match="odd kappa"):
            StatisticSpec(kappa=2, weight="x", form=StatForm.ODD_WEIGHTED)

    def test_term_by_term_oracle(self):
        p = sampled(0.35, 32, seed=8)
        got = odd(p, builtin("x"), 3)
        want = odd_weighted_oracle(list(p.values[0]), 0.35, lambda x: x, 3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_kappa_five(self):
        p = sampled(0.3, 16, seed=8)
        got = odd(p, builtin("cos"), 5)
        want = odd_weighted_oracle(list(p.values[0]), 0.3, math.cos, 5)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("kappa", [3, 5])
    @pytest.mark.parametrize("H", [0.1, 0.35, 0.45])
    def test_exact_mean_closed_form(self, H, kappa):
        # h(x) = x: Isserlis and the telescoping sum of E[B_{k/n} Delta B_k]
        # give E[stat] = -(mu_{kappa+1}/2)(1 - n^{2H-1}), the finite-n mean
        # that acceptance criterion 8 checks its ladder against
        mu = math.prod(range(1, kappa + 1, 2))
        for n in (128, 512, 2048, 8192):
            want = -0.5 * mu * (1.0 - n ** (2 * H - 1))
            assert exact_odd_drift_mean(H, n, kappa) == pytest.approx(want, rel=1e-11)


class TestUnweighted:
    def test_unit_increments_vanish(self):
        n, H = 8, 0.3
        p = synthetic_path(np.full(n, n**-H), H=H)
        assert unweighted(p, 2) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_path_flips_odd_statistic(self):
        p = sampled(0.3, 64, seed=21)
        q = FbmPath(p.hurst, -p.increments)
        assert unweighted(q, 3) == -unweighted(p, 3)

    def test_term_by_term_oracle_kappa4(self):
        p = sampled(0.3, 32, seed=12)
        assert unweighted(p, 4) == pytest.approx(unweighted_oracle(list(p.values[0]), 0.3, 4), rel=1e-13)


class TestMixingNormalized:
    def test_unit_bracket_vanishes(self):
        n, H = 8, 0.35
        p = synthetic_path(np.full(n, n**-H), H=H)
        assert mixing(p, builtin("one")) == pytest.approx(0.0, abs=1e-12)

    def test_normalization_algebra(self):
        p = sampled(0.35, 128, seed=31)
        n, H = p.n, 0.35
        left = mixing(p, builtin("x2"))
        right = n ** (0.5 - 2 * H) * quadratic(p, builtin("x2"))
        assert left == pytest.approx(right, rel=1e-12)

    def test_term_by_term_oracle(self):
        p = sampled(0.35, 16, seed=41)
        got = mixing(p, builtin("x2"))
        want = mixing_normalized_oracle(list(p.values[0]), 0.35, lambda x: x * x)
        assert got == pytest.approx(want, rel=1e-13)


class TestLimitFunctional:
    def test_quadratic_constant_curvature(self):
        p = sampled(0.1, 64)
        # h'' = 2 everywhere: (1/4) * mean(2) = 1/2 for any path
        assert limit(p, builtin("x2"), StatForm.CENTERED_QUADRATIC) == pytest.approx(0.5, rel=1e-15)

    def test_cubic_vanishing_third_derivative(self):
        p = sampled(0.1, 64)
        assert limit(p, builtin("x2"), StatForm.COMPENSATED_CUBIC) == 0.0

    def test_odd_constant_slope(self):
        p = sampled(0.35, 64)
        # -(mu_4 / 2) * mean(1) = -3/2
        got = limit(p, builtin("x"), StatForm.ODD_WEIGHTED, kappa=3)
        assert got == pytest.approx(-1.5, rel=1e-15)

    def test_odd_requires_kappa(self):
        # the drift constant -mu_{kappa+1}/2 follows the spec's kappa, which must be odd
        p = sampled(0.35, 8)
        assert limit(p, builtin("x"), StatForm.ODD_WEIGHTED, kappa=5) == pytest.approx(-7.5, rel=1e-15)
        with pytest.raises(ValueError, match="odd kappa"):
            StatisticSpec(2, "x", StatForm.ODD_WEIGHTED)

    def test_order_guard(self):
        p = sampled(0.1, 8)
        shallow = weight_from(*builtin("x").evaluators[:2])
        with pytest.raises(OrderError):
            limit(p, shallow, StatForm.CENTERED_QUADRATIC)

    def test_oracle_match_sin(self):
        p = sampled(0.12, 32, seed=14)
        got = limit(p, builtin("sin"), StatForm.COMPENSATED_CUBIC)
        want = limit_functional_oracle(list(p.values[0]), -0.125, lambda x: -math.cos(x))
        assert got == pytest.approx(want, rel=1e-13)

    def test_no_functional_for_diagnostic_forms(self):
        p = sampled(0.3, 8)
        with pytest.raises(ValueError, match="no pathwise limit"):
            limit(p, builtin("one"), StatForm.UNWEIGHTED_CENTERED)


class TestLinearity:
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_centered_quadratic_linear_in_weight(self, a, b):
        p = sampled(0.1, 32, seed=61)
        combo = combination(a, builtin("x2"), b, builtin("sin"))
        lhs = quadratic(p, combo)
        rhs = a * quadratic(p, builtin("x2")) + b * quadratic(p, builtin("sin"))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_odd_weighted_linear_in_weight(self, a, b):
        p = sampled(0.35, 32, seed=62)
        combo = combination(a, builtin("x"), b, builtin("cos"))
        lhs = odd(p, combo, 3)
        rhs = a * odd(p, builtin("x"), 3) + b * odd(p, builtin("cos"), 3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestOddSymmetry:
    def test_negated_path_flips_odd_statistics_exactly(self):
        # negating the increments is exact, and so are the partial sums derived from them
        p = sampled(0.3, 64, seed=77)
        q = FbmPath(p.hurst, -p.increments)
        for weight in ("x2", "cos", "one"):  # even weights
            h = builtin(weight)
            assert odd(q, h, 3) == -odd(p, h, 3)
        assert unweighted(q, 3) == -unweighted(p, 3)


class TestTwoForms:
    # (form, kappa, weight, H): every form, on a sampled path and on the same path rebuilt from its increments
    CASES = (
        (StatForm.CENTERED_QUADRATIC, 2, "x2", 0.1),
        (StatForm.COMPENSATED_CUBIC, 3, "sin", 0.12),
        (StatForm.ODD_WEIGHTED, 3, "cos", 0.35),
        (StatForm.UNWEIGHTED_CENTERED, 4, "one", 0.3),
        (StatForm.UNWEIGHTED_ODD, 3, "one", 0.3),
        (StatForm.MIXING_NORMALIZED, 2, "x2", 0.35),
    )

    def test_cases_cover_every_form(self):
        assert {form for form, *_ in self.CASES} == set(StatForm)

    @pytest.mark.parametrize("form, kappa, weight, H", CASES)
    def test_forms_agree_across_representations(self, form, kappa, weight, H):
        p = sample_fbm(H, 256, SamplerConfig(seed=91), 8)
        q = FbmPath(p.hurst, p.increments)
        spec, h = StatisticSpec(kappa, weight, form), builtin(weight)
        assert evaluate_statistic(q, h, spec).tobytes() == evaluate_statistic(p, h, spec).tobytes()
        if FORMS[form].limit is not None:
            assert limit_functional(q, h, spec).tobytes() == limit_functional(p, h, spec).tobytes()


class TestWeightWorkspace:
    # (count, n): blocks of changing shape, read in turn through one workspace,
    # whose buffers grow to the largest and are reused across n
    SHAPES = ((64, 128), (16, 512), (3, 40), (1, 9000), (64, 128))

    @pytest.mark.parametrize("wid", BUILTIN_IDS)
    def test_every_order_bitwise_equal_to_the_evaluator(self, wid):
        h = builtin(wid)
        work = Workspace()
        for k, (count, n) in enumerate(self.SHAPES):
            path = sample_fbm(0.3, n, SamplerConfig(seed=5, stream=k), count)
            # ascending and descending, so that sin and cos form h^(j+2) from h^(j) and the reverse
            for j in range(7) if k % 2 == 0 else range(6, -1, -1):
                got = derivative_at_left(path, h, j, work)
                want = h.derivative(j)(path.left)
                assert got.shape == want.shape == (count, n) and got.tobytes() == want.tobytes(), (wid, n, j)
                assert not got.flags.writeable
                assert derivative_at_left(path, h, j, work) is got
                assert derivative_at_left(path, h, j).tobytes() == want.tobytes()

    def test_path_read_again_after_another_gives_its_own_values(self):
        h = builtin("sin")
        spec = spec_for(3, h, StatForm.COMPENSATED_CUBIC)
        a, b = (sample_fbm(0.1, 128, SamplerConfig(seed=seed), 4) for seed in (1, 2))
        work = Workspace()

        def both(p):
            return evaluate_statistic(p, h, spec, work).tobytes(), limit_functional(p, h, spec, work).tobytes()

        first, other = both(a), both(b)
        assert both(a) == first
        assert other[0] != first[0] and other[1] != first[1]
        # a new block with a's increments gives a's values, and so do calls without a workspace
        assert both(FbmPath(a.hurst, a.increments)) == first
        assert (evaluate_statistic(a, h, spec).tobytes(), limit_functional(a, h, spec).tobytes()) == first

    def test_drawing_a_block_empties_the_table(self):
        # the table belongs to the block it was read from: drawing a block leaves it
        # alone, the first read of the new block replaces it, and a second read reuses it
        h, work = builtin("sin"), Workspace()
        a = sample_fbm(0.1, 128, SamplerConfig(seed=1), 4, workspace=work)
        a_sin = derivative_at_left(a, h, 0, work)
        b = sample_fbm(0.1, 128, SamplerConfig(seed=2), 4, workspace=work)
        assert list(work.derivatives) == [h.derivative(0)] and work.derivatives[h.derivative(0)] is a_sin
        b_cos = derivative_at_left(b, h, 1, work)
        assert list(work.derivatives) == [h.derivative(1)]
        assert b_cos.tobytes() == np.cos(b.left).tobytes()
        b_sin = derivative_at_left(b, h, 0, work)
        assert derivative_at_left(b, h, 1, work) is b_cos and derivative_at_left(b, h, 0, work) is b_sin
        assert b_sin.tobytes() == h(b.left).tobytes()
        # a path around b's own increments array shares b's table; a copy of them does not
        assert derivative_at_left(FbmPath._adopt(b.hurst, b.increments), h, 0, work) is b_sin
        copy = FbmPath(b.hurst, b.increments)
        assert derivative_at_left(copy, h, 0, work).tobytes() == b_sin.tobytes() and list(work.derivatives) == [h.derivative(0)]

    @pytest.mark.parametrize("form", [StatForm.CENTERED_QUADRATIC, StatForm.COMPENSATED_CUBIC])
    def test_a_reused_workspace_never_hands_out_another_blocks_derivatives(self, form):
        # with no new draw through the workspace in between, the second path still reads its own weight values
        h = builtin("sin")
        spec = spec_for(FORMS[form].kappa[0], h, form)
        first, second = (sample_fbm(0.1, 64, SamplerConfig(seed=seed), 4) for seed in (1, 2))
        work = Workspace()
        evaluate_statistic(first, h, spec, work), limit_functional(first, h, spec, work)
        got = evaluate_statistic(second, h, spec, work).tobytes(), limit_functional(second, h, spec, work).tobytes()
        assert got == (evaluate_statistic(second, h, spec).tobytes(), limit_functional(second, h, spec).tobytes())

    @pytest.mark.parametrize("wid", ["sin", "cos"])
    def test_limit_through_the_negation_step_has_the_direct_bits(self, wid):
        # c h^(j) summed equals -c h^(j-2) summed, bit for bit: negation commutes with each rounded step
        h, p = builtin(wid), sample_fbm(0.1, 256, SamplerConfig(seed=6), 8)
        for form, row in FORMS.items():
            if row.limit is None or not row.weighted:
                continue
            spec = spec_for(row.kappa[0], h, form)
            constant, order = row.limit
            direct = constant(spec.kappa) * (np.add.reduce(h.derivative(order)(p.left), axis=1) / p.n)
            assert limit_functional(p, h, spec).tobytes() == direct.tobytes(), (wid, form)

    def test_workspace_grows_to_a_larger_block(self):
        # a small block, a larger one, the small one again: each buffer grows to the larger block, 4 * 256 points
        h, work = builtin("sin"), Workspace()
        small, large = sample_fbm(0.3, 64, SamplerConfig(), 4), sample_fbm(0.3, 256, SamplerConfig(seed=1), 4)
        for p in (small, large, small):
            for j in (0, 1):
                assert derivative_at_left(p, h, j, work).tobytes() == derivative_at_left(p, h, j, Workspace()).tobytes(), (p.n, j)
        assert [b.size for b in work.buffers] == [4 * 256, 4 * 256]

    def test_evaluator_that_ignores_out_rejected(self):
        p = sample_fbm(0.1, 16, SamplerConfig(seed=4), 2)
        careless = WeightFunction(id="test", evaluators=(lambda x, out=None: np.sin(x),), growth_bound=(1.0, 0))
        with pytest.raises(TypeError, match="out"):
            derivative_at_left(p, careless, 0, Workspace())

    def test_weights_that_share_an_evaluator_read_one_value(self):
        # cos is the h' of sin and the h of cos; -cos is the h''' of sin and the h'' of cos
        p = sample_fbm(0.1, 64, SamplerConfig(seed=3), 8)
        sin, cos = builtin("sin"), builtin("cos")
        work = Workspace()
        assert derivative_at_left(p, sin, 1, work) is derivative_at_left(p, cos, 0, work)
        assert derivative_at_left(p, cos, 2, work) is derivative_at_left(p, sin, 3, work)
        assert np.array_equal(derivative_at_left(p, cos, 2, work), -np.cos(p.left))


class TestStatisticSpecValidation:
    def test_form_constraints(self):
        with pytest.raises(ValueError):
            StatisticSpec(kappa=3, weight="x2", form=StatForm.CENTERED_QUADRATIC)
        with pytest.raises(ValueError):
            StatisticSpec(kappa=2, weight="x2", form=StatForm.COMPENSATED_CUBIC)
        with pytest.raises(ValueError):
            StatisticSpec(kappa=4, weight="x", form=StatForm.ODD_WEIGHTED)
        with pytest.raises(ValueError):
            StatisticSpec(kappa=3, weight="one", form=StatForm.UNWEIGHTED_CENTERED)
        with pytest.raises(ValueError):
            StatisticSpec(kappa=3, weight="x2", form=StatForm.MIXING_NORMALIZED)

    def test_kappa_must_be_integral(self):
        spec = StatisticSpec(kappa=2.0, weight="x2", form=StatForm.CENTERED_QUADRATIC)
        assert spec.kappa == 2 and type(spec.kappa) is int
        assert type(StatisticSpec(np.int64(3), "x", StatForm.ODD_WEIGHTED).kappa) is int
        for bad in (2.5, math.inf, math.nan, np.float64(3.5)):
            with pytest.raises(ValueError, match="kappa must be an integer"):
                StatisticSpec(kappa=bad, weight="x", form=StatForm.ODD_WEIGHTED)

    def test_unweighted_forms_require_weight_one(self):
        for form, kappa in ((StatForm.UNWEIGHTED_CENTERED, 2), (StatForm.UNWEIGHTED_ODD, 3)):
            StatisticSpec(kappa=kappa, weight="one", form=form)
            with pytest.raises(ValueError, match="weight = one"):
                StatisticSpec(kappa=kappa, weight="x2", form=form)

    @pytest.mark.parametrize("weight", ["tanh", "X2", "", "test"])
    def test_unregistered_weight_rejected(self, weight):
        for form in (StatForm.CENTERED_QUADRATIC, StatForm.UNWEIGHTED_CENTERED):
            with pytest.raises(ValueError, match=f"unknown weight id '{weight}'"):
                StatisticSpec(kappa=2, weight=weight, form=form)

    def test_dispatch_matches_direct_calls(self):
        # every row of the table against its own transcription of the display,
        # on each path of a block
        H = 0.1
        block = sample_fbm(H, 32, SamplerConfig(seed=91, stream=0), 3)
        for i, v in enumerate(map(list, block.values)):
            cases = [
                (StatisticSpec(2, "x2", StatForm.CENTERED_QUADRATIC), centered_quadratic_oracle(v, H, lambda x: x * x)),
                (StatisticSpec(2, "one", StatForm.UNWEIGHTED_CENTERED), unweighted_oracle(v, H, 2)),
                (StatisticSpec(3, "one", StatForm.UNWEIGHTED_ODD), unweighted_oracle(v, H, 3)),
                (StatisticSpec(2, "x2", StatForm.MIXING_NORMALIZED), mixing_normalized_oracle(v, H, lambda x: x * x)),
                (StatisticSpec(3, "x", StatForm.ODD_WEIGHTED), odd_weighted_oracle(v, H, lambda x: x, 3)),
                (StatisticSpec(3, "sin", StatForm.COMPENSATED_CUBIC), compensated_cubic_oracle(v, H, math.sin, math.cos)),
            ]
            assert {spec.form for spec, _ in cases} == set(FORMS) == set(StatForm)
            for spec, want in cases:
                got = evaluate_statistic(block, builtin(spec.weight), spec)[i]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# (label, citation) of every regime the classifier reports, written out here so
# that a change to the REGIMES or FORMS table cannot move them unnoticed
CITED = {
    "bm_even": (RegimeName.BREUER_MAJOR_CLT, "Breuer-Major CLT, even power, H < 3/4: N(0, sigma^2(H, kappa))"),
    "brownian": (RegimeName.BROWNIAN_CLT, "classical CLT for Brownian kappa-variation: N(0, mu_{2k} - mu_k^2)"),
    "gauss_rosenblatt_end": (RegimeName.BOUNDARY_UNSUPPORTED, "H = 3/4 separates the Gaussian and Rosenblatt regimes"),
    "rosenblatt": (RegimeName.ROSENBLATT, "non-central limit (Taqqu): n^{1-2H}-normalized sum tends to a Rosenblatt variable"),
    "bm_odd_low": (RegimeName.BREUER_MAJOR_CLT, "Breuer-Major CLT, odd power, H < 1/2: N(0, sigma^2(H, kappa))"),
    "bm_odd_high": (RegimeName.BREUER_MAJOR_CLT, "Breuer-Major CLT, odd power, H > 1/2 with n^{-H} Sum n^{kappa H} normalization"),
    "l2_quadratic": (RegimeName.WEIGHTED_L2_QUADRATIC, "weighted quadratic L2 limit, H < 1/4: n^{2H-1}-normalized sum tends to (1/4) Int h''(B_u) du"),
    "quadratic_end": (RegimeName.BOUNDARY_UNSUPPORTED, "H = 1/4 is the open endpoint of the weighted quadratic L2 theorem"),
    "mixing_low": (RegimeName.MIXING_CONJECTURE, "conjectured mixing limit for 1/4 < H < 1/2: sigma_H Int h(B) dW (second moment scales like n)"),
    "jacod_even": (RegimeName.MIXING_CONJECTURE, "Jacod-type mixing limit at H = 1/2 (even power): stochastic integral of h(B) against an independent Brownian motion"),
    "leon_ludena": (RegimeName.MIXING_CONJECTURE, "mixing limit (Leon-Ludena) for even power, 1/2 < H < 3/4: sigma Int h(B) dW"),
    "mixing_end": (RegimeName.BOUNDARY_UNSUPPORTED, "H = 3/4 is the open endpoint of the mixing regime"),
    "even_high": (RegimeName.BOUNDARY_UNSUPPORTED, "weighted even-power regime for H > 3/4 has no published statement here"),
    "l2_cubic": (RegimeName.WEIGHTED_L2_CUBIC, "compensated cubic L2 limit, H < 1/6: n^{3H-1}-normalized compensated sum tends to -(1/8) Int h'''(B_u) du"),
    "odd_drift": (RegimeName.ODD_L2_DRIFT, "odd-power drift limit (Gradinaru-Russo-Vallois), H < 1/2: n^{H-1}-normalized sum tends to -(mu_{kappa+1}/2) Int h'(B_s) ds"),
    "jacod_odd": (RegimeName.MIXING_CONJECTURE, "Jacod-type mixing limit at H = 1/2 (odd power): stochastic integral of h(B) against an independent Brownian motion"),
    "odd_high": (RegimeName.BOUNDARY_UNSUPPORTED, "weighted odd power for H > 1/2 has no published statement here"),
    "even4_outside": (RegimeName.BOUNDARY_UNSUPPORTED, "weighted even power >= 4 outside (1/2, 3/4) has no published statement here"),
}
# (weighted, kappa, endpoint e): regimes at e - 2e-12, at e +- 5e-13 and at e + 2e-12
SLIVERS = {
    (False, 2, SIXTH): ("bm_even", "bm_even", "bm_even"),
    (False, 2, QUARTER): ("bm_even", "bm_even", "bm_even"),
    (False, 2, HALF): ("bm_even", "brownian", "bm_even"),
    (False, 2, THREE_QUARTERS): ("bm_even", "gauss_rosenblatt_end", "rosenblatt"),
    (False, 3, SIXTH): ("bm_odd_low", "bm_odd_low", "bm_odd_low"),
    (False, 3, QUARTER): ("bm_odd_low", "bm_odd_low", "bm_odd_low"),
    (False, 3, HALF): ("bm_odd_low", "brownian", "bm_odd_high"),
    (False, 3, THREE_QUARTERS): ("bm_odd_high", "bm_odd_high", "bm_odd_high"),
    (False, 4, SIXTH): ("bm_even", "bm_even", "bm_even"),
    (False, 4, QUARTER): ("bm_even", "bm_even", "bm_even"),
    (False, 4, HALF): ("bm_even", "brownian", "bm_even"),
    (False, 4, THREE_QUARTERS): ("bm_even", "gauss_rosenblatt_end", "rosenblatt"),
    (False, 5, SIXTH): ("bm_odd_low", "bm_odd_low", "bm_odd_low"),
    (False, 5, QUARTER): ("bm_odd_low", "bm_odd_low", "bm_odd_low"),
    (False, 5, HALF): ("bm_odd_low", "brownian", "bm_odd_high"),
    (False, 5, THREE_QUARTERS): ("bm_odd_high", "bm_odd_high", "bm_odd_high"),
    (True, 2, SIXTH): ("l2_quadratic", "l2_quadratic", "l2_quadratic"),
    (True, 2, QUARTER): ("l2_quadratic", "quadratic_end", "mixing_low"),
    (True, 2, HALF): ("mixing_low", "jacod_even", "leon_ludena"),
    (True, 2, THREE_QUARTERS): ("leon_ludena", "mixing_end", "even_high"),
    (True, 3, SIXTH): ("l2_cubic", "odd_drift", "odd_drift"),
    (True, 3, QUARTER): ("odd_drift", "odd_drift", "odd_drift"),
    (True, 3, HALF): ("odd_drift", "jacod_odd", "odd_high"),
    (True, 3, THREE_QUARTERS): ("odd_high", "odd_high", "odd_high"),
    (True, 4, SIXTH): ("even4_outside", "even4_outside", "even4_outside"),
    (True, 4, QUARTER): ("even4_outside", "even4_outside", "even4_outside"),
    (True, 4, HALF): ("even4_outside", "jacod_even", "leon_ludena"),
    (True, 4, THREE_QUARTERS): ("leon_ludena", "mixing_end", "even4_outside"),
    (True, 5, SIXTH): ("odd_drift", "odd_drift", "odd_drift"),
    (True, 5, QUARTER): ("odd_drift", "odd_drift", "odd_drift"),
    (True, 5, HALF): ("odd_drift", "jacod_odd", "odd_high"),
    (True, 5, THREE_QUARTERS): ("odd_high", "odd_high", "odd_high"),
}


class TestClassifyRegime:
    def test_paper_cells(self):
        assert classify_regime(2, 0.10, True).label == RegimeName.WEIGHTED_L2_QUADRATIC
        assert classify_regime(2, 0.80, False).label == RegimeName.ROSENBLATT
        assert classify_regime(3, 0.35, True).label == RegimeName.ODD_L2_DRIFT
        assert classify_regime(3, 1.0 / 6.0, True).label == RegimeName.ODD_L2_DRIFT
        assert classify_regime(3, 0.10, True).label == RegimeName.WEIGHTED_L2_CUBIC
        assert classify_regime(2, 0.5, False).label == RegimeName.BROWNIAN_CLT
        assert classify_regime(3, 0.5, False).label == RegimeName.BROWNIAN_CLT
        assert classify_regime(2, 0.5, True).label == RegimeName.MIXING_CONJECTURE
        assert classify_regime(2, 0.35, True).label == RegimeName.MIXING_CONJECTURE
        assert classify_regime(2, 0.6, True).label == RegimeName.MIXING_CONJECTURE
        assert classify_regime(2, 0.3, False).label == RegimeName.BREUER_MAJOR_CLT
        assert classify_regime(3, 0.7, False).label == RegimeName.BREUER_MAJOR_CLT

    def test_boundaries_unsupported(self):
        assert classify_regime(2, 0.25, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.75, False).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.75, True).label == RegimeName.BOUNDARY_UNSUPPORTED

    def test_uncovered_cells_map_to_unsupported(self):
        assert classify_regime(4, 0.2, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.9, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(3, 0.7, True).label == RegimeName.BOUNDARY_UNSUPPORTED

    def test_endpoint_slivers(self):
        # within 1e-12 of a theorem endpoint is at the endpoint; 2e-12 away is not
        for (weighted, kappa, e), (below, at, above) in SLIVERS.items():
            for hv, key in ((e - 2e-12, below), (e - 5e-13, at), (e + 5e-13, at), (e + 2e-12, above)):
                got = classify_regime(kappa, hv, weighted)
                assert (got.label, got.citation) == CITED[key], (weighted, kappa, e, hv)
        assert {key for cells in SLIVERS.values() for key in cells} == set(CITED)

    def test_exhaustive_and_deterministic_on_lattice(self):
        for kappa in range(2, 7):
            for i in range(1, 100):
                hv = i / 100.0
                for weighted in (False, True):
                    a = classify_regime(kappa, hv, weighted)
                    b = classify_regime(kappa, hv, weighted)
                    assert a == b
                    assert isinstance(a.label, RegimeName)
                    assert a.citation


class TestFormAdmissibility:
    def test_open_intervals(self):
        require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.1)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.25)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.3)
        require_form_admissible(StatForm.COMPENSATED_CUBIC, 3, 0.1)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.COMPENSATED_CUBIC, 3, 1.0 / 6.0)
        # the odd drift statistic stays admissible below 1/6
        require_form_admissible(StatForm.ODD_WEIGHTED, 3, 0.1)
        require_form_admissible(StatForm.ODD_WEIGHTED, 3, 0.45)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.ODD_WEIGHTED, 3, 0.5)
        require_form_admissible(StatForm.UNWEIGHTED_CENTERED, 2, 0.5)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.UNWEIGHTED_CENTERED, 2, 0.75)
        require_form_admissible(StatForm.UNWEIGHTED_ODD, 3, 0.5)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.UNWEIGHTED_ODD, 3, 0.6)
        require_form_admissible(StatForm.MIXING_NORMALIZED, 2, 0.35)
        with pytest.raises(RegimeError):
            require_form_admissible(StatForm.MIXING_NORMALIZED, 2, 0.2)

    def test_error_text_names_the_interval(self, monkeypatch):
        with pytest.raises(RegimeError, match=r"H in \(0, 1/4\)"):
            require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.3)
        with pytest.raises(RegimeError, match=r"H in \(1/4, 1/2\]"):
            require_form_admissible(StatForm.MIXING_NORMALIZED, 2, 0.6)
        with pytest.raises(RegimeError, match="odd kappa"):
            require_form_admissible(StatForm.ODD_WEIGHTED, 2, 0.3)
        for form, text in (
            (StatForm.CENTERED_QUADRATIC, "H in (0, 1/4)"),
            (StatForm.COMPENSATED_CUBIC, "H in (0, 1/6)"),
            (StatForm.ODD_WEIGHTED, "H in (0, 1/2)"),
            (StatForm.UNWEIGHTED_CENTERED, "H in (0, 3/4)"),
            (StatForm.UNWEIGHTED_ODD, "H in (0, 1/2]"),
            (StatForm.MIXING_NORMALIZED, "H in (1/4, 1/2]"),
        ):
            kappa = FORMS[form].kappa[0]
            with pytest.raises(RegimeError) as exc:
                require_form_admissible(form, kappa, 0.9)
            assert str(exc.value) == f"form {form.value} with kappa={kappa} requires {text}; got H=0.9"
        # every endpoint prints as its fraction, not only those of the shipped rows
        for interval, text in (
            ((THREE_QUARTERS, False, 1.0, True), "H in (3/4, 1]"),
            ((0.0, True, 1.0 / 8.0, False), "H in (0, 1/8)"),
            ((1.0 / 12.0, False, 1.0 / 10.0, True), "H in (1/12, 1/10]"),
        ):
            row = dataclasses.replace(FORMS[StatForm.CENTERED_QUADRATIC], h_interval=interval)
            monkeypatch.setitem(FORMS, StatForm.CENTERED_QUADRATIC, row)
            with pytest.raises(RegimeError, match=re.escape(f"requires {text}; got H=0.6")):
                require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.6)


# Regimes that classify_regime may report on a cell where a row is admissible.
ALLOWED_REGIMES = {
    StatForm.CENTERED_QUADRATIC: {RegimeName.WEIGHTED_L2_QUADRATIC},
    StatForm.COMPENSATED_CUBIC: {RegimeName.WEIGHTED_L2_CUBIC},
    StatForm.ODD_WEIGHTED: {RegimeName.ODD_L2_DRIFT, RegimeName.WEIGHTED_L2_CUBIC},
    StatForm.UNWEIGHTED_CENTERED: {RegimeName.BREUER_MAJOR_CLT, RegimeName.BROWNIAN_CLT},
    StatForm.UNWEIGHTED_ODD: {RegimeName.BREUER_MAJOR_CLT, RegimeName.BROWNIAN_CLT},
    StatForm.MIXING_NORMALIZED: {RegimeName.MIXING_CONJECTURE},
}


def admits(form, kappa, hv) -> bool:
    try:
        require_form_admissible(form, kappa, hv)
    except RegimeError:
        return False
    return True


# the lattice, each theorem endpoint and the slivers within and just beyond 1e-12 of 0 and of it
ENDPOINTS = (SIXTH, QUARTER, HALF, THREE_QUARTERS)
AGREEMENT_GRID = (
    [i / 100 for i in range(1, 100)]
    + list(ENDPOINTS)
    + [5e-13, 2e-12]
    + [e + d for e in ENDPOINTS for d in (-2e-12, -5e-13, 5e-13, 2e-12)]
)


class TestTableAgreesWithClassifier:
    def test_admissible_cells_carry_an_allowed_regime(self):
        for form, row in FORMS.items():
            admissible = 0
            for kappa in range(2, 7):
                for hv in AGREEMENT_GRID:
                    if not admits(form, kappa, hv):
                        continue
                    admissible += 1
                    label = classify_regime(kappa, hv, row.weighted).label
                    assert label in ALLOWED_REGIMES[form], (form, kappa, hv, label)
            assert admissible > 0, form

    def test_cells_labelled_with_a_form_regime_are_admissible(self):
        for form, row in FORMS.items():
            labelled = 0
            for kappa in range(2, 7):
                for hv in AGREEMENT_GRID:
                    if classify_regime(kappa, hv, row.weighted) == row.regime:
                        labelled += 1
                        assert admits(form, kappa, hv), (form, kappa, hv)
            assert labelled > 0, form

    def test_breuer_major_spec_admits_the_unweighted_cells(self):
        for kappa in range(2, 7):
            form = StatForm.UNWEIGHTED_ODD if kappa % 2 else StatForm.UNWEIGHTED_CENTERED
            for hv in AGREEMENT_GRID:
                try:
                    breuer_major_variance(HurstIndex(hv), kappa, lag_truncation=1)
                    built = True
                except RegimeError:
                    built = False
                assert built == admits(form, kappa, hv), (kappa, hv)
