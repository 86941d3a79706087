"""Statistics against term-by-term transcriptions of the displayed formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import (
    FORMS,
    FbmPath,
    HurstIndex,
    KappaError,
    OrderError,
    RegimeError,
    SamplerConfig,
    StatForm,
    StatisticSpec,
    builtin,
    classify_regime,
    evaluate_statistic,
    limit_functional,
    linear_combination,
    require_form_admissible,
    sample_fbm,
)
from fbmvar.statistics import HALF, QUARTER, SIXTH, THREE_QUARTERS, RegimeName
from oracles import (
    centered_quadratic_oracle,
    compensated_cubic_oracle,
    exact_odd_drift_mean,
    limit_functional_oracle,
    mixing_normalized_oracle,
    odd_weighted_oracle,
    unweighted_oracle,
)


def synthetic_path(values, H=0.3):
    values = np.asarray(values, dtype=np.float64)
    return FbmPath(hurst=HurstIndex(H), n=len(values) - 1, values=values, seed_tag="synthetic")


def sampled(H, n, seed=2024, stream=0):
    return sample_fbm(H, n, SamplerConfig(seed=seed, stream=stream))


def quadratic(p, h):
    return evaluate_statistic(p, h, StatisticSpec(2, h.id, StatForm.CENTERED_QUADRATIC))


def cubic(p, h):
    return evaluate_statistic(p, h, StatisticSpec(3, h.id, StatForm.COMPENSATED_CUBIC))


def odd(p, h, kappa):
    return evaluate_statistic(p, h, StatisticSpec(kappa, h.id, StatForm.ODD_WEIGHTED))


def unweighted(p, kappa):
    form = StatForm.UNWEIGHTED_CENTERED if kappa % 2 == 0 else StatForm.UNWEIGHTED_ODD
    return evaluate_statistic(p, builtin("one"), StatisticSpec(kappa, "one", form))


def mixing(p, h):
    return evaluate_statistic(p, h, StatisticSpec(2, h.id, StatForm.MIXING_NORMALIZED))


class TestCenteredQuadratic:
    def test_unit_bracket_vanishes(self):
        n, H = 8, 0.25
        inc = np.full(n, n**-H)
        inc[::2] *= -1.0
        p = synthetic_path(np.concatenate([[0.0], np.cumsum(inc)]), H=H)
        assert quadratic(p, builtin("one")) == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight(self):
        p = sampled(0.1, 32)
        zero = linear_combination(0.0, builtin("x"), 0.0, builtin("x"))
        assert quadratic(p, zero) == 0.0

    def test_term_by_term_oracle(self):
        p = sampled(0.1, 8, seed=99)
        got = quadratic(p, builtin("x2"))
        want = centered_quadratic_oracle(list(p.values), 0.1, lambda x: x * x)
        assert got == pytest.approx(want, rel=1e-13)

    def test_one_weight_reduces_to_quadratic_variation(self):
        p = sampled(0.15, 128, seed=3)
        n, H = p.n, 0.15
        qv = np.sum(np.diff(p.values) ** 2)
        want = n ** (2 * H - 1) * (n ** (2 * H) * qv - n)
        assert quadratic(p, builtin("one")) == pytest.approx(want, rel=1e-12)


class TestCompensatedCubic:
    def test_one_weight_drops_compensator(self):
        p = sampled(0.12, 64, seed=5)
        n, H = p.n, 0.12
        d = np.diff(p.values)
        want = n ** (3 * H - 1) * np.sum(n ** (3 * H) * d**3)
        assert cubic(p, builtin("one")) == pytest.approx(want, rel=1e-12)

    def test_zero_weight(self):
        p = sampled(0.12, 16)
        zero = linear_combination(0.0, builtin("sin"), 0.0, builtin("x"))
        assert cubic(p, zero) == 0.0

    def test_term_by_term_oracle(self):
        p = sampled(0.12, 16, seed=17)
        got = cubic(p, builtin("sin"))
        want = compensated_cubic_oracle(list(p.values), 0.12, math.sin, math.cos)
        assert got == pytest.approx(want, rel=1e-13)


class TestOddWeighted:
    def test_symmetric_increments_cancel(self):
        a = 0.8
        p = synthetic_path([0.0, a, 0.0], H=0.35)
        assert odd(p, builtin("one"), 3) == pytest.approx(0.0, abs=1e-14)

    def test_even_kappa_rejected(self):
        with pytest.raises(ValueError, match="odd kappa"):
            StatisticSpec(kappa=2, weight="x", form=StatForm.ODD_WEIGHTED)

    def test_term_by_term_oracle(self):
        p = sampled(0.35, 32, seed=8)
        got = odd(p, builtin("x"), 3)
        want = odd_weighted_oracle(list(p.values), 0.35, lambda x: x, 3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_kappa_five(self):
        p = sampled(0.3, 16, seed=8)
        got = odd(p, builtin("cos"), 5)
        want = odd_weighted_oracle(list(p.values), 0.3, math.cos, 5)
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
        p = synthetic_path(np.concatenate([[0.0], np.cumsum(np.full(n, n**-H))]), H=H)
        assert unweighted(p, 2) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_path_flips_odd_statistic(self):
        p = sampled(0.3, 64, seed=21)
        q = FbmPath(hurst=p.hurst, n=p.n, values=-p.values, seed_tag="mirror")
        assert unweighted(q, 3) == -unweighted(p, 3)

    def test_term_by_term_oracle_kappa4(self):
        p = sampled(0.3, 32, seed=12)
        assert unweighted(p, 4) == pytest.approx(unweighted_oracle(list(p.values), 0.3, 4), rel=1e-13)


class TestMixingNormalized:
    def test_unit_bracket_vanishes(self):
        n, H = 8, 0.35
        p = synthetic_path(np.concatenate([[0.0], np.cumsum(np.full(n, n**-H))]), H=H)
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
        want = mixing_normalized_oracle(list(p.values), 0.35, lambda x: x * x)
        assert got == pytest.approx(want, rel=1e-13)


class TestLimitFunctional:
    def test_quadratic_constant_curvature(self):
        p = sampled(0.1, 64)
        # h'' = 2 everywhere: (1/4) * mean(2) = 1/2 for any path
        assert limit_functional(p, builtin("x2"), StatForm.CENTERED_QUADRATIC) == pytest.approx(0.5, rel=1e-15)

    def test_cubic_vanishing_third_derivative(self):
        p = sampled(0.1, 64)
        assert limit_functional(p, builtin("x2"), StatForm.COMPENSATED_CUBIC) == 0.0

    def test_odd_constant_slope(self):
        p = sampled(0.35, 64)
        # -(mu_4 / 2) * mean(1) = -3/2
        got = limit_functional(p, builtin("x"), StatForm.ODD_WEIGHTED, kappa=3)
        assert got == pytest.approx(-1.5, rel=1e-15)

    def test_odd_requires_kappa(self):
        p = sampled(0.35, 8)
        with pytest.raises(KappaError):
            limit_functional(p, builtin("x"), StatForm.ODD_WEIGHTED)
        with pytest.raises(KappaError):
            limit_functional(p, builtin("x"), StatForm.ODD_WEIGHTED, kappa=2)

    def test_order_guard(self):
        p = sampled(0.1, 8)
        shallow = linear_combination(1.0, builtin("x"), 0.0, builtin("x"))
        object.__setattr__(shallow, "evaluators", shallow.evaluators[:2])
        object.__setattr__(shallow, "max_order", 1)
        with pytest.raises(OrderError):
            limit_functional(p, shallow, StatForm.CENTERED_QUADRATIC)

    def test_oracle_match_sin(self):
        p = sampled(0.12, 32, seed=14)
        got = limit_functional(p, builtin("sin"), StatForm.COMPENSATED_CUBIC)
        want = limit_functional_oracle(list(p.values), -0.125, lambda x: -math.cos(x))
        assert got == pytest.approx(want, rel=1e-13)

    def test_no_functional_for_diagnostic_forms(self):
        p = sampled(0.3, 8)
        with pytest.raises(ValueError):
            limit_functional(p, builtin("one"), StatForm.UNWEIGHTED_CENTERED)


class TestLinearity:
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_centered_quadratic_linear_in_weight(self, a, b):
        p = sampled(0.1, 32, seed=61)
        combo = linear_combination(a, builtin("x2"), b, builtin("sin"))
        lhs = quadratic(p, combo)
        rhs = a * quadratic(p, builtin("x2")) + b * quadratic(p, builtin("sin"))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_odd_weighted_linear_in_weight(self, a, b):
        p = sampled(0.35, 32, seed=62)
        combo = linear_combination(a, builtin("x"), b, builtin("cos"))
        lhs = odd(p, combo, 3)
        rhs = a * odd(p, builtin("x"), 3) + b * odd(p, builtin("cos"), 3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestOddSymmetry:
    def test_negated_path_flips_odd_statistics_exactly(self):
        p = sampled(0.3, 64, seed=77)
        q = FbmPath(hurst=p.hurst, n=p.n, values=-p.values, seed_tag="mirror")
        for weight in ("x2", "cos", "one"):  # even weights
            h = builtin(weight)
            assert odd(q, h, 3) == -odd(p, h, 3)
        assert unweighted(q, 3) == -unweighted(p, 3)


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

    def test_unweighted_forms_require_weight_one(self):
        for form, kappa in ((StatForm.UNWEIGHTED_CENTERED, 2), (StatForm.UNWEIGHTED_ODD, 3)):
            StatisticSpec(kappa=kappa, weight="one", form=form)
            with pytest.raises(ValueError, match="weight = one"):
                StatisticSpec(kappa=kappa, weight="x2", form=form)

    def test_dispatch_matches_direct_calls(self):
        # every row of the table against its own transcription of the display
        H = 0.1
        p = sampled(H, 32, seed=91)
        v = list(p.values)
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
            assert evaluate_statistic(p, builtin(spec.weight), spec) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestClassifyRegime:
    def test_paper_cells(self):
        assert classify_regime(2, 0.10, True).label == RegimeName.WEIGHTED_L2_QUADRATIC
        assert classify_regime(2, 0.80, False).label == RegimeName.ROSENBLATT
        assert classify_regime(3, 0.35, True).label == RegimeName.ODD_L2_DRIFT
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
        assert classify_regime(3, 1.0 / 6.0, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.75, False).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.75, True).label == RegimeName.BOUNDARY_UNSUPPORTED

    def test_uncovered_cells_map_to_unsupported(self):
        assert classify_regime(4, 0.2, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(2, 0.9, True).label == RegimeName.BOUNDARY_UNSUPPORTED
        assert classify_regime(3, 0.7, True).label == RegimeName.BOUNDARY_UNSUPPORTED

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

    def test_error_text_names_the_interval(self):
        with pytest.raises(RegimeError, match=r"H in \(0, 1/4\)"):
            require_form_admissible(StatForm.CENTERED_QUADRATIC, 2, 0.3)
        with pytest.raises(RegimeError, match=r"H in \(1/4, 1/2\]"):
            require_form_admissible(StatForm.MIXING_NORMALIZED, 2, 0.6)
        with pytest.raises(RegimeError, match="odd kappa"):
            require_form_admissible(StatForm.ODD_WEIGHTED, 2, 0.3)


# Regimes that classify_regime may report on a cell where a row is admissible.
ALLOWED_REGIMES = {
    StatForm.CENTERED_QUADRATIC: {RegimeName.WEIGHTED_L2_QUADRATIC},
    StatForm.COMPENSATED_CUBIC: {RegimeName.WEIGHTED_L2_CUBIC},
    StatForm.ODD_WEIGHTED: {RegimeName.ODD_L2_DRIFT, RegimeName.WEIGHTED_L2_CUBIC},
    StatForm.UNWEIGHTED_CENTERED: {RegimeName.BREUER_MAJOR_CLT, RegimeName.BROWNIAN_CLT},
    StatForm.UNWEIGHTED_ODD: {RegimeName.BREUER_MAJOR_CLT, RegimeName.BROWNIAN_CLT},
    StatForm.MIXING_NORMALIZED: {RegimeName.MIXING_CONJECTURE},
}


class TestTableAgreesWithClassifier:
    def test_admissible_cells_carry_an_allowed_regime(self):
        grid = [i / 100 for i in range(1, 100)] + [SIXTH, QUARTER, HALF, THREE_QUARTERS]
        for form, row in FORMS.items():
            admissible = 0
            for kappa in range(2, 7):
                for hv in grid:
                    try:
                        require_form_admissible(form, kappa, hv)
                    except RegimeError:
                        continue
                    admissible += 1
                    label = classify_regime(kappa, hv, row.weighted).label
                    if form == StatForm.ODD_WEIGHTED and kappa == 3 and hv == SIXTH:
                        # the classifier labels this cell by the cubic theorem's
                        # open endpoint; the odd drift statistic stays admissible
                        assert label == RegimeName.BOUNDARY_UNSUPPORTED
                    else:
                        assert label in ALLOWED_REGIMES[form], (form, kappa, hv, label)
            assert admissible > 0, form
