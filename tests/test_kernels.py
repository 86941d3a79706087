"""Kernel exactness: closed forms against covariance-difference oracles."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import (
    ExperimentPlan,
    GridIndexPair,
    HurstIndex,
    RegimeError,
    SamplerConfig,
    StatisticSpec,
    breuer_major_variance,
    builtin,
    classify_regime,
    covariance,
    covariance_matrix,
    delta_delta_inner,
    eps_delta_inner,
    gaussian_moment,
    hermite_coefficients,
    increment_autocov,
    increment_autocov_seq,
    require_form_admissible,
    run_l2_experiment,
    sample_fbm,
)
from fbmvar.sampler import block_size, circulant_eigenvalues
from oracles import exact_unweighted_variance, rho_scalar

HS = st.floats(min_value=0.01, max_value=0.99)
TIMES = st.floats(min_value=0.0, max_value=1.0)


class TestHurstIndex:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.2, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            HurstIndex(bad)

    def test_accepts_interior(self):
        assert HurstIndex(0.25).value == 0.25


class TestCovariance:
    def test_endpoint_is_one(self):
        for h in (0.05, 0.3, 0.5, 0.9):
            assert covariance(h, 1.0, 1.0) == 1.0

    def test_brownian_is_min(self):
        assert covariance(0.5, 0.25, 0.75) == pytest.approx(0.25, abs=1e-15)

    def test_cancellation_when_gap_equals_s(self):
        # t - s = s makes the |t-s| term cancel the s term
        assert covariance(0.1, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    @given(h=HS, s=TIMES, t=TIMES)
    def test_symmetric_with_power_diagonal(self, h, s, t):
        a = covariance(h, s, t)
        b = covariance(h, t, s)
        assert a == b
        d = covariance(h, t, t)
        assert d == pytest.approx(t ** (2 * h), rel=1e-14, abs=1e-300)


class TestIncrementAutocov:
    def test_zero_lag_normalized(self):
        for h in (0.05, 0.5, 0.95):
            assert increment_autocov(h, 0) == 1.0

    def test_brownian_no_memory(self):
        assert increment_autocov(0.5, 3) == 0.0

    def test_frozen_high_precision_value(self):
        # (2^0.2 - 2)/2 to 40 digits: -0.42565082250148249660...
        assert increment_autocov(0.1, 1) == pytest.approx(-0.4256508225014825, abs=1e-15)

    @given(h=HS, p=st.integers(min_value=-200, max_value=200))
    def test_even_in_lag_and_matches_scalar_oracle(self, h, p):
        assert increment_autocov(h, p) == increment_autocov(h, -p)
        assert increment_autocov(h, p) == pytest.approx(rho_scalar(h, p), rel=1e-14, abs=1e-16)

    def test_seq_matches_scalar(self):
        seq = increment_autocov_seq(0.3, 50)
        for p in range(51):
            assert seq[p] == pytest.approx(increment_autocov(0.3, p), rel=1e-15)

    def test_elementwise_on_arrays(self):
        lags = np.array([[-3, 0], [2, 7]])
        want = [[increment_autocov(0.2, int(p)) for p in row] for row in lags]
        assert increment_autocov(0.2, lags) == pytest.approx(np.array(want), rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("lag", [0.5, -2.25, np.array([1.0, 1.5]), float("inf"), float("nan")])
    def test_non_integer_lag_rejected(self, lag):
        with pytest.raises(ValueError, match="integer"):
            increment_autocov(0.3, lag)

    def test_telescoped_partial_sum(self):
        # two-sided partial sum collapses to (P+1)^{2H} - P^{2H}; for H < 1/2
        # it decays to zero like P^{2H-1}
        for h in (0.1, 0.3, 0.45):
            sums = {}
            for P in (10, 100, 1000):
                s = increment_autocov(h, 0) + 2 * math.fsum(increment_autocov(h, p) for p in range(1, P + 1))
                expect = (P + 1) ** (2 * h) - P ** (2 * h)
                assert s == pytest.approx(expect, rel=1e-10, abs=1e-12)
                sums[P] = s
            # rate check: dividing P by 100 scales the sum by ~100^{2H-1}
            assert sums[1000] / sums[10] == pytest.approx(100 ** (2 * h - 1), rel=0.2)


class TestInnerProducts:
    def test_diagonal_k0_vanishes(self):
        for h in (0.1, 0.5, 0.8):
            for n in (1, 7, 32):
                assert eps_delta_inner(h, GridIndexPair(n=n, k=0, ell=0)) == pytest.approx(0.0, abs=1e-15)

    def test_brownian_diagonal_vanishes(self):
        for k in range(10):
            assert eps_delta_inner(0.5, GridIndexPair(n=10, k=k, ell=k)) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_cross_value(self):
        # 0.5 * 4^{-0.2} (3^{0.2} - 2*2^{0.2} + 1) = -0.019577666021073627...
        got = eps_delta_inner(0.1, GridIndexPair(n=4, k=2, ell=1))
        assert got == pytest.approx(-0.019577666021073627, abs=1e-15)

    @given(
        h=HS,
        n=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_eps_delta_is_covariance_difference(self, h, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        ell = data.draw(st.integers(min_value=0, max_value=n - 1))
        want = covariance(h, ell / n, (k + 1) / n) - covariance(h, ell / n, k / n)
        assert eps_delta_inner(h, GridIndexPair(n=n, k=k, ell=ell)) == pytest.approx(want, abs=1e-12)

    @given(
        h=HS,
        n=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_delta_delta_is_four_term_combination(self, h, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        ell = data.draw(st.integers(min_value=0, max_value=n - 1))
        want = (
            covariance(h, (k + 1) / n, (ell + 1) / n)
            - covariance(h, (k + 1) / n, ell / n)
            - covariance(h, k / n, (ell + 1) / n)
            + covariance(h, k / n, ell / n)
        )
        assert delta_delta_inner(h, GridIndexPair(n=n, k=k, ell=ell)) == pytest.approx(want, abs=1e-12)

    def test_delta_delta_diagonal_and_brownian(self):
        assert delta_delta_inner(0.3, GridIndexPair(n=16, k=5, ell=5)) == pytest.approx(16**-0.6, rel=1e-14)
        assert delta_delta_inner(0.5, GridIndexPair(n=8, k=0, ell=5)) == 0.0

    def test_frozen_lag_one_value(self):
        # 16^{-0.6} * (2^{0.6} - 2)/2 = -0.045877276439170384...
        got = delta_delta_inner(0.3, GridIndexPair(n=16, k=0, ell=1))
        assert got == pytest.approx(-0.045877276439170384, abs=1e-15)

    def test_gram_matrix_positive_semidefinite(self):
        # the Gram matrix of the path values B_{k/n}, k = 1..n
        for h in (0.05, 0.25, 0.5, 0.75, 0.95):
            for n in (16, 64, 128):
                g = covariance_matrix(h, n)[1:, 1:]
                eig = np.linalg.eigvalsh(g)
                assert eig.min() >= -1e-10 * max(eig.max(), 1e-30)


class TestGridIndexPair:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GridIndexPair(n=4, k=4, ell=0)
        with pytest.raises(ValueError):
            GridIndexPair(n=4, k=0, ell=-1)
        with pytest.raises(ValueError):
            GridIndexPair(n=0, k=0, ell=0)


class TestIncrementPowerBound:
    @given(h=st.floats(min_value=0.01, max_value=0.5), x=st.floats(min_value=0.0, max_value=1e6))
    def test_unit_bound(self, h, x):
        # for H <= 1/2, R_H(x, x+1) - R_H(x, x) = ((x+1)^{2H} - x^{2H} - 1)/2 lies in [-1/2, 0];
        # 1e-9 slack covers float rounding of the powers at magnitudes <= 1e6
        g = covariance(h, x, x + 1) - covariance(h, x, x)
        assert -0.5 - 1e-9 <= g <= 1e-9


class TestGaussianMoment:
    @pytest.mark.parametrize("kappa,expected", [(0, 1.0), (1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0), (5, 0.0), (6, 15.0), (8, 105.0)])
    def test_double_factorial_table(self, kappa, expected):
        assert gaussian_moment(kappa) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1)

    def test_past_float64_is_inf(self):
        assert math.prod(range(1, 300, 2)) < sys.float_info.max < math.prod(range(1, 302, 2))
        assert gaussian_moment(300) == float(math.prod(range(1, 300, 2)))
        assert gaussian_moment(302) == math.inf
        assert gaussian_moment(303) == 0.0


class TestHermiteCoefficients:
    def test_small_powers(self):
        assert np.allclose(hermite_coefficients(2), [1.0, 0.0, 1.0])
        assert np.allclose(hermite_coefficients(3), [0.0, 3.0, 0.0, 1.0])
        assert np.allclose(hermite_coefficients(4), [3.0, 0.0, 6.0, 0.0, 1.0])

    def test_parseval_gives_centered_second_moment(self):
        # sum_{q>=1} q! c_q^2 = Var(G^kappa) = mu_{2k} - mu_k^2
        for kappa in (2, 3, 4, 5, 6):
            c = hermite_coefficients(kappa)
            total = sum(math.factorial(q) * c[q] ** 2 for q in range(1, kappa + 1))
            expect = gaussian_moment(2 * kappa) - gaussian_moment(kappa) ** 2
            assert total == pytest.approx(expect, rel=1e-12)

    def test_closed_form(self):
        # c_{kappa-2m} = kappa! / (2^m m! (kappa-2m)!); through kappa = 27 every
        # product of the recurrence fits in 53 bits, so each entry is exact
        for kappa in range(0, 60):
            c = hermite_coefficients(kappa)
            for m in range(kappa // 2 + 1):
                q = kappa - 2 * m
                want = math.factorial(kappa) // (2**m * math.factorial(m) * math.factorial(q))
                assert c[q] == pytest.approx(want, rel=1e-13), (kappa, q)
                assert c[q] == want or kappa > 27, (kappa, q)
            assert not c[(kappa + 1) % 2 :: 2].any()

    def test_constant_term_is_the_gaussian_moment(self):
        # He_q has mean zero for q >= 1, so c_0 = E[G^kappa]
        for kappa in range(0, 27, 2):
            assert hermite_coefficients(kappa)[0] == gaussian_moment(kappa), kappa

    def test_past_float64_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in range(0, 2001):
                c = hermite_coefficients(kappa)
                assert not np.isnan(c).any() and np.all(c >= 0), kappa
                assert np.isinf(c).any() == (kappa >= 295), kappa


class TestBreuerMajorVariance:
    def test_brownian_quadratic_constant(self):
        assert breuer_major_variance(HurstIndex(0.5), 2, lag_truncation=3) == pytest.approx(2.0, abs=1e-14)

    def test_brownian_any_kappa_equals_centered_moment(self):
        for kappa in range(2, 7):
            expect = gaussian_moment(2 * kappa) - gaussian_moment(kappa) ** 2
            assert breuer_major_variance(HurstIndex(0.5), kappa, lag_truncation=3) == pytest.approx(expect, rel=1e-12)

    def test_regime_guards(self):
        with pytest.raises(RegimeError):
            breuer_major_variance(HurstIndex(0.8), 2)
        with pytest.raises(RegimeError):
            breuer_major_variance(HurstIndex(0.75), 4)
        with pytest.raises(RegimeError):
            breuer_major_variance(HurstIndex(0.6), 3)

    def test_quadratic_series_matches_transcription(self):
        # sigma^2 = 2 sum_p rho^2 for kappa = 2: the lags |p| <= P, plus the tail
        # sum_{p > P} (H(2H-1))^2 p^{4H-4} ~ (H(2H-1))^2 (P + 1/2)^{4H-3} / (3 - 4H)
        h, P = 0.3, 5000
        tail = (h * (2 * h - 1)) ** 2 * (P + 0.5) ** (4 * h - 3) / (3 - 4 * h)
        direct = 2.0 * (rho_scalar(h, 0) ** 2 + 2 * (math.fsum(rho_scalar(h, p) ** 2 for p in range(1, P + 1)) + tail))
        assert breuer_major_variance(HurstIndex(h), 2, lag_truncation=P) == pytest.approx(direct, rel=1e-12)

    def test_cubic_series_matches_transcription(self):
        # sigma^2 = 6 sum rho^3 for kappa = 3, H < 1/2: the rank-1 sum telescopes
        # to (P+1)^{2H} - P^{2H}, which tends to 0, and the rank-3 tail is below rounding
        h, P = 0.3, 5000
        sum_rho3 = rho_scalar(h, 0) ** 3 + 2 * math.fsum(rho_scalar(h, p) ** 3 for p in range(1, P + 1))
        assert breuer_major_variance(HurstIndex(h), 3, lag_truncation=P) == pytest.approx(6 * sum_rho3, rel=1e-10)

    def test_independent_of_lag_truncation(self):
        # the constant is the n -> infinity limit, so the truncation only decides
        # where the tail formula takes over
        for kappa, h in ((2, 0.7), (2, 0.74), (3, 0.45), (3, 0.3), (5, 0.45), (5, 0.3), (4, 0.7)):
            short = breuer_major_variance(h, kappa, lag_truncation=10**3)
            long = breuer_major_variance(h, kappa, lag_truncation=10**5)
            assert short == pytest.approx(long, rel=1e-8), (kappa, h)

    def test_quadratic_against_isserlis_extrapolation(self):
        # Richardson in 1/n of the exact small-n pairing variance removes the
        # Fejer correction; the residual tail at these H is < 1e-3 relative
        for h in (0.3, 0.4):
            v16 = exact_unweighted_variance(h, 16, 2)
            v32 = exact_unweighted_variance(h, 32, 2)
            extrap = 2 * v32 - v16
            series = breuer_major_variance(HurstIndex(h), 2)
            assert extrap == pytest.approx(series, rel=1e-3)

    @staticmethod
    def cubic_remainder_extrapolation(h):
        # exact small-n variance = 9 n^{2H-1} + Fejer-weighted rank-3 series;
        # extrapolating the remainder isolates 6 sum rho^3
        rem16 = exact_unweighted_variance(h, 16, 3) - 9 * 16 ** (2 * h - 1)
        rem32 = exact_unweighted_variance(h, 32, 3) - 9 * 32 ** (2 * h - 1)
        return 2 * rem32 - rem16

    def test_cubic_against_isserlis_extrapolation(self):
        h = 0.3
        sum_rho3 = rho_scalar(h, 0) ** 3 + 2 * math.fsum(rho_scalar(h, p) ** 3 for p in range(1, 200000))
        assert self.cubic_remainder_extrapolation(h) == pytest.approx(6 * sum_rho3, rel=1e-3)

    def test_cubic_constant_against_isserlis_extrapolation(self):
        # the n^{2H-1} rank-1 part vanishes in the limit, so the constant is the
        # extrapolated remainder; the Richardson residual here is about 5.5e-8
        h = 0.3
        assert breuer_major_variance(HurstIndex(h), 3) == pytest.approx(self.cubic_remainder_extrapolation(h), rel=1e-6)

    def test_monotone_in_truncations_even_kappa(self):
        h = HurstIndex(0.3)
        prev = -1.0
        for P in (10, 100, 1000, 10000):
            v = breuer_major_variance(h, 2, lag_truncation=P)
            assert v >= prev
            prev = v
        assert breuer_major_variance(h, 4, lag_truncation=100) >= 0.0

    def test_past_float64_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(breuer_major_variance(0.3, 150))
            for kappa in (151, 152, 170, 171, 300, 2000):
                assert breuer_major_variance(0.3, kappa) == math.inf, kappa
            for kappa in range(2, 2001, 37):
                for h in (0.1, 0.5, 0.7) if kappa % 2 == 0 else (0.1, 0.5):
                    v = breuer_major_variance(h, kappa, lag_truncation=10)
                    assert v > 0 and (v == math.inf) == (kappa >= 151), (kappa, h)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            breuer_major_variance(HurstIndex(0.3), 1)
        with pytest.raises(ValueError):
            breuer_major_variance(HurstIndex(0.3), 2, lag_truncation=0)


class TestCovarianceMatrix:
    def test_matches_scalar(self):
        n = 12
        m = covariance_matrix(0.2, n)
        for j in (0, 3, n):
            for k in (0, 7, n):
                assert m[j, k] == pytest.approx(covariance(0.2, j / n, k / n), rel=1e-14, abs=1e-16)


def _plan(n_ladder):
    spec = StatisticSpec(kappa=2, weight="x2", form="centered_quadratic")
    return ExperimentPlan(hurst=0.1, spec=spec, n_ladder=n_ladder, replicas=2, seed=0)


# Every integer argument of the package passes kernels.as_integer: (call, field,
# lower bound or None, an admitted value).
INTEGER_SITES = {
    "gaussian_moment": (gaussian_moment, "kappa", 0, 2),
    "covariance_matrix": (lambda v: covariance_matrix(0.3, v), "n", 1, 2),
    "increment_autocov_seq": (lambda v: increment_autocov_seq(0.3, v), "max_lag", 0, 2),
    "GridIndexPair.n": (lambda v: GridIndexPair(n=v, k=1, ell=2), "n", 1, 4),
    "GridIndexPair.k": (lambda v: GridIndexPair(n=4, k=v, ell=2), "k", 0, 1),
    "GridIndexPair.ell": (lambda v: GridIndexPair(n=4, k=1, ell=v), "ell", 0, 2),
    "hermite_coefficients": (hermite_coefficients, "kappa", 0, 2),
    "classify_regime": (lambda v: classify_regime(v, 0.3, True), "kappa", 2, 2),
    "require_form_admissible": (lambda v: require_form_admissible("odd_weighted", v, 0.3), "kappa", None, 1),
    "breuer_major_variance.kappa": (lambda v: breuer_major_variance(0.3, v), "kappa", 2, 3),
    "breuer_major_variance.lag_truncation": (lambda v: breuer_major_variance(0.3, 2, v), "lag_truncation", 1, 10),
    "sample_fbm.n": (lambda v: sample_fbm(0.3, v, SamplerConfig()).values, "n", 1, 16),
    "sample_fbm.count": (lambda v: sample_fbm(0.3, 16, SamplerConfig(), v).values, "count", 1, 2),
    "block_size": (block_size, "n", 1, 16),
    "circulant_eigenvalues": (lambda v: circulant_eigenvalues(0.3, v), "n", 1, 16),
    "ExperimentPlan.n_ladder": (lambda v: _plan((v, 64)).n_ladder, "n_ladder entry", 1, 16),
    "WeightFunction.derivative": (lambda v: builtin("sin").derivative(v), "order", None, 1),
    "run_l2_experiment.threads": (lambda v: run_l2_experiment(_plan((8, 16)), v).records, "threads", 1, 1),
}


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestIntegerGate:
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_integral_float_and_numpy_int_are_the_int(self, site):
        call, _, _, good = INTEGER_SITES[site]
        want = call(good)
        for value in (float(good), np.int64(good)):
            assert _same(call(value), want), value

    @pytest.mark.parametrize(
        "site, bad",
        [
            (site, bad)
            for site, (_, _, least, _) in INTEGER_SITES.items()
            for bad in ("fraction", "nan", "inf", "bool", "below")
            if bad != "below" or least is not None
        ],
    )
    def test_other_values_name_the_field(self, site, bad):
        call, field, least, good = INTEGER_SITES[site]
        below = None if least is None else least - 1
        value = {"fraction": good + 0.5, "nan": math.nan, "inf": math.inf, "bool": True, "below": below}[bad]
        bound = "" if least is None else f" >= {least}"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an integer{bound}, got {value!r}')}$"):
            call(value)
