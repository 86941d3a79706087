"""Sampler law and reproducibility checks."""

import io
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fbmvar import (
    EmbeddingError,
    FbmPath,
    HurstIndex,
    SamplerConfig,
    covariance_matrix,
    increment_autocov,
    sample_fbm,
)
from fbmvar.kernels import increment_autocov_seq
from fbmvar.sampler import _block_fgn, circulant_eigenvalues, dump_path
from oracles import reference_cholesky_path, reference_circulant_path

# Seeds and streams at both ends of the 64-bit key words and at the acceptance seed.
KEY_WORDS = (0, 1, 20080612, 2**64 - 1)


def _paths_matrix(H, n, reps, method="circulant", seed=101):
    """Paths of streams (seed, 0..reps-1): one circulant block, or the Cholesky oracle path by path."""
    if method == "cholesky":
        return np.stack([reference_cholesky_path(H, n, seed, r) for r in range(reps)])
    return sample_fbm(H, n, SamplerConfig(seed=seed, stream=0), reps).values


class TestFbmPathType:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            FbmPath(hurst=HurstIndex(0.3), values=np.array([[0.1, 0.2, 0.3]]))
        with pytest.raises(ValueError):
            FbmPath(hurst=HurstIndex(0.3), values=np.array([[0.0, 0.2, 0.3], [1e-300, 0.2, 0.3]]))

    def test_rejects_wrong_length(self):
        for values in ([0.0, 0.2, 0.3, 0.4], np.zeros((0, 4)), [[0.0]]):
            with pytest.raises(ValueError):
                FbmPath(hurst=HurstIndex(0.3), values=np.array(values))

    def test_values_frozen(self):
        p = sample_fbm(0.3, 8, SamplerConfig(seed=1, stream=0), 2)
        with pytest.raises(ValueError):
            p.values[1, 1] = 99.0


class TestBufferOwnership:
    def test_path_survives_later_draws(self):
        # later draws at the same and other (H, n, count), including a block
        # larger than block_size(n), reuse the thread's buffers but not the path's
        path = sample_fbm(0.3, 64, SamplerConfig(seed=1, stream=0), 4)
        kept = path.values.copy()
        for H, n, count, stream in ((0.3, 64, 4, 9), (0.3, 64, 1, 2), (0.3, 256, 3, 0), (0.7, 64, 4, 0), (0.3, 64, 500, 0)):
            sample_fbm(H, n, SamplerConfig(seed=2, stream=stream), count)
            assert np.array_equal(path.values, kept), (H, n, count)

    def test_consecutive_results_do_not_share_memory(self):
        draws = [sample_fbm(0.3, n, SamplerConfig(seed=1, stream=0), count) for n, count in ((64, 4), (64, 4), (64, 2), (128, 4))]
        for a, b in zip(draws, draws[1:]):
            assert not np.shares_memory(a.values, b.values)

    def test_caller_array_neither_aliased_nor_frozen(self):
        values = np.zeros((2, 5))
        path = FbmPath(hurst=HurstIndex(0.3), values=values)
        assert not np.shares_memory(path.values, values)
        assert values.flags.writeable and not path.values.flags.writeable
        values[0, 1] = 5.0
        assert path.values[0, 1] == 0.0

    def test_read_only_array_kept_without_copy(self):
        values = np.zeros((2, 5))
        values.flags.writeable = False
        assert FbmPath(hurst=HurstIndex(0.3), values=values).values is values


def _on_fresh_thread(H, n, count, seed, first):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(sample_fbm, H, n, SamplerConfig(seed=seed, stream=first), count).result().values


class TestNormalsMemo:
    # (H, n, count, seed, first stream): the first six calls each change one of
    # them, in turn, and the rest jump back; a call that changes only H, or
    # nothing, finds its normals held unless its block is past the scratch
    CALLS = (
        (0.3, 64, 4, 1, 0),
        (0.7, 64, 4, 1, 0),
        (0.7, 64, 3, 1, 0),
        (0.7, 128, 3, 1, 0),
        (0.7, 128, 3, 9, 0),
        (0.7, 128, 3, 9, 5),
        (0.2, 128, 3, 9, 5),
        (0.2, 128, 3, 9, 5),
        (0.3, 64, 4, 1, 0),
        (0.3, 64, 500, 1, 0),
        (0.3, 64, 4, 1, 0),
    )

    def test_interleaved_calls_match_fresh_threads(self, monkeypatch):
        import fbmvar.sampler as sampler_mod

        rekeys = []
        rng = sampler_mod._rng
        monkeypatch.setattr(sampler_mod, "_rng", lambda seed, stream: rekeys.append(stream) or rng(seed, stream))
        sampler_mod._thread_state.normals = None
        last = None
        for call in self.CALLS:
            H, n, count, seed, first = call
            drawn = len(rekeys)
            got = sample_fbm(H, n, SamplerConfig(seed=seed, stream=first), count).values
            held = last is not None and last[1:] == call[1:] and count <= sampler_mod.block_size(n)
            assert len(rekeys) - drawn == (0 if held else count), call
            assert np.array_equal(got, _on_fresh_thread(*call)), call
            last = call

    def test_block_past_scratch_leaves_no_entry(self):
        import fbmvar.sampler as sampler_mod

        sample_fbm(0.3, 64, SamplerConfig(seed=1), 4)
        assert sampler_mod._thread_state.normals is not None
        sample_fbm(0.3, 64, SamplerConfig(seed=1), sampler_mod.block_size(64) + 1)
        assert sampler_mod._thread_state.normals is None


class TestReproducibility:
    @pytest.mark.parametrize("method", ["circulant"])
    def test_bit_identical(self, method):
        a = sample_fbm(0.2, 33, SamplerConfig(method=method, seed=42, stream=7), 3)
        b = sample_fbm(0.2, 33, SamplerConfig(method=method, seed=42, stream=7), 3)
        assert np.array_equal(a.values, b.values)

    def test_streams_differ(self):
        a = sample_fbm(0.2, 16, SamplerConfig(seed=42, stream=0))
        b = sample_fbm(0.2, 16, SamplerConfig(seed=42, stream=1))
        assert not np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = sample_fbm(0.2, 16, SamplerConfig(seed=1, stream=0))
        b = sample_fbm(0.2, 16, SamplerConfig(seed=2, stream=0))
        assert not np.array_equal(a.values, b.values)


class TestGuards:
    def test_invalid_method(self):
        for method in ("hosking", "cholesky"):
            with pytest.raises(ValueError, match="method"):
                SamplerConfig(method=method, seed=0, stream=0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample_fbm(0.3, 0, SamplerConfig(seed=0, stream=0))

    def test_block_count_and_last_stream(self):
        with pytest.raises(ValueError):
            sample_fbm(0.3, 4, SamplerConfig(seed=0, stream=0), 0)
        with pytest.raises(ValueError):
            sample_fbm(0.3, 4, SamplerConfig(seed=0, stream=2**64 - 2), 3)
        last = sample_fbm(0.3, 4, SamplerConfig(seed=0, stream=2**64 - 2), 2).values[1]
        assert np.array_equal(last, sample_fbm(0.3, 4, SamplerConfig(seed=0, stream=2**64 - 1)).values[0])

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, stream=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=2**64, stream=0)


class TestCirculantSpectrum:
    def test_nonnegative_across_h_and_n(self):
        # full grid H in {0.05, ..., 0.95}, n in {2^6, ..., 2^14}
        for h in np.round(np.arange(0.05, 0.951, 0.05), 10):
            for exp in range(6, 15):
                lam = circulant_eigenvalues(float(h), 2**exp)
                assert lam.min() >= -1e-9 * lam.max(), (h, 2**exp)

    def test_embedding_error_raised_on_corrupted_spectrum(self, monkeypatch):
        import fbmvar.sampler as sampler_mod

        def bad_seq(H, max_lag):
            # autocovariance that is not embeddable: big negative tail weight
            r = np.zeros(max_lag + 1)
            r[0] = 1.0
            r[1:] = -0.9
            return r

        monkeypatch.setattr(sampler_mod, "increment_autocov_seq", bad_seq)
        sampler_mod._circulant_coeffs.cache_clear()
        try:
            with pytest.raises(EmbeddingError):
                sample_fbm(0.3, 32, SamplerConfig(seed=0, stream=0))
        finally:
            sampler_mod._circulant_coeffs.cache_clear()


class TestHalfSpectrumSynthesis:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128, 8192])
    def test_matches_full_fft_reference(self, n):
        # row i of a block drawn from stream s is the reference path of stream s + i
        for h in (0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.95):
            for first, count in ((0, 2), (976, 3)):
                block = sample_fbm(h, n, SamplerConfig(seed=20080612, stream=first), count).values
                assert block.shape == (count, n + 1)
                for i, got in enumerate(block):
                    want = reference_circulant_path(h, n, 20080612, first + i)
                    assert got[0] == 0.0
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (h, n, first + i)


class TestExactLaw:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512])
    def test_synthesis_covariance_is_fgn(self, n):
        # _block_fgn is linear in its 2n normals: fed the unit vectors, row i is
        # column i of the A with fgn = A z, so A A^T is the law's covariance,
        # which must be n^{-2H} Toeplitz(rho_H) with no Monte Carlo error.
        # Rounding: an entry of A A^T sums 2n products, each accurate to about
        # log2(2n) + 2 eps of the diagonal n^{-2H} (irfft, spectrum, product).
        eps = np.finfo(np.float64).eps
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        for h in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            a_t = _block_fgn(h, n, np.eye(2 * n))
            scale = float(n) ** (-2 * h)
            err = np.max(np.abs(a_t.T @ a_t - scale * increment_autocov_seq(h, n)[lag]))
            assert err <= 2 * n * (math.log2(2 * n) + 2) * eps * scale, (h, n, err / scale)


def _draw(key):
    n, count, seed, stream = key
    return sample_fbm(0.3, n, SamplerConfig(seed=seed, stream=stream), count).values


# (n, paths per block, seed, first stream) keys mixing grid sizes, block sizes and streams.
PATH_KEYS = [
    (n, count, seed, stream)
    for n, count in ((16, 1), (8, 3), (128, 2))
    for seed in (3, 2**64 - 1)
    for stream in range(4)
]


class TestStreamIdentity:
    def test_rekeyed_generator_equals_fresh_philox(self):
        import fbmvar.sampler as sampler_mod

        for seed, stream in itertools.product(KEY_WORDS, KEY_WORDS):
            # leave the thread's generator part-way through its output buffer
            sampler_mod._rng(5, 6).integers(0, 10, size=3, dtype=np.uint32)
            got = sampler_mod._rng(seed, stream)
            want = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
            got_state, want_state = got.bit_generator.state, want.bit_generator.state
            assert got_state["buffer_pos"] == want_state["buffer_pos"]
            assert got_state["has_uint32"] == want_state["has_uint32"] == 0
            for field in ("counter", "key"):
                assert np.array_equal(got_state["state"][field], want_state["state"][field])
            assert np.array_equal(got.standard_normal(33), want.standard_normal(33)), (seed, stream)
            assert np.array_equal(got.integers(0, 2**32, size=5, dtype=np.uint32), want.integers(0, 2**32, size=5, dtype=np.uint32))

    def test_paths_back_to_back_and_interleaved_match_serial(self):
        serial = {key: _draw(key) for key in PATH_KEYS}
        for key in PATH_KEYS:
            assert np.array_equal(_draw(key), _draw(key))
        interleaved = PATH_KEYS[::2] + PATH_KEYS[1::2][::-1]
        for key in interleaved:
            assert np.array_equal(_draw(key), serial[key]), key

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_match_serial(self, threads):
        serial = {key: _draw(key) for key in PATH_KEYS}
        work = PATH_KEYS * 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [(key, pool.submit(_draw, key)) for key in work]
                for key, fut in futures:
                    assert np.array_equal(fut.result(timeout=60), serial[key]), key
        finally:
            sys.setswitchinterval(interval)


class TestCacheBound:
    @pytest.fixture
    def cache(self):
        """The coefficient cache, emptied before and after the test."""
        import fbmvar.sampler as sampler_mod

        cache = sampler_mod._circulant_coeffs
        cache.cache_clear()
        yield cache
        cache.cache_clear()

    @pytest.mark.parametrize("n", [64, 1024])
    def test_evicts_least_recent_past_maxsize(self, cache, n):
        maxsize = cache.cache_info().maxsize
        hs = [round(0.05 * (i + 1), 2) for i in range(maxsize + 1)]
        first = {h: cache(h, n) for h in hs[:maxsize]}
        assert cache(hs[0], n) is first[hs[0]]  # hs[0] is now the most recent, hs[1] the least
        first[hs[-1]] = cache(hs[-1], n)
        assert cache.cache_info().currsize == maxsize
        for h in [hs[0], *hs[2:]]:
            assert cache(h, n) is first[h], h
        assert cache(hs[1], n) is not first[hs[1]]

    def test_concurrent_fills_stay_bounded(self, cache):
        n = 64
        maxsize = cache.cache_info().maxsize
        keys = [(round(0.04 * (i + 1), 2), s) for i in range(maxsize + 4) for s in range(4)]
        serial = {(h, s): sample_fbm(h, n, SamplerConfig(seed=1, stream=s)).values for h, s in keys}
        cache.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [(key, pool.submit(sample_fbm, key[0], n, SamplerConfig(seed=1, stream=key[1]))) for key in keys]
                for key, fut in futures:
                    assert np.array_equal(fut.result(timeout=60).values, serial[key]), key
        finally:
            sys.setswitchinterval(interval)
        assert cache.cache_info().currsize <= maxsize


class TestCholeskyFactor:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_reconstruction_across_h(self, n):
        for h in (0.1, 0.25, 0.5, 0.75, 0.9):
            sigma = covariance_matrix(h, n)[1:, 1:]
            factor = np.linalg.cholesky(sigma)
            assert np.max(np.abs(factor @ factor.T - sigma)) < 1e-10


class TestSampledLaw:
    def test_brownian_endpoint_variance(self):
        reps = 100_000
        vals = _paths_matrix(0.5, 1, reps, seed=11)[:, 1]
        # Var = 1; se of sample variance ~ sqrt(2/R)
        assert abs(vals.var() - 1.0) < 4 * np.sqrt(2.0 / reps)

    def test_lag_one_increment_correlation(self):
        H, n, reps = 0.1, 256, 3000
        per_rep = []
        for r in range(reps):
            d = np.diff(_paths_matrix(H, n, 1, seed=13 + r)[0]) * n**H
            per_rep.append(np.mean(d[:-1] * d[1:]))
        per_rep = np.asarray(per_rep)
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        assert abs(per_rep.mean() - increment_autocov(H, 1)) < 5 * se

    @pytest.mark.parametrize("H", [0.1, 0.7])
    def test_covariance_matrix_matches_law(self, H):
        n, reps = 16, 4000
        paths = _paths_matrix(H, n, reps, seed=7)
        emp = paths.T @ paths / reps
        exact = covariance_matrix(H, n)
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / reps)
        assert np.all(np.abs(emp - exact)[1:, 1:] <= 5 * se[1:, 1:])
        assert np.all(paths[:, 0] == 0.0)

    def test_methods_agree_on_increment_autocovariance(self):
        # same law from the sampler and the Cholesky oracle: lag 0..5 autocovariances within
        # 5 combined standard errors of each other and of n^{-2H} rho(p)
        H, n, reps = 0.3, 32, 10_000
        lag_means = {}
        lag_ses = {}
        for method in ("circulant", "cholesky"):
            paths = _paths_matrix(H, n, reps, method=method, seed=23)
            diffs = np.diff(paths, axis=1)
            means, ses = [], []
            for p in range(6):
                prod = diffs[:, : n - p] * diffs[:, p:]
                per_rep = prod.mean(axis=1)
                means.append(per_rep.mean())
                ses.append(per_rep.std(ddof=1) / np.sqrt(reps))
            lag_means[method] = np.array(means)
            lag_ses[method] = np.array(ses)
        exact = np.array([n ** (-2 * H) * increment_autocov(H, p) for p in range(6)])
        for method in ("circulant", "cholesky"):
            assert np.all(np.abs(lag_means[method] - exact) <= 5 * lag_ses[method]), method
        combined = np.sqrt(lag_ses["circulant"] ** 2 + lag_ses["cholesky"] ** 2)
        assert np.all(np.abs(lag_means["circulant"] - lag_means["cholesky"]) <= 5 * combined)


class TestDump:
    def test_line_format_round_trips(self):
        p = sample_fbm(0.3, 8, SamplerConfig(seed=9, stream=0))
        buf = io.StringIO()
        dump_path(p, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 9
        for k, line in enumerate(lines):
            frac, val = line.split(" ")
            assert frac == f"{k}/8"
            assert float(val) == p.values[0, k]
