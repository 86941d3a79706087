"""Sampler law and reproducibility checks."""

import io
import itertools
import math
import sys
import tracemalloc
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
from fbmvar.sampler import Workspace, _block_fgn, _circulant_coeffs, circulant_eigenvalues, dump_path
from oracles import _cholesky_factor, cov_scalar, reference_cholesky_path, reference_circulant_eigenvalues, reference_circulant_path

# Seeds and streams at both ends of the 64-bit key words and at the acceptance seed.
KEY_WORDS = (0, 1, 20080612, 2**64 - 1)


def _paths_matrix(H, n, reps, method="circulant", seed=101):
    """Paths of streams (seed, 0..reps-1): one circulant block, or the Cholesky oracle path by path."""
    if method == "cholesky":
        return np.stack([reference_cholesky_path(H, n, seed, r) for r in range(reps)])
    return sample_fbm(H, n, SamplerConfig(seed=seed, stream=0), reps).values


class TestFbmPathType:
    def test_values_frozen(self):
        p = sample_fbm(0.3, 8, SamplerConfig(seed=1, stream=0), 2)
        with pytest.raises(ValueError):
            p.values[1, 1] = 99.0


class TestBufferOwnership:
    def test_path_survives_later_draws(self):
        # later draws at the same and other (H, n, count), including one of
        # more than block_size(n) paths, make workspaces of their own and never write the path's increments
        path = sample_fbm(0.3, 64, SamplerConfig(seed=1, stream=0), 4)
        kept = path.values.copy()
        for H, n, count, stream in ((0.3, 64, 4, 9), (0.3, 64, 1, 2), (0.3, 256, 3, 0), (0.7, 64, 4, 0), (0.3, 64, 500, 0)):
            sample_fbm(H, n, SamplerConfig(seed=2, stream=stream), count)
            assert np.array_equal(path.values, kept), (H, n, count)

    def test_consecutive_results_do_not_share_memory(self):
        draws = [sample_fbm(0.3, n, SamplerConfig(seed=1, stream=0), count) for n, count in ((64, 4), (64, 4), (64, 2), (128, 4))]
        for a, b in zip(draws, draws[1:]):
            assert not np.shares_memory(a.values, b.values)
            for x, y in itertools.product((a.increments, a.values), (b.increments, b.values)):
                assert not np.shares_memory(x, y)

    def test_read_only_array_made_writable_again_does_not_reach_the_path(self):
        # a caller that owns a read-only array can make it writable again
        d = np.ones((1, 4))
        d.flags.writeable = False
        q = FbmPath(0.3, d)
        q.values
        d.flags.writeable = True
        d[0, 2] = 7.0
        assert q.increments[0, 2] == 1.0 and np.array_equal(q.values, [[0.0, 1.0, 2.0, 3.0, 4.0]])

    def test_read_only_view_of_writable_array_is_copied(self):
        # the view cannot be written, but its base can: keeping it would let
        # the path, and every array derived from it, change under the caller's writes
        d = np.ones((1, 4))
        w = d[:, :]
        w.flags.writeable = False
        q = FbmPath(0.3, w)
        d[0, 2] = 7.0
        assert q.increments[0, 2] == 1.0 and q.values[0, 4] == 4.0

    def test_caller_increments_neither_aliased_nor_frozen(self):
        increments = np.ones((2, 4))
        path = FbmPath(HurstIndex(0.3), increments)
        assert not np.shares_memory(path.increments, increments)
        assert increments.flags.writeable and not path.increments.flags.writeable
        increments[0, 1] = 5.0
        assert path.increments[0, 1] == 1.0


class TestTwoForms:
    def test_values_are_the_partial_sums_of_the_increments(self):
        d = np.random.default_rng(3).standard_normal((3, 257))
        path = FbmPath(0.3, d)
        want = np.concatenate([np.zeros((3, 1)), np.cumsum(d, axis=1)], axis=1)
        assert path.n == 257 and path.values.shape == (3, 258)
        assert np.array_equal(path.values, want)
        assert np.array_equal(path.left, want[:, :-1])

    def test_both_forms_read_only_and_cached(self):
        for path in (sample_fbm(0.3, 16, SamplerConfig(seed=1), 3), FbmPath(0.3, np.zeros((2, 8)))):
            for name in ("values", "increments"):
                array = getattr(path, name)
                assert getattr(path, name) is array, name
                with pytest.raises(ValueError):
                    array[0, 1] = 1.0
        with pytest.raises(AttributeError):
            path.hurst = HurstIndex(0.4)

    def test_rejects_wrong_increment_shape(self):
        for increments in ([0.1, 0.2], np.zeros((0, 4)), np.zeros((2, 0))):
            with pytest.raises(ValueError):
                FbmPath(HurstIndex(0.3), np.array(increments))


def _on_fresh_thread(H, n, count, seed, first):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(sample_fbm, H, n, SamplerConfig(seed=seed, stream=first), count).result().values


def _count_rekeys(monkeypatch):
    """The streams of every re-key of a workspace's generator from now on."""
    import fbmvar.sampler as sampler_mod

    rekeys = []
    rekey = sampler_mod.Workspace.rekey
    monkeypatch.setattr(sampler_mod.Workspace, "rekey", lambda self, seed, stream: rekeys.append(stream) or rekey(self, seed, stream))
    return rekeys


class TestNormalsMemo:
    # ((H, n, count, seed, first stream), streams re-keyed): a call that draws
    # normals draws its own rows at its width; a call that draws none is
    # synthesized from rows of the last drawn array, of a width >= 2n
    CALLS = (
        ((0.3, 64, 4, 1, 0), 4),
        ((0.7, 64, 4, 1, 0), 0),  # another H
        ((0.7, 64, 3, 1, 1), 0),  # rows inside the drawn ones
        ((0.7, 32, 3, 1, 0), 0),  # a smaller grid reads the first 64 of each row's 128 normals
        ((0.7, 64, 5, 1, 0), 5),  # one stream past them
        ((0.7, 128, 3, 1, 0), 3),  # a larger grid
        ((0.7, 128, 3, 9, 0), 3),  # another seed
        ((0.7, 128, 3, 9, 3), 3),  # the next streams
        ((0.2, 128, 3, 9, 3), 0),
        ((0.3, 64, 500, 1, 0), 500),  # four blocks of 128, the last partial
        ((0.3, 64, 4, 1, 496), 0),  # inside the last of them
        ((0.3, 64, 4, 1, 0), 4),
    )

    def test_interleaved_calls_match_fresh_threads(self, monkeypatch):
        import fbmvar.sampler as sampler_mod

        rekeys = _count_rekeys(monkeypatch)
        work = sampler_mod.Workspace()
        for call, drawn in self.CALLS:
            H, n, count, seed, first = call
            before = len(rekeys)
            if drawn:
                normals, origin = sampler_mod.draw_normals(seed, first, count, n, work), first
            rows = normals[first - origin : first - origin + count]
            got = sample_fbm(H, n, SamplerConfig(seed=seed, stream=first), count, rows).values
            assert len(rekeys) - before == drawn, call
            assert np.array_equal(got, _on_fresh_thread(*call)), call

    def test_held_room_fills_block_by_block(self, monkeypatch):
        # a ladder walk: 64 streams drawn at n = 512, synthesized there in blocks of 16, then read at n = 128
        import fbmvar.sampler as sampler_mod

        rekeys = _count_rekeys(monkeypatch)
        normals = sampler_mod.draw_normals(3, 100, 64, 512, sampler_mod.Workspace())
        assert normals.shape == (64, 1024)
        for first in range(100, 164, 16):
            sample_fbm(0.3, 512, SamplerConfig(seed=3, stream=first), 16, normals[first - 100 : first - 84])
        assert rekeys == list(range(100, 164))
        reads = ((0.3, 128, 64, 3, 100), (0.6, 128, 64, 3, 100), (0.3, 16, 30, 3, 120), (0.6, 512, 16, 3, 148))
        got = [sample_fbm(H, n, SamplerConfig(seed=seed, stream=first), count, normals[first - 100 : first - 100 + count]).values for H, n, count, seed, first in reads]
        assert len(rekeys) == 64
        for values, call in zip(got, reads):
            assert np.array_equal(values, _on_fresh_thread(*call)), call

    def test_draw_past_one_block_holds_one_block(self, monkeypatch):
        # a draw of many blocks makes one workspace whose buffers hold exactly one block of the usual size,
        # count (n + 1) complex and count 2n real; a larger block one of its own size, the next usual block
        # one of the usual size again; a caller's workspace is used as given
        import fbmvar.sampler as sampler_mod

        made = []
        init = sampler_mod.Workspace.__init__
        monkeypatch.setattr(sampler_mod.Workspace, "__init__", lambda self: made.append(self) or init(self))
        block = sampler_mod.block_size(64)
        usual = (block * 65, block * 128)

        def sizes():
            return made[-1].spectrum.size, made[-1].synthesis.size

        sample_fbm(0.3, 64, SamplerConfig(seed=1), 10 * block + 1)
        assert len(made) == 1 and sizes() == usual
        big = 4 * sampler_mod.BLOCK_POINTS
        sample_fbm(0.3, big, SamplerConfig(seed=1))
        assert sizes() == (big + 1, 2 * big)
        sample_fbm(0.3, 64, SamplerConfig(seed=1), block)
        assert len(made) == 3 and sizes() == usual
        sample_fbm(0.3, 64, SamplerConfig(seed=1), 10 * block + 1, workspace=made[0])
        assert len(made) == 3


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
        # the top streams of one block, and of three at n = 2048 (block_size 4, the last block partial)
        for n, count in ((4, 2), (2048, 10)):
            first = 2**64 - count
            rows = sample_fbm(0.3, n, SamplerConfig(seed=0, stream=first), count).values
            for i, row in enumerate(rows):
                assert np.array_equal(row, sample_fbm(0.3, n, SamplerConfig(seed=0, stream=first + i)).values[0]), (n, i)

    @pytest.mark.parametrize(
        "normals",
        [np.zeros((3, 64)), np.zeros((5, 64)), np.zeros((4, 63)), np.zeros((4, 64), dtype=np.float32), np.zeros((4, 64, 1)), np.zeros(256), np.zeros((4, 64)).tolist()],
        ids=["fewer_rows", "more_rows", "narrow", "float32", "3d", "1d", "list"],
    )
    def test_bad_normals_rejected(self, normals):
        with pytest.raises(ValueError, match="normals"):
            sample_fbm(0.3, 32, SamplerConfig(seed=0), 4, normals)

    @pytest.mark.parametrize(
        "embedding",
        [_circulant_coeffs(0.4, 32), _circulant_coeffs(0.3, 64), _circulant_coeffs(0.3, 32)[2:], _circulant_coeffs(0.3, 32)[4], list(_circulant_coeffs(0.3, 32))],
        ids=["other_hurst", "other_n", "no_key", "coefficients", "list"],
    )
    def test_bad_embedding_rejected(self, embedding):
        with pytest.raises(ValueError, match="embedding"):
            sample_fbm(0.3, 32, SamplerConfig(seed=0), 4, None, embedding)

    def test_workspace_grows_to_a_larger_block(self):
        # a small block, a larger one, the small one again: the buffers grow to the larger block and stay
        work = Workspace()
        for n, count in ((64, 4), (256, 8), (64, 4)):
            got = sample_fbm(0.3, n, SamplerConfig(), count, workspace=work)
            assert np.array_equal(got.increments, sample_fbm(0.3, n, SamplerConfig(), count, workspace=Workspace()).increments), n
        assert (work.spectrum.size, work.synthesis.size) == (8 * 257, 8 * 512)

    def test_embedding_of_its_key_gives_the_same_paths(self):
        got = sample_fbm(0.3, 32, SamplerConfig(seed=0), 4, None, _circulant_coeffs(0.3, 32))
        assert np.array_equal(got.increments, sample_fbm(0.3, 32, SamplerConfig(seed=0), 4).increments)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, stream=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=2**64, stream=0)

    def test_integral_seed_and_stream_stored_as_int(self):
        config = SamplerConfig(seed=np.uint64(2**64 - 1), stream=3.0)
        assert (config.seed, config.stream) == (2**64 - 1, 3)
        assert type(config.seed) is int and type(config.stream) is int
        for field, bad in itertools.product(("seed", "stream"), (1.5, math.inf, math.nan, np.float64(2.5), "1")):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SamplerConfig(**{field: bad})


class TestCirculantSpectrum:
    def test_nonnegative_across_h_and_n(self):
        # full grid H in {0.05, ..., 0.95}, n in {2^6, ..., 2^14}
        for h in np.round(np.arange(0.05, 0.951, 0.05), 10):
            for exp in range(6, 15):
                lam = circulant_eigenvalues(float(h), 2**exp)
                assert lam.min() >= -1e-9 * lam.max(), (h, 2**exp)

    @pytest.mark.parametrize("n", [1, 2, 3, 128, 8192])
    def test_matches_the_full_fft_reference(self, n):
        for h in np.round(np.arange(0.05, 0.951, 0.05), 10):
            got, want = circulant_eigenvalues(float(h), n), reference_circulant_eigenvalues(float(h), n)
            assert got.shape == want.shape == (2 * n,)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want), (h, n)
            # at H = 1/2 the increments are white: rho = (1, 0, ..., 0) and every eigenvalue is exactly 1
            assert h != 0.5 or np.array_equal(got, want), n

    def test_build_peak_stays_within_eight_rows(self):
        # the Hermitian transform writes no mirrored row and no complex spectrum of 2n:
        # one build's traced peak, its 2n - 2 coefficients included, is about 6 * 8n bytes
        n = 2**16
        _circulant_coeffs(0.3, n)  # warm-up, so that one-time allocations are not counted
        tracemalloc.start()
        try:
            _circulant_coeffs(0.3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * n, peak / (8 * n)

    def test_embedding_error_raised_on_corrupted_spectrum(self, monkeypatch):
        import fbmvar.sampler as sampler_mod

        def bad_seq(H, max_lag):
            # autocovariance that is not embeddable: big negative tail weight
            r = np.zeros(max_lag + 1)
            r[0] = 1.0
            r[1:] = -0.9
            return r

        monkeypatch.setattr(sampler_mod, "increment_autocov_seq", bad_seq)
        with pytest.raises(EmbeddingError):
            sample_fbm(0.3, 32, SamplerConfig(seed=0, stream=0))


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
            a_t = _block_fgn(_circulant_coeffs(h, n), n, np.eye(2 * n), Workspace())
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

        work = sampler_mod.Workspace()
        for seed, stream in itertools.product(KEY_WORDS, KEY_WORDS):
            # leave the workspace's generator part-way through its output buffer
            work.rekey(5, 6).integers(0, 10, size=3, dtype=np.uint32)
            got = work.rekey(seed, stream)
            want = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
            got_state, want_state = got.bit_generator.state, want.bit_generator.state
            assert got_state["buffer_pos"] == want_state["buffer_pos"]
            assert got_state["has_uint32"] == want_state["has_uint32"] == 0
            for field in ("counter", "key"):
                assert np.array_equal(got_state["state"][field], want_state["state"][field])
            assert np.array_equal(got.standard_normal(33), want.standard_normal(33)), (seed, stream)
            assert np.array_equal(got.integers(0, 2**32, size=5, dtype=np.uint32), want.integers(0, 2**32, size=5, dtype=np.uint32))

    def test_workspaces_used_alternately_draw_their_own_streams(self):
        # each workspace owns its generator: re-keying one mid-draw leaves the other's stream where it was
        a, b = Workspace(), Workspace()
        for seed, stream in itertools.product(KEY_WORDS, KEY_WORDS):
            other = (seed, (stream + 1) % 2**64)
            ga = a.rekey(seed, stream)
            head = ga.standard_normal(5)
            gb = b.rekey(*other)
            b_head = gb.standard_normal(7)
            tail = ga.standard_normal(28)
            b_tail = gb.standard_normal(26)
            for got, key in ((np.concatenate([head, tail]), (seed, stream)), (np.concatenate([b_head, b_tail]), other)):
                want = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64))).standard_normal(33)
                assert np.array_equal(got, want), key

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


class TestCholeskyFactor:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_reconstruction_across_h(self, n):
        # the factor behind reference_cholesky_path against R_H from the scalar oracle
        t = np.arange(1, n + 1) / n
        for h in (0.1, 0.25, 0.5, 0.75, 0.9):
            factor = _cholesky_factor(h, n)
            sigma = cov_scalar(h, t[:, None], t[None, :])
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
