"""Exact fBm sampling on the grid {k/n} by circulant embedding or Cholesky.

Both methods draw from the exact finite-dimensional law N(0, [R_H(t_j, t_k)]).
The circulant route embeds the unit-variance fGn autocovariance rho_H into a
length-2n circulant (Wood & Chan 1994, Dietrich & Newsam 1997) whose spectrum
is Hermitian, so one real inverse FFT of the n+1 half-spectrum synthesizes the
n^{-H}-scaled increments in O(n log n); a cumulative sum gives the path. The
Cholesky route factors the full path covariance and is kept as the O(n^3)
reference.

Randomness is counter-based: a Philox generator keyed by (seed, stream), so a
replica's draws depend only on its own key and never on execution order.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, SizeError
from .kernels import HurstIndex, as_hurst, covariance_matrix, increment_autocov_seq

CHOLESKY_MAX_N = 4096
# Each sampler cache below keeps at most this many bytes of arrays. One
# n = 4096 Cholesky factor (128 MiB) still fits, so that guarded size is
# factored once per H rather than once per path.
CACHE_MAX_BYTES = 256 * 2**20
# Circulant eigenvalues of the fGn embedding are nonnegative in exact
# arithmetic; anything dipping below -EIG_TOL * max is treated as a failed
# embedding instead of being silently clamped.
EIG_TOL = 1e-9

METHOD_CIRCULANT = "circulant"
METHOD_CHOLESKY = "cholesky"
_MAX_UINT64 = 2**64


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling method plus the (seed, stream) pair naming a random stream."""

    method: str = METHOD_CIRCULANT
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.method not in (METHOD_CIRCULANT, METHOD_CHOLESKY):
            raise ValueError(f"unknown sampling method {self.method!r}")
        if not 0 <= int(self.seed) < _MAX_UINT64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= int(self.stream) < _MAX_UINT64:
            raise ValueError(f"stream must be a nonnegative 64-bit integer, got {self.stream}")


@dataclass(frozen=True, eq=False)
class FbmPath:
    """One trajectory (B_0, B_{1/n}, ..., B_1); values are immutable."""

    hurst: HurstIndex
    n: int
    values: np.ndarray
    seed_tag: str

    def __post_init__(self):
        object.__setattr__(self, "hurst", as_hurst(self.hurst))
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} values, got shape {vals.shape}")
        if vals[0] != 0.0:
            raise ValueError(f"path must start at 0, got {vals[0]!r}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


# A Philox state at counter 0 with an empty output buffer, as a fresh
# Philox(key=...) starts; `_rng` copies it in under each new key.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.flags.writeable = False
_thread_state = threading.local()


def _rng(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, re-keyed to the start of stream (seed, stream).

    Bit-identical to Generator(Philox(key=[seed, stream])) but without building
    a new bit generator per call. The generator is shared by every call on the
    thread, so a caller must finish its draws before the next `_rng` call.
    """
    try:
        gen = _thread_state.gen
    except AttributeError:
        gen = _thread_state.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.array([seed, stream], dtype=np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _nbytes(value) -> int:
    parts = value if isinstance(value, tuple) else (value,)
    return sum(np.asarray(p).nbytes for p in parts)


class _ByteBudgetCache:
    """Thread-safe LRU memo whose cached values total at most CACHE_MAX_BYTES.

    The budget is read at every insertion. A value larger than the whole
    budget is returned uncached, so it is rebuilt on every call.
    """

    def __init__(self, fn):
        functools.update_wrapper(self, fn)
        self._fn = fn
        self._entries = OrderedDict()  # key -> (value, bytes), oldest first
        self._lock = threading.Lock()
        self.nbytes = 0

    def __call__(self, *key):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
        value = self._fn(*key)
        size = _nbytes(value)
        with self._lock:
            if key not in self._entries and size <= CACHE_MAX_BYTES:
                self._entries[key] = (value, size)
                self.nbytes += size
                while self.nbytes > CACHE_MAX_BYTES:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self.nbytes -= evicted
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


@_ByteBudgetCache
def _circulant_coeffs(h: float, n: int):
    """Half-spectrum synthesis coefficients (h0, hn, coef) for n^{-H}-scaled fGn.

    With m = 2n and lambda the embedding spectrum: h0 = sqrt(lambda_0/m) n^{-H},
    hn = sqrt(lambda_n/m) n^{-H}, and coef = [c_1, -c_1, ..., c_{n-1}, -c_{n-1}]
    with c_j = sqrt(lambda_j/(2m)) n^{-H}, the minus sign conjugating the
    interior half-spectrum for an inverse transform.
    """
    lam = circulant_eigenvalues(h, n)
    lmax = float(lam.max())
    lmin = float(lam.min())
    if lmin < -EIG_TOL * lmax:
        raise EmbeddingError(
            f"circulant embedding failed for H={h}, n={n}: min eigenvalue {lmin:.3e} "
            f"below -{EIG_TOL:.0e} * max ({lmax:.3e})"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    scale = float(n) ** (-h)
    h0 = math.sqrt(lam[0] / m) * scale
    hn = math.sqrt(lam[n] / m) * scale
    c = np.sqrt(lam[1:n] / (2 * m)) * scale
    coef = np.empty(2 * n - 2)
    coef[0::2] = c
    coef[1::2] = -c
    coef.flags.writeable = False
    return h0, hn, coef


def circulant_eigenvalues(H, n: int) -> np.ndarray:
    """Eigenvalue spectrum of the length-2n fGn embedding (diagnostic surface)."""
    h = as_hurst(H).value
    rho = increment_autocov_seq(h, n)
    row = np.concatenate([rho, rho[-2:0:-1]]) if n > 1 else rho
    return np.fft.fft(row).real


def _sample_fgn_circulant(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n^{-H}-scaled fGn increments from one real inverse FFT of the half-spectrum.

    The 2n normals fill the Hermitian half-spectrum b_0..b_n: z_0 and z_1 the
    real DC and Nyquist terms, (z_{2j}, z_{2j+1}) the conjugated b_j.
    """
    h0, hn, coef = _circulant_coeffs(h, n)
    z = rng.standard_normal(2 * n)
    b = np.empty(n + 1, dtype=np.complex128)
    np.multiply(z[2:], coef, out=b.view(np.float64)[2 : 2 * n])
    b[0] = h0 * z[0]
    b[n] = hn * z[1]
    return np.fft.irfft(b, 2 * n, norm="forward")[:n]


@_ByteBudgetCache
def _cholesky_factor(h: float, n: int) -> np.ndarray:
    sigma = covariance_matrix(h, n)[1:, 1:]
    factor = np.linalg.cholesky(sigma)
    factor.flags.writeable = False
    return factor


def sample_fbm(H, n: int, config: SamplerConfig) -> FbmPath:
    """Draw one exact fBm path on {k/n, k = 0..n}.

    Deterministic in (H, n, method, seed, stream). The circulant method works
    for any n; Cholesky is guarded at n <= CHOLESKY_MAX_N.
    """
    hurst = as_hurst(H)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _rng(int(config.seed), int(config.stream))
    if config.method == METHOD_CIRCULANT:
        values = np.empty(n + 1)
        values[0] = 0.0
        np.cumsum(_sample_fgn_circulant(hurst.value, n, rng), out=values[1:])
    else:
        if n > CHOLESKY_MAX_N:
            raise SizeError(f"cholesky sampling guarded at n <= {CHOLESKY_MAX_N}, got {n}")
        factor = _cholesky_factor(hurst.value, n)
        values = np.concatenate([[0.0], factor @ rng.standard_normal(n)])
    tag = f"{config.method}:{config.seed}:{config.stream}"
    return FbmPath(hurst=hurst, n=n, values=values, seed_tag=tag)


def increments(path: FbmPath) -> np.ndarray:
    """Increment vector (values[k+1] - values[k]) of length n."""
    return np.diff(path.values)


def dump_path(path: FbmPath, fileobj) -> None:
    """Write the path as one 'k/n value' line per grid point."""
    n = path.n
    for k, v in enumerate(path.values):
        fileobj.write(f"{k}/{n} {v:.17g}\n")
