"""Exact fBm sampling on the grid {k/n} by circulant embedding or Cholesky.

Both methods draw from the exact finite-dimensional law N(0, [R_H(t_j, t_k)]).
The circulant route embeds the unit-variance fGn autocovariance rho_H into a
length-2n circulant, synthesizes in the Fourier domain in O(n log n), rescales
by n^{-H} and cumulative-sums; the Cholesky route factors the full path
covariance and is kept as the O(n^3) reference.

Randomness is counter-based: a Philox generator keyed by (seed, stream), so a
replica's draws depend only on its own key and never on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmbeddingError, SizeError
from .kernels import HurstIndex, as_hurst, covariance_matrix, increment_autocov_seq

CHOLESKY_MAX_N = 4096
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


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=64)
def _circulant_coeffs(h: float, n: int):
    """Fourier synthesis coefficients sqrt(lambda/(2m)) for unit fGn of length n."""
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
    half = np.sqrt(lam[: n + 1] / m)  # entries 0..n; interior ones get /sqrt(2) below
    interior = np.sqrt(lam[1:n] / (2 * m))
    half.flags.writeable = False
    interior.flags.writeable = False
    return half, interior


def circulant_eigenvalues(H, n: int) -> np.ndarray:
    """Eigenvalue spectrum of the length-2n fGn embedding (diagnostic surface)."""
    h = as_hurst(H).value
    rho = increment_autocov_seq(h, n)
    row = np.concatenate([rho, rho[-2:0:-1]]) if n > 1 else rho
    return np.fft.fft(row).real


def _sample_fgn_circulant(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    half, interior = _circulant_coeffs(h, n)
    m = 2 * n
    z = rng.standard_normal(m)
    a = np.zeros(m, dtype=np.complex128)
    a[0] = half[0] * z[0]
    a[n] = half[n] * z[1]
    if n > 1:
        zj = z[2::2]
        wj = z[3::2]
        a[1:n] = interior * (zj + 1j * wj)
        a[m - 1 : n : -1] = np.conj(a[1:n])
    x = np.fft.fft(a).real
    return x[:n]


@lru_cache(maxsize=16)
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
        fgn = _sample_fgn_circulant(hurst.value, n, rng) * float(n) ** (-hurst.value)
        values = np.concatenate([[0.0], np.cumsum(fgn)])
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
