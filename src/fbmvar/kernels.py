"""Closed-form Gaussian kernels for fractional Brownian motion on the unit grid.

Everything here is a pure function of (H, integer indices): the fBm covariance
R_H(s,t) = (t^{2H} + s^{2H} - |t-s|^{2H})/2 and the normalized increment
autocovariance rho_H(p), each elementwise on scalars or arrays, the two discrete
inner products of the integration-by-parts expansions and Gaussian moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HurstIndex:
    """Hurst parameter, restricted to the open interval (0, 1)."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or not 0.0 < v < 1.0:
            raise ValueError(f"Hurst index must be finite and in (0, 1), got {self.value!r}")
        object.__setattr__(self, "value", v)


def as_hurst(h) -> HurstIndex:
    """Coerce a float or HurstIndex to a validated HurstIndex."""
    if isinstance(h, HurstIndex):
        return h
    return HurstIndex(float(h))


def as_integer(value, field: str, least: int | None = None) -> int:
    """An integral value (16, 16.0, a numpy int; not a bool) >= `least`, if given, as an int; else a ValueError naming `field`."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating)) and value.is_integer()
    if integral and not isinstance(value, bool) and (least is None or value >= least):
        return int(value)
    raise ValueError(f"{field} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


@dataclass(frozen=True)
class GridIndexPair:
    """A pair of increment indices (k, ell) on the grid {0, 1/n, ..., 1}: integers n >= 1 and 0 <= k, ell < n."""

    n: int
    k: int
    ell: int

    def __post_init__(self):
        for field, least in (("n", 1), ("k", 0), ("ell", 0)):
            object.__setattr__(self, field, as_integer(getattr(self, field), field, least))
        if self.k >= self.n or self.ell >= self.n:
            raise ValueError(f"indices must lie in [0, {self.n - 1}], got k={self.k}, ell={self.ell}")


def covariance(H, s, t):
    """fBm covariance R_H(s, t) = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2, elementwise for scalars or arrays."""
    two_h = 2.0 * as_hurst(H).value
    return 0.5 * (abs(t) ** two_h + abs(s) ** two_h - abs(t - s) ** two_h)


def increment_autocov(H, p):
    """Autocovariance rho_H(p) of unit-variance fGn at integer lag p, elementwise for scalars or arrays.

    rho_H(p) = (|p+1|^{2H} + |p-1|^{2H} - 2|p|^{2H}) / 2; rho_H(0) = 1 and
    rho vanishes at all nonzero lags when H = 1/2. A non-integer lag is a ValueError.
    """
    two_h = 2.0 * as_hurst(H).value
    if np.any(p % 1 != 0):
        raise ValueError(f"lags must be integers, got {p!r}")
    q = abs(p)
    return 0.5 * ((q + 1) ** two_h + abs(q - 1) ** two_h - 2.0 * q**two_h)


def increment_autocov_seq(H, max_lag: int) -> np.ndarray:
    """Vector of rho_H(p) for p = 0 .. max_lag, an integer >= 0."""
    return increment_autocov(H, np.arange(as_integer(max_lag, "max_lag", 0) + 1, dtype=np.float64))


def eps_delta_inner(H, pair: GridIndexPair) -> float:
    """Inner product of the running-time indicator with one increment slot.

    Equals E[B_{ell/n} (B_{(k+1)/n} - B_{k/n})], i.e.
    n^{-2H} ((k+1)^{2H} - k^{2H} - |ell-k-1|^{2H} + |ell-k|^{2H}) / 2.
    """
    two_h = 2.0 * as_hurst(H).value
    n, k, ell = pair.n, pair.k, pair.ell
    bracket = (
        abs(k + 1) ** two_h
        - abs(k) ** two_h
        - abs(ell - k - 1) ** two_h
        + abs(ell - k) ** two_h
    )
    return 0.5 * float(n) ** (-two_h) * bracket


def delta_delta_inner(H, pair: GridIndexPair) -> float:
    """Covariance of two grid increments: n^{-2H} rho_H(k - ell)."""
    return float(pair.n) ** (-2.0 * as_hurst(H).value) * increment_autocov(H, pair.k - pair.ell)


def covariance_matrix(H, n: int) -> np.ndarray:
    """(n+1) x (n+1) matrix [R_H(j/n, k/n)] over the full grid including 0; n is an integer >= 1."""
    n = as_integer(n, "n", 1)
    t = np.arange(n + 1, dtype=np.float64) / n
    return covariance(H, t[:, None], t)


def gaussian_moment(kappa: int) -> float:
    """E[G^kappa], kappa an integer >= 0, of a standard Gaussian: 0 for odd, (kappa-1)!! for even, inf from kappa = 302."""
    k = as_integer(kappa, "kappa", 0)
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(1, k, 2))) if k < 302 else math.inf  # 299!! < DBL_MAX < 301!!
