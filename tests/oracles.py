"""Independent oracles used by the test suite.

Everything here is deliberately written as plain Python loops over the
displayed formulas (math.fsum reductions, no numpy vectorization and no reuse
of the package's kernels beyond the scalar autocovariance), so agreement with
the library is a genuine cross-check rather than a tautology. The exceptions
are the circulant references, which read the package's autocovariance
sequence: `reference_circulant_eigenvalues`, the full complex FFT of the
embedding's mirrored row that the sampler's spectrum is checked against, and
`reference_circulant_path`, the full complex-FFT synthesis that the sampler's
half-spectrum synthesis is checked against; `reference_cholesky_path`, a
second exact route to the same law; and `check_derivatives`, which calls a
weight's own evaluators, since it checks each derivative against a central
difference of the one below it.
"""

import functools
import math

import numpy as np

from fbmvar.errors import OrderError
from fbmvar.kernels import as_integer, covariance_matrix, increment_autocov_seq
from fbmvar.weights import WeightFunction


def rho_scalar(H, p):
    p = abs(p)
    return 0.5 * ((p + 1) ** (2 * H) + abs(p - 1) ** (2 * H) - 2 * p ** (2 * H))


def isserlis_moment(cov, idx):
    """E[prod_i X_{idx_i}] for centered jointly Gaussian X by pairing enumeration."""
    if len(idx) == 0:
        return 1.0
    if len(idx) % 2 == 1:
        return 0.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for j in range(len(rest)):
        total += cov[first][rest[j]] * isserlis_moment(cov, rest[:j] + rest[j + 1 :])
    return total


def exact_unweighted_variance(H, n, kappa):
    """Exact Var(n^{-1/2} sum_k [X_k^kappa - mu_kappa]) for standardized fGn.

    Brute force over index pairs with the pairing enumeration; this is the
    small-n oracle for the Hermite-series variance constant.
    """
    mu = 0.0
    if kappa % 2 == 0:
        mu = float(math.prod(range(1, kappa, 2)))
    terms = []
    idx = tuple([0] * kappa + [1] * kappa)
    for k in range(n):
        for l in range(n):
            r = rho_scalar(H, k - l)
            cov = ((1.0, r), (r, 1.0))
            terms.append(isserlis_moment(cov, idx) - mu * mu)
    return math.fsum(terms) / n


def centered_quadratic_oracle(values, H, h):
    n = len(values) - 1
    terms = []
    for k in range(n):
        d = values[k + 1] - values[k]
        terms.append(h(values[k]) * (n ** (2 * H) * d * d - 1.0))
    return n ** (2 * H - 1) * math.fsum(terms)


def compensated_cubic_oracle(values, H, h, h1):
    n = len(values) - 1
    terms = []
    for k in range(n):
        d = values[k + 1] - values[k]
        terms.append(h(values[k]) * n ** (3 * H) * d**3 + 1.5 * h1(values[k]) * n ** (-H))
    return n ** (3 * H - 1) * math.fsum(terms)


def odd_weighted_oracle(values, H, h, kappa):
    n = len(values) - 1
    terms = []
    for k in range(n):
        d = values[k + 1] - values[k]
        terms.append(h(values[k]) * n ** (kappa * H) * d**kappa)
    return n ** (H - 1) * math.fsum(terms)


def unweighted_oracle(values, H, kappa):
    n = len(values) - 1
    mu = 0.0
    if kappa % 2 == 0:
        mu = float(math.prod(range(1, kappa, 2)))
    terms = []
    for k in range(n):
        d = values[k + 1] - values[k]
        terms.append(n ** (kappa * H) * d**kappa - mu)
    return math.fsum(terms) / math.sqrt(n)


def mixing_normalized_oracle(values, H, h):
    n = len(values) - 1
    terms = []
    for k in range(n):
        d = values[k + 1] - values[k]
        terms.append(h(values[k]) * (n ** (2 * H) * d * d - 1.0))
    return math.fsum(terms) / math.sqrt(n)


def limit_functional_oracle(values, c, g):
    n = len(values) - 1
    return c * math.fsum(g(values[k]) for k in range(n)) / n


def cov_scalar(H, s, t):
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


def exact_odd_drift_mean(H, n, kappa):
    """Exact E[n^{H-1} sum_k B_{k/n} n^{kappa H} (Delta B_k)^kappa], i.e. h(x) = x.

    Each term is a pairing moment of the Gaussian pair (B_{k/n}, Delta B_k),
    whose 2x2 covariance is read off R_H; nothing here assumes the closed form
    -(mu_{kappa+1}/2)(1 - n^{2H-1}) that the sum telescopes to.
    """
    idx = tuple([0] + [1] * kappa)
    terms = []
    for k in range(n):
        s, t = k / n, (k + 1) / n
        r_ss, r_st, r_tt = cov_scalar(H, s, s), cov_scalar(H, s, t), cov_scalar(H, t, t)
        c_bd = r_st - r_ss
        cov = ((r_ss, c_bd), (c_bd, r_tt - 2.0 * r_st + r_ss))
        terms.append(isserlis_moment(cov, idx))
    return n ** (H - 1) * n ** (kappa * H) * math.fsum(terms)


def reference_circulant_eigenvalues(H, n):
    """The 2n eigenvalues of the fGn embedding: the real part of the full complex FFT of its first row.

    The row is the mirrored (rho_H(0), ..., rho_H(n), rho_H(n-1), ..., rho_H(1));
    at n = 1 it is (rho_H(0), rho_H(1)) itself.
    """
    rho = increment_autocov_seq(H, n)
    row = np.concatenate([rho, rho[-2:0:-1]]) if n > 1 else rho
    return np.fft.fft(row).real


def reference_circulant_path(H, n, seed, stream):
    """fBm path values by full complex length-2n FFT synthesis (Wood & Chan 1994).

    The spectrum of `reference_circulant_eigenvalues` and the same 2n normals
    of a fresh Philox keyed (seed, stream) as the sampler, but the
    conjugate-symmetric spectrum is written out in full and transformed by a
    complex forward FFT, then the real part is scaled by n^{-H} and
    cumulative-summed.
    """
    lam = np.clip(reference_circulant_eigenvalues(H, n), 0.0, None)
    m = 2 * n
    key = np.array([seed, stream], dtype=np.uint64)
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(m)
    a = np.zeros(m, dtype=np.complex128)
    a[0] = np.sqrt(lam[0] / m) * z[0]
    a[n] = np.sqrt(lam[n] / m) * z[1]
    if n > 1:
        a[1:n] = np.sqrt(lam[1:n] / (2 * m)) * (z[2::2] + 1j * z[3::2])
        a[m - 1 : n : -1] = np.conj(a[1:n])
    fgn = np.fft.fft(a).real[:n] * float(n) ** (-H)
    return np.concatenate([[0.0], np.cumsum(fgn)])


@functools.lru_cache(maxsize=8)
def _cholesky_factor(H, n):
    return np.linalg.cholesky(covariance_matrix(H, n)[1:, 1:])


def reference_cholesky_path(H, n, seed, stream):
    """fBm path values as L z, L the Cholesky factor of the path covariance.

    The O(n^3) route to the exact law N(0, [R_H(j/n, k/n)]), with n normals of
    a fresh Philox keyed (seed, stream); it shares no code with the circulant
    sampler beyond the covariance R_H.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    return np.concatenate([[0.0], _cholesky_factor(H, n) @ z])


def check_derivatives(w: WeightFunction, order: int, grid, step: float) -> float:
    """Max |central difference of h^(order-1) - h^(order)| over the grid.

    The truncation error of the symmetric difference is O(step^2), so
    registered derivatives must track it to that accuracy. An order that is
    not an integer is a ValueError, one outside [1, max_order] an OrderError.
    """
    order = as_integer(order, "order")
    if not 1 <= order <= w.max_order:
        raise OrderError(
            f"weight {w.id!r}: derivative order must be in [1, {w.max_order}], got {order}"
        )
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    x = np.asarray(grid, dtype=np.float64)
    lower = w.evaluators[order - 1]
    numeric = (lower(x + step) - lower(x - step)) / (2.0 * step)
    return float(np.max(np.abs(numeric - w.evaluators[order](x))))
