"""Independent oracles used by the test suite.

Everything here is deliberately written as plain Python loops over the
displayed formulas (math.fsum reductions, no numpy vectorization and no reuse
of the package's kernels beyond the scalar autocovariance), so agreement with
the library is a genuine cross-check rather than a tautology.
"""

import math


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
