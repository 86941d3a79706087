"""Renormalized power-variation statistics and their pathwise limits.

`FORMS` is the paper's table: one `FormSpec` row per statistic gives its power
rule, weighting, normalization, compensator, admissible H interval and
pathwise limit; every form subtracts the Gaussian moment mu_kappa, which is
zero for odd kappa. Each statistic is the literal left-hand side of one of the
limit displays for weighted/unweighted kappa-variations of fBm; weights are
always evaluated at the left endpoint B_{k/n} (`derivative_at_left`).
`limit_functional` provides the matching discrete right-hand side on the same
path (left-endpoint Riemann sum with step 1/n), so the mean-square gap between
the two is exactly the quantity the L2 theorems drive to zero. `REGIMES` gives
the limit regimes of the cells no form row covers, and `classify_regime` maps
(kappa, H, weighted?) to its first matching row of `REGIMES`, then of `FORMS`.

The module keeps no state. A caller's `sampler.Workspace` holds the table of
the block it last read: h^(j)(B_{k/n}) of every evaluator read on it, in
buffers that the next block reuses, and a read on another block empties it.
So a statistic and its limit, and every plan of a group at one H, evaluate
each derivative once per block. For a weight with a `negation_step`
s (sin and cos), a limit of order j >= s reads h^(j-s) and negates its
constant, so the cubic form's limit reads the cos its compensator read. A
call without a workspace evaluates its own, with the same bits.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RegimeError
from .kernels import as_hurst, as_integer, gaussian_moment, increment_autocov_seq
from .sampler import FbmPath, Workspace
from .weights import BUILTIN_IDS, WeightFunction

# Endpoints of the theorems' H intervals; messages print each as its nearest fraction.
SIXTH, QUARTER, HALF, THREE_QUARTERS = 1.0 / 6.0, 0.25, 0.5, 0.75


def _admits(rule: tuple, kappa: int) -> bool:
    """Whether kappa fits the rule (smallest kappa, step); step 0 admits only the smallest."""
    first, step = rule
    return kappa == first if step == 0 else kappa >= first and (kappa - first) % step == 0


def _near(hv: float, b: float) -> bool:
    return abs(hv - b) < 1e-12


def _inside(hv: float, interval: tuple) -> bool:
    """Whether hv lies in (lo, lo closed?, hi, hi closed?); within 1e-12 of an end is at that end."""
    lo, lo_closed, hi, hi_closed = interval
    return (lo_closed if _near(hv, lo) else hv > lo) and (hi_closed if _near(hv, hi) else hv < hi)


def _point(p: float) -> tuple:
    return (p, True, p, True)


class StatForm(str, Enum):
    CENTERED_QUADRATIC = "centered_quadratic"
    COMPENSATED_CUBIC = "compensated_cubic"
    ODD_WEIGHTED = "odd_weighted"
    UNWEIGHTED_CENTERED = "unweighted_centered"
    UNWEIGHTED_ODD = "unweighted_odd"
    MIXING_NORMALIZED = "mixing_normalized"


class RegimeName(str, Enum):
    BROWNIAN_CLT = "brownian_clt"
    BREUER_MAJOR_CLT = "breuer_major_clt"
    ROSENBLATT = "rosenblatt"
    ODD_L2_DRIFT = "odd_l2_drift"
    WEIGHTED_L2_QUADRATIC = "weighted_l2_quadratic"
    WEIGHTED_L2_CUBIC = "weighted_l2_cubic"
    MIXING_CONJECTURE = "mixing_conjecture"
    BOUNDARY_UNSUPPORTED = "boundary_unsupported"


@dataclass(frozen=True)
class RegimeLabel:
    label: RegimeName
    citation: str


@dataclass(frozen=True)
class FormSpec:
    """One row of the form table.

    The statistic is n^{aH+b} sum_k (w_k [n^{kappa H} (Delta B_k)^kappa - mu_kappa]
    + c h'(B_{k/n}) n^{-H}), with w_k = h(B_{k/n}) if `weighted` else 1,
    mu_kappa = E[G^kappa] (zero for odd kappa) and c the `compensator`.
    `limit` is (constant as a function of kappa, derivative order j) of the
    pathwise limit constant * (1/n) sum_k h^{(j)}(B_{k/n}), or None for a
    diagnostic form. `regime` is what `classify_regime` reports on the row's
    cells.
    """

    kappa: tuple  # (smallest kappa, step); step 0 admits only the smallest
    weighted: bool
    exponent: tuple  # (a, b) of the outer normalization n^{aH+b}
    compensator: float
    h_interval: tuple  # (lo, lo closed?, hi, hi closed?)
    limit: tuple | None
    regime: RegimeLabel

    @property
    def kappa_rule(self) -> str:
        first, step = self.kappa
        if step == 0:
            return f"kappa = {first}"
        parity = "odd" if first % 2 else "even"
        return f"{parity} kappa" if first <= 2 else f"{parity} kappa >= {first}"

    @property
    def h_rule(self) -> str:
        from fractions import Fraction  # here, so that a run does not import it (and decimal)
        # H > 0, so an interval closed at 0 prints as open there
        lo, hi = (Fraction(b).limit_denominator(100) for b in self.h_interval[::2])
        return f"H in ({lo}, {hi}{']' if self.h_interval[3] else ')'}"


FORMS = {
    # form: FormSpec(kappa, weighted, exponent, compensator, h_interval, limit, regime)
    StatForm.CENTERED_QUADRATIC:  FormSpec((2, 0), True,  (2, -1),   0.0, (0.0, True, QUARTER, False),        (lambda k: 0.25, 2),                          RegimeLabel(RegimeName.WEIGHTED_L2_QUADRATIC, "weighted quadratic L2 limit, H < 1/4: n^{2H-1}-normalized sum tends to (1/4) Int h''(B_u) du")),
    StatForm.COMPENSATED_CUBIC:   FormSpec((3, 0), True,  (3, -1),   1.5, (0.0, True, SIXTH, False),          (lambda k: -0.125, 3),                        RegimeLabel(RegimeName.WEIGHTED_L2_CUBIC, "compensated cubic L2 limit, H < 1/6: n^{3H-1}-normalized compensated sum tends to -(1/8) Int h'''(B_u) du")),
    StatForm.ODD_WEIGHTED:        FormSpec((1, 2), True,  (1, -1),   0.0, (0.0, True, HALF, False),           (lambda k: -0.5 * gaussian_moment(k + 1), 1), RegimeLabel(RegimeName.ODD_L2_DRIFT, "odd-power drift limit (Gradinaru-Russo-Vallois), H < 1/2: n^{H-1}-normalized sum tends to -(mu_{kappa+1}/2) Int h'(B_s) ds")),
    StatForm.UNWEIGHTED_CENTERED: FormSpec((2, 2), False, (0, -0.5), 0.0, (0.0, True, THREE_QUARTERS, False), None,                                         RegimeLabel(RegimeName.BREUER_MAJOR_CLT, "Breuer-Major CLT, even power, H < 3/4: N(0, sigma^2(H, kappa))")),
    StatForm.UNWEIGHTED_ODD:      FormSpec((3, 2), False, (0, -0.5), 0.0, (0.0, True, HALF, True),            None,                                         RegimeLabel(RegimeName.BREUER_MAJOR_CLT, "Breuer-Major CLT, odd power, H < 1/2: N(0, sigma^2(H, kappa))")),
    StatForm.MIXING_NORMALIZED:   FormSpec((2, 0), True,  (0, -0.5), 0.0, (QUARTER, False, HALF, True),       None,                                         RegimeLabel(RegimeName.MIXING_CONJECTURE, "conjectured mixing limit for 1/4 < H < 1/2: sigma_H Int h(B) dW (second moment scales like n)")),
}


@dataclass(frozen=True)
class StatisticSpec:
    """Which variation statistic to compute: power, weight id and form."""

    kappa: int
    weight: str
    form: StatForm

    def __post_init__(self):
        object.__setattr__(self, "form", StatForm(self.form))
        object.__setattr__(self, "kappa", as_integer(self.kappa, "kappa"))
        if self.weight not in BUILTIN_IDS:
            raise ValueError(f"unknown weight id '{self.weight}'; known ids: {', '.join(BUILTIN_IDS)}")
        row = FORMS[self.form]
        if not _admits(row.kappa, self.kappa):
            raise ValueError(f"{self.form.value} requires {row.kappa_rule}, got kappa = {self.kappa}")
        if not row.weighted and self.weight != "one":
            raise ValueError(f"{self.form.value} is unweighted and requires weight = one, got weight '{self.weight}'")


def derivative_at_left(path: FbmPath, h: WeightFunction, order: int, workspace: Workspace | None = None) -> np.ndarray:
    """h^(order)(B_{k/n}), k < n, of every path of the block; with a workspace, a read-only view of its table.

    The table belongs to the increments array it was read from: a read on
    another block empties it. The first read of an evaluator writes its
    values into a pool buffer, grown to fit the block; later reads return
    them. Without a workspace, each call evaluates h^(order) anew.
    OrderError past h's table; TypeError for an evaluator that ignores `out`.
    """
    evaluator = h.derivative(order)
    if workspace is None:
        return evaluator(path.left)
    if workspace.block is None or workspace.block() is not path.increments:  # another block: its table starts empty
        workspace.derivatives, workspace.block = {}, weakref.ref(path.increments)  # weak: the old block may be freed, and then matches none
    held, buffers = workspace.derivatives, workspace.buffers
    values = held.get(evaluator)
    if values is not None:
        return values
    left = path.left
    if len(held) == len(buffers):
        buffers.append(np.empty(left.size))
    elif buffers[len(held)].size < left.size:
        buffers[len(held)] = np.empty(left.size)
    values = buffers[len(held)][: left.size].reshape(left.shape)
    if evaluator(left, out=values) is not values:
        raise TypeError(f"evaluator {order} of weight {h.id!r} must write its values into out and return it")
    values.flags.writeable = False
    held[evaluator] = values
    return values


def evaluate_statistic(path: FbmPath, h: WeightFunction, spec: StatisticSpec, workspace: Workspace | None = None) -> np.ndarray:
    """The statistic of `spec`'s form row on each path of the block; h, unused by unweighted forms, is read with `workspace`."""
    row = FORMS[spec.form]
    hv = path.hurst.value
    n = np.float64(path.n)  # n^{kappa H} past float64 is inf, where a Python float raises
    diff = path.increments
    # left to right, ((n^{kappa H} Delta) Delta) ...
    terms = n ** (spec.kappa * hv) * diff
    for _ in range(spec.kappa - 1):
        terms *= diff
    mu = gaussian_moment(spec.kappa)
    if mu:
        terms -= mu
    if row.weighted:  # only a weight reads B_{k/n}, so only a weighted form sums the path
        terms *= derivative_at_left(path, h, 0, workspace)
    if row.compensator:
        terms += row.compensator * derivative_at_left(path, h, 1, workspace) * n ** (-hv)
    a, b = row.exponent
    return n ** (a * hv + b) * np.add.reduce(terms, axis=1)


def limit_functional(path: FbmPath, h: WeightFunction, spec: StatisticSpec, workspace: Workspace | None = None) -> np.ndarray:
    """Discrete limit c (1/n) sum_k g(B_{k/n}) matching the L2 statistic of `spec`, per path of the block.

    (c, g) is (1/4, h'') for the quadratic form, (-1/8, h''') for the cubic
    form and (-mu_{kappa+1}/2, h') for the odd form; g is read with `workspace`.
    Where h states a negation step s no larger than g's order j, it reads
    h^(j-s) = -g and negates c, with the same bits: negation commutes with
    the rounded sums, the quotient and the product.
    """
    row = FORMS[spec.form]
    if row.limit is None:
        raise ValueError(f"no pathwise limit functional for form {spec.form.value!r}")
    constant, order = row.limit
    c, step = constant(spec.kappa), h.negation_step
    if 0 < step <= order:
        c, order = -c, order - step
    # np.mean's own arithmetic: the pairwise row sums divided by the row length
    return c * (np.add.reduce(derivative_at_left(path, h, order, workspace), axis=1) / path.n)


def require_form_admissible(form: StatForm, kappa: int, H) -> None:
    """Raise RegimeError unless (kappa, H) satisfies the hypothesis of `form`.

    Uses each theorem's own interval (a statistic like the odd drift sum is
    admissible on all of 0 < H < 1/2, including below 1/6 where the cubic
    theorem also has something to say about a different statistic). H within
    1e-12 of an open endpoint is outside. A kappa that is not an integer is a ValueError.
    """
    form = StatForm(form)
    row = FORMS[form]
    hv = as_hurst(H).value
    kappa = as_integer(kappa, "kappa")
    if not _admits(row.kappa, kappa):
        need = row.kappa_rule
    elif not _inside(hv, row.h_interval):
        need = row.h_rule
    else:
        return
    raise RegimeError(f"form {form.value} with kappa={kappa} requires {need}; got H={hv}")


# The regimes of the cells no form row covers: (weighted, kappa rule, H interval,
# regime, citation). H = 1/2 is pinned by the Brownian results (classical CLT
# unweighted, Jacod-type mixing limits weighted): those point rows win over the
# forms whose intervals hold 1/2. The open endpoints of the other theorems (1/4,
# 3/4 where applicable) are point rows that label as boundary_unsupported, as do
# cells with no published statement; every interval row is disjoint from every
# form row. At H = 1/6 a weighted cubic cell falls to the odd drift form.
REGIMES = (
    (False, (2, 1), _point(HALF),                         RegimeName.BROWNIAN_CLT,          "classical CLT for Brownian kappa-variation: N(0, mu_{2k} - mu_k^2)"),
    (False, (2, 2), _point(THREE_QUARTERS),               RegimeName.BOUNDARY_UNSUPPORTED,  "H = 3/4 separates the Gaussian and Rosenblatt regimes"),
    (False, (2, 2), (THREE_QUARTERS, False, 1.0, True),   RegimeName.ROSENBLATT,            "non-central limit (Taqqu): n^{1-2H}-normalized sum tends to a Rosenblatt variable"),
    (False, (3, 2), (HALF, False, 1.0, True),             RegimeName.BREUER_MAJOR_CLT,      "Breuer-Major CLT, odd power, H > 1/2 with n^{-H} Sum n^{kappa H} normalization"),
    (True,  (2, 2), _point(HALF),                         RegimeName.MIXING_CONJECTURE,     "Jacod-type mixing limit at H = 1/2 (even power): stochastic integral of h(B) against an independent Brownian motion"),
    (True,  (3, 2), _point(HALF),                         RegimeName.MIXING_CONJECTURE,     "Jacod-type mixing limit at H = 1/2 (odd power): stochastic integral of h(B) against an independent Brownian motion"),
    (True,  (2, 2), _point(THREE_QUARTERS),               RegimeName.BOUNDARY_UNSUPPORTED,  "H = 3/4 is the open endpoint of the mixing regime"),
    (True,  (2, 2), (HALF, False, THREE_QUARTERS, False), RegimeName.MIXING_CONJECTURE,     "mixing limit (Leon-Ludena) for even power, 1/2 < H < 3/4: sigma Int h(B) dW"),
    (True,  (2, 0), _point(QUARTER),                      RegimeName.BOUNDARY_UNSUPPORTED,  "H = 1/4 is the open endpoint of the weighted quadratic L2 theorem"),
    (True,  (2, 0), (THREE_QUARTERS, False, 1.0, True),   RegimeName.BOUNDARY_UNSUPPORTED,  "weighted even-power regime for H > 3/4 has no published statement here"),
    (True,  (4, 2), (0.0, True, 1.0, True),               RegimeName.BOUNDARY_UNSUPPORTED,  "weighted even power >= 4 outside (1/2, 3/4) has no published statement here"),
    (True,  (3, 2), (HALF, False, 1.0, True),             RegimeName.BOUNDARY_UNSUPPORTED,  "weighted odd power for H > 1/2 has no published statement here"),
)
# classify_regime's rows in first-match order: REGIMES, then FORMS in table order
_CELLS = [(w, rule, interval, RegimeLabel(name, citation)) for w, rule, interval, name, citation in REGIMES]
_CELLS += [(row.weighted, row.kappa, row.h_interval, row.regime) for row in FORMS.values()]


def classify_regime(kappa: int, H, weighted: bool) -> RegimeLabel:
    """Map (kappa, an integer >= 2, H, weighted?) to the regime of its first matching row of `REGIMES`, then `FORMS`."""
    kappa = as_integer(kappa, "kappa", 2)
    hv = as_hurst(H).value
    for row_weighted, rule, interval, regime in _CELLS:
        if row_weighted == bool(weighted) and _admits(rule, kappa) and _inside(hv, interval):
            return regime
    raise AssertionError(f"no REGIMES or FORMS row covers kappa={kappa}, H={hv}, weighted={weighted}")


DEFAULT_LAG_TRUNCATION = 1_000


def hermite_coefficients(kappa: int) -> np.ndarray:
    """Coefficients c_q with x^kappa = sum_q c_q He_q(x) (probabilists' basis), kappa an integer >= 0.

    c_kappa = 1 and c_{q-2} = c_q q(q-1) / (kappa-q+2), so c_{kappa-2m} = kappa! / (2^m m! (kappa-2m)!);
    all other entries are zero. Past float64 an entry is inf, with no warning, from kappa = 295 on.
    """
    k = as_integer(kappa, "kappa", 0)
    c, coef = np.zeros(k + 1), 1.0
    for q in range(k, -1, -2):
        c[q], coef = coef, coef * q * (q - 1) / (k - q + 2)
    return c


def breuer_major_variance(H, kappa: int, lag_truncation: int = DEFAULT_LAG_TRUNCATION) -> float:
    """Asymptotic variance sigma^2(H, kappa) = sum_{q >= q0} q! c_q^2 sum_p rho_H(p)^q of the CLT regimes.

    c_q are the Hermite coefficients of x^kappa, with the constant term dropped
    (mean centering) so the rank is q0 = 2 for even kappa and q0 = 1 for odd.
    Coefficients vanish above q = kappa, so the sum over q is finite. The even
    series converges only for H < 3/4 and the odd one only for H <= 1/2: the
    cells of the two unweighted forms; RegimeError outside them. kappa is an
    integer >= 2 and lag_truncation one >= 1. Past float64 (kappa >= 151) it is inf.

    The constant is the n -> infinity limit. Each lag series is summed to
    |p| <= lag_truncation and its tail added from rho_H(p) ~ H(2H-1) p^{2H-2}.
    The rank-1 series telescopes to (P+1)^{2H} - P^{2H}, whose limit is 0 for
    H < 1/2 and 1 at H = 1/2; near H = 1/2 the finite-n variance of an odd
    kappa approaches the constant only like n^{2H-1}.
    """
    hv = as_hurst(H).value
    kappa, lag_truncation = as_integer(kappa, "kappa", 2), as_integer(lag_truncation, "lag_truncation", 1)
    form = StatForm.UNWEIGHTED_ODD if kappa % 2 else StatForm.UNWEIGHTED_CENTERED
    require_form_admissible(form, kappa, hv)
    c = hermite_coefficients(kappa).tolist()  # Python floats: a product past float64 is inf, with no warning
    rho = increment_autocov_seq(hv, lag_truncation)
    # rank 1 (c_1 = 0 for even kappa): the limit of the telescoped lag sum
    total = c[1] * c[1] if _near(hv, HALF) else 0.0
    # ranks q >= 2: sum_{p > P} rho^q ~ (H(2H-1))^q (P + 1/2)^{1-a} / (a - 1), a = q(2 - 2H)
    for q in range(3 if kappa % 2 else 2, kappa + 1, 2):
        a = q * (2.0 - 2.0 * hv)
        tail = (hv * (2.0 * hv - 1.0)) ** q * (lag_truncation + 0.5) ** (1.0 - a) / (a - 1.0)
        lag_sum = 1.0 + 2.0 * (float(np.sum(rho[1:] ** q)) + tail)  # rho_H(0) = 1
        total += c[q] * c[q] * math.prod(range(2, q + 1), start=1.0) * lag_sum  # q! c_q^2 lag_sum
    return total
