"""Renormalized power-variation statistics and their pathwise limits.

`FORMS` is the paper's table: one `FormSpec` row per statistic gives its power
rule, weighting, normalization, centring, compensator, admissible H interval
and pathwise limit. Each statistic is the literal left-hand side of one of the
limit displays for weighted/unweighted kappa-variations of fBm; weights are
always evaluated at the left endpoint B_{k/n}. `limit_functional` provides the
matching discrete right-hand side on the same path (left-endpoint Riemann sum
with step 1/n), so the mean-square gap between the two is exactly the quantity
the L2 theorems drive to zero. `classify_regime` maps (kappa, H, weighted?) to
the governing limit regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import KappaError, OrderError, RegimeError
from .kernels import as_hurst, gaussian_moment
from .sampler import FbmPath
from .weights import WeightFunction

# Endpoints of the theorems' H intervals, and how messages print them.
SIXTH, QUARTER, HALF, THREE_QUARTERS = 1.0 / 6.0, 0.25, 0.5, 0.75
_ENDPOINT_TEXT = {0.0: "0", SIXTH: "1/6", QUARTER: "1/4", HALF: "1/2", THREE_QUARTERS: "3/4"}


class StatForm(str, Enum):
    CENTERED_QUADRATIC = "centered_quadratic"
    COMPENSATED_CUBIC = "compensated_cubic"
    ODD_WEIGHTED = "odd_weighted"
    UNWEIGHTED_CENTERED = "unweighted_centered"
    UNWEIGHTED_ODD = "unweighted_odd"
    MIXING_NORMALIZED = "mixing_normalized"


@dataclass(frozen=True)
class FormSpec:
    """One row of the form table.

    The statistic is n^{aH+b} sum_k (w_k [n^{kappa H} (Delta B_k)^kappa - mu_kappa]
    + c h'(B_{k/n}) n^{-H}), with w_k = h(B_{k/n}) if `weighted` else 1, the
    mu_kappa term present if `centred` and c the `compensator`. `limit` is
    (constant as a function of kappa, derivative order j) of the pathwise limit
    constant * (1/n) sum_k h^{(j)}(B_{k/n}), or None for a diagnostic form.
    """

    kappa: tuple  # (smallest kappa, step); step 0 admits only the smallest
    weighted: bool
    exponent: tuple  # (a, b) of the outer normalization n^{aH+b}
    centred: bool
    compensator: float
    h_interval: tuple  # (lo, hi, hi closed?); lo is always open
    limit: tuple | None

    def admits_kappa(self, kappa: int) -> bool:
        first, step = self.kappa
        return kappa == first if step == 0 else kappa >= first and (kappa - first) % step == 0

    @property
    def kappa_rule(self) -> str:
        first, step = self.kappa
        if step == 0:
            return f"kappa = {first}"
        parity = "odd" if first % 2 else "even"
        return f"{parity} kappa" if first <= 2 else f"{parity} kappa >= {first}"

    @property
    def h_rule(self) -> str:
        lo, hi, closed = self.h_interval
        return f"H in ({_ENDPOINT_TEXT[lo]}, {_ENDPOINT_TEXT[hi]}{']' if closed else ')'}"


FORMS = {
    # form: FormSpec(kappa, weighted, exponent, centred, compensator, h_interval, limit)
    StatForm.CENTERED_QUADRATIC:  FormSpec((2, 0), True,  (2, -1),   True,  0.0, (0.0, QUARTER, False),        (lambda k: 0.25, 2)),
    StatForm.COMPENSATED_CUBIC:   FormSpec((3, 0), True,  (3, -1),   False, 1.5, (0.0, SIXTH, False),          (lambda k: -0.125, 3)),
    StatForm.ODD_WEIGHTED:        FormSpec((1, 2), True,  (1, -1),   False, 0.0, (0.0, HALF, False),           (lambda k: -0.5 * gaussian_moment(k + 1), 1)),
    StatForm.UNWEIGHTED_CENTERED: FormSpec((2, 2), False, (0, -0.5), True,  0.0, (0.0, THREE_QUARTERS, False), None),
    StatForm.UNWEIGHTED_ODD:      FormSpec((3, 2), False, (0, -0.5), False, 0.0, (0.0, HALF, True),            None),
    StatForm.MIXING_NORMALIZED:   FormSpec((2, 0), True,  (0, -0.5), True,  0.0, (QUARTER, HALF, True),        None),
}


@dataclass(frozen=True)
class StatisticSpec:
    """Which variation statistic to compute: power, weight id and form."""

    kappa: int
    weight: str
    form: StatForm

    def __post_init__(self):
        object.__setattr__(self, "form", StatForm(self.form))
        row = FORMS[self.form]
        if not row.admits_kappa(self.kappa):
            raise ValueError(f"{self.form.value} requires {row.kappa_rule}, got kappa = {self.kappa}")
        if not row.weighted and self.weight != "one":
            raise ValueError(f"{self.form.value} is unweighted and requires weight = one, got weight '{self.weight}'")


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


def evaluate_statistic(path: FbmPath, h: WeightFunction, spec: StatisticSpec) -> float:
    """The statistic of `spec`'s form row on `path`; h is unused by unweighted forms."""
    row = FORMS[spec.form]
    hv = path.hurst.value
    n = float(path.n)
    left, diff = path.values[:-1], np.diff(path.values)
    # left to right, ((n^{kappa H} Delta) Delta) ...
    terms = n ** (spec.kappa * hv) * diff
    for _ in range(spec.kappa - 1):
        terms = terms * diff
    if row.centred:
        terms = terms - gaussian_moment(spec.kappa)
    if row.weighted:
        terms = h(left) * terms
    if row.compensator:
        terms = terms + row.compensator * h.derivative(1)(left) * n ** (-hv)
    a, b = row.exponent
    return n ** (a * hv + b) * float(np.sum(terms))


def limit_functional(path: FbmPath, h: WeightFunction, form: StatForm, kappa: int | None = None) -> float:
    """Discrete limit c (1/n) sum_k g(B_{k/n}) matching the L2 statistic `form`.

    (c, g) is (1/4, h'') for the quadratic form, (-1/8, h''') for the cubic
    form and (-mu_{kappa+1}/2, h') for the odd form, which needs kappa.
    """
    form = StatForm(form)
    row = FORMS[form]
    if row.limit is None:
        raise ValueError(f"no pathwise limit functional for form {form.value!r}")
    if kappa is None:
        if row.kappa[1]:
            raise KappaError(f"{form.value} limit needs kappa to fix the drift constant")
        kappa = row.kappa[0]
    if not row.admits_kappa(kappa):
        raise KappaError(f"{form.value} limit requires {row.kappa_rule}, got {kappa}")
    constant, order = row.limit
    if order > h.max_order:
        raise OrderError(f"weight {h.id!r} lacks derivative order {order}")
    left = path.values[:-1]
    return constant(kappa) * float(np.mean(h.derivative(order)(left)))


def _near(hv: float, b: float) -> bool:
    return abs(hv - b) < 1e-12


def require_form_admissible(form: StatForm, kappa: int, H) -> None:
    """Raise RegimeError unless (kappa, H) satisfies the hypothesis of `form`.

    Uses each theorem's own interval (a statistic like the odd drift sum is
    admissible on all of 0 < H < 1/2, including below 1/6 where the cubic
    theorem also has something to say about a different statistic). H within
    1e-12 of an open endpoint is outside.
    """
    form = StatForm(form)
    row = FORMS[form]
    hv = as_hurst(H).value
    lo, hi, closed = row.h_interval
    above = hv > lo and not _near(hv, lo)
    below = (hv < hi or _near(hv, hi)) if closed else (hv < hi and not _near(hv, hi))
    if not row.admits_kappa(kappa):
        need = row.kappa_rule
    elif not (above and below):
        need = row.h_rule
    else:
        return
    raise RegimeError(f"form {form.value} with kappa={kappa} requires {need}; got H={hv}")


def classify_regime(kappa: int, H, weighted: bool) -> RegimeLabel:
    """Map (kappa, H, weighted?) to the limit regime governing that cell.

    Total on non-boundary H. H = 1/2 is pinned exactly by the Brownian results
    (classical CLT unweighted, Jacod-type mixing limits weighted); the open
    interval endpoints of the other theorems (1/6, 1/4, 3/4 where applicable)
    return boundary_unsupported, as do cells with no published statement.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    hv = as_hurst(H).value
    even = kappa % 2 == 0

    if not weighted:
        if _near(hv, HALF):
            return RegimeLabel(
                RegimeName.BROWNIAN_CLT,
                "classical CLT for Brownian kappa-variation: N(0, mu_{2k} - mu_k^2)",
            )
        if even:
            if _near(hv, THREE_QUARTERS):
                return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "H = 3/4 separates the Gaussian and Rosenblatt regimes")
            if hv < THREE_QUARTERS:
                return RegimeLabel(
                    RegimeName.BREUER_MAJOR_CLT,
                    "Breuer-Major CLT, even power, H < 3/4: N(0, sigma^2(H, kappa))",
                )
            return RegimeLabel(
                RegimeName.ROSENBLATT,
                "non-central limit (Taqqu): n^{1-2H}-normalized sum tends to a Rosenblatt variable",
            )
        if hv < HALF:
            return RegimeLabel(
                RegimeName.BREUER_MAJOR_CLT,
                "Breuer-Major CLT, odd power, H < 1/2: N(0, sigma^2(H, kappa))",
            )
        return RegimeLabel(
            RegimeName.BREUER_MAJOR_CLT,
            "Breuer-Major CLT, odd power, H > 1/2 with n^{-H} Sum n^{kappa H} normalization",
        )

    # weighted
    if _near(hv, HALF):
        which = "even power" if even else "odd power"
        return RegimeLabel(
            RegimeName.MIXING_CONJECTURE,
            f"Jacod-type mixing limit at H = 1/2 ({which}): stochastic integral of h(B) against an independent Brownian motion",
        )
    if even:
        if kappa == 2:
            if _near(hv, QUARTER):
                return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "H = 1/4 is the open endpoint of the weighted quadratic L2 theorem")
            if hv < QUARTER:
                return RegimeLabel(
                    RegimeName.WEIGHTED_L2_QUADRATIC,
                    "weighted quadratic L2 limit, H < 1/4: n^{2H-1}-normalized sum tends to (1/4) Int h''(B_u) du",
                )
            if hv < HALF:
                return RegimeLabel(
                    RegimeName.MIXING_CONJECTURE,
                    "conjectured mixing limit for 1/4 < H < 1/2: sigma_H Int h(B) dW (second moment scales like n)",
                )
            if _near(hv, THREE_QUARTERS):
                return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "H = 3/4 is the open endpoint of the mixing regime")
            if hv < THREE_QUARTERS:
                return RegimeLabel(
                    RegimeName.MIXING_CONJECTURE,
                    "mixing limit (Leon-Ludena) for even power, 1/2 < H < 3/4: sigma Int h(B) dW",
                )
            return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "weighted even-power regime for H > 3/4 has no published statement here")
        # even kappa >= 4
        if _near(hv, THREE_QUARTERS):
            return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "H = 3/4 is the open endpoint of the mixing regime")
        if HALF < hv < THREE_QUARTERS:
            return RegimeLabel(
                RegimeName.MIXING_CONJECTURE,
                "mixing limit (Leon-Ludena) for even power, 1/2 < H < 3/4: sigma Int h(B) dW",
            )
        return RegimeLabel(
            RegimeName.BOUNDARY_UNSUPPORTED,
            "weighted even power >= 4 outside (1/2, 3/4) has no published statement here",
        )
    # odd kappa, weighted
    if kappa == 3 and _near(hv, SIXTH):
        return RegimeLabel(RegimeName.BOUNDARY_UNSUPPORTED, "H = 1/6 is the open endpoint of the compensated cubic L2 theorem")
    if kappa == 3 and hv < SIXTH:
        return RegimeLabel(
            RegimeName.WEIGHTED_L2_CUBIC,
            "compensated cubic L2 limit, H < 1/6: n^{3H-1}-normalized compensated sum tends to -(1/8) Int h'''(B_u) du",
        )
    if hv < HALF:
        return RegimeLabel(
            RegimeName.ODD_L2_DRIFT,
            "odd-power drift limit (Gradinaru-Russo-Vallois), H < 1/2: n^{H-1}-normalized sum tends to -(mu_{kappa+1}/2) Int h'(B_s) ds",
        )
    return RegimeLabel(
        RegimeName.BOUNDARY_UNSUPPORTED,
        "weighted odd power for H > 1/2 has no published statement here",
    )
