"""Registry of weight functions with analytic derivatives up to order six.

Two rules derive every table: h = p(x) exp(-a x^2), a = 0 for a polynomial
and 1 for the Gaussian bump, has derivatives p_i(x) exp(-a x^2) with p_0 = p
and p_{i+1} = p_i' - 2a x p_i; sin and cos follow their 4-cycle.

Every registered weight is a polynomial or a bounded smooth function, so
every derivative composed with a Gaussian random variable has finite moments
of all orders; each weight's `growth_bound` certifies that, and the limit
statistics rely on it. Arbitrary user callables are deliberately not
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Tuple

import numpy as np

from .errors import OrderError, UnknownWeight
from .kernels import as_integer

MAX_ORDER = 6


@dataclass(frozen=True)
class WeightFunction:
    """A weight h with evaluators (h, h', ..., h^(max_order)).

    growth_bound = (A, d) certifies |h^(i)(x)| <= A (1 + |x|^d) for every
    registered order i; d = 0 for the bounded smooth class.
    """

    id: str
    evaluators: Tuple[Callable, ...]
    growth_bound: Tuple[float, int]

    @property
    def max_order(self) -> int:
        """The highest registered derivative order."""
        return len(self.evaluators) - 1

    def __call__(self, x):
        return self.evaluators[0](x)

    def derivative(self, order: int) -> Callable:
        """Evaluator of the order-th derivative; ValueError for an order that is not an integer, OrderError outside [0, max_order]."""
        order = as_integer(order, "order")
        if not 0 <= order <= self.max_order:
            raise OrderError(
                f"weight {self.id!r} registers derivatives up to order {self.max_order}, requested {order}"
            )
        return self.evaluators[order]


def _poly(coeffs: tuple, a: float = 0.0) -> Callable:
    """x -> p(x) exp(-a x^2) by Horner from p's leading coefficient (coefficients in increasing degree order)."""

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.full_like(x, coeffs[-1])
        for c in coeffs[-2::-1]:
            out = out * x + c
        return out * np.exp(-a * x * x) if a else out

    return f


# Plain tuples, not numpy.polynomial: importing it would add about 0.8 MB of
# peak RSS and 5-18 ms to every process start.
def _next(coeffs: tuple, a: float) -> tuple:
    """q = p' - 2a x p, so that (p e^{-a x^2})' = q e^{-a x^2}."""
    dp = tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)
    if not a:
        return dp
    return tuple(d - 2.0 * a * c for d, c in zip_longest(dp, (0.0,) + coeffs, fillvalue=0.0))


def _table(coeffs: tuple, a: float = 0.0) -> Tuple[Callable, ...]:
    """h = p(x) exp(-a x^2) and its derivatives p_i(x) exp(-a x^2), p_0 = p and p_{i+1} = _next(p_i, a)."""
    out = []
    for _ in range(MAX_ORDER + 1):
        out.append(_poly(coeffs, a))
        coeffs = _next(coeffs, a)
    return tuple(out)


def _neg(f: Callable) -> Callable:
    return lambda x: -f(np.asarray(x, dtype=np.float64))


# sin' = cos, cos' = -sin, ...: order i of the weight at phase p is _TRIG_CYCLE[(p + i) % 4].
_TRIG_CYCLE = (np.sin, np.cos, _neg(np.sin), _neg(np.cos))


def _trig(phase: int) -> Tuple[Callable, ...]:
    return tuple(_TRIG_CYCLE[(phase + i) % 4] for i in range(MAX_ORDER + 1))


_BUILTINS = {
    wid: WeightFunction(id=wid, evaluators=evaluators, growth_bound=bound)
    for wid, evaluators, bound in (
        ("one", _table((1.0,)), (1.0, 0)),
        ("x", _table((0.0, 1.0)), (1.0, 1)),
        ("x2", _table((0.0, 0.0, 1.0)), (2.0, 2)),
        ("x3", _table((0.0, 0.0, 0.0, 1.0)), (6.0, 3)),
        ("sin", _trig(0), (1.0, 0)),
        ("cos", _trig(1), (1.0, 0)),
        ("exp_neg_x2", _table((1.0,), a=1.0), (130.0, 0)),
    )
}

BUILTIN_IDS = tuple(sorted(_BUILTINS))


def builtin(weight_id: str) -> WeightFunction:
    """Look up a registered weight; raises UnknownWeight for anything else."""
    try:
        return _BUILTINS[weight_id]
    except KeyError:
        raise UnknownWeight(f"no builtin weight {weight_id!r}; known ids: {', '.join(BUILTIN_IDS)}") from None

