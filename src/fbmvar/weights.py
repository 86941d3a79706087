"""Registry of weight functions with analytic derivatives up to order six.

Two rules derive every table: h = p(x) exp(-a x^2), a = 0 for a polynomial
and 1 for the Gaussian bump, has derivatives p_i(x) exp(-a x^2) with p_0 = p
and p_{i+1} = p_i' - 2a x p_i; sin and cos follow their 4-cycle.

An evaluator is called as e(x) or e(x, out=buf): it returns h^(i)(x) as a
float64 array of x's shape, written into `out` when one is given. A weight
whose derivatives repeat up to sign states it in `negation_step` (2 for sin
and cos, whose h^(i+2) = -h^(i)), so `statistics.limit_functional` reads
c h^(i+2) as -c h^(i), the derivative the statistic already read, with the
same bits.

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
    registered order i; d = 0 for the bounded smooth class. negation_step =
    s > 0 states h^(i+s) = -h^(i) for every pair of registered orders; 0
    states nothing.
    """

    id: str
    evaluators: Tuple[Callable, ...]
    growth_bound: Tuple[float, int]
    negation_step: int = 0

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
    """x -> p(x) exp(-a x^2) by Horner in place from p's leading coefficient (coefficients in increasing degree order).

    A zero coefficient is skipped: adding it would change no value, only the sign of a zero.
    """
    lead, rest = coeffs[-1], coeffs[-2::-1]

    def f(x, out=None):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x) if out is None else out
        if rest:
            np.multiply(x, lead, out=out)
        else:
            out[...] = lead
        for i, c in enumerate(rest):
            if i:
                out *= x
            if c:
                out += c
        if a:
            bump = np.multiply(x, -a, out=np.empty_like(x))
            bump *= x
            out *= np.exp(bump, out=bump)
        return out

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


def _ufunc(f: Callable, negate: bool = False) -> Callable:
    """x -> f(x), or -f(x) by negating f's output in place."""

    def e(x, out=None):
        x = np.asarray(x, dtype=np.float64)
        out = f(x, out=np.empty_like(x) if out is None else out)
        return np.negative(out, out=out) if negate else out

    return e


# sin' = cos, cos' = -sin, ...: order i of the weight at phase p is _TRIG_CYCLE[(p + i) % 4].
_TRIG_CYCLE = (_ufunc(np.sin), _ufunc(np.cos), _ufunc(np.sin, True), _ufunc(np.cos, True))


def _trig(phase: int) -> Tuple[Callable, ...]:
    return tuple(_TRIG_CYCLE[(phase + i) % 4] for i in range(MAX_ORDER + 1))


_BUILTINS = {
    wid: WeightFunction(id=wid, evaluators=evaluators, growth_bound=bound, negation_step=step)
    for wid, evaluators, bound, step in (
        ("one", _table((1.0,)), (1.0, 0), 0),
        ("x", _table((0.0, 1.0)), (1.0, 1), 0),
        ("x2", _table((0.0, 0.0, 1.0)), (2.0, 2), 0),
        ("x3", _table((0.0, 0.0, 0.0, 1.0)), (6.0, 3), 0),
        ("sin", _trig(0), (1.0, 0), 2),
        ("cos", _trig(1), (1.0, 0), 2),
        ("exp_neg_x2", _table((1.0,), a=1.0), (130.0, 0), 0),
    )
}

BUILTIN_IDS = tuple(sorted(_BUILTINS))


def builtin(weight_id: str) -> WeightFunction:
    """Look up a registered weight; raises UnknownWeight for anything else."""
    try:
        return _BUILTINS[weight_id]
    except KeyError:
        raise UnknownWeight(f"no builtin weight {weight_id!r}; known ids: {', '.join(BUILTIN_IDS)}") from None

