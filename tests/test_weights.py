"""Weight registry: derivative tables verified by central differences and a hand-typed oracle."""

import numpy as np
import pytest

from fbmvar import OrderError, UnknownWeight, builtin
from fbmvar.weights import BUILTIN_IDS
from oracles import check_derivatives

GRID = np.linspace(-5.0, 5.0, 81)


def _poly(*coeffs):
    # Horner, coefficients in increasing degree order
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + c
        return out

    return f


def _const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), c)


def _neg(f):
    return lambda x: -f(np.asarray(x, dtype=np.float64))


def _bump(*coeffs):
    # p(x) * exp(-x^2)
    p = _poly(*coeffs)

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return p(x) * np.exp(-x * x)

    return f


_ZERO = _const(0.0)

# The derivative tables typed out by hand: (h, h', ..., h^(6)) per builtin.
# d^i/dx^i exp(-x^2) = (-1)^i H_i(x) exp(-x^2), H_i the physicists' Hermite polynomials.
HAND_TABLES = {
    "one": (_const(1.0),) + (_ZERO,) * 6,
    "x": (_poly(0.0, 1.0), _const(1.0)) + (_ZERO,) * 5,
    "x2": (_poly(0.0, 0.0, 1.0), _poly(0.0, 2.0), _const(2.0)) + (_ZERO,) * 4,
    "x3": (_poly(0.0, 0.0, 0.0, 1.0), _poly(0.0, 0.0, 3.0), _poly(0.0, 6.0), _const(6.0)) + (_ZERO,) * 3,
    "sin": (np.sin, np.cos, _neg(np.sin), _neg(np.cos), np.sin, np.cos, _neg(np.sin)),
    "cos": (np.cos, _neg(np.sin), _neg(np.cos), np.sin, np.cos, _neg(np.sin), _neg(np.cos)),
    "exp_neg_x2": (
        _bump(1.0),
        _bump(0.0, -2.0),
        _bump(-2.0, 0.0, 4.0),
        _bump(0.0, 12.0, 0.0, -8.0),
        _bump(12.0, 0.0, -48.0, 0.0, 16.0),
        _bump(0.0, -120.0, 0.0, 160.0, 0.0, -32.0),
        _bump(-120.0, 0.0, 720.0, 0.0, -480.0, 0.0, 64.0),
    ),
}

# signed zeros, tiny and large magnitudes, and a dense stretch of the bulk
ORACLE_GRID = np.concatenate([np.linspace(-6.0, 6.0, 241), [0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3]])

# empirical central-difference constants: truncation error <= C * step^2 on
# [-5, 5] plus a roundoff floor; C tracks max |h^{(i+2)}| / 6 over the grid
# and orders i <= 6 (the Gaussian bump's seventh derivative peaks near 1700)
FD_CONSTANT = {
    "one": 0.1,
    "x": 0.1,
    "x2": 0.1,
    "x3": 1.5,
    "sin": 0.2,
    "cos": 0.2,
    "exp_neg_x2": 320.0,
}


class TestBuiltins:
    def test_registry_contents(self):
        assert set(BUILTIN_IDS) == {"one", "x", "x2", "x3", "sin", "cos", "exp_neg_x2"}

    def test_unknown_weight(self):
        with pytest.raises(UnknownWeight):
            builtin("tanh")

    def test_one_derivatives_vanish(self):
        w = builtin("one")
        assert float(w.derivative(2)(17.3)) == 0.0
        assert np.all(w(GRID) == 1.0)

    def test_x2_second_derivative(self):
        assert float(builtin("x2").derivative(2)(3.0)) == 2.0

    def test_sin_third_derivative_at_zero(self):
        assert float(builtin("sin").derivative(3)(0.0)) == -1.0

    def test_derivative_order_guard(self):
        w = builtin("sin")
        with pytest.raises(OrderError):
            w.derivative(7)
        with pytest.raises(OrderError):
            w.derivative(-1)


class TestDerivativeTables:
    @pytest.mark.parametrize("wid", BUILTIN_IDS)
    def test_equal_to_hand_typed_table(self, wid):
        w = builtin(wid)
        assert w.max_order == len(HAND_TABLES[wid]) - 1 == 6
        for order, want in enumerate(HAND_TABLES[wid]):
            assert np.array_equal(w.derivative(order)(ORACLE_GRID), want(ORACLE_GRID)), (wid, order)

    @pytest.mark.parametrize("wid", BUILTIN_IDS)
    def test_central_difference_all_orders(self, wid):
        w = builtin(wid)
        step = 1e-4
        for order in range(1, w.max_order + 1):
            err = check_derivatives(w, order, GRID, step)
            assert err <= FD_CONSTANT[wid] * step**2 + 1e-9, (wid, order, err)

    def test_quadratic_exact_under_central_difference(self):
        err = check_derivatives(builtin("x2"), 1, np.array([-1.0, 0.0, 1.0]), 1e-5)
        assert err < 1e-8

    def test_sin_order_four(self):
        err = check_derivatives(builtin("sin"), 4, GRID, 1e-4)
        assert err < 1e-6

    def test_one_any_order_zero_error(self):
        for order in range(1, 7):
            assert check_derivatives(builtin("one"), order, GRID, 1e-4) == 0.0

    def test_order_out_of_range(self):
        with pytest.raises(OrderError):
            check_derivatives(builtin("x"), 7, GRID, 1e-4)
        with pytest.raises(OrderError):
            check_derivatives(builtin("x"), 0, GRID, 1e-4)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            check_derivatives(builtin("x"), 1, GRID, 0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_step_must_be_finite(self, step):
        with pytest.raises(ValueError, match="step"):
            check_derivatives(builtin("x"), 1, GRID, step)


class TestGrowthCertificates:
    @pytest.mark.parametrize("wid", BUILTIN_IDS)
    def test_growth_bound_holds_on_sweep(self, wid):
        w = builtin(wid)
        amp, deg = w.growth_bound
        x = np.concatenate([np.linspace(-50.0, 50.0, 2001), [-1e3, 1e3]])
        envelope = amp * (1.0 + np.abs(x) ** deg)
        for order in range(w.max_order + 1):
            assert np.all(np.abs(w.derivative(order)(x)) <= envelope + 1e-12), (wid, order)

    def test_bounded_smooth_have_degree_zero(self):
        for wid in ("sin", "cos", "exp_neg_x2"):
            assert builtin(wid).growth_bound[1] == 0
