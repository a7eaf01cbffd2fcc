import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn.learn import LossSpec
from margsyn.polyapprox import (ApproxError, Interval, Polynomial, _alternation_extrema, approx_report,
                                bernstein, iterated_bernstein, remez_minimax)

from conftest import reference_alternation_extrema

logistic_loss = LossSpec.logistic().value


def de_casteljau(fvals, iv, x):
    """Independent evaluation of the Bernstein form, numerically stable."""
    u = (x - iv.a) / (iv.b - iv.a)
    beta = list(fvals)
    n = len(beta)
    for j in range(1, n):
        for i in range(n - j):
            beta[i] = beta[i] * (1 - u) + beta[i + 1] * u
    return beta[0]


def piecewise_linear(knots_t, knots_v):
    def f(x):
        return np.interp(np.asarray(x, dtype=np.float64), knots_t, knots_v)
    return f


@pytest.mark.parametrize("a, b", [(-5.0, math.inf), (-math.inf, 5.0), (-math.inf, math.inf), (-1e308, 1e308)],
                         ids=["b inf", "a -inf", "both infinite", "width overflows"])
def test_interval_refuses_what_a_float_cannot_hold(a, b):
    with pytest.raises(ApproxError, match=re.escape(f"need finite a, b and b - a, got [{a}, {b}]")):
        Interval(a, b)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan)], ids=["a nan", "b nan"])
def test_interval_refuses_a_nan_end(a, b):
    with pytest.raises(ApproxError, match=re.escape(f"need a < b, got [{a}, {b}]")):
        Interval(a, b)


def test_interval_takes_the_widest_finite_width():
    assert Interval(-8.9e307, 8.9e307).width == 1.78e308


class TestBernstein:
    def test_reproduces_linear(self):
        iv = Interval(-2.0, 3.0)
        f = lambda x: 1.5 * np.asarray(x) - 0.25
        for d in (1, 3, 7):
            p = bernstein(f, d, iv)
            assert p.coeffs[0] == pytest.approx(-0.25, abs=1e-12)
            assert p.coeffs[1] == pytest.approx(1.5, abs=1e-12)
            assert all(abs(c) < 1e-12 for c in p.coeffs[2:])

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_square_closed_form(self, d):
        # on [0,1] the degree-d approximant of x^2 is x^2 + x(1-x)/d
        p = bernstein(lambda x: np.asarray(x) ** 2, d, Interval(0.0, 1.0))
        want = [0.0, 1.0 / d, 1.0 - 1.0 / d]
        assert np.allclose(p.coeffs[:3], want, atol=1e-12)

    def test_square_degree_one_interpolates_endpoints(self):
        p = bernstein(lambda x: np.asarray(x) ** 2, 1, Interval(0.0, 1.0))
        assert np.allclose(p.coeffs, [0.0, 1.0], atol=1e-12)
        rep = approx_report(p, lambda x: np.asarray(x) ** 2)
        assert rep.max_abs_error == pytest.approx(0.25, abs=1e-6)  # at x = 1/2

    def test_degree_validation(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ApproxError):
            bernstein(np.exp, 0, iv)
        with pytest.raises(ApproxError):
            bernstein(np.exp, 31, iv)

    def test_non_finite_sample(self):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"), pytest.raises(ApproxError):
            bernstein(lambda x: np.log(np.asarray(x)), 3, Interval(-1.0, 1.0))

    def test_function_is_called_once_per_grid(self):
        # f takes the whole grid; a scalar result is refused, not retried point by point
        calls = []
        bernstein(lambda x: calls.append(np.shape(x)) or np.exp(x), 5, Interval(0.0, 1.0))
        assert calls == [(6,)]
        for method in (lambda f, iv: bernstein(f, 3, iv), lambda f, iv: remez_minimax(f, 3, iv),
                       lambda f, iv: approx_report(Polynomial((0.5,), iv), f)):
            with pytest.raises(ApproxError, match=r"function returned shape \(\) on a grid of shape"):
                method(lambda x: 0.5, Interval(0.0, 1.0))
        with pytest.raises(ApproxError, match="non-finite"):  # every grid is checked, the report's too
            approx_report(Polynomial((0.5,), Interval(0.0, 1.0)), lambda x: np.full_like(x, np.inf))

    @pytest.mark.parametrize("d", [1, 4, 10, 20, 30])
    def test_power_basis_matches_bernstein_form(self, d):
        iv = Interval(-5.0, 5.0)
        p = bernstein(logistic_loss, d, iv)
        nodes = iv.a + (iv.b - iv.a) * np.arange(d + 1) / d
        fvals = [float(logistic_loss(t)) for t in nodes]
        xs = np.linspace(iv.a, iv.b, 257)
        direct = np.array([de_casteljau(fvals, iv, x) for x in xs])
        scale = 1.0 + np.abs(direct)
        assert np.max(np.abs(p(xs) - direct) / scale) < 1e-9


@st.composite
def lipschitz_pl_functions(draw):
    """Random piecewise-linear functions with a known Lipschitz constant."""
    n_knots = draw(st.integers(3, 8))
    a = draw(st.floats(-3.0, -0.0).filter(lambda v: v <= 0.0))
    b = draw(st.floats(1.0, 4.0))
    knots_t = np.linspace(a, b, n_knots)
    knots_v = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n_knots)])
    slopes = np.diff(knots_v) / np.diff(knots_t)
    lip = float(np.max(np.abs(slopes))) if np.max(np.abs(slopes)) > 0 else 0.0
    return knots_t, knots_v, lip, Interval(float(a), float(b))


class TestCertificates:
    @given(lipschitz_pl_functions(), st.integers(1, 12))
    def test_error_certificate(self, fn_data, d):
        knots_t, knots_v, lip, iv = fn_data
        f = piecewise_linear(knots_t, knots_v)
        rep = approx_report(bernstein(f, d, iv), f)
        assert rep.max_abs_error <= 1.25 * lip * iv.width / math.sqrt(d) + 1e-12

    @given(lipschitz_pl_functions(), st.integers(1, 12))
    def test_coefficient_sum_certificate(self, fn_data, d):
        knots_t, knots_v, _, iv = fn_data
        f = piecewise_linear(knots_t, knots_v)
        rep = approx_report(bernstein(f, d, iv), f)
        sup = float(np.max(np.abs(knots_v)))
        assert rep.coeff_abs_sum <= sup * (1.0 + 2.0 / iv.width) ** d * 1.01 + 1e-12

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
           st.integers(1, 15))
    def test_smooth_derivative_certificate_on_unit_interval(self, a2, a1, a0, d):
        # quadratic f: f' is 2|a2|-Lipschitz, so error <= (3/(4 sqrt d)) * 2|a2|/sqrt(d)
        f = lambda x: a2 * np.asarray(x) ** 2 + a1 * np.asarray(x) + a0
        rep = approx_report(bernstein(f, d, Interval(0.0, 1.0)), f)
        assert rep.max_abs_error <= (3.0 / (4.0 * math.sqrt(d))) * 2.0 * abs(a2) / math.sqrt(d) + 1e-9


class TestIterated:
    def test_k1_equals_plain(self):
        iv = Interval(-5.0, 5.0)
        assert iterated_bernstein(logistic_loss, 4, 1, iv).coeffs == bernstein(logistic_loss, 4, iv).coeffs

    def test_error_decays_with_iterations(self):
        iv = Interval(-5.0, 5.0)
        errs = [approx_report(iterated_bernstein(logistic_loss, 4, k, iv), logistic_loss).max_abs_error
                for k in (1, 4, 9)]
        assert errs[2] < errs[1] < errs[0]

    def test_iters_validation(self):
        with pytest.raises(ApproxError):
            iterated_bernstein(np.exp, 3, 0, Interval(0.0, 1.0))


class TestRemez:
    def test_polynomial_fixed_point(self):
        f = lambda x: 0.3 * np.asarray(x) ** 2 - 1.2 * np.asarray(x) + 0.7
        p = remez_minimax(f, 4, Interval(-1.0, 2.0))
        assert approx_report(p, f).max_abs_error <= 1e-9

    def test_abs_degree_one(self):
        p = remez_minimax(np.abs, 1, Interval(-1.0, 1.0))
        assert p.coeffs[0] == pytest.approx(0.5, abs=1e-4)
        assert p.coeffs[1] == pytest.approx(0.0, abs=1e-4)
        assert approx_report(p, np.abs).max_abs_error == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("f,d,iv", [
        (np.exp, 5, Interval(-1.0, 1.5)),
        (np.sin, 6, Interval(-3.0, 2.0)),
        (logistic_loss, 4, Interval(-5.0, 5.0)),
    ])
    def test_beats_bernstein(self, f, d, iv):
        err_minimax = approx_report(remez_minimax(f, d, iv), f).max_abs_error
        err_plain = approx_report(bernstein(f, d, iv), f).max_abs_error
        err_iter = approx_report(iterated_bernstein(f, d, 9, iv), f).max_abs_error
        assert err_minimax <= err_plain + 1e-9
        assert err_minimax <= err_iter + 1e-9

    def test_equioscillation(self):
        iv = Interval(-5.0, 5.0)
        p = remez_minimax(logistic_loss, 4, iv)
        xs = iv.grid(20001)
        err = p(xs) - logistic_loss(xs)
        max_err = np.max(np.abs(err))
        # alternating extrema whose |error| all sit at the minimax level
        sign_changes = np.sum(np.diff(np.sign(err)) != 0)
        assert sign_changes >= 4 + 1
        mag = np.abs(err)
        interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
        is_peak = np.concatenate([[mag[0] >= mag[1]], interior, [mag[-1] >= mag[-2]]])
        peaks = mag[is_peak & (mag > 0.5 * max_err)]
        assert len(peaks) >= 6
        assert max(peaks) - min(peaks) <= 1e-3 * max_err


    # errors drawn from a few values, so that zeros of either sign, runs and ties are common
    @given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
                    | st.floats(-3.0, 3.0), max_size=60))
    def test_alternation_extrema_are_the_scan_of_the_grid(self, errors):
        err = np.array(errors, dtype=np.float64)
        assert _alternation_extrema(err) == reference_alternation_extrema(err)

    def test_alternation_extrema_on_the_exchange_grid(self):
        grid = np.linspace(-1.0, 1.0, 16385)
        err = np.cos(20.0 * grid) * 1e-3 + 1e-9 * grid
        err[::7] = 0.0
        assert _alternation_extrema(err) == reference_alternation_extrema(err)


class TestReport:
    def test_exact_polynomial_input(self):
        p = Polynomial((0.5, -1.0, 0.25), Interval(-2.0, 2.0))
        f = lambda x: 0.25 * np.asarray(x) ** 2 - np.asarray(x) + 0.5
        rep = approx_report(p, f)
        assert rep.max_abs_error <= 1e-9
        assert rep.grid_points >= 1001
        assert rep.coeff_abs_sum == pytest.approx(1.75)
