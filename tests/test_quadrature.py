"""Tests for the quadrature layer."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from three_halves.errors import InvalidParametersError
from three_halves.quadrature import (
    QuadratureConfig,
    _cc_nodes_weights,
    fourier_invert_1d,
    integrate_semi_infinite,
    log_density_grid,
    omega_grid,
    parseval_contract,
    stable_complex_sum,
    stable_sum,
)


@pytest.fixture
def cfg():
    return QuadratureConfig()


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    def test_node_floor(self):
        with pytest.raises(InvalidParametersError):
            QuadratureConfig(v_nodes=4)

    def test_positive_tols(self):
        with pytest.raises(InvalidParametersError):
            QuadratureConfig(rel_tol=0.0)

    def test_timer_contour_guard(self):
        cfg = QuadratureConfig(damping_omega=-0.5)
        with pytest.raises(InvalidParametersError):
            cfg.require_timer_contour()
        QuadratureConfig().require_timer_contour()


class TestStableSum:
    def test_order_insensitive(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(scale=1e8, size=4000)
        a = stable_sum(vals)
        b = stable_sum(rng.permutation(vals))
        assert a == b

    def test_complex(self):
        vals = np.array([1 + 1j, 1e-18 - 1j, -1 + 0j])
        s = stable_complex_sum(vals)
        assert s.real == pytest.approx(1e-18, abs=0)


class TestClenshawCurtis:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_weights_integrate_polynomials(self, m):
        x, w = _cc_nodes_weights(m)
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
        assert np.dot(w, x**2) == pytest.approx(2.0 / 3.0, abs=1e-13)
        if m >= 8:
            assert np.dot(w, x**6) == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_nesting(self):
        x8, _ = _cc_nodes_weights(8)
        x4, _ = _cc_nodes_weights(4)
        assert np.allclose(x8[::2], x4)


class TestSemiInfinite:
    def test_exponential(self, cfg):
        val, err = integrate_semi_infinite(lambda v: np.exp(-v), cfg)
        assert abs(val - 1.0) < 1e-10
        assert err < 1e-8

    def test_gamma_density(self, cfg):
        k, th = 2.6236, 7.357
        def f(v):
            return v ** (k - 1) * np.exp(-v / th) / (math.gamma(k) * th**k)
        val, _ = integrate_semi_infinite(f, cfg)
        assert abs(val - 1.0) < 1e-8

    def test_complex_integrand(self, cfg):
        # int_0^inf e^{-(1-0.5i) v} dv = 1/(1-0.5i)
        val, _ = integrate_semi_infinite(lambda v: np.exp(-(1 - 0.5j) * v), cfg)
        assert abs(val - 1.0 / (1 - 0.5j)) < 1e-9

    def test_zero_integrand(self, cfg):
        val, err = integrate_semi_infinite(lambda v: np.zeros_like(v), cfg)
        assert val == 0.0 and err == 0.0

    def test_deterministic(self, cfg):
        f = lambda v: np.exp(-v) * np.sin(3 * v)
        assert integrate_semi_infinite(f, cfg) == integrate_semi_infinite(f, cfg)


class TestLogDensityGrid:
    def test_lognormal_mass(self, cfg):
        mu, s = -2.8, 0.5
        def logd(v):
            return -((np.log(v) - mu) ** 2) / (2 * s * s) - np.log(
                v * s * math.sqrt(2 * math.pi))
        nodes, w = log_density_grid(logd, cfg, n=200)
        mass = float(np.dot(w, np.exp(logd(nodes))))
        assert abs(mass - 1.0) < 1e-8


class TestFourierInvert1D:
    def test_black_scholes_degenerate_check(self, cfg):
        # Deterministic-variance (lognormal) CF against the closed form.
        s0, k, r, sigma, t = 100.0, 95.0, 0.02, 0.25, 0.75
        x0 = math.log(s0)

        def cf(w):
            return np.exp(1j * w * (x0 + (r - 0.5 * sigma**2) * t)
                          - 0.5 * w * w * sigma * sigma * t)

        def payoff(w):
            return -k ** (1.0 - 1j * w) / (1j * w + w * w)

        val = math.exp(-r * t) * fourier_invert_1d(cf, payoff, cfg)
        d1 = (math.log(s0 / k) + (r + sigma**2 / 2) * t) / (sigma * math.sqrt(t))
        d2 = d1 - sigma * math.sqrt(t)
        bs = s0 * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d2)
        assert abs(val - bs) < 1e-6

    def test_zero_payoff(self, cfg):
        val = fourier_invert_1d(lambda w: np.exp(-w * w), lambda w: 0.0 * w, cfg)
        assert val == 0.0

    def test_diagnostics(self, cfg):
        val, diag = fourier_invert_1d(
            lambda w: np.exp(-0.1 * w * w), lambda w: np.ones_like(w), cfg,
            with_diagnostics=True)
        assert diag["err_estimate"] < 1e-10
        assert diag["tail_estimate"] < 1e-12


class TestParsevalContract:
    def test_folded_gaussian(self, cfg):
        # J(w) = exp(-w_R^2 / 2) on the folded omega axis: the whole line
        # integrates to sqrt(2 pi), times the 1/(4 pi^2) prefactor.
        grid = omega_grid(cfg)
        val, err, diag = parseval_contract(
            grid, np.exp(-0.5 * grid.omega.real**2), cfg)
        want = math.sqrt(2.0 * math.pi) / (4.0 * math.pi**2)
        assert val == pytest.approx(want, rel=1e-12)
        # the nested half-order rule is a conservative error proxy
        assert abs(val - want) <= err < 1e-6
        assert diag["omega_tail"] < 1e-12
