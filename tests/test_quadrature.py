"""Tests for the quadrature layer."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from three_halves import pricers
from three_halves import transforms as tr
from three_halves.errors import (
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from three_halves.quadrature import (
    FIRST_BATCH,
    MAX_PANEL,
    OMEGA_LIMIT,
    PANEL_NODES,
    QuadratureConfig,
    _cc_nodes_weights,
    _panels,
    fourier_invert_1d,
    log_density_grid,
    omega_integral,
)

from oracles import (
    integrate_semi_infinite,
    omega_integral_panel_by_panel,
    stable_complex_sum,
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
        # The call and timer payoff transforms need Im(omega) < -1.
        for damping in (-0.5, -1.0):
            with pytest.raises(InvalidParametersError, match="damping_omega"):
                QuadratureConfig(damping_omega=damping)
        QuadratureConfig(damping_omega=-1.01)


class TestStableSum:
    def test_order_insensitive(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(scale=1e8, size=(4000, 2)) @ np.array([1.0, 1j])
        a = stable_complex_sum(vals)
        b = stable_complex_sum(rng.permutation(vals))
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
        nodes, w = log_density_grid(logd, dataclasses.replace(cfg,
                                                              v_nodes=200))
        mass = float(np.dot(w, np.exp(logd(nodes))))
        assert abs(mass - 1.0) < 1e-8

    def test_one_rule_per_leading_index(self, cfg):
        # Densities stacked on a leading axis get each its own rule, the
        # one it gets alone, bit for bit.
        def logd(v, mu):
            return -((np.log(v) - mu) ** 2) / 0.5 - np.log(v)
        mus = np.array([[-2.8], [0.5], [6.0]])
        nodes, w = log_density_grid(lambda v: logd(v, mus), cfg)
        assert nodes.shape == w.shape == (3, cfg.v_nodes)
        for i, mu in enumerate(mus[:, 0]):
            alone = log_density_grid(lambda v: logd(v, mu), cfg)
            assert np.array_equal(nodes[i], alone[0])
            assert np.array_equal(w[i], alone[1])

    @pytest.mark.parametrize("n", [4, 12, 52])
    def test_stacked_scan_matches_per_date_rules(self, cfg, timer_params,
                                                 n):
        # The timer kernel scans all its inner dates' densities at once
        # (one _log_density_v_vec call up to 22 dates); each date's rule
        # is the one its own scan gives, within 1e-15.
        p = timer_params
        kernel = pricers._TimerKernel(1.0, n, p, cfg)
        for j in range(1, n):
            want = log_density_grid(lambda vp: tr._log_density_v_vec(
                0.0, p.v0, kernel.T * j / kernel.N, vp, p), cfg)
            cols = kernel.columns(slice(j - 1, j))
            for got, ref in zip((kernel.nodes[cols], kernel.w[cols]), want):
                assert np.max(np.abs(got - ref) / ref) <= 1e-15, j


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

        val = math.exp(-r * t) * fourier_invert_1d(cf, payoff, cfg)[0]
        d1 = (math.log(s0 / k) + (r + sigma**2 / 2) * t) / (sigma * math.sqrt(t))
        d2 = d1 - sigma * math.sqrt(t)
        bs = s0 * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d2)
        assert abs(val - bs) < 1e-6

    def test_zero_payoff(self, cfg):
        val, diag = fourier_invert_1d(lambda w: np.exp(-w * w),
                                      lambda w: 0.0 * w, cfg)
        assert val == 0.0
        assert diag["omega_nodes"] == FIRST_BATCH * PANEL_NODES

    def test_diagnostics(self, cfg):
        # (1/pi) int_0^inf Re e^{-0.1 (w_R - 1.5i)^2} dw_R is half the
        # whole line's sqrt(10 pi) / pi, and the integrand is spent within
        # the first batch.
        val, diag = fourier_invert_1d(
            lambda w: np.exp(-0.1 * w * w), lambda w: np.ones_like(w), cfg)
        want = 0.5 * math.sqrt(10.0 / math.pi)
        assert abs(val - want) <= diag["err_estimate"] < 1e-6
        assert diag["omega_tail"] < 1e-12
        assert diag["omega_cutoff"] == _panels(0, FIRST_BATCH)[0][-1, -1]
        assert diag["damping"] == cfg.damping_omega
        # one batch, which evaluated the first full-width panel too
        assert diag["omega_batches"] == 1
        assert diag["omega_evaluated"] == (FIRST_BATCH + 1) * PANEL_NODES


def _gaussian(sigma):
    """e^{-w_R^2 / (2 sigma^2)} on the contour; its half-line integral is
    sigma sqrt(pi / 2)."""
    return lambda w: np.exp(-0.5 * (w.real / sigma) ** 2)


def _panel_share(sigma, lo):
    """Integral of _gaussian(sigma) over the 24-wide panel from lo."""
    return sigma * math.sqrt(math.pi / 2.0) * (
        math.erfc(lo / (sigma * math.sqrt(2.0)))
        - math.erfc((lo + MAX_PANEL) / (sigma * math.sqrt(2.0))))


class TestOmegaIntegral:
    # With sigma = 20 the value is 25.07, so a panel is spent once its
    # share is at most rel_tol * 25.07 = 2.5e-7: the panel from 127.75 is
    # (4.2e-9), the one from 103.75 is not (5.3e-6).
    SIGMA, CUT = 20.0, 151.75

    def test_folded_gaussian(self, cfg):
        val, err, diag = omega_integral(_gaussian(self.SIGMA), cfg, -1.5,
                                        1.0)
        want = self.SIGMA * math.sqrt(math.pi / 2.0)
        assert val == pytest.approx(want, rel=1e-12)
        # the nested 9-node rule is a conservative error proxy
        assert abs(val - want) <= err < 1e-6
        assert diag["omega_cutoff"] == self.CUT
        thresh = cfg.rel_tol * want
        assert _panel_share(self.SIGMA, self.CUT - MAX_PANEL) <= thresh
        assert _panel_share(self.SIGMA, self.CUT - 2 * MAX_PANEL) > thresh
        assert diag["omega_tail"] == pytest.approx(
            _panel_share(self.SIGMA, self.CUT - MAX_PANEL), rel=1e-6)
        assert diag["omega_nodes"] == diag["omega_panels"] * PANEL_NODES

    def test_every_component_must_be_spent(self, cfg):
        # A narrow Gaussian is spent in the first batch; stacked with the
        # wide one it runs as far as the wide one alone.
        narrow, wide = _gaussian(1.0), _gaussian(self.SIGMA)
        val, err, diag = omega_integral(
            lambda w: np.stack([narrow(w), wide(w)]), cfg, -1.5, 1.0)
        assert val.shape == err.shape == diag["omega_tail"].shape == (2,)
        assert omega_integral(narrow, cfg, -1.5, 1.0)[2][
            "omega_cutoff"] < self.CUT
        assert diag["omega_cutoff"] == self.CUT
        assert val[0] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_base_counts_toward_the_value(self, cfg):
        # The relative test is against the product's value, so a part
        # outside the integral a thousand times larger stops it earlier.
        big = 1e3 * self.SIGMA
        diag = omega_integral(_gaussian(self.SIGMA), cfg, -1.5, 1.0,
                              base=big)[2]
        assert diag["omega_cutoff"] < self.CUT

    def test_panels_reuse_the_grid(self, cfg):
        # A later pass on the grid an earlier one chose: one call, the same
        # nodes, no stopping test.
        calls = []

        def f(w):
            calls.append(w.size)
            return _gaussian(self.SIGMA)(w)
        val, _, diag = omega_integral(f, cfg, -1.5, 1.0)
        calls.clear()
        again, _, again_diag = omega_integral(f, cfg, -1.5, 1.0,
                                              panels=diag["omega_panels"])
        assert calls == [diag["omega_nodes"]]
        assert again == pytest.approx(val, rel=1e-14)
        assert (again_diag["omega_batches"], again_diag["omega_evaluated"]
                ) == (1, diag["omega_nodes"])

    def test_not_decaying_raises(self, cfg):
        seen = []

        def flat(w):
            seen.append(w.real.max())
            return np.ones_like(w)
        with pytest.raises(QuadratureNonConvergenceError,
                           match="last panel still contributes"):
            omega_integral(flat, cfg, -1.5, 1.0)
        assert max(seen) <= OMEGA_LIMIT < max(seen) + MAX_PANEL

    def test_not_finite_raises(self, cfg):
        with pytest.raises(ThreeHalvesError, match="not finite"):
            omega_integral(lambda w: np.full(w.shape, np.nan), cfg, -1.5,
                           1.0)


# Integrands whose stops span the rule: within the doubling panels, at the
# first full-width panel, and tails of one to about forty panels, some of
# several batches.  Each maps contour points to values elementwise, so its
# values do not depend on the batch a point is evaluated in.
BATCH_CASES = {
    **{f"gaussian_{sigma:g}": _gaussian(sigma)
       for sigma in (0.5, 5.0, 10.0, 20.0, 80.0)},
    **{f"exp_{a:g}": (lambda a: lambda w: np.exp(-a * w.real))(a)
       for a in (1.0, 0.2, 0.02)},
    "inverse_quartic": lambda w: 1.0 / (1.0 + w.real ** 2) ** 2,
    "decaying_cosine": lambda w: np.exp(-w.real / 20.0) * np.cos(w.real),
    "gaussian_cosine": lambda w: (np.exp(-(w.real / 30.0) ** 2)
                                  * np.cos(3.0 * w.real)),
    "complex_chirp": lambda w: np.exp(5j * w - w * w / 800.0),
    "components": lambda w: np.stack([_gaussian(1.0)(w), _gaussian(20.0)(w),
                                      _gaussian(60.0)(w),
                                      np.exp(-w.real / 10.0)]),
}


class TestOmegaBatches:
    """The rule evaluates the doubling panels and the first full-width
    panel in one batch, then tail batches sized from the measured decay;
    it must sum exactly the panels, in the same sums, as the rule that
    evaluates one panel per batch after the doubling panels
    (``oracles.omega_integral_panel_by_panel``)."""

    @pytest.mark.parametrize("base", [0.0, 1e3])
    @pytest.mark.parametrize("name", list(BATCH_CASES))
    def test_same_panels_and_bits_as_panel_by_panel(self, cfg, name, base):
        f = BATCH_CASES[name]
        val, err, diag = omega_integral(f, cfg, -1.5, 1.0, base=base)
        want, want_err, ref = omega_integral_panel_by_panel(f, cfg, -1.5,
                                                            1.0, base=base)
        assert np.array_equal(val, want) and np.array_equal(err, want_err)
        assert diag["omega_panels"] == ref["omega_panels"]
        assert diag["omega_cutoff"] == ref["omega_cutoff"]
        assert np.array_equal(diag["omega_tail"], ref["omega_tail"])
        assert diag["omega_nodes"] == diag["omega_panels"] * PANEL_NODES

    @pytest.mark.parametrize("name", list(BATCH_CASES))
    def test_evaluates_at_most_half_again(self, cfg, name):
        # A tail batch holds at most half the panels summed before it, so
        # the rule evaluates at most one and a half times the nodes it
        # sums, plus the first full-width panel when the doubling panels
        # suffice.
        diag = omega_integral(BATCH_CASES[name], cfg, -1.5, 1.0)[2]
        assert (diag["omega_evaluated"]
                <= 1.5 * diag["omega_nodes"] + PANEL_NODES)
        assert diag["omega_evaluated"] % PANEL_NODES == 0

    @pytest.mark.parametrize("sigma, batches, evaluated", [
        (0.5, 1, FIRST_BATCH + 1), (5.0, 1, FIRST_BATCH + 1),
        (20.0, 2, FIRST_BATCH + 5)])
    def test_batches(self, cfg, sigma, batches, evaluated):
        # A Gaussian spent within the doubling panels or at the first
        # full-width panel takes one batch; the sigma = 20 one, spent at
        # omega_R = 151.75 (12 panels), takes one tail batch of 4 panels.
        diag = omega_integral(_gaussian(sigma), cfg, -1.5, 1.0)[2]
        assert diag["omega_batches"] == batches
        assert diag["omega_evaluated"] == evaluated * PANEL_NODES

    @pytest.mark.parametrize("sigma", [0.5, 10.0])
    def test_not_finite_past_the_stop_still_prices(self, cfg, sigma):
        # The panels a batch evaluates past the one where the rule stops
        # are never read: an integrand that is NaN there prices as the
        # clean one does.
        clean = omega_integral(_gaussian(sigma), cfg, -1.5, 1.0)
        cut = clean[2]["omega_cutoff"]
        assert clean[2]["omega_evaluated"] > clean[2]["omega_nodes"]

        def f(w):
            return np.where(w.real <= cut, _gaussian(sigma)(w), np.nan)
        val, err, diag = omega_integral(f, cfg, -1.5, 1.0)
        assert (val, err) == clean[:2]
        assert diag == clean[2]

    @pytest.mark.parametrize("sigma", [0.5, 10.0])
    def test_raising_past_the_stop_still_prices(self, cfg, sigma):
        # An integrand may raise on panels past the stop (a corridor's v
        # lattice past its node cap): the batch that raised is evaluated
        # again one panel a batch, as the panel-by-panel rule evaluates
        # it, so the integrand raises once and prices as the clean one.
        clean = omega_integral(_gaussian(sigma), cfg, -1.5, 1.0)
        cut = clean[2]["omega_cutoff"]
        assert clean[2]["omega_evaluated"] > clean[2]["omega_nodes"]
        calls, raised = [], []  # nodes per call; the calls that raised

        def f(w):
            calls.append(w.size)
            if w.real.max() > cut:
                raised.append(len(calls) - 1)
                raise QuadratureNonConvergenceError("past the stop")
            return _gaussian(sigma)(w)
        val, err, diag = omega_integral(f, cfg, -1.5, 1.0)
        assert (val, err) == clean[:2]
        for key in ("omega_panels", "omega_nodes", "omega_cutoff"):
            assert diag[key] == clean[2][key]
        assert len(raised) == 1
        assert diag["omega_batches"] == len(calls)
        assert diag["omega_evaluated"] == sum(calls)
        # the retry: the doubling panels if the first batch raised, then
        # one panel a batch
        retry = calls[raised[0] + 1:]
        assert retry[0] == (FIRST_BATCH if raised[0] == 0 else 1) * PANEL_NODES
        assert retry[1:] == [PANEL_NODES] * (len(retry) - 1)

    def test_raising_on_a_summed_panel_raises(self, cfg):
        # The sigma = 20 Gaussian sums the panel from 103.75: an integrand
        # that raises there raises from the rule, with its own message.
        def f(w):
            if w.real.max() > 110.0:
                raise QuadratureNonConvergenceError("raised past 110")
            return _gaussian(20.0)(w)
        with pytest.raises(QuadratureNonConvergenceError,
                           match="raised past 110"):
            omega_integral(f, cfg, -1.5, 1.0)

    def test_not_finite_in_a_tail_panel_raises(self, cfg):
        # Each tail panel is checked as it is summed: the sigma = 20
        # Gaussian sums the panel from 103.75 in its tail batch.
        def f(w):
            return np.where(w.real <= 110.0, _gaussian(20.0)(w), np.nan)
        with pytest.raises(ThreeHalvesError,
                           match=r"not finite on omega_R in \[103.75, 127.75\]"):
            omega_integral(f, cfg, -1.5, 1.0)

    def test_no_decay_means_one_panel_a_batch(self, cfg):
        # A tail that does not decay gives no rate to size a batch from.
        sizes = []

        def flat(w):
            sizes.append(w.size)
            return np.ones_like(w)
        with pytest.raises(QuadratureNonConvergenceError):
            omega_integral(flat, cfg, -1.5, 1.0)
        assert sizes[0] == (FIRST_BATCH + 1) * PANEL_NODES
        assert set(sizes[1:]) == {PANEL_NODES}
