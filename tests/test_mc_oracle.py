"""Tests for the Monte Carlo oracle: exact variance transitions, path
reconstruction, and pathwise pricing."""

import math
import tracemalloc

import numpy as np
import pytest

from three_halves import mc_oracle
from three_halves.errors import InvalidParametersError
from three_halves.mc_oracle import (
    MCPriceResult,
    SimulationConfig,
    _floating_leg,
    _mean_se,
    _timer_payoff,
    mc_price,
    sample_variance_transition,
    simulate_paths,
)
from three_halves.model import ModelParams, coef_A, coef_C
from three_halves.pricers import EuropeanSpec, MomentSwapSpec, TimerOptionSpec
from three_halves import transforms as tr

from oracles import cir_transition_density_u


class TestSamplerDerivation:
    """The (df, nc, scale) triple must reproduce the CIR transition density."""

    def test_density_match_quantiles(self, snp_params):
        # Empirical quantile curve of draws vs numeric CDF of the density.
        rng = np.random.default_rng(991)
        u0 = 1.0 / snp_params.v0
        dt = 0.25
        draws = sample_variance_transition(np.full(200_000, u0), dt,
                                           snp_params, rng)
        us = np.linspace(1e-3, np.quantile(draws, 0.9995), 4000)
        pdf = np.array([cir_transition_density_u(0.0, u0, dt, u, snp_params)
                        for u in us])
        du = us[1] - us[0]
        cdf = np.concatenate([[0.0],
                              np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * du)])
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            emp = np.quantile(draws, q)
            theo = np.interp(q, cdf, us)
            assert emp == pytest.approx(theo, rel=0.01), q

    def test_small_dt_concentrates(self, snp_params):
        rng = np.random.default_rng(5)
        u0 = 1.0 / snp_params.v0
        draws = sample_variance_transition(np.full(50_000, u0), 1e-4,
                                           snp_params, rng)
        assert np.mean(draws) == pytest.approx(u0, rel=0.01)

    def test_small_epsilon_tracks_ode(self):
        # With eps -> 0 the transition degenerates to the deterministic ODE
        # step U' = U e^{-theta dt} + (kappa + eps^2)(1 - e^{-theta dt})/theta.
        params = ModelParams.with_constant_theta(
            kappa=2.0, theta=1.5, epsilon=0.05, rho=0.0, r=0.0, q=0.0,
            s0=100.0, v0=0.25)
        rng = np.random.default_rng(7)
        u0, dt = 4.0, 0.3
        draws = sample_variance_transition(np.full(100_000, u0), dt, params,
                                           rng)
        ode = (u0 * math.exp(-1.5 * dt)
               + (2.0 + 0.05**2) * (1 - math.exp(-1.5 * dt)) / 1.5)
        assert np.mean(draws) == pytest.approx(ode, rel=0.01)

    def test_exact_transition_matches_mean_formula(self, snp_params):
        # E[U'] = u/A + C df / (2A) from the noncentral chi-square moments
        rng = np.random.default_rng(17)
        u0, dt = 10.0, 0.5
        draws = sample_variance_transition(np.full(400_000, u0), dt,
                                           snp_params, rng)
        A = coef_A(snp_params.theta, 0.0, dt)
        C = coef_C(snp_params.theta, snp_params.epsilon, 0.0, dt)
        df = 4.0 + 4.0 * snp_params.kappa / snp_params.eps2
        want = u0 / A + C * df / (2.0 * A)
        assert np.mean(draws) == pytest.approx(want, rel=0.005)

    def test_invalid_inputs(self, snp_params):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidParametersError):
            sample_variance_transition(1.0, -0.1, snp_params, rng)
        with pytest.raises(InvalidParametersError):
            sample_variance_transition(-1.0, 0.1, snp_params, rng)


class TestSimulatePaths:
    def test_same_seed_bit_identical(self, snp_params):
        cfg = SimulationConfig(n_paths=2000, steps_per_year=64, seed=11)
        a = simulate_paths(0.5, [0.25, 0.5], snp_params, cfg)
        b = simulate_paths(0.5, [0.25, 0.5], snp_params, cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.v, b.v)

    def test_lambda_zero_equals_no_jumps(self, snp_params):
        from three_halves.model import JumpParams
        with_zero = ModelParams.with_constant_theta(
            kappa=22.84, theta=4.979, epsilon=8.56, v0=0.060025, rho=-0.99,
            s0=100.0, r=0.015, q=0.0,
            jumps=JumpParams(lam=0.0, mu=-0.1, sigma=0.2))
        cfg = SimulationConfig(n_paths=2000, steps_per_year=64, seed=3)
        a = simulate_paths(0.5, [0.5], snp_params, cfg)
        b = simulate_paths(0.5, [0.5], with_zero, cfg)
        assert np.array_equal(a.x, b.x)

    def test_monotone_quadratic_variation(self, snp_params):
        cfg = SimulationConfig(n_paths=500, steps_per_year=64, seed=9)
        ens = simulate_paths(1.0, [0.25, 0.5, 0.75, 1.0], snp_params, cfg)
        assert np.all(np.diff(ens.i, axis=1) >= 0.0)
        assert np.all(np.diff(ens.i_discrete, axis=1) >= 0.0)
        assert np.all(ens.v > 0.0)

    def test_martingale(self, snp_params):
        cfg = SimulationConfig(n_paths=200_000, steps_per_year=256, seed=13)
        ens = simulate_paths(0.5, [0.5], snp_params, cfg)
        disc = np.exp(ens.x[:, -1] - (snp_params.r - snp_params.q) * 0.5)
        mean = disc.mean() / snp_params.s0
        se = disc.std(ddof=1) / math.sqrt(len(disc)) / snp_params.s0
        assert abs(mean - 1.0) <= 3.0 * se

    def test_terminal_cf_matches_analytic(self, snp_params):
        cfg = SimulationConfig(n_paths=100_000, steps_per_year=256, seed=29)
        ens = simulate_paths(0.5, [0.5], snp_params, cfg)
        xt = ens.x[:, -1]
        for om in (0.5, 1.0, 2.0):
            samp = np.exp(1j * om * xt)
            est = samp.mean()
            se = np.sqrt((np.var(samp.real, ddof=1)
                          + np.var(samp.imag, ddof=1)) / len(xt))
            want = np.exp(1j * om * snp_params.x0 + tr._log_h_vec(
                0.0, snp_params.v0, 0.5, om, 0.0, snp_params)[0])
            assert abs(est - want) <= 3.0 * se, om

    def test_expected_qv_matches_cf_derivative(self, snp_params):
        from three_halves.pricers import expected_quadratic_variation
        cfg = SimulationConfig(n_paths=100_000, steps_per_year=256, seed=31)
        ens = simulate_paths(0.5, [0.5], snp_params, cfg)
        it = ens.i[:, -1]
        want = expected_quadratic_variation(snp_params, 0.5)
        se = it.std(ddof=1) / math.sqrt(len(it))
        assert abs(it.mean() - want) <= 3.0 * se

    def test_reciprocal_density_match(self, snp_params):
        # Empirical density of 1/V_{t'} vs the CIR transition density.
        cfg = SimulationConfig(n_paths=200_000, steps_per_year=64, seed=37)
        ens = simulate_paths(0.25, [0.25], snp_params, cfg)
        u = 1.0 / ens.v[:, -1]
        u0 = 1.0 / snp_params.v0
        qs = np.quantile(u, [0.01, 0.99])
        edges = np.linspace(qs[0], qs[1], 21)
        counts, _ = np.histogram(u, bins=edges)
        total = len(u)
        for i in range(20):
            grid = np.linspace(edges[i], edges[i + 1], 21)
            pdf = np.array([cir_transition_density_u(0.0, u0, 0.25, g,
                                                     snp_params)
                            for g in grid])
            prob = np.trapezoid(pdf, grid)
            if prob * total < 50:
                continue
            assert counts[i] / total == pytest.approx(prob, rel=0.05), i

    def test_euler_scheme_cross_validates(self, snp_params):
        exact_cfg = SimulationConfig(n_paths=100_000, steps_per_year=512,
                                     seed=41)
        euler_cfg = SimulationConfig(n_paths=100_000, steps_per_year=512,
                                     seed=43, scheme="euler_full_truncation")
        a = simulate_paths(0.25, [0.25], snp_params, exact_cfg)
        b = simulate_paths(0.25, [0.25], snp_params, euler_cfg)
        ma, mb = a.x[:, -1].mean(), b.x[:, -1].mean()
        sa = a.x[:, -1].std(ddof=1) / math.sqrt(a.n_paths)
        sb = b.x[:, -1].std(ddof=1) / math.sqrt(b.n_paths)
        # Euler carries O(dt) bias; allow a broad but bounded band
        assert abs(ma - mb) <= 6.0 * math.hypot(sa, sb) + 2e-3

    def test_schedule_validation(self, snp_params):
        cfg = SimulationConfig(n_paths=10, steps_per_year=64, seed=1)
        with pytest.raises(InvalidParametersError):
            simulate_paths(1.0, [0.5], snp_params, cfg)
        with pytest.raises(InvalidParametersError):
            simulate_paths(1.0, [], snp_params, cfg)


class TestMCPrice:
    def test_zero_strike_call_is_forward(self, snp_params):
        cfg = SimulationConfig(n_paths=50_000, steps_per_year=128, seed=51)
        spec = EuropeanSpec(strike=1e-6, maturity=0.5)
        res = mc_price(spec, snp_params, cfg)
        fwd = snp_params.s0 * math.exp(-snp_params.q * 0.5)
        assert abs(res.estimate - fwd) <= 3.0 * res.std_error + 1e-4

    def test_timer_huge_budget_is_european(self, timer_params):
        cfg = SimulationConfig(n_paths=50_000, steps_per_year=128, seed=53)
        t_spec = TimerOptionSpec(strike=100.0, mandatory_maturity=0.5,
                                 n_monitoring=10, variance_budget=50.0)
        e_spec = EuropeanSpec(strike=100.0, maturity=0.5)
        a = mc_price(t_spec, timer_params, cfg)
        b = mc_price(e_spec, timer_params, cfg)
        # the fine grids differ slightly, so compare statistically
        assert abs(a.estimate - b.estimate) <= 3.0 * math.hypot(
            a.std_error, b.std_error)

    def test_timer_reports_both_conventions(self, timer_params):
        cfg = SimulationConfig(n_paths=20_000, steps_per_year=128, seed=55)
        spec = TimerOptionSpec(strike=100.0, mandatory_maturity=1.0,
                               n_monitoring=12, variance_budget=0.05)
        res = mc_price(spec, timer_params, cfg)
        assert "discrete_estimate" in res.extras
        assert res.extras["discrete_std_error"] > 0.0

    def test_swap_floating_leg_variance(self, snp_params):
        # variance swap floating leg ~ E[I_T]/T for fine sampling
        cfg = SimulationConfig(n_paths=50_000, steps_per_year=256, seed=57)
        spec = MomentSwapSpec(maturity=0.5, n_periods=63, m=2)
        res = mc_price(spec, snp_params, cfg)
        from three_halves.pricers import expected_quadratic_variation
        approx = expected_quadratic_variation(snp_params, 0.5) / 0.5
        assert res.estimate == pytest.approx(approx, rel=0.05)

    def test_se_shrinks_with_paths(self, snp_params):
        spec = EuropeanSpec(strike=100.0, maturity=0.25)
        r1 = mc_price(spec, snp_params,
                      SimulationConfig(n_paths=20_000, steps_per_year=64,
                                       seed=61))
        r2 = mc_price(spec, snp_params,
                      SimulationConfig(n_paths=40_000, steps_per_year=64,
                                       seed=61))
        ratio = r1.std_error / r2.std_error
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)


class TestStreamedPricing:
    """``mc_price`` prices each chunk of paths as it is simulated and keeps
    only the per-path payoffs.  Small chunks (CHUNK_PATHS patched down)
    give several chunks at a test's path counts."""

    def test_estimates_equal_the_stacked_ensemble(self, snp_params,
                                                  jump_params, monkeypatch):
        monkeypatch.setattr(mc_oracle, "CHUNK_PATHS", 256)
        # three chunks, the last one partial
        cfg = SimulationConfig(n_paths=700, steps_per_year=64, seed=71)
        for params in (snp_params, jump_params):
            swap = MomentSwapSpec(maturity=0.5, n_periods=6, m=2,
                                  weight_kind="price_ratio", lag=1)
            ens = simulate_paths(0.5, swap.schedule_times(), params, cfg)
            got = mc_price(swap, params, cfg)
            assert (got.estimate, got.std_error) == _mean_se(
                _floating_leg(swap, ens, params))

            timer = TimerOptionSpec(strike=100.0, mandatory_maturity=0.5,
                                    n_monitoring=6, variance_budget=0.03)
            ens = simulate_paths(0.5, timer.schedule(), params, cfg)
            got = mc_price(timer, params, cfg)
            assert (got.estimate, got.std_error) == _mean_se(
                _timer_payoff(timer, ens, params, ens.i))
            assert (got.extras["discrete_estimate"],
                    got.extras["discrete_std_error"]) == _mean_se(
                _timer_payoff(timer, ens, params, ens.i_discrete))

            ens = simulate_paths(0.5, [0.5], params, cfg)
            s_t = np.exp(ens.x[:, -1])
            disc = math.exp(-params.r * 0.5)
            for is_call, payoff in ((True, np.maximum(s_t - 95.0, 0.0)),
                                    (False, np.maximum(95.0 - s_t, 0.0))):
                got = mc_price(EuropeanSpec(strike=95.0, maturity=0.5,
                                            is_call=is_call), params, cfg)
                assert (got.estimate, got.std_error) == _mean_se(
                    disc * payoff)

    def test_daily_swap_memory_flat_in_paths(self, snp_params, monkeypatch):
        # a 252-date swap: the peak traced memory at two chunks of paths
        # stays within 1.5x the peak at one
        monkeypatch.setattr(mc_oracle, "CHUNK_PATHS", 1024)
        spec = MomentSwapSpec(maturity=1.0, n_periods=252, m=2)
        peaks = []
        for chunks in (1, 2):
            cfg = SimulationConfig(n_paths=chunks * mc_oracle.CHUNK_PATHS,
                                   steps_per_year=252, seed=73)
            tracemalloc.start()
            try:
                mc_price(spec, snp_params, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
