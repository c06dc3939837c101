"""Tests for the pricers: identities the model gives for free, the moment
primitive, converged reference prices and agreement with the Monte Carlo
oracle."""

import math

import numpy as np
import pytest

import three_halves
from three_halves import pricers
from three_halves.errors import QuadratureNonConvergenceError
from three_halves.mc_oracle import (
    SimulationConfig,
    _floating_leg,
    _mean_se,
    mc_price,
    simulate_paths,
)
from three_halves.pricers import (
    MOMENT_RADIUS,
    EuropeanSpec,
    MomentSwapSpec,
    TimerOptionSpec,
    _cauchy_moment,
    fair_strike_weighted,
    price_european,
    price_timer_call,
)
from three_halves.quadrature import QuadratureConfig


@pytest.fixture(scope="module")
def swap_price(snp_params):
    """Fair strike on ``snp_params`` with the default config, priced once
    per spec for all the tests of this module."""
    cache = {}

    def price(spec):
        if spec not in cache:
            cache[spec] = fair_strike_weighted(spec, snp_params,
                                               QuadratureConfig())
        return cache[spec]
    return price


def test_every_exported_name_resolves():
    for name in three_halves.__all__:
        assert getattr(three_halves, name) is not None, name


class TestTimerIdentities:
    def test_huge_budget_is_european(self, timer_params):
        # With a budget the quadratic variation never reaches, the timer
        # call is exercised at the mandatory maturity: a European call at
        # T.  The default contour choice takes the complement contour here,
        # whose kernel sums the Bessel series of the exact date on the
        # (omega, eta) x v' tensor.
        cfg = QuadratureConfig()
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 2, 10.0),
                                 timer_params, cfg)
        european = price_european(EuropeanSpec(100.0, 1.0), timer_params,
                                  cfg)
        assert timer.diagnostics["contour"] == "complement"
        assert abs(timer.price - european) <= timer.err_estimate

    @pytest.mark.parametrize("budget", [0.087, 10.0])
    def test_one_date_is_european(self, timer_params, budget):
        # With N = 1 the only stopping date is the maturity, whatever the
        # budget: the kernel's two terms cancel and the European base at T
        # is the whole price, on either contour.
        cfg = QuadratureConfig()
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 1, budget),
                                 timer_params, cfg)
        european = price_european(EuropeanSpec(100.0, 1.0), timer_params,
                                  cfg)
        assert abs(timer.price - european) <= timer.err_estimate

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the eta truncation at 240 dominates the timer error "
        "and is not in err_estimate, so the contours differ by 1.4e-3 "
        "against an estimate of 1e-4"))
    def test_contours_agree(self, timer_params, monkeypatch):
        # Both contours are valid at B = 0.5, the switch itself; each is
        # forced by moving the switch to one side of the budget.  Were the
        # forcing lost, both prices would come from one contour, agree, and
        # fail the strict xfail.
        spec = TimerOptionSpec(100.0, 1.0, 2, 0.5)
        cfg = QuadratureConfig()
        prices = []
        for switch in (math.inf, 0.0):
            monkeypatch.setattr(pricers, "TIMER_CONTOUR_SWITCH_B", switch)
            prices.append(price_timer_call(spec, timer_params, cfg))
        direct, complement = prices
        assert abs(direct.price - complement.price) <= (
            direct.err_estimate + complement.err_estimate)


class TestTimerAgainstMonteCarlo:
    def test_direct_contour_within_three_standard_errors(self,
                                                         timer_params):
        # The benchmark's timer path: four dates, a budget below the
        # switch, so the direct contour with three exact timerlets.
        spec = TimerOptionSpec(100.0, 1.0, 4, 0.087)
        timer = price_timer_call(spec, timer_params, QuadratureConfig())
        mc = mc_price(spec, timer_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=29))
        z = (timer.price - mc.estimate) / mc.std_error
        assert timer.diagnostics["contour"] == "direct"
        assert abs(z) <= 3.0, (
            f"{timer.price} vs MC {mc.estimate} +- {mc.std_error}: z = {z:.2f}")


class TestCauchyMoment:
    MU, SIGMA = 0.4, 0.2

    def gaussian_cf(self, phi):
        return np.exp(1j * self.MU * phi - 0.5 * self.SIGMA**2 * phi * phi)

    @pytest.mark.parametrize("conj_symmetric", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gaussian_moments(self, m, conj_symmetric):
        mu, s2 = self.MU, self.SIGMA**2
        exact = {1: mu, 2: mu * mu + s2, 3: mu**3 + 3.0 * mu * s2}[m]
        got = complex(_cauchy_moment(m, self.gaussian_cf, conj_symmetric))
        # Eight nodes leave aliasing and roundoff of a few 1e-12 here.
        assert abs(got - exact) <= 1e-11 * abs(exact)

    def test_independent_functions_on_trailing_axes(self):
        mus = np.array([0.1, 0.4, 0.7])
        got = _cauchy_moment(1, lambda p: np.exp(1j * p[:, None] * mus),
                             True)
        np.testing.assert_allclose(got.real, mus, rtol=1e-11)

    def test_pole_inside_the_circle_raises(self):
        def pole(phi):
            return 1.0 / (1.0 - 2.0 * phi / MOMENT_RADIUS)
        with pytest.raises(QuadratureNonConvergenceError):
            _cauchy_moment(2, pole, False)


# Converged references of the benchmark's swaps (bench/references.json),
# T = 1 on snp_params: (n_periods, m, weight_kind, lag[, lower, upper]).
REFERENCES = [
    ((12, 2, "constant", 0), 0.0862245211228722),
    ((52, 2, "constant", 0), 0.08387024719928397),
    ((252, 2, "constant", 0), 0.0830358894997792),
    ((12, 3, "constant", 0), -0.011893425896997321),
    ((12, 2, "price_ratio", 0), 0.07234626683709036),
    ((12, 2, "price_ratio", 1), 0.08007474267629489),
    ((12, 2, "terminal_price", 0), 0.07284414896816896),
    ((2, 2, "corridor", 0, 80.0, 120.0), 0.018579535610086066),
    ((12, 2, "corridor", 1, 80.0, 120.0), 0.062265447900503944),
]


class TestConvergedReferences:
    @pytest.mark.parametrize(
        "fields,ref", REFERENCES,
        ids=["-".join(map(str, f[:4])) for f, _ in REFERENCES])
    def test_within_one_in_a_million(self, swap_price, fields, ref):
        price = swap_price(MomentSwapSpec(1.0, *fields))
        assert abs(price - ref) <= 1e-6 * abs(ref)


class TestCorridorAgainstMonteCarlo:
    # The two corridor swaps of the benchmark: the lag-0 one sums Kummer's
    # series on the omega x v grid, the lag-1 one on single omega rows.
    @pytest.mark.parametrize("n_periods,lag", [(2, 0), (12, 1)])
    def test_within_three_standard_errors(self, snp_params, swap_price,
                                          n_periods, lag):
        spec = MomentSwapSpec(1.0, n_periods, 2, "corridor", lag, 80.0,
                              120.0)
        mc = mc_price(spec, snp_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=71))
        assert abs(swap_price(spec) - mc.estimate) <= 3.0 * mc.std_error


# Monte Carlo floating legs: every swap on one schedule shares one ensemble,
# simulated in pieces so the 252-date arrays stay small.
MC_PATHS, MC_PIECE, MC_SEED = 40_000, 10_000, 83
MC_SCHEDULES = {n: [MomentSwapSpec(1.0, n, m) for m in (2, 3)]
                for n in (4, 12, 20, 52, 252)}
MC_SCHEDULES[12] += [MomentSwapSpec(1.0, 12, 2, "price_ratio", 0),
                     MomentSwapSpec(1.0, 12, 2, "price_ratio", 1),
                     MomentSwapSpec(1.0, 12, 2, "terminal_price")]
MC_SPECS = [spec for specs in MC_SCHEDULES.values() for spec in specs]


@pytest.fixture(scope="module")
def mc_leg(snp_params):
    """Floating-leg mean and standard error per spec, one shared ensemble
    per schedule."""
    cache = {}

    def leg(spec):
        n = spec.n_periods
        if n not in cache:
            schedule = spec.schedule_times()
            parts = {s: [] for s in MC_SCHEDULES[n]}
            for piece in range(MC_PATHS // MC_PIECE):
                ens = simulate_paths(1.0, schedule, snp_params,
                                     SimulationConfig(n_paths=MC_PIECE,
                                                      steps_per_year=256,
                                                      seed=MC_SEED + piece))
                for s in parts:
                    parts[s].append(_floating_leg(s, ens, snp_params))
            cache[n] = {s: _mean_se(np.concatenate(p))
                        for s, p in parts.items()}
        return cache[n][spec]
    return leg


class TestSwapsAgainstMonteCarlo:
    @pytest.mark.parametrize(
        "spec", MC_SPECS,
        ids=[f"{s.weight_kind}-N{s.n_periods}-m{s.m}-lag{s.lag}"
             for s in MC_SPECS])
    def test_within_three_standard_errors(self, swap_price, mc_leg, spec):
        mean, se = mc_leg(spec)
        assert abs(swap_price(spec) - mean) <= 3.0 * se
