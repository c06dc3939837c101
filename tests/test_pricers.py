"""Tests for the pricers: identities the model gives for free and
agreement with the Monte Carlo oracle."""

import pytest

from three_halves.mc_oracle import SimulationConfig, mc_price
from three_halves.pricers import (
    EuropeanSpec,
    MomentSwapSpec,
    TimerOptionSpec,
    fair_strike_weighted,
    price_european,
    price_timer_call,
)
from three_halves.quadrature import QuadratureConfig


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


class TestCorridorAgainstMonteCarlo:
    # The two corridor swaps of the benchmark: the lag-0 one sums Kummer's
    # series on the omega x v grid, the lag-1 one on single omega rows.
    @pytest.mark.parametrize("n_periods,lag", [(2, 0), (12, 1)])
    def test_within_three_standard_errors(self, snp_params, n_periods, lag):
        spec = MomentSwapSpec(1.0, n_periods, 2, "corridor", lag, 80.0,
                              120.0)
        price = fair_strike_weighted(spec, snp_params, QuadratureConfig())
        mc = mc_price(spec, snp_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=71))
        assert abs(price - mc.estimate) <= 3.0 * mc.std_error
