"""Tests for the pricers: identities the model gives for free."""

from three_halves.pricers import (
    EuropeanSpec,
    TimerOptionSpec,
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
