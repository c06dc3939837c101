"""Transform-based pricing engine for the 3/2 stochastic volatility model."""

from .model import JumpParams, ModelParams, ThetaCurve, coef_A, coef_C
from .pricers import (
    EuropeanSpec,
    MomentSwapSpec,
    PriceResult,
    TimerOptionSpec,
    expected_quadratic_variation,
    fair_strike_weighted,
    price_european,
    price_timer_call,
    price_timer_grid,
)

__all__ = [
    "EuropeanSpec",
    "JumpParams",
    "ModelParams",
    "MomentSwapSpec",
    "PriceResult",
    "ThetaCurve",
    "TimerOptionSpec",
    "coef_A",
    "coef_C",
    "expected_quadratic_variation",
    "fair_strike_weighted",
    "price_european",
    "price_timer_call",
    "price_timer_grid",
]

__version__ = "0.1.0"
