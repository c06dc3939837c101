"""Benchmark workloads: fixed product sets priced through the public API.

Each workload is a list of calls into ``three_halves.pricers``; one call
may price several products (the timer strikes share one kernel).  A seed
moves each strike and corridor bound by a whole offset drawn from
``JITTER``; seed ``CANONICAL_SEED`` uses no offset, which gives exactly the
products named in the workload table below.  Every product any seed can
produce has a stored reference in ``references.json`` (written by
``make_references.py``), so a run never needs a reference computed on the
fly.

Why these workloads:

* ``timer``: the 2-D Parseval timer price, whose (omega, eta, v') tensor
  puts the Bessel series at most of the time.
* ``corridor``: corridor variance swaps, dominated by Kummer M in a few
  large omega x v calls; the Bessel layer does little.
* ``strip``: the everyday calibration and swap mix.  Kummer M runs as about
  a thousand small calls, so per-call overhead shows.  The weekly (N=52)
  variance swap raises at this commit and stays in on purpose.
* ``smoke``: a European and an N=1 timer, for the benchmark's self-test only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from three_halves import pricers
from three_halves.model import ModelParams
from three_halves.pricers import EuropeanSpec, MomentSwapSpec, TimerOptionSpec

# The calibrated S&P-500 set and the timer-study variant (the tests'
# ``snp_params`` and ``timer_params`` fixtures).
PARAMS = {
    "snp": dict(kappa=22.84, theta=4.979, epsilon=8.56, v0=0.060025,
                rho=-0.99, s0=100.0, r=0.015, q=0.0),
    "timer": dict(kappa=22.84, theta=4.979, epsilon=8.56, v0=0.087,
                  rho=-0.5, s0=100.0, r=0.015, q=0.0),
}

CANONICAL_SEED = 0
# Whole offsets a seed adds to each strike and corridor bound.
JITTER = (-1, 0, 1)

TIMER_STRIKES = (90.0, 100.0, 110.0)
TIMER_MONITORING = 4
TIMER_BUDGET = 0.087

CORRIDOR_BOUNDS = (80.0, 120.0)
# (n_periods, lag) of the two corridor swaps.
CORRIDOR_SWAPS = ((2, 0), (12, 1))

STRIP_MATURITIES = (0.25, 0.5, 1.0, 2.0)
STRIP_STRIKES = (80.0, 90.0, 95.0, 100.0, 105.0, 110.0, 120.0)
# MomentSwapSpec fields (n_periods, m, weight_kind, lag) of the strip swaps,
# all with T = 1: variance N = 12/52/252, skew, gamma lag 0/1, self-quanto.
STRIP_SWAPS = (
    (12, 2, "constant", 0),
    (52, 2, "constant", 0),
    (252, 2, "constant", 0),
    (12, 3, "constant", 0),
    (12, 2, "price_ratio", 0),
    (12, 2, "price_ratio", 1),
    (12, 2, "terminal_price", 0),
)

WORKLOADS = ("timer", "corridor", "strip", "smoke")


def model_params(name: str) -> ModelParams:
    return ModelParams.with_constant_theta(**PARAMS[name])


@dataclass(frozen=True)
class Product:
    key: str
    spec: object


@dataclass(frozen=True)
class Call:
    """One call into the public pricer API."""

    pricer: str  # "european" | "timer" | "swap"
    params: str
    products: Tuple[Product, ...]


def product_key(params: str, spec) -> str:
    """Reference key of a product; names every field that sets its price."""
    if isinstance(spec, EuropeanSpec):
        return f"{params}/european/T={spec.maturity:g}/K={spec.strike:g}"
    if isinstance(spec, TimerOptionSpec):
        return (f"{params}/timer/T={spec.mandatory_maturity:g}"
                f"/N={spec.n_monitoring}/B={spec.variance_budget:g}"
                f"/K={spec.strike:g}")
    key = (f"{params}/swap/{spec.weight_kind}/T={spec.maturity:g}"
           f"/N={spec.n_periods}/m={spec.m}/lag={spec.lag}")
    if spec.weight_kind == "corridor":
        key += f"/L={spec.corridor_lower:g}/U={spec.corridor_upper:g}"
    return key


def make_call(pricer: str, params: str, specs) -> Call:
    return Call(pricer, params,
                tuple(Product(product_key(params, s), s) for s in specs))


def timer_specs(strikes, n_monitoring=TIMER_MONITORING):
    return [TimerOptionSpec(k, 1.0, n_monitoring, TIMER_BUDGET)
            for k in strikes]


def corridor_spec(n_periods, lag, lower, upper):
    return MomentSwapSpec(1.0, n_periods, 2, "corridor", lag, lower, upper)


def strip_swap_specs():
    return [MomentSwapSpec(1.0, n, m, kind, lag)
            for n, m, kind, lag in STRIP_SWAPS]


def calls(workload: str, seed: int) -> list:
    """The calls one pass over ``workload`` makes, in order."""
    rng = random.Random(seed)

    def jitter(x):
        return x if seed == CANONICAL_SEED else x + rng.choice(JITTER)

    if workload == "timer":
        strikes = [jitter(k) for k in TIMER_STRIKES]
        return [make_call("timer", "timer", timer_specs(strikes))]
    if workload == "corridor":
        lower, upper = (jitter(b) for b in CORRIDOR_BOUNDS)
        return [make_call("swap", "snp",
                          [corridor_spec(n, lag, lower, upper)])
                for n, lag in CORRIDOR_SWAPS]
    if workload == "strip":
        out = [make_call("european", "snp", [EuropeanSpec(jitter(k), t)])
               for t in STRIP_MATURITIES for k in STRIP_STRIKES]
        out += [make_call("swap", "snp", [s]) for s in strip_swap_specs()]
        return out
    if workload == "smoke":
        return [make_call("european", "snp", [EuropeanSpec(100.0, 1.0)]),
                make_call("timer", "timer", timer_specs([100.0], 1))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def jittered(base) -> list:
    """Every value a seed can draw for one base strike or bound."""
    return [base + d for d in JITTER]


def price_call(call: Call, params: ModelParams, cfg) -> list:
    """Price one call; returns one pricer result per product, in order."""
    specs = [p.spec for p in call.products]
    if call.pricer == "timer":
        return list(pricers.price_timer_grid(specs, params, cfg))
    if call.pricer == "european":
        return [pricers.price_european(specs[0], params, cfg)]
    if call.pricer == "swap":
        return [pricers.fair_strike_weighted(specs[0], params, cfg)]
    raise ValueError(f"unknown pricer {call.pricer!r}")
