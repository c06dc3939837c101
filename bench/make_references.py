"""Converged reference prices for every product a benchmark seed can draw.

Run from the root of a source checkout (about 10 minutes, under 1 GB):

    python3 bench/make_references.py

and commit the ``bench/references.json`` it writes.  Each product is priced
at a tightened configuration (``value``) and again with each tightened axis
loosened by one step; ``ref_err`` is the largest of those changes, an
estimate of the reference's own error.  ``default_value`` is the price at
the default configuration, and ``resolves_default_err`` says whether
``ref_err`` is below a tenth of ``|default_value - value|``, that is,
whether the reference is good enough to measure the default price's error.

Methods, by product family:

* European calls: the Fourier inversion with doubled nodes and truncation.
* Timer calls: the truncation of the eta axis dominates (240 -> 960 moves
  the N=4 price by about 8e-3, 960 -> 1920 by about 5e-5), so the
  reference raises it to 1920 and the ladder loosens it to 960.  The kernel
  is built in eta chunks so the (omega, eta, v') tensor stays small; the
  chunked contraction is checked against ``price_timer_grid`` at the
  default configuration.
* Moment swaps: the pricers take phi-derivatives by central differences
  with step ``PHI_STEP`` = 1e-3, whose roundoff limits them to about 1e-5
  relative.  In this process only, the reference raises the step to 0.04
  (two-level Richardson, so the truncation error is O(h^4)) and
  ``v_nodes`` to 192, where the transition grids cap; the ladder halves the
  step and loosens ``v_nodes`` to 128.
* Corridor swaps also widen the omega contour, through
  ``pricers.CORRIDOR_NODES`` and ``CORRIDOR_TRUNCATION`` (overridden in
  this process only): truncation 160 at the default node spacing, loosened
  to the default 80 in the ladder, with ``v_nodes`` 128 loosened to 64.
  The characteristic function along the contour does not depend on the
  corridor bounds, so it is evaluated once per configuration and inverted
  against every bound pair a seed can draw; this is checked against a
  direct price of one other bound pair.
"""

from __future__ import annotations

import contextlib
import functools
import json
import subprocess
import sys
import time
import warnings
from itertools import product as cartesian
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from three_halves import pricers, quadrature  # noqa: E402
from three_halves.errors import ThreeHalvesError  # noqa: E402
from three_halves.pricers import EuropeanSpec, MomentSwapSpec  # noqa: E402
from three_halves.quadrature import QuadratureConfig  # noqa: E402

DEFAULT = QuadratureConfig()
EUROPEAN_LADDER = {
    "tight": dict(fourier_nodes=16384, fourier_truncation=800.0),
    "looser": dict(fourier_nodes=8192, fourier_truncation=400.0),
}
TIMER_LADDER = {"tight": dict(timer_eta_truncation=1920.0),
                "looser": dict(timer_eta_truncation=960.0)}
TIMER_ETA_CHUNK = 64
# Swap axes: phi step, v_nodes and, for corridors, (nodes, truncation) of
# the omega contour.
SWAP_LADDER = {"tight": dict(phi_step=0.04, v_nodes=192),
               "looser_v": dict(phi_step=0.04, v_nodes=128),
               "looser_step": dict(phi_step=0.02, v_nodes=192)}
CORRIDOR_LADDER = {
    "tight": dict(phi_step=0.04, v_nodes=128, nodes=1536, truncation=160.0),
    "looser_omega": dict(phi_step=0.04, v_nodes=128, nodes=768,
                         truncation=80.0),
    "looser_v": dict(phi_step=0.04, v_nodes=64, nodes=1536, truncation=160.0),
    "looser_step": dict(phi_step=0.02, v_nodes=128, nodes=1536,
                        truncation=160.0),
}
# At step 0.04 the two Richardson levels differ by the O(h^2) term that
# Richardson removes, so the pricer's 1e-5 agreement check is relaxed.
PHI_RICHARDSON_REL_TOL = 1e-3


@contextlib.contextmanager
def overridden(module, **values):
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def phi_step(h: float):
    """Run the swap pricers with central-difference step ``h``."""
    names = ("_phi_stencil", "_phi_derivative_real", "_phi_derivative_vec",
             "_phi_derivative_complex")
    with_step = {n: functools.partial(getattr(pricers, n), h=h) for n in names}
    return overridden(pricers, PHI_STEP=h,
                      PHI_RICHARDSON_REL_TOL=PHI_RICHARDSON_REL_TOL,
                      **with_step)


def timer_prices(specs, params, cfg) -> list:
    """price_timer_grid for one (T, N) on the direct contour, with the
    kernel built in eta chunks."""
    T, N = specs[0].mandatory_maturity, specs[0].n_monitoring
    if any(s.variance_budget > pricers.TIMER_CONTOUR_SWITCH_B
           or (s.mandatory_maturity, s.n_monitoring) != (T, N) for s in specs):
        raise ValueError("chunked timer reference covers one (T, N) on the "
                         "direct contour only")
    grid = quadrature.parseval_grid(cfg, damping_eta=cfg.damping_eta)
    kernel = np.concatenate(
        [pricers._timer_h_tilde(T, N, params, cfg, grid.omega,
                                grid.eta[i:i + TIMER_ETA_CHUNK])[0]
         for i in range(0, grid.eta.size, TIMER_ETA_CHUNK)], axis=1)
    out = []
    for s in specs:
        base = pricers.price_european(EuropeanSpec(s.strike, T / N), params,
                                      cfg)
        fhat = pricers._timer_transform_raw(grid.omega[:, None],
                                            grid.eta[None, :], s.strike,
                                            s.variance_budget)
        value, _, _ = quadrature.parseval_contract(grid, fhat * kernel, cfg)
        out.append(base + value)
    return out


def corridor_prices(n_periods, lag, pairs, params, cfg) -> dict:
    """Corridor fair strikes for every (lower, upper) in ``pairs`` from one
    evaluation of the bound-free characteristic function."""
    base_pair = pairs[0]
    inverted = {}
    invert = pricers.fourier_invert_1d

    def invert_all(cf, payoff_transform, cfg_, **kwargs):
        cache = []

        def cf_once(w):
            if not cache:
                cache.append(cf(w))
            return cache[0]

        for lo, up in pairs:
            inverted[(lo, up)] = invert(
                cf_once, lambda w: pricers._corridor_fhat(w, lo, up), cfg_,
                **kwargs)
        return inverted[base_pair]

    spec = MomentSwapSpec(1.0, n_periods, 2, "corridor", lag, *base_pair)
    with overridden(pricers, fourier_invert_1d=invert_all):
        base = pricers.fair_strike_weighted(spec, params, cfg)
    # The deterministic (bound-free, given S0 inside every corridor) part
    # of the strike cancels in the difference.
    if not all(lo < params.s0 <= up for lo, up in pairs):
        raise ValueError("every corridor must contain S0")
    return {pair: base + (inverted[pair] - inverted[base_pair]) / spec.maturity
            for pair in pairs}


def _ladder_records(values: dict, default: dict, ladder: dict,
                    method: str) -> dict:
    """values[level][key] -> one record per key."""
    out = {}
    for key, tight in values["tight"].items():
        looser = {name: values[name][key] for name in ladder
                  if name != "tight"}
        ref_err = max(abs(tight - v) for v in looser.values())
        dflt = default.get(key)
        out[key] = {
            "value": float(tight),
            "ref_err": float(ref_err),
            "default_value": None if dflt is None else float(dflt),
            "resolves_default_err": bool(
                dflt is not None and ref_err < 0.1 * abs(dflt - tight)),
            "method": method,
            "config": ladder["tight"],
            "looser": {name: {"config": ladder[name],
                              "value": float(looser[name])}
                       for name in looser},
        }
    return out


def european_refs() -> dict:
    params = wl.model_params("snp")
    specs = {EuropeanSpec(k, t) for t in wl.STRIP_MATURITIES
             for base in wl.STRIP_STRIKES for k in wl.jittered(base)}
    specs.add(EuropeanSpec(100.0, 1.0))
    specs = sorted(specs, key=lambda s: (s.maturity, s.strike))

    def price_all(cfg):
        return {wl.product_key("snp", s):
                pricers.price_european(s, params, cfg) for s in specs}

    values = {name: price_all(QuadratureConfig(**level))
              for name, level in EUROPEAN_LADDER.items()}
    return _ladder_records(values, price_all(DEFAULT), EUROPEAN_LADDER,
                           "Fourier inversion, doubled nodes and truncation")


def timer_refs() -> dict:
    params = wl.model_params("timer")
    groups = [wl.timer_specs(sorted({k for base in wl.TIMER_STRIKES
                                      for k in wl.jittered(base)})),
              wl.timer_specs([100.0], 1)]
    values = {name: {} for name in TIMER_LADDER}
    default = {}
    for specs in groups:
        keys = [wl.product_key("timer", s) for s in specs]
        direct = [r.price for r in
                  pricers.price_timer_grid(specs, params, DEFAULT)]
        chunked = timer_prices(specs, params, DEFAULT)
        worst = max(abs(a - b) / abs(a) for a, b in zip(direct, chunked))
        if worst > 1e-12:
            raise RuntimeError(f"chunked timer kernel disagrees with "
                               f"price_timer_grid by {worst:.2e}")
        default.update(zip(keys, direct))
        for name, level in TIMER_LADDER.items():
            prices = timer_prices(specs, params, QuadratureConfig(**level))
            values[name].update(zip(keys, prices))
            print(f"  timer N={specs[0].n_monitoring} {name} done", flush=True)
    return _ladder_records(values, default, TIMER_LADDER,
                           "2-D Parseval on an eta-chunked kernel, widened "
                           "eta truncation")


def swap_refs() -> dict:
    params = wl.model_params("snp")
    specs = wl.strip_swap_specs()
    keys = [wl.product_key("snp", s) for s in specs]
    values = {name: {} for name in SWAP_LADDER}
    for name, level in SWAP_LADDER.items():
        with phi_step(level["phi_step"]):
            for key, spec in zip(keys, specs):
                values[name][key] = pricers.fair_strike_weighted(
                    spec, params, QuadratureConfig(v_nodes=level["v_nodes"]))
    default = {}
    for key, spec in zip(keys, specs):
        try:
            default[key] = pricers.fair_strike_weighted(spec, params, DEFAULT)
        except ThreeHalvesError as exc:
            print(f"  default {key} raises: {exc}", flush=True)
    return _ladder_records(values, default, SWAP_LADDER,
                           "pricer with phi-derivative step raised to 0.04 "
                           "and more v' nodes")


def corridor_refs() -> dict:
    params = wl.model_params("snp")
    lo, up = wl.CORRIDOR_BOUNDS
    pairs = [(lo, up)] + [p for p in cartesian(wl.jittered(lo),
                                               wl.jittered(up))
                          if p != (lo, up)]
    # Check the shared-CF inversion against a direct price of another pair.
    n_check, lag_check = wl.CORRIDOR_SWAPS[-1]
    shared = corridor_prices(n_check, lag_check, pairs, params, DEFAULT)
    direct = pricers.fair_strike_weighted(
        wl.corridor_spec(n_check, lag_check, *pairs[-1]), params, DEFAULT)
    if abs(shared[pairs[-1]] - direct) > 1e-12 * abs(direct):
        raise RuntimeError("shared-CF corridor inversion disagrees with "
                           "fair_strike_weighted")
    values = {name: {} for name in CORRIDOR_LADDER}
    default = {}
    for n, lag in wl.CORRIDOR_SWAPS:
        def keyed(prices):
            return {wl.product_key("snp", wl.corridor_spec(n, lag, *p)): v
                    for p, v in prices.items()}

        default.update(keyed(corridor_prices(n, lag, pairs, params, DEFAULT)))
        for name, level in CORRIDOR_LADDER.items():
            t0 = time.perf_counter()
            cfg = QuadratureConfig(v_nodes=level["v_nodes"])
            with phi_step(level["phi_step"]), overridden(
                    pricers, CORRIDOR_NODES=level["nodes"],
                    CORRIDOR_TRUNCATION=level["truncation"]):
                values[name].update(
                    keyed(corridor_prices(n, lag, pairs, params, cfg)))
            print(f"  corridor N={n} lag={lag} {name}: "
                  f"{time.perf_counter() - t0:.0f} s", flush=True)
    return _ladder_records(values, default, CORRIDOR_LADDER,
                           "pricer with phi-derivative step raised to 0.04, "
                           "more v' nodes and a wider omega contour")


def _commit() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "src_modified": bool(git("status", "--porcelain", "src"))}


def main() -> int:
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    products = {}
    for family in (european_refs, swap_refs, corridor_refs, timer_refs):
        print(f"{family.__name__} ...", flush=True)
        products.update(family())
    missing = sorted({p.key for w in wl.WORKLOADS for seed in range(500)
                      for c in wl.calls(w, seed) for p in c.products}
                     - products.keys())
    if missing:
        raise RuntimeError(f"seeds draw products without a reference: "
                           f"{missing}")
    unresolved = [k for k, r in products.items()
                  if not r["resolves_default_err"]]
    payload = {"meta": {**_commit(), "seconds": time.perf_counter() - t0,
                        "unresolved": unresolved},
               "products": dict(sorted(products.items()))}
    (BENCH / "references.json").write_text(json.dumps(payload, indent=1)
                                           + "\n")
    print(f"{len(products)} references, {len(unresolved)} not resolving the "
          f"default error, {payload['meta']['seconds']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
