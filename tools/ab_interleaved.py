"""Interleaved in-process A/B timing of two source checkouts.

Loads ``src/three_halves`` from checkout A and from checkout B under the
distinct package names ``three_halves_a`` and ``three_halves_b`` in one
process, then prices the same products with each side round by round,
alternating which side goes first.  Both sides see the same machine state
in every round, so the ratio of their times is far steadier than the
ratio of two separate benchmark runs.

    python3 tools/ab_interleaved.py PARENT_CHECKOUT . --workload timer
    python3 tools/ab_interleaved.py PARENT_CHECKOUT . --timer 52 --rounds 6
    python3 tools/ab_interleaved.py PARENT_CHECKOUT . --timer 12 \
        --params snp --budget 0.06
    python3 tools/ab_interleaved.py PARENT_CHECKOUT . --timer 4 --params jump

``--workload`` prices one pass of a benchmark workload (``bench/
workloads.py`` of each checkout, bound to that checkout's package) per
round and side; ``--timer N`` prices the benchmark's three timer strikes
at N monitoring dates in one ``price_timer_grid`` call, on the parameter
set ``--params`` (a key of the workloads' ``PARAMS``, ``timer`` by
default, or ``jump``: ``snp`` with lognormal jumps of intensity 0.5, mean
-0.1 and volatility 0.2, the tests' ``jump_params``, whose Talbot
contours take growth passes) at the budget ``--budget`` (the timer
workload's by default).
One warm-up round is run first and not counted.

Prints each side's median time and median minor page faults per round
(``resource.getrusage``), the per-round ratio B/A (median and quartiles),
the rounds B won and the largest relative difference between the two
sides' prices.

Both sides share one process and so one heap: memory one side frees, the
other reuses, and the allocator's thresholds move with both.  A change to
how the code allocates (fewer or larger tables, a reused workspace) shows
here only in part, in its fault count as in its time; time it in separate
processes too (``bench/run.py`` on each checkout).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path


def load_package(checkout: Path, name: str):
    """The ``three_halves`` package of ``checkout`` as module ``name``."""
    pkg = checkout / "src" / "three_halves"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(checkout: Path, package, name: str):
    """``bench/workloads.py`` of ``checkout``, importing ``package`` as its
    ``three_halves``."""
    saved = {k: sys.modules.get(k) for k in
             ("three_halves", "three_halves.pricers", "three_halves.model")}
    sys.modules.update({"three_halves": package,
                        "three_halves.pricers": package.pricers,
                        "three_halves.model": package.model})
    try:
        spec = importlib.util.spec_from_file_location(
            name, checkout / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    return module


def make_side(checkout: Path, tag: str, args):
    """A function that prices one round on this side and returns its
    prices as floats."""
    package = load_package(checkout, f"three_halves_{tag}")
    wl = load_workloads(checkout, package, f"workloads_{tag}")
    cfg = package.quadrature.QuadratureConfig()
    params = {name: wl.model_params(name) for name in wl.PARAMS}
    params["jump"] = package.model.ModelParams.with_constant_theta(
        **wl.PARAMS["snp"], jumps=package.model.JumpParams(
            lam=0.5, mu=-0.1, sigma=0.2))
    if args.timer is not None:
        specs = wl.timer_specs(wl.TIMER_STRIKES, args.timer)
        if args.budget is not None:
            specs = [dataclasses.replace(s, variance_budget=args.budget)
                     for s in specs]

        def run():
            return [r.price for r in package.pricers.price_timer_grid(
                specs, params[args.params], cfg)]
        return run
    calls = wl.calls(args.workload, args.seed)

    def run():
        return [float(getattr(r, "price", r)) for c in calls
                for r in wl.price_call(c, params[c.params], cfg)]
    return run


def quartiles(xs):
    if len(xs) == 1:  # one round: a smoke run of the tool
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="checkout A (the baseline)")
    ap.add_argument("b", type=Path, help="checkout B (the change)")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("timer", "corridor", "strip"))
    what.add_argument("--timer", type=int, metavar="N",
                      help="the benchmark's timer strikes at N dates")
    ap.add_argument("--params", choices=("timer", "snp", "jump"),
                    default="timer",
                    help="the parameter set of --timer")
    ap.add_argument("--budget", type=float, metavar="B",
                    help="the variance budget of --timer")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.timer is None and (args.params != "timer"
                               or args.budget is not None):
        ap.error("--params and --budget apply to --timer only")

    sides = {"A": make_side(args.a.resolve(), "a", args),
             "B": make_side(args.b.resolve(), "b", args)}
    prices = {k: run() for k, run in sides.items()}  # warm-up round
    times = {"A": [], "B": []}
    faults = {"A": [], "B": []}
    for r in range(args.rounds):
        for k in ("AB" if r % 2 == 0 else "BA"):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            sides[k]()
            times[k].append(time.perf_counter() - t0)
            faults[k].append(resource.getrusage(
                resource.RUSAGE_SELF).ru_minflt - f0)

    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    diff = max(abs(b - a) / abs(a) for a, b in zip(prices["A"],
                                                    prices["B"]))
    for k in "AB":
        lo, hi = quartiles(times[k])
        print(f"{k}: median {statistics.median(times[k]):.4f} s "
              f"(quartiles {lo:.4f}-{hi:.4f}) over {args.rounds} rounds, "
              f"median {statistics.median(faults[k]):.0f} minor page faults "
              f"a round")
    lo, hi = quartiles(ratios)
    won = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"B/A: median {statistics.median(ratios):.3f} "
          f"(quartiles {lo:.3f}-{hi:.3f}); B won {won} of {args.rounds}")
    print(f"largest relative price difference: {diff:.2e} "
          f"over {len(prices['A'])} prices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
