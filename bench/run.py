"""Benchmark of the three_halves pricing engine, end to end and per layer.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 bench/run.py --workload timer --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload strip --seed 3 --seconds 20 --trace 1
    python3 bench/run.py --baseline

Load model: one closed-loop caller in one process prices the workload's
products one after another, pass after pass, for ``--seconds``: at least
one pass, and another only while the median pass so far would still end
in time.  Each price is checked against a stored, converged reference
(``references.json``, from ``make_references.py``).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``setup_s`` is the median of several fresh processes timed from start to
ready (package imported, parameters, config and references loaded, one
warm-up European price).  ``--trace 1`` times untraced passes for half the
run and traced passes (see ``tracer.py``) for the other half, and reports
the per-layer metrics per pass plus ``trace.overhead_s``, the traced minus
the untraced median pass time.

Every run also writes ``.bench_out/BENCH_<workload>_s<seed>_t<trace>.json``
with every metric, the per-product records and the environment.
``--baseline`` prices the ROADMAP baseline rows once (too slow to repeat)
into ``.bench_out/BENCH_baseline.json``; it reports no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
not 0 when the benchmark cannot run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
SETUP_PROBES = 5

# Largest |price - ref| / |ref| a product may show and still count as
# correct, by pricer: about ten times the worst error the family shows at
# the default config (timer 8e-4, swaps 6e-5), and no tighter than 1e-10
# (Europeans are at roundoff).  The accuracy trend itself is err_rel_max.
REL_TOL = {"timer": 1e-2, "european": 1e-10, "swap": 1e-3}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_package():
    if not (SRC / "three_halves" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}/three_halves; run from "
                         f"the root of a source checkout")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import three_halves

    if Path(three_halves.__file__).resolve().parent != SRC / "three_halves":
        raise BenchError(f"three_halves imported from {three_halves.__file__},"
                         f" not from {SRC}")


@dataclass
class Context:
    workload: str
    seed: int
    calls: list
    params: dict
    cfg: object
    refs: dict


def setup(workload: str, seed: int) -> Context:
    """Import, parameters, config, references and one warm-up price."""
    _import_package()
    import workloads as wl
    from three_halves import pricers
    from three_halves.quadrature import QuadratureConfig

    cfg = QuadratureConfig()
    params = {name: wl.model_params(name) for name in wl.PARAMS}
    refs = json.loads(REFERENCES.read_text())["products"]
    try:
        calls = wl.calls(workload, seed)
    except ValueError as exc:
        raise BenchError(str(exc)) from exc
    missing = [p.key for c in calls for p in c.products if p.key not in refs]
    if missing:
        raise BenchError(f"no stored reference for {missing}; run "
                         f"bench/make_references.py")
    pricers.price_european(pricers.EuropeanSpec(100.0, 1.0), params["snp"],
                           cfg)
    return Context(workload, seed, calls, params, cfg, refs)


def time_setup(workload: str, seed: int) -> list:
    """Start-to-ready time of fresh processes that run only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        times.append(elapsed)
    return times


def _node_counts(diagnostics: dict) -> dict:
    return {k: int(v) for k, v in diagnostics.items()
            if k.endswith("nodes") and isinstance(v, (int, float))}


def timed_call(call, params, cfg):
    """Price one call; returns (results, error, seconds, warning counts).

    A call that raises is recorded with its error, not fatal; its results
    are None.
    """
    import workloads as wl

    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            results = wl.price_call(call, params, cfg)
        except Exception as exc:  # recorded per product, see run_pass
            results = [None] * len(call.products)
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return results, error, wall, counts


def run_pass(ctx: Context):
    """Price every product once; returns (pass seconds, per-product dicts)."""
    outcomes = []
    t_pass = time.perf_counter()
    for call in ctx.calls:
        results, error, wall, caught_by = timed_call(
            call, ctx.params[call.params], ctx.cfg)
        for product, res in zip(call.products, results):
            # Pricers return a float or a PriceResult.
            value = getattr(res, "price", res)
            diagnostics = getattr(res, "diagnostics", None) or {}
            est = getattr(res, "err_estimate", None)
            ref = ctx.refs[product.key]
            rec = {
                "workload": ctx.workload,
                "product": product.key,
                "pricer": call.pricer,
                "wall_s": wall,
                "batch": len(call.products),
                "value": None,
                "ref_value": ref["value"],
                "ref_err": ref["ref_err"],
                "abs_err": None,
                "rel_err": None,
                "err_estimate": None if est is None else float(est),
                "covered": False,
                "within_tol": None,
                "ref_resolves_err": None,
                "warnings": caught_by,
                "nodes": _node_counts(diagnostics),
                "error": error,
            }
            if error is None and not math.isfinite(float(value)):
                rec["error"] = f"non-finite price {value!r}"
            if rec["error"] is None:
                value = float(value)
                abs_err = abs(value - ref["value"])
                rel_err = abs_err / abs(ref["value"])
                rec.update(value=value, abs_err=abs_err, rel_err=rel_err,
                           covered=est is not None and abs_err <= est,
                           within_tol=rel_err <= REL_TOL[call.pricer],
                           ref_resolves_err=ref["ref_err"] < 0.1 * abs_err)
            outcomes.append(rec)
    return time.perf_counter() - t_pass, outcomes


def run_passes(ctx: Context, seconds: float):
    """Passes for ``seconds``: at least one, then another only while the
    median pass so far would still end within ``seconds``."""
    times, passes = [], []
    t0 = time.perf_counter()
    while not times or (time.perf_counter() - t0
                        + statistics.median(times) <= seconds):
        wall, outcomes = run_pass(ctx)
        times.append(wall)
        passes.append(outcomes)
    return times, passes


def end_to_end(pass_times: list, outcomes: list) -> dict:
    """Metrics of the workload from the pass times and one pass's records."""
    n = len(outcomes)
    priced = [r for r in outcomes if r["error"] is None]
    out = {
        "wall_s": statistics.median(pass_times),
        "err_uncovered_frac": sum(not r["covered"] for r in outcomes) / n,
        "priced_frac": len(priced) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if priced:
        out["err_rel_max"] = max(r["rel_err"] for r in priced)
    return out


def product_records(passes: list) -> list:
    """The last pass's records, each with its median call time over passes."""
    records = [dict(r) for r in passes[-1]]
    for i, rec in enumerate(records):
        rec["wall_s"] = statistics.median(p[i]["wall_s"] for p in passes)
        rec["wall_samples"] = len(passes)
    return records


def _blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def _write(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
    return path


def benchmark(args) -> dict:
    _import_package()
    declared = declared_metrics()
    setup_times = [] if args.trace else time_setup(args.workload, args.seed)
    ctx = setup(args.workload, args.seed)
    all_metrics = {}
    if args.trace:
        from tracer import Tracer

        plain_times, passes = run_passes(ctx, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, traced = run_passes(ctx, args.seconds / 2.0)
        finally:
            tracer.uninstall()
        passes += traced
        all_metrics.update(tracer.metrics(len(traced_times)))
        all_metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                           - statistics.median(plain_times))
        pass_times = {"untraced": plain_times, "traced": traced_times}
        units = declared["per_layer"]
    else:
        times, passes = run_passes(ctx, args.seconds)
        all_metrics.update(end_to_end(times, passes[-1]))
        all_metrics["setup_s"] = statistics.median(setup_times)
        pass_times = {"untraced": times}
        units = declared["end_to_end"]

    outcomes = [r for p in passes for r in p]
    failed = sum(r["error"] is not None for r in outcomes)
    correct = all(r["within_tol"] for r in outcomes if r["error"] is None)
    metrics = {name: {"value": all_metrics[name], "unit": unit}
               for name, unit in units.items() if name in all_metrics}
    path = _write(
        f"BENCH_{args.workload}_s{args.seed}_t{int(args.trace)}.json",
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": bool(args.trace),
         "correct": correct, "attempted": len(outcomes), "failed": failed,
         "pass_times_s": pass_times, "setup_times_s": setup_times,
         "metrics": all_metrics, "products": product_records(passes),
         "environment": environment()})
    for rec in product_records(passes):
        status = rec["error"] or (f"value {rec['value']:.10g} "
                                  f"rel_err {rec['rel_err']:.3e}")
        print(f"{rec['product']}: {rec['wall_s']:.4f} s  {status}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"pass times (s): {pass_times}")
    print(f"records written to {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def baseline() -> None:
    """Price the ROADMAP baseline rows once and record value and wall time."""
    _import_package()
    import workloads as wl
    from three_halves.pricers import (EuropeanSpec, MomentSwapSpec,
                                      TimerOptionSpec)
    from three_halves.quadrature import QuadratureConfig

    cfg = QuadratureConfig()
    refs = json.loads(REFERENCES.read_text())["products"]
    rows = [("european", "snp", EuropeanSpec(100.0, 1.0))]
    rows += [("timer", "timer", TimerOptionSpec(100.0, 1.0, n, 0.087))
             for n in (4, 12, 24)]
    rows += [("swap", "snp", MomentSwapSpec(1.0, n))
             for n in (12, 20, 26, 36, 52)]
    rows += [("swap", "snp", MomentSwapSpec(1.0, 12, 2, kind))
             for kind in ("price_ratio", "terminal_price")]
    rows += [("swap", "snp", MomentSwapSpec(1.0, 12, 2, "corridor", 0,
                                            80.0, 120.0))]
    records = []
    for pricer, params, spec in rows:
        call = wl.make_call(pricer, params, [spec])
        key = call.products[0].key
        (res,), error, wall, caught_by = timed_call(
            call, wl.model_params(params), cfg)
        value = None if error else float(getattr(res, "price", res))
        records.append({"product": key, "wall_s": wall, "value": value,
                        "ref_value": refs.get(key, {}).get("value"),
                        "warnings": caught_by, "error": error})
        shown = error or f"{value:.10g}"
        print(f"{key}: {wall:.3f} s  {shown}", flush=True)
    path = _write("BENCH_baseline.json",
                  {"rows": records, "environment": environment()})
    print(f"records written to {path.relative_to(ROOT)}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="timer")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true",
                    help="price the ROADMAP baseline rows once")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.baseline:
            baseline()
            return 0
        result = benchmark(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
