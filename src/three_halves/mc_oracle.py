"""Independent Monte Carlo oracle for the 3/2 model.

Simulates (X, I, V) with *exact* noncentral chi-square transitions for the
reciprocal variance U = 1/V (which is an inhomogeneous CIR process), plus a
fine-grid reconstruction of the log price and quadratic variation.  Every
analytic quantity in the package is cross-checked against this module, so
its code paths deliberately share nothing with the transform formulas
beyond the model parameters.

Sampler derivation (checked numerically in tests against the transition
density): matching the CIR transition density

    p_U(u'|u) = (A/C) exp(-(A u' + u)/C) (A u'/u)^{1/2+k/e^2}
                I_{1+2k/e^2}((2/C) sqrt(A u u'))

to the standard noncentral chi-square density gives

    U' = [C/(2A)] * ncx2(df, nc),  df = 4 + 4 kappa/eps^2,  nc = 2 u / C.

The log-price uses the pathwise identity obtained by integrating d(ln V):

    X' = X + (r - q) dt + (rho/eps)[ln V' - ln V - int theta]
         + [rho eps (kappa/eps^2 + 1/2) - 1/2] int V ds
         + sqrt(1 - rho^2) * int sqrt(V) dW2,

where the last integral is exactly N(0, int V) given the variance path
(W2 is independent), and int V over a fine step is approximated by the
trapezoid rule.  Jumps are superposed as compound Poisson with normal
sizes; squared jump sizes accrue to the quadratic variation.

RNG: counter-based Philox streams spawned per fixed-size path chunk (and
separately for diffusion vs jumps), so results are bit-identical however
the chunks are executed and a lam=0 run reproduces the no-jump run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParametersError
from .model import ModelParams, coef_A, coef_C, require_valid

CHUNK_PATHS = 16384

_SCHEMES = ("exact_variance_transition", "euler_full_truncation")


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int = 100_000
    steps_per_year: int = 512
    seed: int = 20260809
    scheme: str = "exact_variance_transition"

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidParametersError("n_paths must be >= 1")
        if self.steps_per_year < 12:
            raise InvalidParametersError("steps_per_year must be >= 12")
        if self.scheme not in _SCHEMES:
            raise InvalidParametersError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}"
            )


@dataclass
class PathEnsemble:
    """Per-path state at t=0 and every monitoring date.

    ``i`` is the continuous quadratic-variation proxy (trapezoid of V plus
    summed squared jumps); ``i_discrete`` is the running sum of squared
    log-returns over monitoring intervals.
    """

    times: np.ndarray
    x: np.ndarray
    i: np.ndarray
    i_discrete: np.ndarray
    v: np.ndarray
    jump_counts: Optional[np.ndarray] = None

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]


@dataclass
class MCPriceResult:
    estimate: float
    std_error: float
    extras: dict = field(default_factory=dict)


def sample_variance_transition(u, dt: float, params: ModelParams,
                               rng: np.random.Generator, t: float = 0.0):
    """Draw U_{t+dt} | U_t = u exactly (noncentral chi-square transition).

    ``u`` may be a scalar or ndarray of positive reciprocal-variance states.
    """
    if dt <= 0.0:
        raise InvalidParametersError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise InvalidParametersError("reciprocal variance must be positive")
    A = coef_A(params.theta, t, t + dt)
    C = coef_C(params.theta, params.epsilon, t, t + dt)
    df = 4.0 + 4.0 * params.kappa / params.eps2
    nc = 2.0 * u / C
    draw = rng.noncentral_chisquare(df, nc, size=u.shape)
    return (C / (2.0 * A)) * draw


def _fine_grid(monitoring: np.ndarray, steps_per_year: int):
    """Refine each monitoring interval into near-uniform substeps.

    Returns (times, monitor_index) with every monitoring date exactly on
    the grid.
    """
    times = [0.0]
    monitor_index = [0]
    prev = 0.0
    for tk in monitoring:
        span = tk - prev
        m = max(1, round(steps_per_year * span))
        for j in range(1, m + 1):
            times.append(prev + span * j / m)
        monitor_index.append(len(times) - 1)
        prev = tk
    return np.asarray(times), np.asarray(monitor_index, dtype=int)


def _chunk_seeds(seed: int, n_chunks: int):
    root = np.random.SeedSequence(seed)
    return root.spawn(n_chunks)


def _add_jumps(x, ivar, dt: float, jp, rng: np.random.Generator):
    """Superpose one step of compound-Poisson normal jumps on x, and their
    squares on ivar, in place; returns the jump counts."""
    counts = rng.poisson(jp.lam * dt, size=x.size)
    for k in range(int(counts.max()) if x.size else 0):
        idx = np.nonzero(counts > k)[0]
        sizes = rng.normal(jp.mu, jp.sigma, size=len(idx))
        x[idx] += sizes
        ivar[idx] += sizes * sizes
    return counts


def _simulate_chunk(n: int, times: np.ndarray, keep_idx: np.ndarray,
                    params: ModelParams, scheme: str,
                    chunk_seed: np.random.SeedSequence):
    """Simulate one chunk; returns (x, i, v, jump_counts) at kept indices."""
    diff_ss, jump_ss = chunk_seed.spawn(2)
    rng = np.random.Generator(np.random.Philox(diff_ss))
    jp = params.jumps
    has_jumps = jp is not None and jp.lam > 0.0
    rng_jump = np.random.Generator(np.random.Philox(jump_ss)) if has_jumps else None

    n_steps = len(times) - 1
    drift_rq = params.r - params.q - (jp.lam * jp.compensator if has_jumps else 0.0)
    slope = params.rho * params.epsilon * (params.kappa / params.eps2 + 0.5) - 0.5
    rho_over_eps = params.rho / params.epsilon
    sq1mr2 = math.sqrt(max(0.0, 1.0 - params.rho**2))

    x = np.full(n, params.x0)
    ivar = np.zeros(n)
    v = np.full(n, params.v0)
    jumps_total = np.zeros(n, dtype=np.int64)

    keep_x = np.empty((n, len(keep_idx)))
    keep_i = np.empty((n, len(keep_idx)))
    keep_v = np.empty((n, len(keep_idx)))
    keep_pos = {int(g): k for k, g in enumerate(keep_idx)}
    if 0 in keep_pos:
        k0 = keep_pos[0]
        keep_x[:, k0] = x
        keep_i[:, k0] = ivar
        keep_v[:, k0] = v

    exact = scheme == "exact_variance_transition"
    u = 1.0 / v
    for s in range(n_steps):
        t0, t1 = times[s], times[s + 1]
        dt = t1 - t0
        if exact:
            u = sample_variance_transition(u, dt, params, rng, t=t0)
            v_next = 1.0 / u
            iv_step = 0.5 * (v + v_next) * dt
            z = rng.standard_normal(n)
            x = (x + drift_rq * dt
                 + rho_over_eps * (np.log(v_next) - np.log(v)
                                   - math.log(coef_A(params.theta, t0, t1)))
                 + slope * iv_step
                 + sq1mr2 * np.sqrt(iv_step) * z)
            ivar = ivar + iv_step
            v = v_next
        else:  # euler_full_truncation
            th = params.theta.value_at(t0)
            vp = np.maximum(v, 0.0)
            z1 = rng.standard_normal(n)
            z2 = rng.standard_normal(n)
            x = (x + (drift_rq - 0.5 * vp) * dt
                 + np.sqrt(vp * dt) * (params.rho * z1 + sq1mr2 * z2))
            ivar = ivar + vp * dt
            v = (v + vp * (th - params.kappa * vp) * dt
                 + params.epsilon * vp**1.5 * math.sqrt(dt) * z1)
        if has_jumps:
            jumps_total += _add_jumps(x, ivar, dt, jp, rng_jump)
        if (s + 1) in keep_pos:
            k0 = keep_pos[s + 1]
            keep_x[:, k0] = x
            keep_i[:, k0] = ivar
            keep_v[:, k0] = v if exact else np.maximum(v, 1e-14)
    return keep_x, keep_i, keep_v, jumps_total


def _chunks(horizon: float, monitoring_schedule: Sequence[float],
            params: ModelParams, sim_cfg: SimulationConfig, use):
    """``use(ensemble)`` of each chunk of at most CHUNK_PATHS paths, in path
    order, each chunk's ensemble dropped once used (see
    ``simulate_paths``)."""
    require_valid(params)
    monitoring = np.asarray(sorted(monitoring_schedule), dtype=float)
    if len(monitoring) == 0 or monitoring[0] <= 0.0:
        raise InvalidParametersError("monitoring dates must be positive")
    if abs(monitoring[-1] - horizon) > 1e-12:
        raise InvalidParametersError("last monitoring date must equal horizon")
    times, midx = _fine_grid(monitoring, sim_cfg.steps_per_year)
    keep_times = np.concatenate([[0.0], monitoring])
    has_jumps = params.jumps is not None and params.jumps.lam > 0.0

    def ensemble(x, ivar, v, jumps):
        dx = np.diff(x, axis=1)
        i_disc = np.concatenate(
            [np.zeros((x.shape[0], 1)), np.cumsum(dx * dx, axis=1)], axis=1)
        return PathEnsemble(times=keep_times, x=x, i=ivar, i_discrete=i_disc,
                            v=v, jump_counts=jumps if has_jumps else None)

    n = sim_cfg.n_paths
    n_chunks = (n + CHUNK_PATHS - 1) // CHUNK_PATHS
    seeds = _chunk_seeds(sim_cfg.seed, n_chunks)
    return [use(ensemble(*_simulate_chunk(
        min(CHUNK_PATHS, n - c * CHUNK_PATHS), times, midx, params,
        sim_cfg.scheme, seeds[c]))) for c in range(n_chunks)]


def simulate_paths(horizon: float, monitoring_schedule: Sequence[float],
                   params: ModelParams,
                   sim_cfg: SimulationConfig) -> PathEnsemble:
    """Simulate the ensemble, retaining state at t=0 and monitoring dates.

    Monitoring dates must be ascending and end at ``horizon``; the fine
    integration grid refines each monitoring interval so the dates are hit
    exactly.  Same seed implies a bit-identical ensemble.  The chunks are
    stacked, so the ensemble holds every path's states at once;
    ``mc_price`` instead keeps only each path's payoff.
    """
    chunks = _chunks(horizon, monitoring_schedule, params, sim_cfg,
                     lambda ens: ens)

    def stacked(name):
        parts = [getattr(ens, name) for ens in chunks]
        return None if parts[0] is None else np.concatenate(parts)

    return PathEnsemble(chunks[0].times, *map(stacked, (
        "x", "i", "i_discrete", "v", "jump_counts")))


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, float("inf")
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, se


def mc_price(product, params: ModelParams,
             sim_cfg: SimulationConfig) -> MCPriceResult:
    """Pathwise Monte Carlo price of a product spec.

    Dispatches on the spec type from :mod:`three_halves.pricers`.  For timer
    options both stopping conventions are evaluated: the quadratic-variation
    proxy (the analytic pricer's convention) is the primary estimate and the
    true discrete realized-variance stopping is reported in ``extras``.
    """
    from . import pricers  # local import to avoid a cycle

    def per_path(horizon, schedule, payoff):
        # each chunk is priced as it is simulated: only payoffs are kept
        return np.concatenate(_chunks(horizon, schedule, params, sim_cfg,
                                      payoff), axis=-1)

    if isinstance(product, pricers.EuropeanSpec):
        def payoff(ens):
            s_t = np.exp(ens.x[:, -1])
            if product.is_call:
                return np.maximum(s_t - product.strike, 0.0)
            return np.maximum(product.strike - s_t, 0.0)

        disc = math.exp(-params.r * product.maturity)
        est, se = _mean_se(disc * per_path(product.maturity,
                                           [product.maturity], payoff))
        return MCPriceResult(est, se)

    if isinstance(product, pricers.TimerOptionSpec):
        proxy, discrete = per_path(
            product.mandatory_maturity, product.schedule(), lambda ens:
            np.stack([_timer_payoff(product, ens, params, running)
                      for running in (ens.i, ens.i_discrete)]))
        est, se = _mean_se(proxy)
        est_d, se_d = _mean_se(discrete)
        return MCPriceResult(est, se, extras={
            "discrete_estimate": est_d,
            "discrete_std_error": se_d,
            "proxy_gap": est - est_d,
        })

    if isinstance(product, pricers.MomentSwapSpec):
        schedule = np.asarray(product.schedule_times(), dtype=float)
        legs = per_path(schedule[-1], schedule,
                        lambda ens: _floating_leg(product, ens, params))
        est, se = _mean_se(legs)
        return MCPriceResult(est, se)

    raise InvalidParametersError(f"unsupported product {type(product).__name__}")


def _timer_payoff(spec, ens: PathEnsemble, params: ModelParams,
                  running: np.ndarray) -> np.ndarray:
    """Discounted timer-call payoff per path, stopping at the first
    monitoring date where ``running`` (a variance column per date) reaches
    the budget, else at maturity."""
    hit = running[:, 1:] >= spec.variance_budget
    first = np.argmax(hit, axis=1)
    rows = np.arange(len(first))
    stop_col = np.where(hit[rows, first], first, hit.shape[1] - 1) + 1
    disc = np.exp(-params.r * ens.times[stop_col])
    return np.maximum(np.exp(ens.x[rows, stop_col]) - spec.strike, 0.0) * disc


def _floating_leg(spec, ens: PathEnsemble, params: ModelParams) -> np.ndarray:
    """(1/T) sum_k f(S_{t_{i_k}}) (ln S_{t_k}/S_{t_{k-1}})^m per path."""
    s = np.exp(ens.x)
    dx = np.diff(ens.x, axis=1)
    n_periods = dx.shape[1]
    powered = dx**spec.m
    total = np.zeros(len(s))
    for k in range(1, n_periods + 1):
        w = spec.weight_value(s[:, spec.weight_index(k, n_periods)], params)
        total += w * powered[:, k - 1]
    return total / spec.maturity
