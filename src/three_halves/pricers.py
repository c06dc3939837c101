"""Product pricers: European vanillas, finite-maturity discrete timer calls,
and discretely sampled weighted moment swaps.

Timer decomposition
-------------------
With the quadratic variation I as the realized-variance proxy, the timer
call telescopes over monitoring dates t_j = j T / N:

    C0 = E[e^{-rT} (S_T-K)^+ 1{I_T<B}]
         + sum_j e^{-r t_{j+1}} E[(S_{t_{j+1}}-K)^+ (1{I_{t_j}<B} - 1{I_{t_{j+1}}<B})]

and prices by Parseval against the payoff transform

    F(omega, eta) = K^{1 - i omega} e^{-i eta B} / ((i omega + omega^2) i eta)

on contours omega_I < -1, eta_I > 0.  The kernel is

    H(omega, eta) = e^{i omega X0} [ e^{-rT} h(0,V0;T)
        + sum_j e^{-r t_{j+1}} (W_j - h(0,V0;t_{j+1})) ],
    W_j = int g(0,V0;t_j,omega,eta,v') h(t_j,v';t_{j+1},omega,0) dv',

where the j = 0 term collapses analytically (the transform at zero elapsed
time is a Dirac mass at V0, so W_0 = h(0,V0;t_1,omega,0), constant in eta).
That constant-in-eta piece decays too slowly to integrate numerically; its
eta integral is known in closed form (the indicator of 0 < B), so it is
priced as a European call with maturity t_1 and only the decaying remainder
goes through the 2-D rule.

Two contours are supported.  "direct" evaluates the telescoped sum as
written (eta_I = +damping_eta).  "complement" rewrites every indicator as
1 - 1{I >= B}, which flips the eta contour to -damping_eta and turns the
price into European(T) minus the same 2-D integral; since
|e^{-i eta B}| = e^{eta_I B}, the complement contour is the numerically
stable choice once B is large (the direct contour's integrand grows like
e^{damping_eta * B} and must cancel back down to the price).  "auto" picks
direct for small B and complement beyond TIMER_CONTOUR_SWITCH_B.

Moment swaps
------------
The fair strike is (1/T) sum_k E[f(S_{t_{i_k}}) (X_{t_k} - X_{t_{k-1}})^m].
Every weight is a superposition of e^{i omega X_{t_i}} (omega = 0 for the
constant weight, -i for the price ratio and terminal price, the contour
for the corridor), so every term comes from one kernel,
E[e^{i omega X_{t_i}} e^{i phi dX_k}], whose m-th phi-derivative at
phi = 0 is one Cauchy integral: the trapezoid rule on a circle of radius
MOMENT_RADIUS with MOMENT_NODES nodes (``_cauchy_moment``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import transforms as tr
from .errors import (
    ContourViolationError,
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from .model import ModelParams, coef_A, coef_C, require_valid
from .quadrature import (
    QuadratureConfig,
    fourier_invert_1d,
    log_density_grid,
    parseval_contract,
    parseval_grid,
)

# Contour auto-switch: direct representation up to this variance budget,
# complement beyond (see module docstring).
TIMER_CONTOUR_SWITCH_B = 0.5

_REL_IMAG_TOL = 1e-8

# ---------------------------------------------------------------------------
# Product specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EuropeanSpec:
    strike: float
    maturity: float
    is_call: bool = True

    def __post_init__(self):
        if self.strike <= 0.0 or self.maturity <= 0.0:
            raise InvalidParametersError("strike and maturity must be positive")


@dataclass(frozen=True)
class TimerOptionSpec:
    """Finite-maturity discrete timer call.

    The variance budget is B = sigma0^2 * T0 for a target volatility sigma0
    and expected horizon T0; monitoring dates are t_j = j T / N.
    """

    strike: float
    mandatory_maturity: float
    n_monitoring: int
    variance_budget: float

    def __post_init__(self):
        if self.strike <= 0.0 or self.mandatory_maturity <= 0.0:
            raise InvalidParametersError("strike and maturity must be positive")
        if self.n_monitoring < 1:
            raise InvalidParametersError("n_monitoring must be >= 1")
        if self.variance_budget <= 0.0:
            raise InvalidParametersError("variance budget must be positive")

    def date(self, j: int) -> float:
        # j*T/N evaluated directly (never accumulated), so monitoring dates
        # carry no drift across j.
        return self.mandatory_maturity * j / self.n_monitoring

    def schedule(self) -> list:
        return [self.date(j) for j in range(1, self.n_monitoring + 1)]


_WEIGHT_KINDS = ("constant", "price_ratio", "corridor", "terminal_price")


@dataclass(frozen=True)
class MomentSwapSpec:
    """Discretely sampled weighted moment swap.

    Floating leg: (1/T) sum_k f(S_{t_{i_k}}) (ln S_{t_k}/S_{t_{k-1}})^m over
    the uniform schedule t_k = k T / N.  ``weight_kind`` selects f and the
    index rule: "constant" (f = 1; variance/skewness swaps), "price_ratio"
    (f = x/S0, i_k = k - lag; gamma swaps), "corridor"
    (f = 1{l < x <= u}, i_k = k - lag), "terminal_price" (f = x/S0,
    i_k = N; self-quantoed swaps).  ``lag`` must be 0 (i_k = k) or 1
    (i_k = k-1).
    """

    maturity: float
    n_periods: int
    m: int = 2
    weight_kind: str = "constant"
    lag: int = 0
    corridor_lower: Optional[float] = None
    corridor_upper: Optional[float] = None

    def __post_init__(self):
        if self.maturity <= 0.0 or self.n_periods < 1:
            raise InvalidParametersError("maturity and n_periods must be positive")
        if self.m not in (2, 3):
            raise InvalidParametersError("moment order m must be 2 or 3")
        if self.weight_kind not in _WEIGHT_KINDS:
            raise InvalidParametersError(
                f"weight_kind must be one of {_WEIGHT_KINDS}")
        if self.lag not in (0, 1):
            raise InvalidParametersError("lag must be 0 (i_k=k) or 1 (i_k=k-1)")
        if self.weight_kind == "corridor":
            lo, up = self.corridor_lower, self.corridor_upper
            if lo is None or up is None or not 0.0 < lo < up:
                raise InvalidParametersError(
                    "corridor weight needs bounds 0 < lower < upper")

    def date(self, k: int) -> float:
        return self.maturity * k / self.n_periods

    def schedule_times(self) -> list:
        return [self.date(k) for k in range(1, self.n_periods + 1)]

    def weight_index(self, k: int, n_periods: int) -> int:
        """Column index i_k into the (N+1)-column monitoring arrays; the
        unit weight of "constant" is read at i_k = k - 1."""
        if self.weight_kind == "constant":
            return k - 1
        if self.weight_kind == "terminal_price":
            return n_periods
        return k - self.lag

    def weight_value(self, s, params: ModelParams):
        if self.weight_kind in ("price_ratio", "terminal_price"):
            return s / params.s0
        if self.weight_kind == "corridor":
            return ((s > self.corridor_lower) & (s <= self.corridor_upper)
                    ).astype(float)
        return np.ones_like(s)


@dataclass
class PriceResult:
    price: float
    err_estimate: float
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Payoff transforms.
# ---------------------------------------------------------------------------


def _call_transform(omega, strike: float):
    """Generalized Fourier transform of (e^x - K)^+; needs Im(omega) < -1."""
    return -strike ** (1.0 - 1j * omega) / (1j * omega + omega * omega)


def payoff_transform_timer(omega, eta, strike: float, budget: float):
    """F(omega, eta) = K^{1-i w} e^{-i e B} / ((i w + w^2) i e).

    Defined on contours Im(omega) < -1, Im(eta) > 0 (the {y < B} payoff);
    the same algebraic expression on Im(eta) < 0 is the transform of the
    complementary {y >= B} payoff and is used internally by the complement
    contour.
    """
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if np.any(omega.imag >= -1.0) or np.any(eta.imag <= 0.0):
        raise ContourViolationError(
            "payoff_transform_timer needs Im(omega) < -1 and Im(eta) > 0")
    return _timer_transform_raw(omega, eta, strike, budget)


def _timer_transform_raw(omega, eta, strike: float, budget: float):
    return (strike ** (1.0 - 1j * omega) * np.exp(-1j * eta * budget)
            / ((1j * omega + omega * omega) * (1j * eta)))


# ---------------------------------------------------------------------------
# European pricing.
# ---------------------------------------------------------------------------


def price_european(spec: EuropeanSpec, params: ModelParams,
                   cfg: QuadratureConfig) -> float:
    """Damped-contour Fourier inversion of the marginal CF; put via parity."""
    return _price_european_detailed(spec, params, cfg).price


def _price_european_detailed(spec: EuropeanSpec, params: ModelParams,
                             cfg: QuadratureConfig) -> PriceResult:
    require_valid(params)
    if not cfg.damping_omega < -1.0:
        raise ContourViolationError("European call contour needs Im(omega) < -1")
    T = spec.maturity
    x0 = params.x0

    def cf(w):
        return np.exp(1j * w * x0
                      + tr._log_h_vec(0.0, params.v0, T, w, 0.0, params))

    def pt(w):
        return _call_transform(w, spec.strike)

    undiscounted, diag = fourier_invert_1d(cf, pt, cfg, with_diagnostics=True)
    call = math.exp(-params.r * T) * undiscounted
    if spec.is_call:
        return PriceResult(call, diag["err_estimate"], diag)
    put = call - params.s0 * math.exp(-params.q * T) \
        + spec.strike * math.exp(-params.r * T)
    return PriceResult(put, diag["err_estimate"], diag)


# ---------------------------------------------------------------------------
# Timer pricing.
# ---------------------------------------------------------------------------


def _timerlet_sample_indices(n_monitoring: int, budget_nodes: int):
    """Indices j in [1, N-1] where the timerlet curve is evaluated exactly.

    Small j are kept exact (the curve is steepest near t = 0); the rest are
    Chebyshev points in sqrt(t_j).  budget_nodes >= N-1 means all exact.
    """
    n_inner = n_monitoring - 1
    if n_inner <= 0:
        return []
    if budget_nodes >= n_inner:
        return list(range(1, n_monitoring))
    explicit = [1, 2, 3]
    n_cheb = max(budget_nodes - len(explicit), 4)
    lo, hi = math.sqrt(4.0), math.sqrt(n_inner)
    k = np.arange(n_cheb)
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k + 1) * math.pi
                                                   / (2 * n_cheb))
    js = sorted(set(explicit) | {int(round(x * x)) for x in s})
    return [j for j in js if 1 <= j <= n_inner]


def _timer_w_matrix(T: float, N: int, j: int, params: ModelParams,
                    cfg: QuadratureConfig, omega: np.ndarray,
                    eta: np.ndarray) -> np.ndarray:
    """W_j(omega, eta) = int g(0,V0;t_j,omega,eta,v') h(t_j,v';t_{j+1},omega,0) dv'."""
    t_j = T * j / N
    t_j1 = T * (j + 1) / N
    nodes, wq = log_density_grid(
        lambda vp: tr._log_density_v_vec(0.0, params.v0, t_j, vp, params), cfg)
    log_h = tr._log_h_vec(t_j, nodes[None, :], t_j1, omega[:, None], 0.0,
                          params)
    log_g = tr._log_g_vec(0.0, params.v0, t_j, omega[:, None, None],
                          eta[None, :, None], nodes[None, None, :], params)
    inner = np.exp(log_g + log_h[:, None, :])
    return inner @ wq


def _timer_h_tilde(T: float, N: int, params: ModelParams,
                   cfg: QuadratureConfig, omega: np.ndarray,
                   eta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The decaying part of the timer kernel H on the node grid.

    H_tilde = e^{i w X0} [ e^{-rT} h(0,V0;T) - e^{-r t_1} h(0,V0;t_1)
              + sum_{j=1}^{N-1} e^{-r t_{j+1}} (W_j - h(0,V0;t_{j+1})) ].

    Returns (matrix, interpolation residual matrix).  With
    cfg.timerlet_nodes >= N-1 every timerlet difference D_j is evaluated
    exactly and the residual is zero.  Otherwise D_j is *demodulated* by
    the carrier P_j = h(0, V0; t_j, omega, eta): the ratio D_j / P_j is a
    short-horizon quantity, smooth and non-oscillatory in t_j (the carrier
    holds all the e^{i eta I}-type oscillation), so it interpolates
    accurately from Chebyshev samples in sqrt(t_j); the carrier itself is
    cheap (one Kummer evaluation per date) and is summed exactly.  The
    residual matrix is the demodulated interpolation error at a held-out
    index, re-modulated, for the caller to fold into its error estimate.
    """
    om = omega[:, None]
    et = eta[None, :]
    r = params.r

    def h_at(t_prime, eta_arg):
        return np.exp(tr._log_h_vec(0.0, params.v0, t_prime, om, eta_arg,
                                    params))

    acc = math.exp(-r * T) * h_at(T, et)
    acc -= math.exp(-r * T / N) * h_at(T / N, et)
    resid = np.zeros_like(acc)

    if N < 2:
        return np.exp(1j * om * params.x0) * acc, resid

    samples = _timerlet_sample_indices(N, cfg.timerlet_nodes)
    exact_all = len(samples) == N - 1

    def d_j(j):
        w = _timer_w_matrix(T, N, j, params, cfg, omega, eta)
        return w - h_at(T * (j + 1) / N, et)

    if exact_all:
        for j in samples:
            acc += math.exp(-r * T * (j + 1) / N) * d_j(j)
        return np.exp(1j * om * params.x0) * acc, resid

    def carrier(j):
        return h_at(T * j / N, et)

    def demod(d, p):
        safe = np.abs(p) > 1e-250
        return np.where(safe, d / np.where(safe, p, 1.0), 0.0)

    d_tilde = {}
    p_samples = {}
    for j in samples:
        p_samples[j] = carrier(j)
        d_tilde[j] = demod(d_j(j), p_samples[j])

    s_samp = np.sqrt([T * j / N for j in samples])
    bary = np.array([1.0 / np.prod(s - np.delete(s_samp, i))
                     for i, s in enumerate(s_samp)])

    def lagrange_at(j):
        sj = math.sqrt(T * j / N)
        lam = bary / (sj - s_samp)
        return lam / lam.sum()

    # Exact carrier sum: acc += sum_j disc_j * interp(D~)(t_j) * P_j
    # reorganized as sum_m D~_m * C_m with per-sample carrier accumulators.
    carriers = [np.zeros_like(acc) for _ in samples]
    for j in range(1, N):
        disc = math.exp(-r * T * (j + 1) / N)
        p_j = p_samples[j] if j in p_samples else carrier(j)
        if j in d_tilde:
            carriers[samples.index(j)] += disc * p_j
            continue
        for m, lam in enumerate(lagrange_at(j)):
            carriers[m] += disc * lam * p_j
    for m, j in enumerate(samples):
        acc += d_tilde[j] * carriers[m]

    gaps = [(b - a, (a + b) // 2) for a, b in zip(samples, samples[1:])
            if b - a > 1]
    if gaps:
        holdout = max(gaps)[1]
        p_h = carrier(holdout)
        d_true = d_j(holdout)
        lam = lagrange_at(holdout)
        d_interp = sum(l * d_tilde[j] for l, j in zip(lam, samples)) * p_h
        resid = d_interp - d_true

    return np.exp(1j * om * params.x0) * acc, resid


def _hermitian_residual(T, N, params, cfg, contour_eta):
    """Spot-check H_tilde(-conj w, -conj e) = conj H_tilde(w, e)."""
    pts_w = np.array([0.7 - 1.5j, 3.0 - 1.5j])
    pts_e = np.array([0.9 + 1j * contour_eta, 4.0 + 1j * contour_eta])
    a, _ = _timer_h_tilde(T, N, params, cfg, pts_w, pts_e)
    b, _ = _timer_h_tilde(T, N, params, cfg, -np.conj(pts_w), -np.conj(pts_e))
    denom = np.max(np.abs(a)) or 1.0
    return float(np.max(np.abs(b - np.conj(a))) / denom)


def price_timer_call(spec: TimerOptionSpec, params: ModelParams,
                     cfg: QuadratureConfig) -> PriceResult:
    """Price one finite-maturity discrete timer call."""
    return price_timer_grid([spec], params, cfg)[0]


def price_timer_grid(specs: Sequence[TimerOptionSpec], params: ModelParams,
                     cfg: QuadratureConfig) -> list:
    """Price several timer calls, sharing the kernel assembly across specs
    that differ only in strike or variance budget."""
    require_valid(params)
    cfg.require_timer_contour()

    def contour_for(spec):
        if cfg.timer_contour != "auto":
            return cfg.timer_contour
        return ("direct" if spec.variance_budget <= TIMER_CONTOUR_SWITCH_B
                else "complement")

    groups = {}
    for idx, spec in enumerate(specs):
        key = (spec.mandatory_maturity, spec.n_monitoring, contour_for(spec))
        groups.setdefault(key, []).append(idx)

    results = [None] * len(specs)
    for (T, N, contour), indices in groups.items():
        sign = 1.0 if contour == "direct" else -1.0
        d_eta = cfg.damping_eta if contour == "direct" else -cfg.damping_eta
        grid = parseval_grid(cfg, damping_eta=d_eta)
        h_tilde, resid = _timer_h_tilde(T, N, params, cfg, grid.omega,
                                        grid.eta)
        herm = _hermitian_residual(T, N, params, cfg, d_eta)
        if herm > _REL_IMAG_TOL:
            raise ThreeHalvesError(
                f"timer kernel failed the Hermitian-symmetry check "
                f"({herm:.2e}); imaginary residual would not cancel")
        resid_scale = np.exp(1j * grid.omega[:, None] * params.x0) * resid
        for idx in indices:
            spec = specs[idx]
            base_maturity = T / N if contour == "direct" else T
            base = _price_european_detailed(
                EuropeanSpec(spec.strike, base_maturity), params, cfg)
            fhat = _timer_transform_raw(grid.omega[:, None],
                                        grid.eta[None, :], spec.strike,
                                        spec.variance_budget)
            value, q_err, diag = parseval_contract(grid, fhat * h_tilde, cfg)
            # interpolation residual at the holdout date, propagated through
            # the same contraction and scaled by the number of timerlets
            interp_err = 0.0
            if np.any(resid):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    i_val, _, _ = parseval_contract(grid, fhat * resid_scale,
                                                    cfg)
                interp_err = abs(i_val) * (N - 1)
            price = base.price + sign * value
            err = q_err + base.err_estimate + interp_err
            diag.update({"contour": contour, "base_price": base.price,
                         "integral": sign * value,
                         "interp_err": interp_err,
                         "hermitian_residual": herm})
            if price < -err:
                raise ThreeHalvesError(
                    f"timer price came out negative ({price}) beyond the "
                    f"error budget")
            results[idx] = PriceResult(max(price, 0.0), err, diag)
    return results


# ---------------------------------------------------------------------------
# Variance-transition grids adapted to near-diagonal kernels.
# ---------------------------------------------------------------------------

_GRID_STD_SPAN = 9.0
_GRID_LOG_MARGIN = 2.0
_GRID_MAX_NODES = 192
_STATIONARY_WIDTH_CAP = 0.9


def _transition_grid(params: ModelParams, t_from: float, t_to: float,
                     v_center, cfg: QuadratureConfig):
    """Log-space trapezoid grid adapted to the V-transition from v_center.

    Center/width come from the noncentral chi-square moments of U = 1/V:
    std(ln V') ~ sqrt(2 C / u) (capped near the stationary spread).  Weights
    include the v' jacobian.  ``v_center`` may be an array, giving one grid
    row per center (shape (n_centers, n)).
    """
    v_center = np.atleast_1d(np.asarray(v_center, dtype=float))
    A = coef_A(params.theta, t_from, t_to)
    C = coef_C(params.theta, params.epsilon, t_from, t_to)
    df = 4.0 + 4.0 * params.kappa / params.eps2
    u = 1.0 / v_center
    u_mean = u / A + C * df / (2.0 * A)
    center = -np.log(u_mean)
    width = np.minimum(np.sqrt(2.0 * C * v_center), _STATIONARY_WIDTH_CAP)
    half = _GRID_STD_SPAN * width + _GRID_LOG_MARGIN
    need = int(np.ceil(np.max(2.0 * half / (np.min(width) / 4.0))))
    n = min(max(cfg.v_nodes, need), _GRID_MAX_NODES)
    grid01 = np.linspace(-1.0, 1.0, n)
    lnv = center[:, None] + half[:, None] * grid01[None, :]
    du = 2.0 * half / (n - 1)
    w = np.tile(du[:, None] / 1.0, (1, n))
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    nodes = np.exp(lnv)
    return nodes, w * nodes


# ---------------------------------------------------------------------------
# Moments by the Cauchy integral in the transform variable.
# ---------------------------------------------------------------------------

# Trapezoid rule on the circle |phi| = MOMENT_RADIUS with MOMENT_NODES nodes
# (sized by measurement, see _cauchy_moment).
MOMENT_NODES = 8
MOMENT_RADIUS = 0.25


def _cauchy_moment(m: int, f, conj_symmetric: bool):
    """i^{-m} f^{(m)}(0) for a characteristic function f: the m-th moment.

    Cauchy's integral f^{(m)}(0) = m!/(2 pi i) oint f(phi) phi^{-m-1} dphi
    is summed by the trapezoid rule on the circle |phi| = r at the offset
    angles theta_j = 2 pi (j + 1/2) / n (Lyness & Moler 1967; Bornemann
    2011):

        f^{(m)}(0) ~ m! / (n r^m) sum_j f(r e^{i theta_j}) e^{-i m theta_j}.

    Its error is the aliased Taylor coefficient a_{m+n} r^n relative to
    a_m, plus roundoff of about eps max|f| m!/r^m relative to f^{(m)}(0):
    a small circle aliases less and cancels more.  Measured on the swaps of
    1 to 252 periods, m = 2 and 3: n = 8, r = 0.25 lies within 3.5e-8 of a
    32-node rule (the largest gap is roundoff, on the N = 252 skew swap);
    r = 1 is off by up to 1.6e-5 on one and two periods; 12 nodes made the
    corridor swap of two periods about 1.4 times slower.  r stays well
    inside the strip where the swaps' exponential moments exist.

    ``f`` maps a 1-D array of nodes to its values stacked on a leading axis
    (the trailing axes are independent functions).  With ``conj_symmetric``
    (f(-conj phi) = conj f(phi): the CF of a real variable under a real
    weight) only the nodes with Re phi > 0 are evaluated and the rest are
    their conjugates; the result is then real (its imaginary part is only
    roundoff and is dropped).  The nodes of
    even index form the n/2-node rule at no extra cost.  Its aliasing term
    a_{m+4} r^4 is the square root of the full rule's where the Taylor
    coefficients decay geometrically; it stays within 5.4e-5 of the largest
    value on those swaps.  A disagreement beyond 1e-3 (a full-rule error
    near 1e-6) means f is not analytic enough on the disc, e.g. a pole
    inside it, and raises.
    """
    j = np.arange(MOMENT_NODES)
    theta = 2.0 * math.pi * (j + 0.5) / MOMENT_NODES
    phis = MOMENT_RADIUS * np.exp(1j * theta)
    if conj_symmetric:
        right = j[phis.real > 0.0]
        got = np.asarray(f(phis[right]), dtype=complex)
        vals = np.empty((MOMENT_NODES,) + got.shape[1:], dtype=complex)
        vals[right] = got
        vals[(MOMENT_NODES // 2 - 1 - right) % MOMENT_NODES] = np.conj(got)
    else:
        vals = np.asarray(f(phis), dtype=complex)
    coef = (math.factorial(m) / (MOMENT_NODES * MOMENT_RADIUS**m)
            * (-1j) ** m * np.exp(-1j * m * theta))
    full = np.tensordot(coef, vals, axes=1)
    half = 2.0 * np.tensordot(coef[::2], vals[::2], axes=1)
    gap = np.max(np.abs(full - half))
    if conj_symmetric:
        full = full.real
    if not gap <= 1e-3 * np.max(np.abs(full)):
        raise QuadratureNonConvergenceError(
            f"Cauchy moment of order {m}: the {MOMENT_NODES}- and "
            f"{MOMENT_NODES // 2}-node rules disagree by {gap:.3e} relative "
            f"to {np.max(np.abs(full)):.3e}; the function is not analytic "
            f"on the disc of radius {MOMENT_RADIUS}", achieved=gap)
    return full


def _weighted_moment(params: ModelParams, cfg: QuadratureConfig, m: int,
                     t_km1: float, t_k: float, t_i: float, omega):
    """i^{-m} d^m/dphi^m E[e^{i omega (X_{t_i} - X0)} e^{i phi dX_k}] at
    phi = 0, with dX_k = X_{t_k} - X_{t_{k-1}}, for each omega of an array.

    The weight date t_i picks the route; g1(0, V0; t_{k-1}, omega, v) weighs
    the variance v at t_{k-1} (at t_{k-1} = 0 it is a Dirac mass at V0):

    * t_i = t_{k-1}: the phi-factor h(t_{k-1}, v; t_k, phi) is free of
      omega; its moment D(v) is taken once and contracted against g1.
    * t_i = t_k:  int h(t_{k-1}, v; t_k, omega + phi) g1 dv.
    * t_i > t_k:  int int h(t_k, v'; t_i, omega)
                  g(t_{k-1}, v; t_k, omega + phi, v') g1 dv' dv,
      the tower rule through t_k.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    if t_km1 == 0.0:
        v = np.array([params.v0])
        wv = np.ones((omega.size, 1))
    else:
        v, w = _transition_grid(params, 0.0, t_km1, params.v0, cfg)
        v, w = v[0], w[0]
        wv = w * np.exp(tr._log_g_vec(0.0, params.v0, t_km1, omega[:, None],
                                      0.0, v, params))
    # A purely imaginary omega makes the weight e^{i omega X} real.
    real_weight = not np.any(omega.real)

    if t_i == t_km1:
        d_v = _cauchy_moment(m, lambda p: np.exp(tr._log_h_vec(
            t_km1, v, t_k, p[:, None], 0.0, params)), True)
        return wv @ d_v

    if t_i == t_k:
        def f(phis):
            return np.stack([np.einsum("wv,wv->w", wv, np.exp(tr._log_h_vec(
                t_km1, v, t_k, omega[:, None] + p, 0.0, params)))
                for p in phis])
        return _cauchy_moment(m, f, real_weight)

    inner, w_in = _transition_grid(params, t_km1, t_k, v, cfg)
    h_after = w_in * np.exp(tr._log_h_vec(t_k, inner, t_i,
                                          omega[:, None, None], 0.0, params))

    def f(phis):
        return np.stack([np.einsum("wv,wvs,wvs->w", wv, h_after, np.exp(
            tr._log_g_vec(t_km1, v[:, None], t_k,
                          omega[:, None, None] + p, 0.0, inner, params)))
            for p in phis])
    return _cauchy_moment(m, f, real_weight)


def expected_quadratic_variation(params: ModelParams,
                                 maturity: float) -> float:
    """E[I_T]: the first moment of the joint CF in eta at the origin."""
    moment = _cauchy_moment(1, lambda e: np.exp(tr._log_h_vec(
        0.0, params.v0, maturity, 0.0, e, params)), True)
    return _realize(complex(moment), "expected quadratic variation")


# ---------------------------------------------------------------------------
# Weighted fair strikes.
# ---------------------------------------------------------------------------


def fair_strike_weighted(spec: MomentSwapSpec, params: ModelParams,
                         cfg: QuadratureConfig) -> float:
    """Fair strike (1/T) sum_k E[f(S_{t_{i_k}}) (dX_k)^m] of a moment swap.

    The constant weight is omega = 0 at the weight date t_{k-1}; the
    price-ratio and terminal-price weights f(x) = x/S0 have Dirac payoff
    transforms at omega = -i (e^{i omega X0} = S0 cancels the 1/S0), so the
    omega integral collapses; the corridor weight integrates
    f_hat(omega) = (u^{-i w} - l^{-i w})/(-i w) along Im(omega) = -1/2.
    """
    require_valid(params)
    T, n = spec.maturity, spec.n_periods

    def moments(omega, periods):
        return sum(_weighted_moment(params, cfg, spec.m, spec.date(k - 1),
                                    spec.date(k),
                                    spec.date(spec.weight_index(k, n)), omega)
                   for k in periods)

    if spec.weight_kind != "corridor":
        omega = 0.0 if spec.weight_kind == "constant" else -1j
        return _realize(complex(moments(omega, range(1, n + 1))[0]),
                        "weighted fair strike") / T

    lo, up = spec.corridor_lower, spec.corridor_upper

    def cf(w):
        lagged = range(1 + spec.lag, n + 1)
        return moments(w, lagged) * np.exp(1j * w * params.x0)

    def pt(w):
        return _corridor_fhat(w, lo, up)

    value = fourier_invert_1d(cf, pt, cfg, damping=CORRIDOR_DAMPING,
                              truncation=CORRIDOR_TRUNCATION,
                              nodes=CORRIDOR_NODES)
    # With lag = 1 the first period's weight is the number f(S0), kept out
    # of the omega integral (inverting an indicator transform numerically
    # would only add Gibbs error).
    if spec.lag == 1 and lo < params.s0 <= up:
        value += _realize(complex(moments(0.0, [1])[0]),
                          "corridor first-period term")
    return value / T


def _realize(val: complex, what: str) -> float:
    if abs(val.imag) > _REL_IMAG_TOL * max(abs(val.real), 1e-300):
        raise ThreeHalvesError(
            f"{what} has imaginary residual {val.imag:.3e} vs real part "
            f"{val.real:.3e}")
    return float(val.real)


CORRIDOR_DAMPING = -0.5
CORRIDOR_TRUNCATION = 80.0
CORRIDOR_NODES = 768


def _corridor_fhat(omega, lower: float, upper: float):
    return (upper ** (-1j * omega) - lower ** (-1j * omega)) / (-1j * omega)
