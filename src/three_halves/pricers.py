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
The fair strike is (1/T) sum_k L_k with L_k built from forward transforms;
the phi-derivative of the characteristic function at phi = 0 is taken by
central differences (step PHI_STEP) with one Richardson level, using
conjugate symmetry in phi so the i^{-m}-rotated results are real by
construction.
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
    ThreeHalvesError,
)
from .model import ModelParams, coef_A, coef_C, require_valid
from .quadrature import (
    QuadratureConfig,
    fourier_invert_1d,
    log_density_grid,
    parseval_contract,
    parseval_grid,
    stable_complex_sum,
    stable_sum,
)

# Contour auto-switch: direct representation up to this variance budget,
# complement beyond (see module docstring).
TIMER_CONTOUR_SWITCH_B = 0.5

# Central-difference step on the phi axis for CF derivatives at phi = 0.
PHI_STEP = 1e-3
PHI_RICHARDSON_REL_TOL = 1e-5

_REL_IMAG_TOL = 1e-8


def _c0(x) -> complex:
    """First element of an array-like as a python complex."""
    return complex(np.ravel(np.asarray(x))[0])


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

    def weight_index(self, k: int, n_periods: int) -> Optional[int]:
        """Column index i_k into the (N+1)-column monitoring arrays, or None
        for a deterministic unit weight."""
        if self.weight_kind == "constant":
            return None
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
# Phi-derivative machinery (central differences + one Richardson level).
# ---------------------------------------------------------------------------


def _phi_stencil(m: int, h: float = PHI_STEP):
    """Positive phi evaluation points; negative points come from conjugate
    symmetry of the CF in phi."""
    if m == 2:
        return (0.0, 0.5 * h, h)
    return (0.5 * h, h, 2.0 * h)


def _phi_derivative_real(m: int, fvals, h: float = PHI_STEP) -> float:
    """i^{-m} d^m/dphi^m at phi = 0 from stencil values, real by construction.

    ``fvals`` are the CF values at ``_phi_stencil(m)``; f(-phi) = conj f(phi)
    is used analytically, so roundoff cannot leak an imaginary part.  One
    Richardson level; disagreement of the two difference levels beyond
    PHI_RICHARDSON_REL_TOL (and beyond what roundoff in the stencil can
    explain) raises.
    """
    if m == 2:
        # i^{-2} D2(s) = -(2 Re f(s) - 2 f(0)) / s^2
        f0, fh2, fh = fvals
        if abs(float(np.imag(f0))) > 1e-9 * max(abs(float(np.real(f0))), 1e-30):
            raise ThreeHalvesError("CF at phi=0 must be real")
        f0 = float(np.real(f0))
        val_h = -(2.0 * float(np.real(fh)) - 2.0 * f0) / (h * h)
        val_h2 = -(2.0 * float(np.real(fh2)) - 2.0 * f0) / (0.25 * h * h)
        scale = abs(f0)
        noise = 64.0 * 2.2e-16 * scale / (0.25 * h * h)
    else:
        # i^{-3} D3(s) = -(Im f(2s) - 2 Im f(s)) / s^3
        fh2, fh, f2h = fvals
        val_h = -(float(np.imag(f2h)) - 2.0 * float(np.imag(fh))) / (h**3)
        val_h2 = -(float(np.imag(fh)) - 2.0 * float(np.imag(fh2))) / ((0.5 * h) ** 3)
        scale = max(abs(complex(fh)), 1.0)
        noise = 64.0 * 2.2e-16 * scale / (0.125 * h**3)
    rich = (4.0 * val_h2 - val_h) / 3.0
    disagreement = abs(val_h2 - val_h)
    if (disagreement > PHI_RICHARDSON_REL_TOL * max(abs(rich), 1e-300)
            and disagreement > noise):
        raise ThreeHalvesError(
            f"phi-derivative Richardson levels disagree by {disagreement:.3e} "
            f"relative to {rich:.3e}; step {h} is unstable here")
    return rich


def _phi_derivative_vec(m: int, fvals, h: float = PHI_STEP):
    """Vectorized variant of _phi_derivative_real (no diagnostics)."""
    if m == 2:
        f0, fh2, fh = (np.asarray(f) for f in fvals)
        val_h = -(2.0 * fh.real - 2.0 * f0.real) / (h * h)
        val_h2 = -(2.0 * fh2.real - 2.0 * f0.real) / (0.25 * h * h)
    else:
        fh2, fh, f2h = (np.asarray(f) for f in fvals)
        val_h = -(f2h.imag - 2.0 * fh.imag) / h**3
        val_h2 = -(fh.imag - 2.0 * fh2.imag) / (0.5 * h) ** 3
    return (4.0 * val_h2 - val_h) / 3.0


def _phi_derivative_complex(m: int, fvals, h: float = PHI_STEP):
    """Full complex stencil (no conjugate symmetry): fvals at
    {-2h,-h,-h/2,0,h/2,h,2h} as arrays; returns i^{-m} d^m f."""
    fm2, fm1, fmh, f0, fh2, fh1, fp2 = (np.asarray(f, dtype=complex)
                                        for f in fvals)
    if m == 2:
        d_h = (fh1 - 2.0 * f0 + fm1) / (h * h)
        d_h2 = (fh2 - 2.0 * f0 + fmh) / (0.25 * h * h)
        rich = (4.0 * d_h2 - d_h) / 3.0
        return -rich
    d_h = (fp2 - 2.0 * fh1 + 2.0 * fm1 - fm2) / (2.0 * h**3)
    d_h2 = (fh1 - 2.0 * fh2 + 2.0 * fmh - fm1) / (2.0 * (0.5 * h) ** 3)
    rich = (4.0 * d_h2 - d_h) / 3.0
    return 1j * rich


# ---------------------------------------------------------------------------
# Variance-transition grids adapted to near-diagonal kernels.
# ---------------------------------------------------------------------------

_GRID_STD_SPAN = 9.0
_GRID_LOG_MARGIN = 2.0
_GRID_MAX_NODES = 192
_STATIONARY_WIDTH_CAP = 0.9


def _transition_grid(params: ModelParams, t_from: float, t_to: float,
                     v_center, cfg: QuadratureConfig,
                     n: Optional[int] = None):
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
    if n is None:
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
# Deterministic-weight fair strikes (variance and skewness swaps).
# ---------------------------------------------------------------------------


def _forward_cf_stencil(params: ModelParams, cfg: QuadratureConfig,
                        t_km1: float, t_k: float, phis):
    """F(phi) = int G_V(0,V0;t_{k-1},v') h(t_{k-1},v';t_k,phi,0) dv' at the
    stencil phis (k = 1 collapses to h(0,V0;t_1,phi,0))."""
    if t_km1 == 0.0:
        return [complex(tr.joint_cf_h(0.0, params.v0, t_k,
                                      tr.TransformPoint(p, 0.0), params))
                for p in phis]
    nodes, w = _transition_grid(params, 0.0, t_km1, params.v0, cfg)
    nodes, w = nodes[0], w[0]
    dens = np.exp(tr._log_density_v_vec(0.0, params.v0, t_km1, nodes, params))
    out = []
    for p in phis:
        h = np.exp(tr._log_h_vec(t_km1, nodes, t_k, complex(p), 0.0, params))
        out.append(complex(stable_complex_sum(w * dens * h)))
    return out


def fair_strike_deterministic_weight(spec: MomentSwapSpec, params: ModelParams,
                                     cfg: QuadratureConfig) -> float:
    """Fair strike for constant-weight moment swaps (variance, skewness).

    K = (1/T) sum_k i^{-m} d^m/dphi^m [forward CF of X_{t_k} - X_{t_{k-1}}]
    at phi = 0.
    """
    require_valid(params)
    if spec.weight_kind != "constant":
        raise InvalidParametersError(
            "fair_strike_deterministic_weight needs weight_kind='constant'")
    phis = _phi_stencil(spec.m)
    total = []
    for k in range(1, spec.n_periods + 1):
        f = _forward_cf_stencil(params, cfg, spec.date(k - 1), spec.date(k),
                                phis)
        total.append(_phi_derivative_real(spec.m, f))
    return stable_sum(total) / spec.maturity


def expected_quadratic_variation(params: ModelParams, maturity: float,
                                 h: float = PHI_STEP) -> float:
    """E[I_T] from the eta-derivative of the joint CF at the origin."""
    f = [tr.joint_cf_h(0.0, params.v0, maturity, tr.TransformPoint(0.0, p),
                       params) for p in (h, 0.5 * h)]
    d_h = np.imag(f[0]) / h
    d_h2 = np.imag(f[1]) / (0.5 * h)
    return float((4.0 * d_h2 - d_h) / 3.0)


# ---------------------------------------------------------------------------
# Weighted fair strikes.
# ---------------------------------------------------------------------------


def _outer_weight_grid(params: ModelParams, cfg: QuadratureConfig,
                       t_target: float, omega: complex):
    """Nodes/weights/values for the outer integral over v at time t_target,
    weighted by g1(0, V0; t_target, omega, v)."""
    nodes, w = _transition_grid(params, 0.0, t_target, params.v0, cfg)
    nodes, w = nodes[0], w[0]
    g1 = np.exp(tr._log_g_vec(0.0, params.v0, t_target, omega, 0.0, nodes,
                              params))
    return nodes, w, g1


def _quanto_inner_sum(params: ModelParams, cfg: QuadratureConfig,
                      t_km1: float, t_k: float, horizon: float,
                      v_nodes: np.ndarray, m: int) -> np.ndarray:
    """Per outer node v: int h(t_k, v'; horizon, -i, 0) *
    [i^{-m} d^m/dphi^m g1(t_{k-1}, v; t_k, phi - i, v')] dv'."""
    inner_nodes, inner_w = _transition_grid(params, t_km1, t_k, v_nodes, cfg)
    h_fac = np.exp(tr._log_h_vec(t_k, inner_nodes, horizon, -1j, 0.0, params))
    phis = _phi_stencil(m)
    fvals = [np.exp(tr._log_g_vec(t_km1, v_nodes[:, None], t_k,
                                  complex(p) - 1j, 0.0, inner_nodes, params))
             for p in phis]
    deriv = _phi_derivative_vec(m, fvals)
    return np.einsum("vs,vs,vs->v", inner_w, h_fac.real, deriv)


def fair_strike_self_quantoed(schedule: Sequence[float] | MomentSwapSpec,
                              params: ModelParams,
                              cfg: QuadratureConfig) -> float:
    """Fair strike of the self-quantoed variance swap (S_T/S0-weighted).

    K = -(1/T) int int sum_k h(t_k, v'; T, -i, 0)
        [d^2/dphi^2 g1(t_{k-1}, v; t_k, phi-i, v')]_{phi=0}
        g1(0, V0; t_{k-1}, -i, v) dv' dv,

    with the k = 1 outer integral collapsed at v = V0 (Dirac initial
    condition) and the k-sum accumulated inside the shared outer loop.
    """
    require_valid(params)
    if isinstance(schedule, MomentSwapSpec):
        spec = schedule
    else:
        times = list(schedule)
        spec = MomentSwapSpec(maturity=times[-1], n_periods=len(times),
                              m=2, weight_kind="terminal_price")
    T = spec.maturity
    n = spec.n_periods
    total = []
    for k in range(1, n + 1):
        t_km1, t_k = spec.date(k - 1), spec.date(k)
        if k == 1:
            inner = _quanto_inner_sum(params, cfg, 0.0, t_k, T,
                                      np.array([params.v0]), spec.m)
            total.append(float(inner[0]))
            continue
        v_nodes, v_w, g1_outer = _outer_weight_grid(params, cfg, t_km1, -1j)
        inner = _quanto_inner_sum(params, cfg, t_km1, t_k, T, v_nodes, spec.m)
        total.append(float(stable_sum(v_w * g1_outer.real * inner)))
    # i^{-2} rotation is inside the phi derivative; the remaining sign is
    # the -(1/T) prefactor of the S_T/S0-weighted second moment.
    return stable_sum(total) / T


def _expect_phi_deriv_ik_eq_k(params, cfg, t_km1, t_k, omega, m):
    """i^{-m} d^m/dphi^m E_0[e^{i w X_{t_k} + i phi dX_k}] / e^{i w X0}.

    Collapsed single-integral form (h(t_k,.;t_k)=1):
        int h(t_{k-1}, v; t_k, w+phi, 0) g1(0,V0;t_{k-1}, w, v) dv.
    """
    omega = complex(omega)
    phis = [-2 * PHI_STEP, -PHI_STEP, -PHI_STEP / 2, 0.0, PHI_STEP / 2,
            PHI_STEP, 2 * PHI_STEP]
    if t_km1 == 0.0:
        fvals = [np.exp(tr._log_h_vec(0.0, params.v0, t_k, omega + p, 0.0,
                                      params)) for p in phis]
        return _c0(_phi_derivative_complex(m, fvals))
    v_nodes, v_w, g1_outer = _outer_weight_grid(params, cfg, t_km1, omega)
    fvals = []
    for p in phis:
        h = np.exp(tr._log_h_vec(t_km1, v_nodes, t_k, omega + p, 0.0,
                                 params))
        fvals.append(stable_complex_sum(v_w * g1_outer * h))
    return _c0(_phi_derivative_complex(m, fvals))


def _expect_phi_deriv_ik_eq_km1(params, cfg, t_km1, t_k, omega, m):
    """Same for i_k = k-1: int h(t_{k-1}, v; t_k, phi, 0) g1(0,V0;t_{k-1},w,v) dv
    (Dirac collapse of the intermediate transition)."""
    omega = complex(omega)
    phis = [-2 * PHI_STEP, -PHI_STEP, -PHI_STEP / 2, 0.0, PHI_STEP / 2,
            PHI_STEP, 2 * PHI_STEP]
    if t_km1 == 0.0:
        fvals = [np.exp(tr._log_h_vec(0.0, params.v0, t_k, complex(p), 0.0,
                                      params)) for p in phis]
        return _c0(_phi_derivative_complex(m, fvals))
    v_nodes, v_w, g1_outer = _outer_weight_grid(params, cfg, t_km1, omega)
    fvals = []
    for p in phis:
        h = np.exp(tr._log_h_vec(t_km1, v_nodes, t_k, complex(p), 0.0,
                                 params))
        fvals.append(stable_complex_sum(v_w * g1_outer * h))
    return _c0(_phi_derivative_complex(m, fvals))


def fair_strike_weighted(spec: MomentSwapSpec, params: ModelParams,
                         cfg: QuadratureConfig) -> float:
    """Fair strike for price-ratio, corridor, and terminal-price weights.

    Price-ratio and terminal-price weights have Dirac payoff transforms at
    omega = -i (f(x) = x/S0), so the omega integral collapses; the corridor
    weight integrates f_hat(omega) = (u^{-i w} - l^{-i w})/(-i w) along the
    contour Im(omega) = -1/2.
    """
    require_valid(params)
    if spec.weight_kind == "constant":
        return fair_strike_deterministic_weight(spec, params, cfg)
    T, n = spec.maturity, spec.n_periods
    if spec.weight_kind in ("price_ratio", "terminal_price"):
        terms = []
        for k in range(1, n + 1):
            t_km1, t_k = spec.date(k - 1), spec.date(k)
            if spec.weight_kind == "price_ratio":
                ik = k - spec.lag
            else:
                ik = n
            if ik == k:
                val = _expect_phi_deriv_ik_eq_k(params, cfg, t_km1, t_k, -1j,
                                                spec.m)
            elif ik == k - 1:
                val = _expect_phi_deriv_ik_eq_km1(params, cfg, t_km1, t_k,
                                                  -1j, spec.m)
            else:  # terminal weight, i_k = N > k: bivariate route
                val = _expect_phi_deriv_ik_gt_k(params, cfg, t_km1, t_k,
                                                spec.date(ik), -1j, spec.m)
            # e^{i w X0} at w = -i is S0, cancelling the 1/S0 in f
            terms.append(_realize(val, "weighted fair strike term"))
        return stable_sum(terms) / T
    return _fair_strike_corridor(spec, params, cfg)


def _expect_phi_deriv_ik_gt_k(params, cfg, t_km1, t_k, t_ik, omega, m):
    """General i_k >= k double-integral form (tower through t_k):

    int int h(t_k, v'; t_ik, omega, 0) [d^m g1(t_{k-1}, v; t_k, omega+phi, v')]
            g1(0, V0; t_{k-1}, omega, v) dv' dv.
    """
    omega = complex(omega)
    phis = [-2 * PHI_STEP, -PHI_STEP, -PHI_STEP / 2, 0.0, PHI_STEP / 2,
            PHI_STEP, 2 * PHI_STEP]
    if t_km1 == 0.0:
        v_nodes = np.array([params.v0])
        v_w = np.array([1.0])
        g1_outer = np.array([1.0 + 0.0j])
    else:
        v_nodes, v_w, g1_outer = _outer_weight_grid(params, cfg, t_km1, omega)
    inner_nodes, inner_w = _transition_grid(params, t_km1, t_k, v_nodes, cfg)
    h_fac = np.exp(tr._log_h_vec(t_k, inner_nodes, t_ik, omega, 0.0, params))
    fvals = []
    for p in phis:
        g1_in = np.exp(tr._log_g_vec(t_km1, v_nodes[:, None], t_k, omega + p,
                                     0.0, inner_nodes, params))
        inner = np.einsum("vs,vs,vs->v", inner_w, h_fac, g1_in)
        fvals.append(stable_complex_sum(v_w * g1_outer * inner))
    return _c0(_phi_derivative_complex(m, fvals))


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


def _fair_strike_corridor(spec: MomentSwapSpec, params: ModelParams,
                          cfg: QuadratureConfig) -> float:
    """Corridor variance swap: 1-D inversion against the corridor transform.

    For i_k = k-1 the phi-dependence sits in h(t_{k-1}, v; t_k, phi, 0),
    which is omega-free: its derivative is precomputed per (k, v) and only
    g1(0,V0;t_{k-1},omega,v) is evaluated along the contour.  For i_k = k
    the full coupling is evaluated.
    """
    T, n = spec.maturity, spec.n_periods
    x0 = params.x0

    # With lag = 1 the first period's weight index is i_1 = 0, so the weight
    # is the deterministic f(S0) and that term never enters the omega
    # integral (inverting an indicator transform numerically would only add
    # Gibbs error).
    deterministic_part = 0.0
    if spec.lag == 1:
        fv = [tr.joint_cf_h(0.0, params.v0, spec.date(1),
                            tr.TransformPoint(p, 0.0), params)
              for p in _phi_stencil(spec.m)]
        w0 = 1.0 if spec.corridor_lower < params.s0 <= spec.corridor_upper else 0.0
        deterministic_part = w0 * _phi_derivative_real(spec.m, fv)

    prep = []
    for k in range(1, n + 1):
        t_km1, t_k = spec.date(k - 1), spec.date(k)
        if spec.lag == 1 and k == 1:
            continue
        if t_km1 == 0.0:
            prep.append((t_km1, t_k, None, None, None))
            continue
        v_nodes, v_w = _transition_grid(params, 0.0, t_km1, params.v0, cfg)
        v_nodes, v_w = v_nodes[0], v_w[0]
        dphi_h = None
        if spec.lag == 1:
            phis = _phi_stencil(spec.m)
            fv = [np.exp(tr._log_h_vec(t_km1, v_nodes, t_k, complex(p), 0.0,
                                       params)) for p in phis]
            dphi_h = _phi_derivative_vec(spec.m, fv)
        prep.append((t_km1, t_k, v_nodes, v_w, dphi_h))

    def cf(w):
        out = np.zeros(w.shape, dtype=complex)
        phis_c = [-2 * PHI_STEP, -PHI_STEP, -PHI_STEP / 2, 0.0, PHI_STEP / 2,
                  PHI_STEP, 2 * PHI_STEP]
        for t_km1, t_k, v_nodes, v_w, dphi_h in prep:
            if v_nodes is None:
                # lag = 0, k = 1: the outer transition collapses at V0
                fvals = [np.exp(tr._log_h_vec(0.0, params.v0, t_k,
                                              w + p, 0.0, params))
                         for p in phis_c]
                out += _phi_derivative_complex(spec.m, fvals)
                continue
            g1 = np.exp(tr._log_g_vec(0.0, params.v0, t_km1, w[:, None], 0.0,
                                      v_nodes[None, :], params))
            if spec.lag == 1:
                out += g1 @ (v_w * dphi_h)
            else:
                fvals = [np.exp(tr._log_h_vec(t_km1, v_nodes[None, :], t_k,
                                              w[:, None] + p, 0.0, params))
                         for p in phis_c]
                dmat = _phi_derivative_complex(spec.m, fvals)
                out += np.einsum("wv,v,wv->w", g1, v_w, dmat)
        return out * np.exp(1j * w * x0)

    def pt(w):
        return _corridor_fhat(w, spec.corridor_lower, spec.corridor_upper)

    val = fourier_invert_1d(cf, pt, cfg, damping=CORRIDOR_DAMPING,
                            truncation=CORRIDOR_TRUNCATION,
                            nodes=CORRIDOR_NODES)
    return (val + deterministic_part) / T
