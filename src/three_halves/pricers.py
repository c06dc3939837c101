"""Product pricers: European vanillas, finite-maturity discrete timer calls,
and discretely sampled weighted moment swaps.

Every omega integral is summed by the one omega rule of ``quadrature``, whose
panels run until the integrand is spent: a European call is one
``fourier_invert_1d`` of the marginal CF against the call transform.

Timer decomposition
-------------------
With the quadratic variation I as the realized-variance proxy, the timer
call telescopes over monitoring dates t_j = j T / N:

    C0 = E[e^{-rT} (S_T-K)^+ 1{I_T<B}]
         + sum_j e^{-r t_{j+1}} E[(S_{t_{j+1}}-K)^+ (1{I_{t_j}<B} - 1{I_{t_{j+1}}<B})]

and prices by Parseval against the payoff transform

    F(omega, eta) = K^{1 - i omega} e^{-i eta B} / ((i omega + omega^2) i eta)

on Im(omega) < -1.  The kernel is

    H(omega, eta) = e^{i omega X0} [ e^{-rT} h(0,V0;T)
        + sum_j e^{-r t_{j+1}} (W_j - h(0,V0;t_{j+1})) ],
    W_j = int g(0,V0;t_j,omega,eta,v') h(t_j,v';t_{j+1},omega,0) dv',

where W_0 = h(0,V0;t_1,omega,0), constant in eta (the transform at zero
elapsed time is a Dirac mass at V0).  That constant part prices as a
European call at t_1; the rest is H_tilde (``_timer_h_tilde``).

With s = -i eta, the eta integral is a Bromwich integral in the budget:
F = -K^{1-i omega} e^{sB} / ((i omega + omega^2) s).  Its one pole, at
s = 0, picks out H_tilde(omega, 0), which the tower property
W_j(omega, 0) = h(0,V0;t_{j+1},omega,0) makes the European kernel at T
less the one at t_1.  So the pole and the constant part together give
European(T) exactly, and F [H_tilde - H_tilde(omega, 0)], which has no
pole, is summed on a Talbot contour (Talbot 1979; Weideman & Trefethen
2007) that wraps the kernel's cuts, on which e^{sB} decays:

    price = European(T) + (1 / (2 pi^2)) Re sum_omega w_omega J(omega).

The omega axis is folded to omega_R >= 0 through (omega, s) ->
(-conj omega, conj s); the first Talbot pass fixes its panels, and every
later pass reuses them.  Each omega's contour of M nodes has scale M / B and
is centred on the branch point of c(omega, eta), or with jumps between it
and the jump transform's singularity (``_talbot_contour``); an omega whose
contour cannot hold them gets more nodes.  M starts at TALBOT_NODES.  The
sums on M and on M - TALBOT_STEP nodes are compared, their gap goes into
err_estimate, and M grows by TALBOT_STEP until they agree to rel_tol.
e^{sB} peaks at e^{0.171 M} on the contour, so once e^{0.171 M} eps passes
rel_tol, more nodes cannot help and the pricer raises.

Moment swaps
------------
The fair strike is (1/T) sum_k E[f(S_{t_{i_k}}) (X_{t_k} - X_{t_{k-1}})^m].
Every weight is a superposition of e^{i omega X_{t_i}} (omega = 0 for the
constant weight, -i for the price ratio and terminal price, the contour
for the corridor), so every term comes from one kernel,
E[e^{i omega X_{t_i}} e^{i phi dX_k}], whose m-th phi-derivative at
phi = 0 is one Cauchy integral: the trapezoid rule on a circle of radius
MOMENT_RADIUS with MOMENT_NODES nodes (``_cauchy_moment``).  The corridor
inverts its weight's transform by ``fourier_invert_1d``; its v grids are
sized so that g1's phase in ln v does not alias at the largest omega_R.

The periods of a swap differ only in their dates, so they are priced
together (``_weighted_moment``): on the routes with the weight at t_{k-1}
or t_k, every period's v grid is stacked on one node axis whose nodes carry
their own dates, and the Cauchy nodes phi sit on a leading axis, so g1 and
h are each one kernel call per block of periods.  A block holds as many
periods as keep omega x phi x nodes within _MOMENT_BLOCK_ELEMENTS, which
bounds the kernels' memory.  The terminal-price weight's tower route
(t_i > t_k) pairs some 16k (v, v') nodes per period and stays one period at
a time: it is bound by elements, not by calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import transforms as tr
from .errors import (
    ContourViolationError,
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from .model import ModelParams, _jump_exponent, coef_A, coef_C, require_valid
from .quadrature import (
    QuadratureConfig,
    fourier_invert_1d,
    log_density_grid,
    omega_integral,
)

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


def _timer_transform_raw(omega, eta, strike: float, budget: float):
    """F(omega, eta) = K^{1-i w} e^{-i e B} / ((i w + w^2) i e), the
    transform of the {y < B} call payoff on Im(omega) < -1, Im(eta) > 0,
    and its continuation in eta beyond."""
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

    undiscounted, diag = fourier_invert_1d(cf, pt, cfg)
    discount = math.exp(-params.r * T)
    err = discount * diag["err_estimate"]
    call = discount * undiscounted
    if spec.is_call:
        return PriceResult(call, err, diag)
    put = call - params.s0 * math.exp(-params.q * T) + spec.strike * discount
    return PriceResult(put, err, diag)


# ---------------------------------------------------------------------------
# Timer pricing.
# ---------------------------------------------------------------------------

# Talbot's contour s(theta) = mu (a + b theta cot(c theta) + i d theta),
# theta in (-pi, pi), mu = M / B (Weideman & Trefethen 2007).
_TALBOT = (-0.6122, 0.5017, 0.6407, 0.2645)
TALBOT_NODES = 24  # nodes of the first contour
TALBOT_STEP = 8  # the error estimate compares M nodes with M - TALBOT_STEP
TALBOT_MARGIN = 2.0  # singular points lie inside the contour shrunk by this
TALBOT_MAX_NODES = 400


def _talbot_shape(m: int):
    """The unit contour (mu = 1) and its derivative at the m midpoint nodes
    theta_k = -pi + (k + 1/2) 2 pi / m."""
    a, b, c, d = _TALBOT
    theta = -math.pi + (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    cot = 1.0 / np.tan(c * theta)
    return (a + b * theta * cot + 1j * d * theta,
            b * (cot - c * theta * (1.0 + cot * cot)) + 1j * d)


# Upper half of the unit contour; Re s falls from s(0) to s(pi).
_UNIT = _talbot_shape(2048)[0][1024:]


def _talbot_contour(m: int, budget: float, T: float, omega,
                    params: ModelParams):
    """Nodes s_k and s'(theta_k), shape (n_omega, m), of each omega's
    contour of m nodes, and whether that contour is admissible.

    In s = -i eta the kernel is analytic but for cuts running left from the
    branch point s* = -(eps^2/2) [b0^2 + (i w + w^2)/eps^2] of
    c = sqrt(2 (s - s*) / eps^2), b0 = 1/2 + kt/eps^2, and with jumps from
    the essential singularity s_J = -1/(2 sigma_J^2) of the jump transform.
    The contour is centred as near Im s* as keeps both inside it shrunk by
    TALBOT_MARGIN.  With jumps it must also keep |e^{sB} e^{a T}| below
    e^{sB} at its right end, so that the jump factor cannot swamp the sum.
    """
    mu = m / budget
    b0 = 0.5 + tr._kappa_tilde(omega, params) / params.eps2
    points = [-0.5 * params.eps2 * b0 * b0 - 0.5 * (1j * omega + omega**2)]
    jp = params.jumps
    jumps = jp is not None and jp.lam > 0.0 and jp.sigma > 0.0
    if jumps:
        points.append(np.full(omega.shape, -0.5 / jp.sigma**2 + 0j))
    # each point p allows centres within its reach of Im p
    reach = [mu / TALBOT_MARGIN * np.interp(
        p.real * TALBOT_MARGIN / mu, _UNIT.real[::-1], _UNIT.imag[::-1],
        right=0.0) for p in points]
    lo = np.max([p.imag - r for p, r in zip(points, reach)], axis=0)
    hi = np.min([p.imag + r for p, r in zip(points, reach)], axis=0)
    shift = 1j * np.clip(points[0].imag, lo, np.maximum(lo, hi))[:, None]
    z, dz = _talbot_shape(m)
    ok = lo < hi
    if jumps:  # checked between the nodes too
        s = mu * _talbot_shape(4 * m)[0] + shift
        expo, w = _jump_exponent(omega[:, None], 1j * s, jp)
        with np.errstate(over="ignore"):
            growth = budget * s.real + jp.lam * T * np.expm1(
                expo.real - 0.5 * np.log(np.abs(w)))
        ok &= np.all(growth <= budget * mu * _UNIT[0].real, axis=-1)
    return mu * z + shift, mu * dz, ok


def _talbot_counts(budget: float, T: float, omega, params: ModelParams):
    """Per omega, TALBOT_STEP more than the least admissible node count
    (at least TALBOT_NODES), so that the contour of M - TALBOT_STEP nodes
    the error estimate uses is admissible too; larger contours hold the
    same points."""
    counts = np.zeros(omega.shape, dtype=int)
    for m in range(TALBOT_NODES - TALBOT_STEP, TALBOT_MAX_NODES, TALBOT_STEP):
        todo = np.flatnonzero(counts == 0)
        ok = _talbot_contour(m, budget, T, omega[todo], params)[2]
        counts[todo[ok]] = m + TALBOT_STEP
        if counts.all():
            return counts
    raise QuadratureNonConvergenceError(
        f"no Talbot contour of up to {TALBOT_MAX_NODES} nodes holds the "
        f"timer kernel's singularities at B = {budget}")


def _timer_w_matrix(T: float, N: int, j: int, params: ModelParams,
                    cfg: QuadratureConfig, omega: np.ndarray,
                    eta: np.ndarray) -> np.ndarray:
    """W_j(omega, eta) = int g(0,V0;t_j,omega,eta,v') h(t_j,v';t_{j+1},omega,0) dv'
    for eta of shape (n_omega, n_eta), row i paired with omega[i]."""
    t_j = T * j / N
    t_j1 = T * (j + 1) / N
    nodes, wq = log_density_grid(
        lambda vp: tr._log_density_v_vec(0.0, params.v0, t_j, vp, params), cfg)
    log_h = tr._log_h_vec(t_j, nodes[None, :], t_j1, omega[:, None], 0.0,
                          params)
    log_g = tr._log_g_vec(0.0, params.v0, t_j, omega[:, None, None],
                          eta[:, :, None], nodes[None, None, :], params)
    inner = np.exp(log_g + log_h[:, None, :])
    return inner @ wq


def _timer_h_tilde(T: float, N: int, params: ModelParams,
                   cfg: QuadratureConfig, omega: np.ndarray,
                   eta: np.ndarray) -> np.ndarray:
    """The timer kernel less its European-at-t_1 part,

    H_tilde = e^{i w X0} [ e^{-rT} h(0,V0;T) - e^{-r t_1} h(0,V0;t_1)
              + sum_{j=1}^{N-1} e^{-r t_{j+1}} (W_j - h(0,V0;t_{j+1})) ],

    for eta of shape (n_omega, n_eta), row i paired with omega[i], with
    every timerlet W_j evaluated exactly (``_timer_w_matrix``).
    """
    om = omega[:, None]
    r = params.r

    def h_at(t_prime):
        return np.exp(tr._log_h_vec(0.0, params.v0, t_prime, om, eta, params))

    acc = math.exp(-r * T) * h_at(T)
    acc -= math.exp(-r * T / N) * h_at(T / N)
    for j in range(1, N):
        acc += math.exp(-r * T * (j + 1) / N) * (
            _timer_w_matrix(T, N, j, params, cfg, omega, eta)
            - h_at(T * (j + 1) / N))
    return np.exp(1j * om * params.x0) * acc


def _hermitian_residual(T, N, budget, params, cfg):
    """Spot-check H_tilde(-conj w, -conj e) = conj H_tilde(w, e) on Talbot
    nodes."""
    pts_w = np.array([0.7, 3.0]) + 1j * cfg.damping_omega
    m = int(_talbot_counts(budget, T, pts_w, params).max())
    pts_e = 1j * _talbot_contour(m, budget, T, pts_w, params)[0][:, ::m // 4]
    a = _timer_h_tilde(T, N, params, cfg, pts_w, pts_e)
    b = _timer_h_tilde(T, N, params, cfg, -np.conj(pts_w), -np.conj(pts_e))
    return float(np.max(np.abs(b - np.conj(a))) / (np.max(np.abs(a)) or 1.0))


def _budget_integrals(T, N, B, strikes, params, cfg, omega, counts):
    """J(omega) = -i (2 pi / M) sum_k F(omega, eta_k) s'(theta_k)
    [H_tilde(omega, eta_k) - H_tilde(omega, 0)], eta_k = i s_k, per strike
    (rows) and omega (columns), on each omega's contour of M = counts[i]
    nodes.  H_tilde(omega, 0) comes from the same v' rule as the nodes, so
    the summand has no pole at s = 0 even where a contour encloses it (the
    pole term itself is exact)."""
    h_zero = _timer_h_tilde(T, N, params, cfg, omega,
                            np.zeros((omega.size, 1)))
    rows = np.empty((strikes.size, omega.size), dtype=complex)
    for m in np.unique(counts):
        sel = counts == m
        s, ds, _ = _talbot_contour(m, B, T, omega[sel], params)
        h_tilde = _timer_h_tilde(T, N, params, cfg, omega[sel], 1j * s)
        if not np.all(np.isfinite(h_tilde)):
            raise ThreeHalvesError(
                f"timer kernel is not finite on the {m}-node contour")
        fhat = _timer_transform_raw(omega[sel][:, None], 1j * s,
                                    strikes[:, None, None], B)
        rows[:, sel] = (-2j * math.pi / m) * np.sum(
            fhat * (h_tilde - h_zero[sel]) * ds, axis=-1)
    return rows


def price_timer_call(spec: TimerOptionSpec, params: ModelParams,
                     cfg: QuadratureConfig) -> PriceResult:
    """Price one finite-maturity discrete timer call."""
    return price_timer_grid([spec], params, cfg)[0]


def price_timer_grid(specs: Sequence[TimerOptionSpec], params: ModelParams,
                     cfg: QuadratureConfig) -> list:
    """Price several timer calls, sharing the kernel across specs that
    differ only in strike."""
    require_valid(params)
    cfg.require_timer_contour()
    groups = {}
    for idx, spec in enumerate(specs):
        key = (spec.mandatory_maturity, spec.n_monitoring,
               spec.variance_budget)
        groups.setdefault(key, []).append(idx)

    results = [None] * len(specs)
    for (T, N, B), indices in groups.items():
        herm = _hermitian_residual(T, N, B, params, cfg)
        if not herm <= _REL_IMAG_TOL:
            raise ThreeHalvesError(
                f"timer kernel failed the Hermitian-symmetry check "
                f"({herm:.2e}); imaginary residual would not cancel")
        strikes = np.array([specs[i].strike for i in indices])
        bases = [_price_european_detailed(EuropeanSpec(k, T), params, cfg)
                 for k in strikes]
        base = np.array([b.price for b in bases])
        if not np.all(np.isfinite(base + [b.err_estimate for b in bases])):
            raise ThreeHalvesError("timer base price is not finite")
        counts = []  # least and most Talbot nodes of the last omega batch

        def integral(extra, panels=None):
            # the Parseval integral, on contours of ``extra`` more nodes
            # than _talbot_counts asks
            def rows(omega):
                m = _talbot_counts(B, T, omega, params) + extra
                counts[:] = m.min(), m.max()
                return _budget_integrals(T, N, B, strikes, params, cfg,
                                         omega, m)
            return omega_integral(rows, cfg, cfg.damping_omega,
                                  0.5 / math.pi**2, base, panels)

        # The contours of M - TALBOT_STEP nodes fix the omega grid.
        coarse, _, grid = integral(-TALBOT_STEP)
        extra = 0
        while True:
            fine, q_err, diag = integral(extra, grid["omega_panels"])
            gaps = np.abs(fine - coarse)
            if np.all(gaps <= np.maximum(cfg.rel_tol * np.abs(base + fine),
                                         cfg.abs_tol)):
                break
            # e^{sB} peaks at e^{s(0) B} = e^{0.171 M}, which the sum loses
            # to roundoff
            if (math.exp(_UNIT[0].real * counts[0]) * np.finfo(float).eps
                    > cfg.rel_tol):
                raise QuadratureNonConvergenceError(
                    f"Talbot contours of M and M - {TALBOT_STEP} nodes "
                    f"disagree by {gaps.max():.2e} at B = {B}, and roundoff "
                    f"bars a larger M", achieved=float(gaps.max()))
            coarse, extra = fine, extra + TALBOT_STEP
        for i, idx in enumerate(indices):
            price = base[i] + fine[i]
            err = gaps[i] + q_err[i] + bases[i].err_estimate
            if price < -err:
                raise ThreeHalvesError(
                    f"timer price came out negative ({price}) beyond the "
                    f"error budget")
            results[idx] = PriceResult(max(float(price), 0.0), float(err), {
                **diag, "omega_tail": float(diag["omega_tail"][i]),
                "talbot_nodes": int(counts[1]), "talbot_err": float(gaps[i]),
                "base_price": bases[i].price, "integral": float(fine[i]),
                "hermitian_residual": herm})
    return results


# ---------------------------------------------------------------------------
# Variance-transition grids adapted to near-diagonal kernels.
# ---------------------------------------------------------------------------

_GRID_STD_SPAN = 9.0
_GRID_LOG_MARGIN = 2.0
_GRID_MAX_NODES = 192
_GRID_NYQUIST_MARGIN = 4.0
_STATIONARY_WIDTH_CAP = 0.9


def _transition_grid(params: ModelParams, t_from: float, t_to: float,
                     v_center, cfg: QuadratureConfig, omega_max: float = 0.0):
    """Log-space trapezoid grid adapted to the V-transition from v_center.

    Center/width come from the noncentral chi-square moments of U = 1/V:
    std(ln V') ~ sqrt(2 C / u) (capped near the stationary spread).  Weights
    include the v' jacobian.  ``v_center`` may be an array, giving one grid
    row per center (shape (n_centers, n)).

    The phase of g(omega, v') turns |rho| omega_R / eps radians per unit
    ln v', so pi / h stays _GRID_NYQUIST_MARGIN above that at omega_R =
    ``omega_max`` (a margin of 2 is 3e-10 off, 4 and 8 agree to 12 digits);
    a grid that needs more than _GRID_MAX_NODES for it raises.
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
    h_max = math.pi / (abs(params.rho) * omega_max / params.epsilon
                       + _GRID_NYQUIST_MARGIN)
    nyquist = int(np.ceil(np.max(2.0 * half) / h_max)) + 1
    if nyquist > _GRID_MAX_NODES:
        raise QuadratureNonConvergenceError(
            f"a v' grid that resolves the phase at omega_R = {omega_max:g} "
            f"needs {nyquist} nodes, more than {_GRID_MAX_NODES}")
    n = max(n, nyquist)
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

# Largest omega x phi x v-node count of one batched kernel call of the moment
# swaps (see _weighted_moment), sized by measurement (2 vCPUs, median of
# three runs): the six strip benchmark swaps other than the terminal-price
# one take 0.39 / 0.25 / 0.20 s at 2^11 / 2^14 / 2^17 elements (1.30 s one
# period at a time), at heap peaks of 1.6 / 2.9 / 10.3 MB; 2^14 stays below
# the 5 MB the terminal-price swap peaks at.
_MOMENT_BLOCK_ELEMENTS = 2**14


def _cauchy_moment(m: int, f, conj_symmetric: bool, starts=None):
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
    inside it, and raises.  The check is taken over all values at once,
    or with ``starts`` (indices into the last axis) over each segment of
    the last axis on its own, so that one swap period's failure cannot hide
    behind another's larger values.
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
    gap = np.abs(full - half)
    if conj_symmetric:
        full = full.real
    size = np.abs(full)
    if starts is None:
        gap, size = np.max(gap), np.max(size)
    else:
        gap, size = (np.maximum.reduceat(
            x.reshape(-1, x.shape[-1]).max(axis=0), starts)
            for x in (gap, size))
    bad = ~(gap <= 1e-3 * size)
    if np.any(bad):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.argmax(np.where(bad, gap / size, 0.0))
        gap, size = np.ravel(gap)[worst], np.ravel(size)[worst]
        raise QuadratureNonConvergenceError(
            f"Cauchy moment of order {m}: the {MOMENT_NODES}- and "
            f"{MOMENT_NODES // 2}-node rules disagree by {gap:.3e} relative "
            f"to {size:.3e}; the function is not analytic "
            f"on the disc of radius {MOMENT_RADIUS}", achieved=float(gap))
    return full


def _period_grid(params: ModelParams, cfg: QuadratureConfig, t_km1: float,
                 t_k: float, omega_max: float):
    """The v grid at t_{k-1} of the period (t_{k-1}, t_k): nodes, weights
    and each node's t_{k-1} and t_k.  From t_{k-1} = 0 it is the one node
    V0 of weight 1, where g1 is a Dirac mass."""
    if t_km1 == 0.0:
        v, w = np.array([params.v0]), np.ones(1)
    else:
        v, w = (x[0] for x in _transition_grid(params, 0.0, t_km1, params.v0,
                                               cfg, omega_max))
    return v, w, np.full(v.size, t_km1), np.full(v.size, t_k)


def _g1_weights(params: ModelParams, v, w, t_km1, omega):
    """w g1(0, V0; t_{k-1}, omega, v) per omega (rows) and node, with the
    nodes' own dates t_{k-1}; 1 at a node from t_{k-1} = 0."""
    wv = np.ones((omega.size, v.size), dtype=complex)
    live = t_km1 > 0.0
    if np.any(live):
        wv[:, live] = w[live] * np.exp(tr._log_g_vec(
            0.0, params.v0, t_km1[live], omega[:, None], 0.0, v[live],
            params))
    return wv


def _blocks(grids, per_node: int):
    """The period grids of ``grids``, built as they are consumed, stacked
    into blocks of consecutive periods with at most
    _MOMENT_BLOCK_ELEMENTS / per_node nodes each, or a single period:
    (v, w, t_{k-1}, t_k) on one node axis and the index where each period
    starts."""
    block, nodes = [], 0

    def stacked():
        starts = np.cumsum([0] + [g[0].size for g in block[:-1]])
        return (*(np.concatenate(x) for x in zip(*block)), starts)

    for grid in grids:
        n = grid[0].size
        if block and (nodes + n) * per_node > _MOMENT_BLOCK_ELEMENTS:
            yield stacked()
            block, nodes = [], 0
        block.append(grid)
        nodes += n
    yield stacked()


def _phi_chunks(phis, per_phi: int):
    """Consecutive runs of the Cauchy nodes ``phis`` with at most
    _MOMENT_BLOCK_ELEMENTS / per_phi nodes each, or a single node."""
    step = max(1, _MOMENT_BLOCK_ELEMENTS // per_phi)
    return [phis[j:j + step] for j in range(0, phis.size, step)]


def _weighted_moment(params: ModelParams, cfg: QuadratureConfig, m: int,
                     periods, omega):
    """sum over the periods (t_{k-1}, t_k, t_i) of ``periods`` of
    i^{-m} d^m/dphi^m E[e^{i omega (X_{t_i} - X0)} e^{i phi dX_k}] at
    phi = 0, with dX_k = X_{t_k} - X_{t_{k-1}}, for each omega of an array.

    The weight date t_i picks the route; g1(0, V0; t_{k-1}, omega, v) weighs
    the variance v at t_{k-1} (at t_{k-1} = 0 it is a Dirac mass at V0):

    * t_i = t_{k-1}: the phi-factor h(t_{k-1}, v; t_k, phi) is free of
      omega; its moment D(v) is taken per node and contracted against g1.
    * t_i = t_k:  int h(t_{k-1}, v; t_k, omega + phi) g1 dv.
    * t_i > t_k:  int int h(t_k, v'; t_i, omega)
                  g(t_{k-1}, v; t_k, omega + phi, v') g1 dv' dv,
      the tower rule through t_k.

    Period axis.  The periods of the first two routes differ only in their
    dates, so each route stacks its periods' v grids (each built by
    ``_transition_grid`` as for a lone period) on one node axis, each node
    carrying its own dates, and takes g1 and h for a block of periods in
    one kernel call each, with the Cauchy nodes phi on a leading axis.  A
    block holds as many consecutive periods as keep omega x phi x nodes
    within _MOMENT_BLOCK_ELEMENTS (at least one period; phi is split where
    one period alone passes it), which bounds the memory of the Kummer and
    Bessel tensors.  The second route sums each period's nodes
    (``np.add.reduceat``) before the Cauchy rule and the periods after it,
    so the rule's gap check stays per period, as it does on D(v) in the
    first route.

    The tower route stays one period at a time: each period pairs some 16k
    (v, v') nodes per omega and phi, so its calls are bound by elements,
    and stacking periods would only multiply its largest tensor, and the
    peak memory, by their number.  Its phi nodes share a call where the
    budget allows (the first period's single v node).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    omega_max = float(np.max(np.abs(omega.real)))
    # A purely imaginary omega makes the weight e^{i omega X} real.
    real_weight = not np.any(omega.real)
    total = np.zeros(omega.size, dtype=complex)
    for weight_at_start in (True, False):
        spans = [(a, b) for a, b, i in periods
                 if i == (a if weight_at_start else b)]
        if not spans:
            continue
        grids = (_period_grid(params, cfg, a, b, omega_max)
                 for a, b in spans)
        phi_evals = (MOMENT_NODES // 2 if weight_at_start or real_weight
                     else MOMENT_NODES)
        for v, w, t_km1, t_k, starts in _blocks(grids,
                                                omega.size * phi_evals):
            wv = _g1_weights(params, v, w, t_km1, omega)
            if weight_at_start:
                d_v = _cauchy_moment(m, lambda p: np.exp(tr._log_h_vec(
                    t_km1, v, t_k, p[:, None], 0.0, params)), True, starts)
                total += wv @ d_v
                continue

            def f(phis):
                out = []
                for p in _phi_chunks(phis, wv.size):
                    h = np.exp(tr._log_h_vec(t_km1, v, t_k, omega[:, None]
                                             + p[:, None, None], 0.0, params))
                    h *= wv
                    out.append(np.add.reduceat(h, starts, axis=-1))
                return np.concatenate(out)
            total += _cauchy_moment(m, f, real_weight,
                                    np.arange(starts.size)).sum(axis=-1)
    for t_km1, t_k, t_i in periods:
        if t_i > t_k:
            total += _tower_moment(params, cfg, m, t_km1, t_k, t_i, omega,
                                   omega_max, real_weight)
    return total


def _tower_moment(params: ModelParams, cfg: QuadratureConfig, m: int,
                  t_km1: float, t_k: float, t_i: float, omega,
                  omega_max: float, real_weight: bool):
    """One period's term of ``_weighted_moment`` on the route t_i > t_k."""
    v, w, t_from, _ = _period_grid(params, cfg, t_km1, t_k, omega_max)
    wv = _g1_weights(params, v, w, t_from, omega)
    inner, w_in = _transition_grid(params, t_km1, t_k, v, cfg, omega_max)
    h_after = w_in * np.exp(tr._log_h_vec(t_k, inner, t_i,
                                          omega[:, None, None], 0.0, params))

    def f(phis):
        return np.concatenate([np.einsum("wv,pwvs,wvs->pw", wv, np.exp(
            tr._log_g_vec(t_km1, v[:, None], t_k,
                          omega[:, None, None] + p[:, None, None, None], 0.0,
                          inner, params)), h_after)
            for p in _phi_chunks(phis, h_after.size)])
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
        return _weighted_moment(params, cfg, spec.m, [
            (spec.date(k - 1), spec.date(k),
             spec.date(spec.weight_index(k, n))) for k in periods], omega)

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

    value, _ = fourier_invert_1d(cf, pt, cfg, damping=CORRIDOR_DAMPING)
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


def _corridor_fhat(omega, lower: float, upper: float):
    return (upper ** (-1j * omega) - lower ** (-1j * omega)) / (-1j * omega)
