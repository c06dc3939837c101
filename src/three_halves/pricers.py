"""Product pricers: European vanillas, finite-maturity discrete timer calls,
and discretely sampled weighted moment swaps.

Every omega integral is summed by the one omega rule of ``quadrature``, whose
panels run until the integrand is spent: a European call is one
``fourier_invert_1d`` of the marginal CF against the call transform.

Timer decomposition
-------------------
With the quadratic variation I as the realized-variance proxy, the timer
call is exercised at the first monitoring date t_j = j T / N with
I_{t_j} >= B, or at T.  I never falls, so the call is still alive at t_j
exactly where I_{t_j} < B, and its payoff sums date by date: the payoff at
t_1, then at each inner date the budget survives the payoff at t_{j+1} in
place of the one at t_j,

    C0 = e^{-r t_1} E[(S_{t_1}-K)^+] + sum_{j=1}^{N-1} E[1{I_{t_j}<B}
         (e^{-r t_{j+1}} (S_{t_{j+1}}-K)^+ - e^{-r t_j} (S_{t_j}-K)^+)].

The first term is a European call at t_1.  The sum prices by Parseval
against the payoff transform

    F(omega, eta) = K^{1 - i omega} e^{-i eta B} / ((i omega + omega^2) i eta)

on Im(omega) < -1, with one integrand per inner date in its kernel
(``_timer_h_tilde``):

    H_tilde(omega, eta) = e^{i omega X0} sum_{j=1}^{N-1}
        int g(0,V0;t_j,omega,eta,v') phi_j(omega, v') dv',
    phi_j = e^{-r t_{j+1}} h(t_j,v';t_{j+1},omega,0) - e^{-r t_j}.

The triple partial transform g carries (X, I, V) to t_j: against h from
v' to t_{j+1} it is the transform of the payoff at t_{j+1} (the paper's
two-date CF W_j), and against 1 it is the joint CF h(0,V0;t_j,omega,eta)
of the payoff at t_j.  Each date's integral is summed on that date's v'
rule.

With s = -i eta, the eta integral is a Bromwich integral in the budget:
F = -K^{1-i omega} e^{sB} / ((i omega + omega^2) s).  Its one pole, at
s = 0, picks out H_tilde(omega, 0).  By the tower property date j's
integral at eta = 0 is e^{-r t_{j+1}} h(0,V0;t_{j+1},omega,0)
- e^{-r t_j} h(0,V0;t_j,omega,0), so H_tilde(omega, 0) is the European
kernel at T less the one at t_1, and the pole and the first term give
European(T) exactly, and F [H_tilde - H_tilde(omega, 0)], which has no
pole, is summed on a Talbot contour (Talbot 1979; Weideman & Trefethen
2007) that wraps the kernel's cuts, on which e^{sB} decays:

    price = European(T) + (1 / (2 pi^2)) Re sum_omega w_omega J(omega).

The omega axis is folded to omega_R >= 0 through (omega, s) ->
(-conj omega, conj s).  Each omega's contour of M nodes has scale M / B and
is centred on the branch point of c(omega, eta), or with jumps between it
and the jump transform's singularity (``_talbot_contour``); an omega whose
contour cannot hold them gets more nodes.  M starts at TALBOT_NODES.  One
pass of the omega rule sums one contour per omega: the omegas of a batch
that share M take eta = 0 and the M nodes in one kernel call.  The error
term ``talbot_err`` comes from the contours of M and M + TALBOT_STEP nodes
at two fixed omegas and their mirrors, in one kernel call that also checks
H_tilde's Hermitian symmetry (``_spot_check``).  Where it passes rel_tol,
M grows by TALBOT_STEP: each growth pass sums only the new contour, on the
first pass's panels, and its gap to the last is the term.  e^{sB} peaks at
e^{0.171 M} on the contour, so once e^{0.171 M} eps passes rel_tol, more
nodes cannot help and the pricer raises.

The dates' v' rules depend on neither the strike nor the budget, so one
``_TimerKernel`` per (T, N) builds them once for every strike and budget,
from one density scan of all its inner dates, every inner date's nodes
side by side as columns, with g's column terms.  The kernel is built in
tiles (``_tiles``) of omega rows x consecutive dates: each tile's factors
w phi_j (w the trapezoid weights) are one ``_log_h_vec`` call, and g is
contracted against them from its row and column factors
(``transforms._g_contract``), one call per sub-tile, with no exp per
element where the Bessel function takes its series.  The sub-tiles of a
call share one workspace for their series sums and exp tables, so the
tile loop allocates nothing of tile size.  No table passes
_BLOCK_ELEMENTS, so a call's memory does not grow with N or with the
omega rule's batch.

The European bases of every strike at one T are one ``fourier_invert_1d``
too, a row per strike (``_price_european_detailed``).

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

Every period's term is formed one way (``_weighted_moment``): the Cauchy
rule runs per node v of the period's grid at t_{k-1} on a phi-function
D(v) (h, or past t_k the tower's inner sum over v'), and g1 = g(0, V0;
t_{k-1}, omega, 0, v) is contracted against w D(v) in one call of the
timer's kernel (``_g1_contract``, ``transforms._g_contract``): each
period's lattice is a uniform rule in ln v, so g1 comes from its row and
column factors with no exp per element where the Bessel function takes
its series.  The periods of a swap differ only in their dates, so on the
routes with the weight at t_{k-1} or t_k every period's v grid is stacked
on one node axis whose nodes carry their own dates, and the Cauchy nodes
phi sit on a leading axis: h and g1 are each one kernel call per block of
periods, as many as keep the largest table the route builds (g1's exp
table with its pruned lattices padded) within _BLOCK_ELEMENTS, the
timer's cap.  The terminal-price weight's tower route (t_i > t_k) pairs
some 11k (v, v') nodes per period and stays one period at a time; each g
call takes every phi node against a block of whole outer rows of live
pairs, within the same element count.

Every v grid is a fixed lattice of ``_transition_grid``, but the kernels
are evaluated only on its live nodes: ``_live_nodes`` drops the nodes
where a bound that needs no Bessel function puts g below 1e-3 eps of its
mass (about a third of each lattice), so prices move only by roundoff.
A pruned lattice keeps each node's index on the whole lattice, which
places it on the rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import specfun
from . import transforms as tr
from .errors import (
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from .model import (
    ModelParams,
    _drift_a_vec,
    _jump_exponent,
    coef_A,
    coef_C,
    require_valid,
)
from .quadrature import (
    QuadratureConfig,
    fourier_invert_1d,
    log_density_grid,
    omega_integral,
)
from .specfun import _split_exp

_REL_IMAG_TOL = 1e-8

# ---------------------------------------------------------------------------
# Product specifications.
# ---------------------------------------------------------------------------


def _check_fields(spec, positive, integers):
    """Raise InvalidParametersError naming the first field of ``spec`` in
    ``positive`` that is not finite and > 0, or in ``integers`` (name:
    least, most) not an integer in its range: NaN, inf and 2.0 fail."""
    for name in (*positive, *integers):
        x = getattr(spec, name)
        if not (x > 0.0 and math.isfinite(x) if name in positive else
                isinstance(x, numbers.Integral)
                and integers[name][0] <= x <= integers[name][1]):
            raise InvalidParametersError(f"invalid {name}: {x!r}")


@dataclass(frozen=True)
class EuropeanSpec:
    strike: float
    maturity: float
    is_call: bool = True

    def __post_init__(self):
        _check_fields(self, ("strike", "maturity"), {})


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
        _check_fields(
            self, ("strike", "mandatory_maturity", "variance_budget"),
            {"n_monitoring": (1, math.inf)})

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
        _check_fields(self, ("maturity",), {"n_periods": (1, math.inf),
                                            "m": (2, 3), "lag": (0, 1)})
        if self.weight_kind not in _WEIGHT_KINDS:
            raise InvalidParametersError(
                f"weight_kind must be one of {_WEIGHT_KINDS}")
        if self.weight_kind == "corridor":
            lo, up = self.corridor_lower, self.corridor_upper
            if lo is None or up is None or not 0.0 < lo < up:
                raise InvalidParametersError("a corridor needs 0 < "
                                             "corridor_lower < corridor_upper")

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
    T = spec.maturity
    call = _price_european_detailed(T, [spec.strike], params, cfg)[0].price
    if spec.is_call:
        return call
    return (call - params.s0 * math.exp(-params.q * T)
            + spec.strike * math.exp(-params.r * T))


def _price_european_detailed(maturity: float, strikes: Sequence[float],
                             params: ModelParams,
                             cfg: QuadratureConfig) -> list:
    """European calls at one maturity, one ``PriceResult`` per strike, from
    one ``fourier_invert_1d`` of the marginal CF against the call
    transforms, a row per strike: the CF is taken once for all strikes,
    and each strike's value is its own sum on the omega grid, which runs
    until every row is spent."""
    require_valid(params)
    T = maturity
    x0 = params.x0
    column = np.asarray(strikes, dtype=float)[:, None]

    def cf(w):
        return np.exp(1j * w * x0
                      + tr._log_h_vec(0.0, params.v0, T, w, 0.0, params))

    def pt(w):
        return _call_transform(w, column)

    undiscounted, diag = fourier_invert_1d(cf, pt, cfg)
    discount = math.exp(-params.r * T)
    return [PriceResult(float(discount * value), float(discount * err), {
        **diag, "err_estimate": float(err), "omega_tail": float(tail)})
        for value, err, tail in zip(undiscounted, diag["err_estimate"],
                                    diag["omega_tail"])]


# ---------------------------------------------------------------------------
# Timer pricing.
# ---------------------------------------------------------------------------

# Talbot's contour s(theta) = mu (a + b theta cot(c theta) + i d theta),
# theta in (-pi, pi), mu = M / B (Weideman & Trefethen 2007).
_TALBOT = (-0.6122, 0.5017, 0.6407, 0.2645)
TALBOT_NODES = 24  # nodes of the first contour
TALBOT_STEP = 8  # M's margin and growth; the spot check compares M + 8 with M
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
    b0 = tr._b0(omega, params)
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
    (at least TALBOT_NODES): a contour at the edge of admissibility
    converges slowly, so M keeps a step's margin.  Larger contours hold
    the same points."""
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


class _TimerKernel:
    """What every timer price of one (T, N) shares, whatever its strike or
    budget: the v' rule of each inner date t_j = j T / N (j = 1..N-1),
    built once, with every date's nodes side by side as columns.

    Inner date j's columns are ``starts[j - 1]:starts[j]`` (``columns``).
    Each column carries its own t_j and t_{j+1} (``t``, ``t_next``), its
    trapezoid weight w on date j's v' rule (``w``) and g's column terms
    from (0, V0) (``g_columns``): date j's step t_j, its A and C (one
    array call for all dates), the rule's spacing in ln v' and the
    column's index on it.  The density scan that sizes the rules is one
    ``log_density_grid`` call, a row per inner date, its densities taken
    in runs of dates whose scan stays within a g tile's memory (one
    ``_log_density_v_vec`` call up to 22 dates)."""

    def __init__(self, T: float, N: int, params: ModelParams,
                 cfg: QuadratureConfig):
        self.T, self.N, self.params = T, N, params
        self.dates = T * np.arange(1, N) / N

        def scan(vp):
            # the densities of every inner date, a row per date, in runs
            # of dates of at most _BLOCK_ELEMENTS / 4 scan points: a scan
            # point holds well over 100 bytes of tables (the asymptotic
            # Bessel branch's, mostly), a g tile element 32 (the workspace)
            step = max(1, _BLOCK_ELEMENTS // (4 * vp.size))
            return np.concatenate([tr._log_density_v_vec(
                0.0, params.v0, self.dates[i:i + step, None], vp, params)
                for i in range(0, N - 1, step)])

        # one density scan (none with N = 1)
        nodes, w = (log_density_grid(scan, cfg) if N > 1
                    else (np.empty((0, 0)),) * 2)
        self.sizes = np.full(N - 1, nodes.shape[1], dtype=int)
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)])
        date_of = np.repeat(np.arange(1, N), self.sizes)
        self.nodes = nodes.reshape(-1)
        self.w = w.reshape(-1)
        self.t = self.T * date_of / N
        self.t_next = self.T * (date_of + 1) / N
        self.g_columns = tr._lattice_columns(
            params, self.t, self.nodes,
            np.arange(self.starts[-1]) - np.repeat(self.starts[:-1],
                                                   self.sizes))

    def columns(self, dates: slice) -> slice:
        """The v' columns of the inner dates ``dates``, a slice of
        ``self.dates``."""
        start, stop, _ = dates.indices(self.dates.size)
        return slice(self.starts[start], self.starts[stop])

    def inner(self, omega, dates: slice = slice(None)):
        """w phi_j(omega, v') on the v' columns of the inner dates
        ``dates``, omega as rows, with

            phi_j = e^{-r t_{j+1}} h(t_j, v'; t_{j+1}, omega, 0) - e^{-r t_j}:

        each column's factor in H_tilde, one ``_log_h_vec`` call.
        ``transforms._g_contract`` multiplies in g's row-free column
        factor per tile and contracts g against it."""
        cols = self.columns(dates)
        r = self.params.r
        h = tr._log_h_vec(self.t[cols], self.nodes[cols], self.t_next[cols],
                          omega[:, None], 0.0, self.params)
        np.exp(h, out=h)  # then w phi_j, in place
        h *= np.exp(-r * self.t_next[cols])
        h -= np.exp(-r * self.t[cols])
        h *= self.w[cols]
        return h


# Largest table one batched kernel call builds, for the timer and the
# moment swaps alike: the timer's (omega, eta) pairs x v' columns for g and
# omega x v' columns for h (``_timer_h_tilde``); the swaps' omega x nodes
# for g1, phi x nodes for h with the weight at t_{k-1}, phi x omega x
# nodes with it at t_k (omega in chunks where one period passes the cap),
# and phi x omega x live (v, v') pairs on the tower route
# (``_weighted_moment``).  g's kernel (``transforms._g_contract``) holds
# two tables of its size, the series sums and the exp table; on a
# block of pruned period lattices the exp table is padded to the block's
# longest span of lattice indices, and the blocks are sized so that the
# padded table stays within the cap too (``_blocks``), while the columns
# gathered from it make a third table of the sums' size.  The tower's g,
# in split form, holds two, E and S; the timer's tiles share one
# workspace of two such tables (``_timer_w_matrix``).  Sized by measurement on 2 vCPUs shared
# with other jobs (``tools/ab_interleaved.py``, time against 2^15 at
# 2^14 / 2^16): the timer workload 1.15 / 0.95, three N = 52 timer strikes
# 1.35 / 1.03, the corridor 1.04 / 0.98 and the strip 0.93 / 1.01.  A
# ``_g_contract`` call costs about 0.1 ms before any element work and
# 0.6 ms on a 492 x 64 tile, so the timer wants few large tiles; but 2^16 loses at N = 52 and costs
# 2-3.5 MB of peak RSS: after one pass the benchmark reads 36.8 / 38.2 /
# 40.0 MB on the timer, 36.9 / 37.6 / 41.1 on the corridor and 37.3 / 38.1
# / 40.6 on the strip at 2^14 / 2^15 / 2^16.
_BLOCK_ELEMENTS = 2**15


def _tiles(n_rows: int, sizes, per: int):
    """Tiles (rows, dates), as slices, that cover n_rows rows x the dates
    of v' column counts ``sizes``, each table rows x per x (its dates'
    columns) within _BLOCK_ELEMENTS: as many rows as fit beside the
    largest date, then runs of as many consecutive dates as fit beside
    those rows (at least one row and one date)."""
    step = max(1, _BLOCK_ELEMENTS // (per * int(max(sizes))))
    for r in range(0, n_rows, step):
        limit = _BLOCK_ELEMENTS // (per * min(step, n_rows - r))
        start, total = 0, 0
        for i, n in enumerate(sizes):
            if i > start and total + n > limit:
                yield slice(r, r + step), slice(start, i)
                start, total = i, 0
            total += n
        yield slice(r, r + step), slice(start, len(sizes))


def _timer_w_matrix(kernel: _TimerKernel, dates: slice, omega: np.ndarray,
                    eta: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """sum_j int g(0,V0;t_j,omega,eta,v') f(omega, v') dv' over the inner
    dates ``dates`` (a slice of ``kernel.dates``), each on date j's v'
    rule, for eta of shape (n_omega, n_eta), row i paired with omega[i];
    ``factor`` is w f on those dates' columns with omega as rows, w the
    trapezoid weights (the timer's is ``_TimerKernel.inner``).

    g's row terms (a, b0, 2c and log Gamma(2c + 1)) are taken once per
    call; g is contracted against ``factor`` in factored form
    (``transforms._g_contract``), one call per tile (``_tiles``) of omega
    rows x consecutive dates, the rows' (omega, eta) pairs against the
    dates' v' columns side by side.  Dates join a tile in order and only
    as many as fit beside its rows, because the Bessel series runs to the
    length its table's largest argument 2/C sqrt(A/(V0 v')) needs, and
    that falls with t_j: one table across a row's dates made N = 52
    slower, not faster.

    The tiles allocate nothing of tile size: one workspace, two tables of
    the largest tile's size allocated once per call and freed when it
    returns, takes each tile's Bessel series sums in its first table and,
    in turn, the series' term ratios, its stop rule's moduli and the exp
    table in its second.  They are two arrays, not one block of twice the
    size: one 1 MB block changed how the rest of the process allocates
    (beside it, another copy of the timer pass took 0.1k minor page
    faults instead of its 7.6k), which skews in-process comparisons.
    Tiles with columns that may take the asymptotic branch
    (|z| > BESSEL_ASYMPTOTIC_MIN_Z, the first dates from N = 12 on) run
    first, on tables of their own, so the workspace is never held beside
    the asymptotic branch's tables and the peak memory stays flat in N."""
    p = kernel.params
    first, last, _ = dates.indices(kernel.dates.size)
    base = kernel.starts[first]
    a, b0, nu = np.broadcast_arrays(*tr._g_rows(omega[:, None], eta, p))
    rows = a, b0, nu, specfun._log_gamma_vec(nu + 1.0)
    tiles = [(tile, kernel.columns(slice(first + group.start,
                                         first + group.stop)))
             for tile, group in _tiles(omega.size, kernel.sizes[first:last],
                                       eta.shape[1])]
    far = np.abs(kernel.g_columns.z) > specfun.BESSEL_ASYMPTOTIC_MIN_Z
    near = [t for t in tiles if not np.any(far[t[1]])]
    out = np.zeros(eta.shape, dtype=complex)

    def contract(tile, cols, work=None):
        out[tile] += tr._g_contract(
            tuple(x[tile] for x in rows), kernel.g_columns.take(cols),
            factor[tile, cols.start - base:cols.stop - base, None],
            work)[..., 0]

    for tile, cols in tiles:
        if np.any(far[cols]):
            contract(tile, cols)
    if near:
        size = max(eta[tile].size * (cols.stop - cols.start)
                   for tile, cols in near)
        work = [np.empty(size, dtype=complex) for _ in range(2)]
        for tile, cols in near:
            contract(tile, cols, work)
    return out


def _timer_h_tilde(kernel: _TimerKernel, omega: np.ndarray,
                   eta: np.ndarray) -> np.ndarray:
    """The timer kernel less its European-at-t_1 part,

        H_tilde = e^{i w X0} sum_{j=1}^{N-1}
                  int g(0,V0;t_j,w,eta,v') phi_j(w, v') dv',

    for eta of shape (n_omega, n_eta), row i paired with omega[i]: each
    date's integral on its own v' rule, against the factors w phi_j of
    ``_TimerKernel.inner``.  With N = 1 the sum is empty: H_tilde = 0.

    Every table is one tile of ``_tiles``, so none passes _BLOCK_ELEMENTS
    whatever N and the number of rows: the factors are one ``_log_h_vec``
    call per tile of omega rows x the dates' v' columns side by side, in
    which ``_timer_w_matrix`` then tiles g.  A tile takes all the rows one
    date fits before it adds dates, so each Kummer call builds its
    per-parameter coefficient table for many rows at once and its
    per-argument power table once per few dates, not once per sliver of
    rows (every date's columns against blocks of 5-10 rows ran N = 52
    about a fifth slower).
    """
    shape = np.broadcast_shapes(omega[:, None].shape, eta.shape)
    if kernel.N == 1:
        return np.zeros(shape, dtype=complex)
    eta = np.broadcast_to(eta, shape)
    acc = np.zeros(shape, dtype=complex)
    for rows, dates in _tiles(shape[0], kernel.sizes, 1):
        om = omega[rows]
        acc[rows] += _timer_w_matrix(kernel, dates, om, eta[rows],
                                     kernel.inner(om, dates))
    return np.exp(1j * omega[:, None] * kernel.params.x0) * acc


def _budget_integrals(kernel, B, strikes, omega, counts, offsets,
                      mirrored=False):
    """J(omega) = -i (2 pi / M) sum_k F(omega, eta_k) s'(theta_k)
    [H_tilde(omega, eta_k) - H_tilde(omega, 0)], eta_k = i s_k, on each
    omega's contour of M = counts[i] + offset nodes, for every offset in
    ``offsets``: shape (offsets, strikes, omega).

    H_tilde(omega, 0) is built here from the same v' rules as the contour
    values, so the summand has no pole at s = 0 even where a contour
    encloses it (the pole term itself is exact).  The omegas that share a
    node count take eta = 0 and every contour's nodes side by side in one
    ``_timer_h_tilde`` call, so their factors phi_j are built once for all
    of them.  With ``mirrored`` it takes their mirrors (-conj w, -conj eta)
    too, and returns max |H_tilde(mirror) - conj H_tilde| / max |H_tilde|."""
    rows = np.empty((len(offsets), strikes.size, omega.size), dtype=complex)
    residual = 0.0
    for m in np.unique(counts):
        sel = counts == m
        om = omega[sel]
        contours = [_talbot_contour(m + offset, B, kernel.T, om,
                                    kernel.params)[:2] for offset in offsets]
        points = om, np.concatenate([np.zeros((om.size, 1))]
                                    + [1j * s for s, _ in contours], axis=1)
        if mirrored:  # the mirrors as rows below the points
            points = [np.concatenate([x, -np.conj(x)]) for x in points]
        h_tilde, mirror = np.split(_timer_h_tilde(kernel, *points), [om.size])
        if mirrored:
            residual = np.maximum(residual, np.max(np.abs(
                mirror - np.conj(h_tilde))) / (np.max(np.abs(h_tilde)) or 1.0))
        h_zero = h_tilde[:, :1]
        if not np.all(np.isfinite(h_zero)):
            raise ThreeHalvesError("timer kernel is not finite at eta = 0")
        end = 1
        for row, (s, ds) in zip(rows, contours):
            n = s.shape[1]
            h_s, end = h_tilde[:, end:end + n], end + n
            if not np.all(np.isfinite(h_s)):
                raise ThreeHalvesError(
                    f"timer kernel is not finite on the {n}-node contour")
            fhat = _timer_transform_raw(om[:, None], 1j * s,
                                        strikes[:, None, None], B)
            row[:, sel] = (-2j * math.pi / n) * np.sum(
                fhat * (h_s - h_zero) * ds, axis=-1)
    return (rows, float(residual)) if mirrored else rows


def _spot_check(kernel, budget, strikes, cfg):
    """The Hermitian residual of H_tilde and each strike's Talbot term: ten
    times the gaps of the sums on M and M + TALBOT_STEP nodes at omega_R = 3
    and 12 (whose mirrors give the residual), times the omega_R each stands
    for, 0-7.5 and 7.5-16.5.  With jumps M's error peaks near omega_R = 10."""
    omega = np.array([3.0, 12.0]) + 1j * cfg.damping_omega
    (j_m, j_next), herm = _budget_integrals(
        kernel, budget, strikes, omega,
        _talbot_counts(budget, kernel.T, omega, kernel.params),
        (0, TALBOT_STEP), mirrored=True)
    return herm, (10.0 * 0.5 / math.pi**2) * np.abs(j_next - j_m) @ [7.5, 9.0]


def price_timer_call(spec: TimerOptionSpec, params: ModelParams,
                     cfg: QuadratureConfig) -> PriceResult:
    """Price one finite-maturity discrete timer call."""
    return price_timer_grid([spec], params, cfg)[0]


def price_timer_grid(specs: Sequence[TimerOptionSpec], params: ModelParams,
                     cfg: QuadratureConfig) -> list:
    """Price several timer calls: specs that share (T, N) share one
    ``_TimerKernel``, those that also share the budget one Parseval
    integral, a row per strike, and the European bases of every strike at
    one T come from one inversion (``_price_european_detailed``), whatever
    their N and B."""
    require_valid(params)
    groups = {}
    strikes_at = {}
    for idx, spec in enumerate(specs):
        key = (spec.mandatory_maturity, spec.n_monitoring,
               spec.variance_budget)
        groups.setdefault(key, []).append(idx)
        strikes_at.setdefault(spec.mandatory_maturity, {})[spec.strike] = None
    europeans = {T: dict(zip(ks, _price_european_detailed(T, list(ks),
                                                          params, cfg)))
                 for T, ks in strikes_at.items()}

    results = [None] * len(specs)
    kernels = {}
    for (T, N, B), indices in groups.items():
        if (T, N) not in kernels:
            kernels[T, N] = _TimerKernel(T, N, params, cfg)
        kernel = kernels[T, N]
        strikes = np.array([specs[i].strike for i in indices])
        herm, talbot = _spot_check(kernel, B, strikes, cfg)
        if not herm <= _REL_IMAG_TOL:
            raise ThreeHalvesError(
                f"timer kernel failed the Hermitian-symmetry check "
                f"({herm:.2e}); imaginary residual would not cancel")
        bases = [europeans[T][k] for k in strikes]
        base = np.array([b.price for b in bases])
        if not np.all(np.isfinite(base + [b.err_estimate for b in bases])):
            raise ThreeHalvesError("timer base price is not finite")
        counts = []  # M of every omega node of the rule's batches, in order

        def integral(offset, panels=None):
            # the Parseval integral on contours of M + offset nodes
            def rows(omega):
                m = _talbot_counts(B, T, omega, params)
                out = _budget_integrals(kernel, B, strikes, omega, m, [offset])
                counts.append(m)  # not a batch that raised: the rule retries
                return out
            return omega_integral(rows, cfg, cfg.damping_omega,
                                  0.5 / math.pi**2, base, panels)

        # the first pass fixes the omega grid; growth passes sum on it
        (fine,), (q_err,), diag = integral(0)
        # the least and most M of the nodes summed, the first omega_nodes
        # of the batches (the rule may evaluate a panel past its cutoff)
        summed = np.concatenate(counts)[:diag["omega_nodes"]]
        span = summed.min(), summed.max()
        extra = 0
        while not np.all(talbot <= np.maximum(
                cfg.rel_tol * np.abs(base + fine), cfg.abs_tol)):
            # e^{sB} peaks at e^{s(0) B} = e^{0.171 M}, which the sum loses
            # to roundoff
            if (math.exp(_UNIT[0].real * (span[0] + extra))
                    * np.finfo(float).eps > cfg.rel_tol):
                raise QuadratureNonConvergenceError(
                    f"the Talbot error of M nodes is {talbot.max():.2e} at "
                    f"B = {B}, and roundoff bars a larger M",
                    achieved=float(talbot.max()))
            coarse, extra = fine, extra + TALBOT_STEP
            before = diag
            (fine,), (q_err,), diag = integral(extra, diag["omega_panels"])
            diag.update({key: before[key] + diag[key] for key in
                         ("omega_batches", "omega_evaluated")})
            talbot = np.abs(fine - coarse)
        for i, idx in enumerate(indices):
            price = base[i] + fine[i]
            err = talbot[i] + q_err[i] + bases[i].err_estimate
            if price < -err:
                raise ThreeHalvesError(
                    f"timer price came out negative ({price}) beyond the "
                    f"error budget")
            results[idx] = PriceResult(max(float(price), 0.0), float(err), {
                **diag, "omega_tail": float(diag["omega_tail"][-1, i]),
                "talbot_nodes": int(span[1] + extra),
                "talbot_err": float(talbot[i]),
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


def _transition_grid(params: ModelParams, t_from, t_to, v_center,
                     cfg: QuadratureConfig, omega_max: float = 0.0):
    """Log-space trapezoid grids adapted to the V-transitions from v_center.

    Center/width come from the noncentral chi-square moments of U = 1/V:
    std(ln V') ~ sqrt(2 C / u) (capped near the stationary spread).  Weights
    include the v' jacobian.  The dates ``t_from``, ``t_to`` and the
    centres ``v_center`` are arrays that broadcast (a scalar centre counts
    as one), giving one grid row per element on a new last axis: shape
    (..., n).  One date pair's rows share one node count, the largest over
    its centres (the axes along which the dates do not vary), sized by its
    widest span against its narrowest width; a row of fewer nodes than the
    table is padded with nodes 1 of weight 0.  So a tower's rows from one
    period share a count, and a stack of periods takes one call with a
    count per period.

    The phase of g(omega, v') turns |rho| omega_R / eps radians per unit
    ln v', so pi / h stays _GRID_NYQUIST_MARGIN above that at omega_R =
    ``omega_max`` (a margin of 2 is 3e-10 off, 4 and 8 agree to 12 digits);
    a grid that needs more than _GRID_MAX_NODES for it raises.
    """
    v_center = np.atleast_1d(np.asarray(v_center, dtype=float))
    t_from, t_to = np.broadcast_arrays(np.asarray(t_from, dtype=float),
                                       np.asarray(t_to, dtype=float))
    shape = np.broadcast_shapes(t_from.shape, v_center.shape)
    pairs = (1,) * (len(shape) - t_from.ndim) + t_from.shape
    centres = tuple(i for i, d in enumerate(pairs) if d == 1)
    A = coef_A(params.theta, t_from, t_to)
    C = coef_C(params.theta, params.epsilon, t_from, t_to)
    df = 4.0 + 4.0 * params.kappa / params.eps2
    u = 1.0 / v_center
    u_mean = u / A + C * df / (2.0 * A)
    center = -np.log(u_mean)
    width = np.minimum(np.sqrt(2.0 * C * v_center), _STATIONARY_WIDTH_CAP)
    half = _GRID_STD_SPAN * width + _GRID_LOG_MARGIN
    narrowest = np.min(width, axis=centres, keepdims=True)
    need = np.ceil(np.max(2.0 * half / (narrowest / 4.0), axis=centres,
                          keepdims=True))
    n = np.minimum(np.maximum(cfg.v_nodes, need), _GRID_MAX_NODES)
    h_max = math.pi / (abs(params.rho) * omega_max / params.epsilon
                       + _GRID_NYQUIST_MARGIN)
    nyquist = np.ceil(np.max(2.0 * half, axis=centres, keepdims=True)
                      / h_max) + 1
    if np.any(nyquist > _GRID_MAX_NODES):
        raise QuadratureNonConvergenceError(
            f"a v' grid that resolves the phase at omega_R = {omega_max:g} "
            f"needs {int(nyquist.max())} nodes, more than {_GRID_MAX_NODES}")
    last = np.broadcast_to(np.maximum(n, nyquist), shape)[..., None] - 1.0
    k = np.arange(int(last.max()) + 1)
    # np.linspace(-1, 1, n) per row: k (2 / (n - 1)) - 1, its last node 1
    grid01 = k * (2.0 / last) - 1.0
    grid01[k == last] = 1.0
    lnv = center[..., None] + half[..., None] * grid01
    w = np.where(k > last, 0.0, 2.0 * half[..., None] / last)
    w[(k == 0) | (k == last)] *= 0.5
    nodes = np.exp(lnv)
    nodes[k > last] = 1.0
    return nodes, w * nodes


# A lattice node is dead where its share of the kernel's mass is below this.
_DEAD_SHARE = 1e-3 * np.finfo(float).eps


def _live_nodes(params: ModelParams, t, v, t_prime, v_prime, w, imag):
    """Which nodes v' of ``_transition_grid`` lattices (weights ``w``,
    jacobian included) carry g(t, v; t', omega, 0, v') at transform points
    omega whose imaginary parts are ``imag``: a mask of v_prime's shape.
    ``t``, ``v`` and ``t_prime`` are scalars, or (rows, 1) arrays against
    (rows, n) lattices, one transition per row; each row is pruned on its
    own, and a node of weight 0 counts as dead.

    Proof.  With y = Im omega, |e^{i omega dX}| = e^{-y dX}, so the
    triangle inequality in g(omega) = E[e^{i omega dX}; V' in dv'] / dv'
    gives |g(omega, v')| <= g(iy, v').  At omega = iy the exponent
    c = sqrt(b0^2 - (y + y^2)/eps^2), b0 = 1/2 + kt/eps^2 with
    kt = kappa + y rho eps, and a(iy, 0) are real; where c^2 >= 0 the
    order 2c is real and >= 0, so I_{2c}(z) <= I_0(z) <= e^z, and since
    z - (A v + v')/(C v v') = -(sqrt(A/v') - sqrt(1/v))^2 / C,

        g(iy, v') <= B = e^{a dt} (A/C) v'^{-2} (A v/v')^{b0}
                         e^{-(sqrt(A/v') - sqrt(1/v))^2 / C},

    which needs no Bessel function.  The mass of g(iy, .) is
    h(t, v; t', iy, 0) in closed form.  Each node gets the share
    s = max_y w B(y) / h(iy), and the nodes of least share are dropped
    while their shares sum to at most _DEAD_SHARE.  For every omega with
    an imaginary part in ``imag`` the dropped nodes then carry
    sum w |g(omega)| <= sum w B(y) <= _DEAD_SHARE h(iy): they move any
    integral of g against a factor F by at most 1e-3 eps of h(iy) max|F|,
    far below the roundoff of the kept sum.  Where c^2 < 0 at some y the
    bound does not hold, and every node is kept.
    """
    y = np.array(sorted(set(np.ravel(imag).tolist())))
    p = params
    b0 = tr._b0(1j * y, p).real
    keep = np.asarray(w) > 0.0
    if np.any(b0 * b0 < (y + y * y) / p.eps2):
        return keep
    dt, A, C = tr._date_coefficients(t, t_prime, p)
    a = _drift_a_vec(1j * y, 0.0, p).real
    log_mass = tr._log_h_vec(t, v, t_prime, 1j * y.reshape(
        (-1,) + (1,) * np.ndim(v_prime)), 0.0, p).real
    log_base = (np.log(A / C) - 2.0 * np.log(v_prime)
                - (np.sqrt(A / v_prime) - np.sqrt(1.0 / v)) ** 2 / C)
    log_ratio = np.log(A * v / v_prime)
    share = np.zeros(np.shape(v_prime))
    for j in range(y.size):  # log B(y) - log h(iy), one y at a time
        log_b = log_base + b0[j] * log_ratio + (a[j] * dt - log_mass[j])
        np.maximum(share, w * np.exp(log_b, out=log_b), out=share)
    order = np.argsort(share, axis=-1)
    dead = np.cumsum(np.take_along_axis(share, order, axis=-1),
                     axis=-1) <= _DEAD_SHARE
    np.put_along_axis(keep, order, ~dead, axis=-1)
    return keep


# ---------------------------------------------------------------------------
# Moments by the Cauchy integral in the transform variable.
# ---------------------------------------------------------------------------

# Trapezoid rule on the circle |phi| = MOMENT_RADIUS with MOMENT_NODES nodes
# (sized by measurement, see _cauchy_moment).
MOMENT_NODES = 8
MOMENT_RADIUS = 0.25


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
    behind another's larger values; a segment is judged against the larger
    of its own size and eps times the largest segment's, as a period whose
    values are below the call's roundoff cannot move its sum.
    """
    full = _cauchy_check(m, _cauchy_rules(m, f, conj_symmetric), starts)
    return full.real if conj_symmetric else full


def _cauchy_rules(m: int, f, conj_symmetric: bool):
    """``_cauchy_moment``'s rule and the rule on its nodes of even index,
    per value of ``f``, unchecked, on a last axis of 2: the full rule real
    with ``conj_symmetric``, the half rule never (its nodes are not closed
    under phi -> -conj phi, so its leading alias is imaginary there)."""
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
    return np.stack([full.real if conj_symmetric else full, half], axis=-1)


def _cauchy_check(m: int, rules, starts=None):
    """The full rule of ``rules`` (``_cauchy_rules``, or sums linear in
    them) once ``_cauchy_moment``'s check of its gap to the half rule
    passes, over all values or per segment ``starts`` of the last axis."""
    full = rules[..., 0]
    gap, size = np.abs(full - rules[..., 1]), np.abs(full)
    if starts is None:
        gap, size = np.max(gap), np.max(size)
    else:
        gap, size = (np.maximum.reduceat(
            x.reshape(-1, x.shape[-1]).max(axis=0), starts)
            for x in (gap, size))
        size = np.maximum(size, np.finfo(float).eps * np.max(size))
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


def _period_grids(params: ModelParams, cfg: QuadratureConfig, spans, omega):
    """The v grid at t_{k-1} of each period (t_{k-1}, t_k) of ``spans``,
    for g1 at the transform points ``omega``, built as they are consumed:
    nodes, weights, each node's t_{k-1} and t_k and its index on its
    unpruned lattice.  From t_{k-1} = 0 it is the one node V0 of weight 1
    (index 0), where g1 is a Dirac mass.  Otherwise it is the lattice of
    ``_transition_grid`` from V0, sized against g1's phase at the largest
    |Re omega|, less the nodes where g1 is dead at every omega
    (``_live_nodes``), so its indices may start above 0 and skip some.
    The lattices of a block of consecutive periods are one
    ``_transition_grid`` call and one prune, each period's row padded
    with nodes 1 of weight 0 to one table of at most _BLOCK_ELEMENTS
    nodes."""
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    omega_max = float(np.max(np.abs(omega.real)))
    step = max(1, _BLOCK_ELEMENTS // _GRID_MAX_NODES)
    for j in range(0, len(spans), step):
        group = spans[j:j + step]
        dates = np.array(group)[:, 0]
        dates = dates[dates > 0.0]
        pruned = iter(())
        if dates.size:
            v_tab, w_tab = _transition_grid(params, 0.0, dates, params.v0,
                                            cfg, omega_max)
            live = _live_nodes(params, 0.0, params.v0, dates[:, None], v_tab,
                               w_tab, omega.imag)
            index = np.arange(v_tab.shape[1])
            pruned = ((v[m], w[m], index[m])
                      for v, w, m in zip(v_tab, w_tab, live))
        for t_km1, t_k in group:
            v, w, k = (next(pruned) if t_km1 > 0.0
                       else (np.array([params.v0]), np.ones(1),
                             np.zeros(1, dtype=int)))
            yield v, w, np.full(v.size, t_km1), np.full(v.size, t_k), k


def _g1_rows(params: ModelParams, omega):
    """g's row terms (``transforms._g_contract``) of g1 at the transform
    points ``omega`` with eta = 0, each of shape (n_omega, 1)."""
    a, b0, nu = np.broadcast_arrays(*tr._g_rows(omega[:, None], 0.0, params))
    return a, b0, nu, specfun._log_gamma_vec(nu + 1.0)


def _g1_contract(params: ModelParams, rows, t_km1, v, k, factor,
                 per_period=False):
    """sum_j g1(0, V0; t_{k-1}, omega, v_j) factor[i, j, :] over the nodes
    of period grids (``_period_grids``: v with each node's t_{k-1} and
    lattice index k) for the omegas of ``rows`` (``_g1_rows``), against
    ``factor`` of shape (n_omega or 1, nodes, K): shape (n_omega, K), or
    per period, (n_omega, periods, K).  g1 comes from its row and column
    factors (``transforms._g_contract``), each period's lattice one run of
    columns; at the nodes from t_{k-1} = 0, first in a swap, it is the
    Dirac mass at V0, and the factor is summed as it is."""
    d = np.count_nonzero(t_km1 == 0.0)
    out = np.broadcast_to(factor[:, :d].sum(axis=1, keepdims=True), (
        rows[0].shape[0], min(d, 1) if per_period else 1, factor.shape[-1]))
    if d < v.size:
        sums = tr._g_contract(rows, tr._lattice_columns(
            params, t_km1[d:], v[d:], k[d:]), factor[:, d:],
            per_run=per_period)[:, 0]
        out = (np.concatenate([out, sums], axis=1) if per_period
               else out + sums[:, None])
    return out if per_period else out[:, 0]


def _blocks(grids, per_node: int, per_span: int = 0):
    """The grids of ``grids`` (tuples of arrays on one node axis, such as
    a period's v, w, t_{k-1}, t_k and lattice indices), taken as they are
    consumed, stacked into blocks of consecutive grids with at most
    _BLOCK_ELEMENTS / per_node nodes each, or a single grid: each
    array on one node axis and the index where each grid starts.  With
    ``per_span``, a block's grids times their longest span of lattice
    indices (the last array) also stay within _BLOCK_ELEMENTS / per_span:
    g's kernel pads each lattice to that span in its exp table
    (``transforms._g_contract``)."""
    block, nodes, span = [], 0, 0

    def stacked():
        starts = np.cumsum([0] + [g[0].size for g in block[:-1]])
        return (*(np.concatenate(x) for x in zip(*block)), starts)

    for grid in grids:
        n = grid[0].size
        own = int(grid[-1][-1] - grid[-1][0]) + 1 if per_span else 0
        if block and max((nodes + n) * per_node, (len(block) + 1) * max(
                span, own) * per_span) > _BLOCK_ELEMENTS:
            yield stacked()
            block, nodes, span = [], 0, 0
        block.append(grid)
        nodes += n
        span = max(span, own)
    yield stacked()


def _weighted_moment(params: ModelParams, cfg: QuadratureConfig, m: int,
                     periods, omega):
    """sum over the periods (t_{k-1}, t_k, t_i) of ``periods`` of
    i^{-m} d^m/dphi^m E[e^{i omega (X_{t_i} - X0)} e^{i phi dX_k}] at
    phi = 0, with dX_k = X_{t_k} - X_{t_{k-1}}, for each omega of an array.

    Every period's term is formed one way: the Cauchy rules
    (``_cauchy_rules``) run per node v of the period's grid at t_{k-1} on
    a phi-function D(v), and g1(0, V0; t_{k-1}, omega, v) is contracted
    against w D(v) in one call of ``_g1_contract`` (g1's row and column
    factors, ``transforms._g_contract``; at t_{k-1} = 0 a Dirac mass at
    V0), so g1 enters the price linearly, after the rule's m!/r^m.  The
    weight date t_i picks D:

    * t_i = t_{k-1}: h(t_{k-1}, v; t_k, phi), free of omega;
    * t_i = t_k: h(t_{k-1}, v; t_k, omega + phi);
    * t_i > t_k: sum_{v'} g(t_{k-1}, v; t_k, omega + phi, v') w'
      h(t_k, v'; t_i, omega), the tower rule through t_k.

    The rules' 8/4-node gap is checked per period: on the first route on
    D(v) per node (it is free of omega); on the others on each period's
    g1-weighted sums of both rules, contracted together, K = 2 per period
    (by linearity the sums the rules would take on g1-weighted h).

    Period axis.  The periods of the first two routes differ only in their
    dates, so each route stacks its periods' v grids (``_period_grids``:
    each the lattice of a lone period, less its dead nodes) on one node
    axis, each node carrying its own dates and lattice index, and takes
    h and g1 for a block of periods in one kernel call each, with the
    Cauchy nodes phi on a leading axis.  A block holds as many
    consecutive periods as keep the largest table its route builds within
    _BLOCK_ELEMENTS (at least one period): g1's omega x nodes (its series
    sums) and omega x periods x the block's longest span of lattice
    indices (its exp table, which pads the pruned lattices), and h's phi
    x nodes on the first route (the lag-1 corridor's twelve periods then
    share a few kernel calls), phi x omega x nodes on the second, whose
    omega rows are taken in chunks where one period alone passes the cap.

    On the corridor, ``omega`` is one batch of the omega rule (see
    ``quadrature``).  What does not depend on omega, the period lattices,
    their prune and the first route's D(v), is built once per batch, and
    each lattice is sized at its batch's largest omega_R.

    The tower route takes its periods' outer v grids from one
    ``_period_grids`` call, as the other routes do, but its kernels stay
    one period at a time: on the terminal-price swap each period's
    lattices pair some 11k (v, v') nodes, 7.2k of them live
    (``_live_nodes`` at every omega + phi), so stacking periods would
    only multiply its largest tensor, and the peak memory, by their
    number.  g, from t_{k-1}, is evaluated on the live pairs as one flat
    axis and summed per outer node: each call takes every phi node the
    Cauchy rule asks for against a block of whole outer v rows' pairs, as
    many rows as keep omega x phi x pairs within _BLOCK_ELEMENTS (at
    least one).  The orders 2c(omega + phi) then sit on the rows of one
    Bessel table against the block's (v, v') arguments, so the phi nodes
    share its series' power table (``specfun._log_bessel_table``).  The
    phi-free factor h(t_k, v'; t_i, omega) is taken once per period on
    the live pairs; at omega = -i (the terminal-price weight) it is
    exactly e^{(r - q)(t_i - t_k)}, which ``transforms._log_h_vec``
    returns without a Kummer call.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    # A purely imaginary omega makes the weight e^{i omega X} real.
    real_weight = not np.any(omega.real)
    rows = _g1_rows(params, omega)
    total = np.zeros(omega.size, dtype=complex)
    for weight_at_start in (True, False):
        spans = [(a, b) for a, b, i in periods
                 if i == (a if weight_at_start else b)]
        if not spans:
            continue
        grids = _period_grids(params, cfg, spans, omega)
        phi_evals = (MOMENT_NODES // 2 if weight_at_start or real_weight
                     else MOMENT_NODES)
        per_node = phi_evals if weight_at_start else omega.size * phi_evals
        for v, w, t_km1, t_k, k, starts in _blocks(grids, per_node,
                                                   omega.size):
            if weight_at_start:
                d_v = _cauchy_moment(m, lambda p: np.exp(tr._log_h_vec(
                    t_km1, v, t_k, p[:, None], 0.0, params)), True, starts)
                total += _g1_contract(params, rows, t_km1, v, k,
                                      (w * d_v)[None, :, None])[:, 0]
                continue
            # the rules per node on h(omega + phi), a chunk of omega rows
            # at a time, contracted against g1 per period
            step = max(1, _BLOCK_ELEMENTS // (phi_evals * v.size))
            rules = np.concatenate([_cauchy_rules(m, lambda p: np.exp(
                tr._log_h_vec(t_km1, v, t_k, omega[j:j + step, None]
                              + p[:, None, None], 0.0, params)), real_weight)
                for j in range(0, omega.size, step)])
            total += _checked_sum(m, params, rows, t_km1, v, k, w, rules)
    tower = [p for p in periods if p[2] > p[1]]
    grids = _period_grids(params, cfg, [p[:2] for p in tower], omega)
    for (t_km1, t_k, t_i), grid in zip(tower, grids):
        total += _tower_moment(params, cfg, m, t_km1, t_k, t_i, omega,
                               real_weight, grid, rows)
    return total


def _checked_sum(m: int, params: ModelParams, rows, t_km1, v, k, w, rules):
    """The sum over a block of periods of g1 contracted against w D, D the
    full rule of ``rules`` (the Cauchy rules per omega and node, on a last
    axis of 2: full, half), after ``_cauchy_check`` of each period's
    g1-weighted rules: shape (n_omega,)."""
    sums = _g1_contract(params, rows, t_km1, v, k, w[:, None] * rules, True)
    return _cauchy_check(m, sums, np.arange(sums.shape[1])).sum(axis=-1)


def _tower_moment(params: ModelParams, cfg: QuadratureConfig, m: int,
                  t_km1: float, t_k: float, t_i: float, omega,
                  real_weight: bool, grid, rows):
    """One period's term of ``_weighted_moment`` on the route t_i > t_k,
    from its v grid at t_{k-1} (``_period_grids``) and g1's row terms
    (``_g1_rows``)."""
    v, w, t_from, _, k = grid
    inner, w_in = _transition_grid(params, t_km1, t_k, v, cfg,
                                   float(np.max(np.abs(omega.real))))

    def f(phis):
        # the inner sum per outer node v, from g on the live (v, v') pairs
        # of every omega + phi, flat, a block of whole outer rows per call
        live = _live_nodes(params, t_km1, v[:, None], t_k, inner, w_in,
                           (omega[:, None] + phis).imag)
        v_in = inner[live]
        weight = w_in[live] * np.exp(
            tr._log_h_vec(t_k, v_in, t_i, omega[:, None], 0.0, params))
        counts = np.count_nonzero(live, axis=1)
        pairs = (np.repeat(v, counts), v_in, weight.T)
        outer = zip(*(np.split(x, np.cumsum(counts)[:-1]) for x in pairs))
        sums = []
        for v_b, v_in_b, weight_b, starts in _blocks(outer,
                                                     omega.size * phis.size):
            g = _split_exp(*tr._log_g_vec(
                t_km1, v_b, t_k, omega[:, None] + phis[:, None, None], 0.0,
                v_in_b, params))
            g *= weight_b.T
            sums.append(np.add.reduceat(g, starts, axis=-1))
        return np.concatenate(sums, axis=-1)
    return _checked_sum(m, params, rows, t_from, v, k, w,
                        _cauchy_rules(m, f, real_weight))


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
