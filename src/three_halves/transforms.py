"""Closed-form transforms of the (log-price, quadratic-variation, variance) triple.

Implemented here:

* ``partial_transform_g``  - the partial transform of the triple transition
  density (Fourier in the price and quadratic-variation arguments, density
  in the variance argument),
* ``joint_cf_h``           - joint characteristic function of (X, I),
* ``partial_transform_g1`` - the (X, V) partial transform (eta = 0 slice),
* ``transition_density_v`` - transition density of the instantaneous variance,
* ``cir_transition_density_u`` - transition density of the reciprocal
  variance U = 1/V (an inhomogeneous CIR process),
* ``conditional_cf_integrated_variance`` - CF of int V dt given endpoints.

Everything is assembled in log space: the dynamic range of the density
factors spans hundreds of orders of magnitude and the Bessel argument
z = (2/C) sqrt(A/(v v')) explodes as the time step shrinks.  g keeps the
Bessel's split form: an exponent table E, with every factor's log, and a
mantissa S, the Bessel's scaled sum, so g = e^E S is formed without a
per-element log of the sum.  The timer kernel does not form E at all: on
uniform rules in ln v' the series exponent is a row term plus a column
term plus a row slope times the node index, so ``_g_contract`` contracts
g from one table of powers per row and date (``_g_rows``, ``_g_columns``).

A deliberate transcription guard: plain ``kappa`` drives the density order
``1 + 2 kappa / eps^2`` and the probabilistic-route exponent, while
``kappa_tilde = kappa - i omega rho eps`` appears only inside g's power and
the exponent c.  The two are kept in separate named variables everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import (
    DeltaRegimeError,
    OverflowSignalError,
    ThreeHalvesError,
)
from .model import ModelParams, _drift_a_vec, coef_A, coef_C

# Below this separation g and the V-density are Dirac-like; no finite
# evaluation is meaningful.
SMALL_DT_DELTA = 1e-10

_LOG_OVERFLOW = 709.0


@dataclass(frozen=True)
class TransformPoint:
    """A complex (omega, eta) Fourier point; contours are always explicit."""

    omega: complex
    eta: complex = 0.0

    def __post_init__(self):
        om = complex(self.omega)
        et = complex(self.eta)
        if not (np.isfinite(om.real) and np.isfinite(om.imag)
                and np.isfinite(et.real) and np.isfinite(et.imag)):
            raise ThreeHalvesError("TransformPoint components must be finite")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "eta", et)


@dataclass(frozen=True)
class TransformCoefficients:
    """Symbol block of the closed-form transform at one (omega, eta) point."""

    kappa_tilde: complex
    c: complex
    a: complex
    A: float
    C: float


def _kappa_tilde(omega, params: ModelParams):
    return params.kappa - 1j * np.asarray(omega, dtype=complex) * params.rho * params.epsilon


def _b0(omega, params: ModelParams):
    """b0 = 1/2 + kt/eps^2: g's power of A v / v' and the centre of c."""
    return 0.5 + _kappa_tilde(omega, params) / params.eps2


def _c_exponent(omega, eta, params: ModelParams):
    """Principal-branch exponent c(omega, eta); Re(c) >= 0 by construction."""
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    b0 = _b0(omega, params)
    return np.sqrt(b0 * b0 + (1j * omega + omega * omega - 2j * eta) / params.eps2)


def coefficients(point: TransformPoint, params: ModelParams, t: float,
                 t_prime: float) -> TransformCoefficients:
    """Assemble (kappa_tilde, c, a, A, C) for one transform point.

    For real (omega, eta) the branch analysis guarantees
    Re(c) > 1/2 + kappa/eps^2 strictly; this is verified here.  On complex
    contours the bound need not hold and is not enforced.
    """
    om, et = point.omega, point.eta
    kt = complex(_kappa_tilde(om, params))
    c = complex(_c_exponent(om, et, params))
    a = complex(_drift_a_vec(om, et, params))
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    if om.imag == 0.0 and et.imag == 0.0 and (om, et) != (0.0, 0.0):
        bound = 0.5 + params.kappa / params.eps2
        if not c.real > bound - 1e-12:
            raise ThreeHalvesError(
                f"branch violation: Re(c)={c.real} <= 1/2 + kappa/eps^2={bound} "
                f"at real point (omega={om}, eta={et})"
            )
    return TransformCoefficients(kappa_tilde=kt, c=c, a=a, A=A, C=C)


def _require_dt(t: float, t_prime: float) -> float:
    dt = t_prime - t
    if dt < SMALL_DT_DELTA:
        raise DeltaRegimeError(
            f"t'-t={dt} below {SMALL_DT_DELTA}: transition kernel is Dirac-like"
        )
    return dt


def _exp_checked(logv, what: str):
    logv = np.asarray(logv)
    if np.any(logv.real > _LOG_OVERFLOW):
        raise OverflowSignalError(f"{what} overflows double precision")
    # Underflow returns an exact 0: the value is genuinely below the
    # representable range (density tail), which is what integrators need.
    return np.exp(logv)


# ---------------------------------------------------------------------------
# The partial transform g and its relatives.
# ---------------------------------------------------------------------------


def _date_coefficients(t, t_prime, params: ModelParams):
    """dt, A and C of each date pair of the arrays ``t`` and ``t_prime``
    (broadcast against each other), taken once per distinct pair."""
    t, t_prime = np.broadcast_arrays(np.asarray(t, dtype=float),
                                     np.asarray(t_prime, dtype=float))
    pairs, inverse = np.unique(t.ravel() + 1j * t_prime.ravel(),
                               return_inverse=True)
    dt, A, C = np.array([
        (_require_dt(a, b), coef_A(params.theta, a, b),
         coef_C(params.theta, params.epsilon, a, b))
        for a, b in zip(pairs.real, pairs.imag)]).T
    return tuple(x[inverse].reshape(t.shape) for x in (dt, A, C))


def _g_rows(omega, eta, params: ModelParams):
    """g's row terms, which depend on (omega, eta) only: the drift a, the
    power b0 of A v / v' and the Bessel order nu = 2c."""
    return (_drift_a_vec(omega, eta, params), _b0(omega, params),
            2.0 * _c_exponent(omega, eta, params))


def _g_columns(dt, A, C, v, v_prime):
    """g's column terms, which depend on the dates and variances only: the
    Bessel argument z = (2/C) sqrt(A/(v v')), lav = log(A v / v') (b0's
    factor) and the row-free part of the exponent,
    e0 = log(A/C) - (A v + v')/(C v v') - 2 log v'."""
    lvp, la = np.log(v_prime), np.log(A)
    z = (2.0 / C) * np.sqrt(A / (v * v_prime))
    return (z, la + np.log(v) - lvp,
            la - np.log(C) - (A * v + v_prime) / (C * v * v_prime) - 2.0 * lvp)


def _log_g_vec(t, v, t_prime, omega, eta, v_prime, params: ModelParams):
    """g(t, v; t', omega, eta, v') in split form, (E, S) with g = e^E S
    (``specfun._split_exp``), with numpy broadcasting:

    g = e^{a(t'-t)} (A/C) exp(-(A v + v')/(C v v')) v'^{-2}
        (A v / v')^{b0} I_{2c}((2/C) sqrt(A/(v v'))),  b0 = 1/2 + kt/eps^2.

    (omega, eta) vary along some axes and (t, v, t', v') along others
    (``specfun._rows_by_columns``).  S is I_2c's, E its exponent plus one
    rank-3 product of the row and column terms (``_g_rows``,
    ``_g_columns``), [a, b0, 1]_row . [t' - t, lav, e0]_col, added 2^12
    elements at a time.  The dates broadcast against the other column
    arguments, one pair per element (the swaps stack several periods' v
    grids on one axis); every pair needs t' - t >= SMALL_DT_DELTA.  The
    timer kernel contracts g without this table (``_g_contract``).
    """
    dt, A, C = _date_coefficients(t, t_prime, params)
    v = np.asarray(v, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    if np.any(v <= 0.0) or np.any(v_prime <= 0.0):
        raise ThreeHalvesError("variance arguments must be positive")

    def table(omega, eta, dt, A, C, v, v_prime):
        z, lav, e0 = _g_columns(dt, A, C, v, v_prime)
        a, b0, nu = _g_rows(omega, eta, params)
        e, s = specfun._log_bessel_i_vec(nu, z)
        rows = np.concatenate(np.broadcast_arrays(a, b0, 1.0), axis=1)
        cols = np.stack(np.broadcast_arrays(dt, lav, e0), dtype=complex)
        step = max(1, 2**12 // cols.shape[1])
        for r in range(0, e.shape[0], step):
            e[r:r + step] += rows[r:r + step] @ cols
        return e, s

    return specfun._rows_by_columns(
        table, (np.asarray(omega, dtype=complex),
                np.asarray(eta, dtype=complex)), (dt, A, C, v, v_prime))


class _GColumns(NamedTuple):
    """g's column terms (``_g_columns``) on v' columns from one (t, v), each
    date's columns a uniform rule in u = ln v' in rule order, the dates'
    rules side by side: per column the step dt = t' - t, its rule's
    spacing du, its index k on its rule (0 starts a date), z, lav and
    e0."""

    dt: np.ndarray
    du: np.ndarray
    k: np.ndarray
    z: np.ndarray
    lav: np.ndarray
    e0: np.ndarray

    def take(self, cols) -> "_GColumns":
        return _GColumns(*(x[cols] for x in self))


def _g_contract(rows, cols: _GColumns, factor):
    """sum_j g_ij factor[i, j], g from one (t, v) (``_GColumns``) on rows
    ``rows`` = (a, b0, nu, log Gamma(nu + 1)), each of shape (n_omega,
    n_eta), against ``factor`` of shape (n_omega, columns): the timer
    kernel's v' sums, shape (n_omega, n_eta), with no exp per element where
    the Bessel function takes its series.

    On date d's rule u_j = u_0 + k_j du, so log(z/2) and lav are affine in
    k and g's series exponent is E_ij = R_i + gamma_i k_j + e0_j:

        R_i = a dt + b0 lav_0 + nu log(z_0 / 2) - log Gamma(nu + 1),
        gamma_i = -(b0 + nu / 2) du.

    e^{e0_j - mu_d} (mu_d the date's largest e0) joins the factor, one real
    exp per column, and e^{R_i + mu_d + gamma_i k} comes from one table
    per date (``specfun._exp_table``: a few exps per row), shifted by each
    row's largest real part over the dates, top_i, so that no entry passes
    1 whatever the rows; e^{top_i} joins the row's sum through
    ``specfun._split_exp``, by logs where it passes the double range.  (On
    the timer's rules the real parts of R_i + gamma_i k span about e^-103
    to e^32 and e0 about e^-288 to e^1.4, N = 4 to 52.)  The series
    sums S (``specfun._log_bessel_series``) times that table are then one
    product against the factor.  Elements with an exponent of another form
    take their own exp (``specfun._split_exp``) against the factor: the
    asymptotic Bessel elements, E = a dt + b0 lav + e0 + z - 1/2 log(2 pi
    z), and any series element whose sum needed a log scale.
    """
    shape = rows[0].shape
    a, b0, nu, lgam = (np.reshape(x, -1) for x in rows)
    m = cols.z.size

    def own(r, c, e_bessel, s):
        # sum_j e^E S factor over the elements (r, c) that take their own
        # exp, E from their Bessel exponent and the row and column terms
        e = a[r] * cols.dt[c] + b0[r] * cols.lav[c] + cols.e0[c] + e_bessel
        val = specfun._split_exp(e, s) * factor[r // shape[1], c]
        return (np.bincount(r, val.real, a.size)
                + 1j * np.bincount(r, val.imag, a.size))

    asym = np.zeros((a.size, m), dtype=bool)
    far = np.abs(cols.z) > specfun.BESSEL_ASYMPTOTIC_MIN_Z
    if np.any(far):
        asym[:, far] = specfun._bessel_asym_mask(nu[:, None], cols.z[far])
    out = np.zeros(a.size, dtype=complex)
    if np.any(asym):  # first, while no table is held
        r, c = np.nonzero(asym)
        out += own(r, c, *specfun._log_bessel_asym(nu[r], cols.z[c]))
    series = ~np.all(asym, axis=0)
    if not np.any(series):
        return out.reshape(shape)
    pick = slice(None) if np.all(series) else series
    s, scale = specfun._log_bessel_series(nu[:, None], cols.z[pick])
    skip = asym[:, pick]
    if scale is not None:  # elements whose sums needed a log scale
        scaled = (scale != 0.0) & ~skip
        r, c = np.nonzero(scaled)
        c_all = np.flatnonzero(series)[c]
        out += own(r, c_all, nu[r] * np.log(0.5 * cols.z[c_all]) - lgam[r]
                   + scale[r, c], s[r, c])
        skip = skip | scaled
    starts = np.flatnonzero(cols.k == 0).tolist()
    weight = np.empty(m)
    dates, top = [], np.full(a.size, -np.inf)
    for i, j in zip(starts, starts[1:] + [m]):
        mu = cols.e0[i:j].max()
        weight[i:j] = np.exp(cols.e0[i:j] - mu)
        r0 = (a * cols.dt[i] + b0 * cols.lav[i] + nu * np.log(0.5 * cols.z[i])
              - lgam + mu)
        g = -(b0 + 0.5 * nu) * cols.du[i]
        np.maximum(top, r0.real + np.maximum(g.real, 0.0) * (j - i - 1),
                   out=top)
        dates.append((i, j, r0, g))
    powers = np.empty((m, a.size), dtype=complex)
    for i, j, r0, g in dates:
        specfun._exp_table(r0 - top, g, j - i - 1, out=powers[i:j])
    s *= powers[pick].T
    del powers
    if np.any(skip):
        s[skip] = 0.0
    f = (factor * weight)[:, pick]
    out += specfun._split_exp(top.astype(complex), (
        s.reshape(shape + (-1,)) @ f[:, :, None]).reshape(-1))
    return out.reshape(shape)


def partial_transform_g(t: float, v: float, t_prime: float,
                        point: TransformPoint, v_prime: float,
                        params: ModelParams) -> complex:
    """Partial transform of the triple transition density (scalar form)."""
    log_g = specfun._split_log(*_log_g_vec(t, v, t_prime, point.omega,
                                           point.eta, v_prime, params))
    return complex(np.ravel(_exp_checked(log_g, "partial_transform_g"))[0])


def partial_transform_g1(t: float, v: float, t_prime: float, omega: complex,
                         v_prime: float, params: ModelParams) -> complex:
    """The (X, V) partial transform: g at eta = 0."""
    return partial_transform_g(t, v, t_prime, TransformPoint(omega, 0.0),
                               v_prime, params)


def transition_density_v(t: float, v: float, t_prime: float, v_prime: float,
                         params: ModelParams) -> float:
    """Transition density of the instantaneous variance (g at omega=eta=0)."""
    val = partial_transform_g(t, v, t_prime, TransformPoint(0.0, 0.0),
                              v_prime, params)
    if abs(val.imag) > 1e-12 * max(abs(val.real), 1e-300):
        raise ThreeHalvesError("variance density came out non-real")
    return max(val.real, 0.0)


def _log_density_v_vec(t, v, t_prime, v_prime, params: ModelParams):
    """Vectorized log of the V-transition density (real orders throughout)."""
    return specfun._split_log(*_log_g_vec(t, v, t_prime, 0.0, 0.0, v_prime,
                                          params)).real


def cir_transition_density_u(t: float, u: float, t_prime: float,
                             u_prime: float, params: ModelParams) -> float:
    """Transition density of U = 1/V, an inhomogeneous CIR process.

    p_U(u'|u) = (A/C) exp(-(A u' + u)/C) (A u'/u)^{1/2 + kappa/eps^2}
                I_{1 + 2 kappa/eps^2}((2/C) sqrt(A u u')).

    Related to the V-density by p_V(v'|v) = (1/v'^2) p_U(1/v' | 1/v).
    """
    _require_dt(t, t_prime)
    if u <= 0.0 or u_prime <= 0.0:
        raise ThreeHalvesError("CIR state must be positive")
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    order = 1.0 + 2.0 * params.kappa / params.eps2
    z = (2.0 / C) * np.sqrt(A * u * u_prime)
    log_p = (
        np.log(A) - np.log(C)
        - (A * u_prime + u) / C
        + (0.5 + params.kappa / params.eps2) * (np.log(A) + np.log(u_prime) - np.log(u))
        + specfun._split_log(*specfun._log_bessel_i_vec(order, z))
    )
    return float(np.ravel(_exp_checked(log_p, "cir_transition_density_u").real)[0])


def conditional_cf_integrated_variance(xi: complex, t: float, t_prime: float,
                                       v: float, v_prime: float,
                                       params: ModelParams) -> complex:
    """CF of int_t^{t'} V ds conditional on both variance endpoints.

    A ratio of Bessel functions sharing one argument; both are evaluated in
    log space so the (huge) shared exponential scale cancels analytically:

        I_nuhat(z) / I_b1(z),  nuhat = sqrt((1 + 2k/e^2)^2 - 8 i xi / e^2),
        b1 = 1 + 2 kappa/eps^2,  z = (2/C) sqrt(A/(v v')).
    """
    _require_dt(t, t_prime)
    if v <= 0.0 or v_prime <= 0.0:
        raise ThreeHalvesError("variance endpoints must be positive")
    xi = complex(xi)
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    b1 = 1.0 + 2.0 * params.kappa / params.eps2
    nuhat = np.sqrt(complex(b1 * b1) - 8j * xi / params.eps2)
    z = (2.0 / C) * np.sqrt(A / (v * v_prime))
    log_num = specfun._split_log(*specfun._log_bessel_i_vec(nuhat, z))
    log_den = specfun._split_log(*specfun._log_bessel_i_vec(b1, z))
    return complex(np.ravel(_exp_checked(
        log_num - log_den, "conditional_cf_integrated_variance"))[0])


# ---------------------------------------------------------------------------
# Probabilistic factorization of g (the paper-independent second route).
# ---------------------------------------------------------------------------


def xi_for_factorization(omega, eta, params: ModelParams):
    """Map (omega, eta) to the xi argument of the conditional CF.

    Chosen so that i*xi equals the coefficient of int V ds in the
    conditional-expectation exponent of the rewritten log-price dynamics:

        i xi = i omega [rho eps (kappa/eps^2 + 1/2) - 1/2]
               - (1 - rho^2) omega^2 / 2 + i eta.
    """
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    slope = params.rho * params.epsilon * (params.kappa / params.eps2 + 0.5) - 0.5
    return omega * slope + 0.5j * (1.0 - params.rho**2) * omega * omega + eta


def partial_transform_g_factorized(t: float, v: float, t_prime: float,
                                   point: TransformPoint, v_prime: float,
                                   params: ModelParams) -> complex:
    """g assembled from its probabilistic factorization.

    Product of (i) the deterministic prefactor of the rewritten dynamics,
    (ii) the conditional CF of integrated variance at the mapped xi, and
    (iii) the V-transition density.  Agrees with ``partial_transform_g``
    pointwise; the two routes share no algebra beyond the Bessel kernel, so
    the agreement is the package's primary formula-transcription check.

    Only meaningful without jumps (the factorization rewrites the pure
    diffusion dynamics).
    """
    if params.jumps is not None and params.jumps.lam > 0.0:
        raise ThreeHalvesError("factorized route is defined for the no-jump model")
    om, et = point.omega, point.eta
    dt = _require_dt(t, t_prime)
    A = coef_A(params.theta, t, t_prime)
    xi = complex(xi_for_factorization(om, et, params))
    pref = np.exp(1j * om * (params.r - params.q) * dt) * (
        v_prime / (A * v)
    ) ** (1j * om * params.rho / params.epsilon)
    cf = conditional_cf_integrated_variance(xi, t, t_prime, v, v_prime, params)
    dens = transition_density_v(t, v, t_prime, v_prime, params)
    return complex(pref * cf * dens)


# ---------------------------------------------------------------------------
# Joint characteristic function h of (X, I).
# ---------------------------------------------------------------------------


def _log_h_vec(t, v, t_prime, omega, eta, params: ModelParams):
    """log h(t, v; t', omega, eta) with numpy broadcasting.

    h = e^{a dt} [Gamma(bt - at)/Gamma(bt)] x^{at} M(at, bt, -x),
    x = 1/(C v), at = c - b0, bt = 1 + 2c (b0 = 1/2 + kt/eps^2).

    The parameters at, bt depend on (omega, eta) only and x on the
    variances and dates only, so ``specfun._rows_by_columns`` takes them
    as parameter rows x variance columns: the timer's (omega, eta) grid
    at one variance is one column, the tower's omega against its (v, v')
    grid one row per omega.  (omega, eta) and v varying along one axis
    raise SpecfunDomainError.  Three regimes:

    * at = 0 exactly, on whole rows: M(0, bt, -x) = 1, the Gamma ratio is
      1 and x^0 = 1, so log h = a dt.  With eta = 0 this is omega = -i,
      where h is E[S_{t'}/S_t | v] = e^{(r - q)(t' - t)} by the martingale
      property (``model.validate``: b0 = 1/2 + (kappa - rho eps)/eps^2 >=
      0, so c = sqrt(b0^2) = b0 and at comes out exactly 0.0, unless
      rounding leaves b0 a hair below 0 at the admissibility boundary),
      and omega = 0, where h = 1;
    * large x, per element (``specfun._kummer_asym_mask``: x beyond
      KUMMER_ASYM_MIN_X and beyond mx^2 + 50, mx = max(|at|,
      |at - bt + 1|)): the algebraic asymptotic branch, in which the Gamma
      ratio and the power cancel analytically, leaving log h = a dt + log
      (asymptotic sum), which provably reaches full precision there;
    * otherwise the Kummer transformation plus the Taylor series
      (positive argument, no cancellation), summed by the matrix route of
      ``specfun._log_kummer_taylor`` for every other row of each column
      that some row takes Taylor in; the mask then picks per element.  A
      Taylor-selected element that lost more than 10 digits (log ratio
      > 23) raises.

    ``t`` and ``t_prime`` may be arrays that broadcast into the shape of
    ``v``, one date pair per variance (see ``_log_g_vec``); x and dt then
    vary along the variance axes only.  Scalar dates allow t' = t (h = 1);
    array dates need t' - t >= SMALL_DT_DELTA.
    """
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    v = np.asarray(v, dtype=float)
    if np.ndim(t) == 0 and np.ndim(t_prime) == 0:
        dt = t_prime - t
        if dt == 0.0:
            shape = np.broadcast_shapes(omega.shape, eta.shape, v.shape)
            return np.zeros(shape, dtype=complex)
        if dt < 0.0:
            raise ThreeHalvesError("t_prime must be >= t")
        C = coef_C(params.theta, params.epsilon, t, t_prime)
    else:
        dt, _, C = _date_coefficients(t, t_prime, params)
    if np.any(v <= 0.0):
        raise ThreeHalvesError("variance must be positive")

    omega, eta = np.atleast_1d(omega, eta)  # a point rounds as in a table
    c = _c_exponent(omega, eta, params)
    alpha_t = c - _b0(omega, params)
    out = specfun._rows_by_columns(_log_kummer_rows, (alpha_t, 1.0 + 2.0 * c),
                                   (1.0 / (C * v),))
    out += _drift_a_vec(omega, eta, params) * dt
    return out


def _log_kummer_rows(at, bt, x):
    """``_log_kummer_factor`` on rows ``at``, ``bt`` of shape (n, 1)
    against columns ``x`` of shape (m,), with 0 on the rows where at = 0
    (where log h = a dt exactly)."""
    live = at[:, 0] != 0.0
    if np.all(live):
        return _log_kummer_factor(at, bt, x)
    out = np.zeros((live.size, x.size), dtype=complex)
    if np.any(live):
        out[live] = _log_kummer_factor(at[live], bt[live], x)
    return out


def _log_kummer_factor(at, bt, x):
    """log([Gamma(bt - at)/Gamma(bt)] x^{at} M(at, bt, -x)), the part of
    log h after a dt, for parameter rows ``at``, ``bt`` of shape (n, 1)
    against columns ``x`` of shape (m,); the asymptotic and Taylor
    regimes of ``_log_h_vec``.  The Taylor part is finished in place, and
    it is the result where no element takes the asymptotic branch, so few
    tables of the output's size are alive at once."""
    asym = specfun._kummer_asym_mask(at, bt, x)
    cols = ~np.all(asym, axis=0)
    logm = None
    if np.any(cols):
        xt = x[cols]
        taylor = ~asym[:, cols]
        logm, lost = specfun._log_kummer_taylor(bt - at, bt, xt)
        if np.any(lost[taylor] > 23.0):
            raise ThreeHalvesError(
                "joint CF Taylor branch lost more than 10 digits; "
                "contour outside the supported strip"
            )
        del lost
        part = (specfun._log_gamma_vec(bt - at) - specfun._log_gamma_vec(bt)
                + at * np.log(xt))
        part -= xt
        logm += part
        del part
        if not np.any(asym):
            return logm
    out = np.empty(asym.shape, dtype=complex)
    if np.any(asym):
        out[asym] = specfun._log_kummer_asym_sum(
            *(np.broadcast_to(p, asym.shape)[asym] for p in (at, bt, x)))
    if logm is not None:
        part = out[:, cols]
        np.copyto(part, logm, where=taylor)
        out[:, cols] = part
    return out


def joint_cf_h(t: float, v: float, t_prime: float, point: TransformPoint,
               params: ModelParams) -> complex:
    """Joint characteristic function of (X, I): E_t[e^{i w X' + i e I'}] factor.

    The full expectation is e^{i w X_t + i e I_t} * h; this returns h.
    Exactly 1 at t = t_prime (terminal condition).
    """
    if t_prime == t:
        return 1.0 + 0.0j
    log_h = _log_h_vec(t, v, t_prime, point.omega, point.eta, params)
    return complex(np.ravel(_exp_checked(log_h, "joint_cf_h"))[0])

