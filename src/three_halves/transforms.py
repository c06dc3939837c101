"""Closed-form transforms of the (log-price, quadratic-variation, variance) triple.

Implemented here, each with numpy broadcasting:

* ``_log_g_vec``         - the partial transform g of the triple transition
  density (Fourier in the price and quadratic-variation arguments, density
  in the variance argument), in split form,
* ``_g_contract``        - g contracted against a factor on uniform v' rules
  (the timer kernel's v' sums), without forming g,
* ``_log_density_v_vec`` - log of the transition density of the
  instantaneous variance (g at omega = eta = 0),
* ``_log_h_vec``         - log of the joint characteristic function h of
  (X, I).

The paper's second derivation of g, its probabilistic factorization, is a
cross-check only and lives with the tests (``tests/oracles.py``).

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
``1 + 2 kappa / eps^2``, while ``kappa_tilde = kappa - i omega rho eps``
appears only inside g's power and the exponent c.  The two are kept in
separate named variables everywhere.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DeltaRegimeError, ThreeHalvesError
from .model import ModelParams, _drift_a_vec, coef_A, coef_C

# Below this separation g and the V-density are Dirac-like; no finite
# evaluation is meaningful.
SMALL_DT_DELTA = 1e-10


def _kappa_tilde(omega, params: ModelParams):
    return params.kappa - 1j * np.asarray(omega, dtype=complex) * params.rho * params.epsilon


def _b0(omega, params: ModelParams):
    """b0 = 1/2 + kt/eps^2: g's power of A v / v' and the centre of c."""
    return 0.5 + _kappa_tilde(omega, params) / params.eps2


def _c_exponent(omega, eta, params: ModelParams):
    """Principal-branch exponent c(omega, eta); Re(c) >= 0 by construction,
    and Re(c) > 1/2 + kappa/eps^2 at every real (omega, eta) but (0, 0)."""
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    b0 = _b0(omega, params)
    return np.sqrt(b0 * b0 + (1j * omega + omega * omega - 2j * eta) / params.eps2)


def _require_dt(t, t_prime):
    """t' - t per pair of the broadcast arrays ``t`` and ``t_prime``,
    raising DeltaRegimeError, with the first offending pair, where some
    step is below SMALL_DT_DELTA."""
    dt = np.subtract(t_prime, t, dtype=float)
    short = dt < SMALL_DT_DELTA
    if np.any(short):
        i = np.flatnonzero(short)[0]
        a, b = np.broadcast_arrays(t, t_prime)
        raise DeltaRegimeError(
            f"t'-t={dt.flat[i]} below {SMALL_DT_DELTA} at (t, t') = "
            f"({a.flat[i]}, {b.flat[i]}): transition kernel is Dirac-like")
    return dt


# ---------------------------------------------------------------------------
# The partial transform g and its relatives.
# ---------------------------------------------------------------------------


def _date_coefficients(t, t_prime, params: ModelParams):
    """dt, A and C of each date pair of the arrays ``t`` and ``t_prime``
    (broadcast against each other), each one array call; every pair needs
    t' - t >= SMALL_DT_DELTA (``_require_dt``)."""
    return (_require_dt(t, t_prime), coef_A(params.theta, t, t_prime),
            coef_C(params.theta, params.epsilon, t, t_prime))


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


def _g_contract(rows, cols: _GColumns, factor, work=None):
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

    ``work``, a pair of complex arrays of at least rows x columns elements
    each, holds the series sums (its first) and, in turn, the series'
    term ratios, its stop rule's moduli and the exp table (its second), so
    that a caller's tiles can share one; without it the tables are
    allocated here.
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

    out = np.zeros(a.size, dtype=complex)
    series = np.ones(m, dtype=bool)
    skip = None  # the asymptotic elements of the series columns
    far = np.abs(cols.z) > specfun.BESSEL_ASYMPTOTIC_MIN_Z
    if np.any(far):  # first, while no table is held
        asym = np.zeros((a.size, m), dtype=bool)
        asym[:, far] = specfun._bessel_asym_mask(nu[:, None], cols.z[far])
        r, c = np.nonzero(asym)
        out += own(r, c, *specfun._log_bessel_asym(nu[r], cols.z[c]))
        series = ~np.all(asym, axis=0)
        if not np.any(series):
            return out.reshape(shape)
        if r.size:
            skip = asym[:, series]
    pick = slice(None) if np.all(series) else series
    s, scale = specfun._log_bessel_series(nu[:, None], cols.z[pick], work)
    if scale is not None:  # elements whose sums needed a log scale
        scaled = scale != 0.0
        if skip is not None:
            scaled &= ~skip
        r, c = np.nonzero(scaled)
        c_all = np.flatnonzero(series)[c]
        out += own(r, c_all, nu[r] * np.log(0.5 * cols.z[c_all]) - lgam[r]
                   + scale[r, c], s[r, c])
        skip = scaled if skip is None else skip | scaled
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
    powers = (np.empty((m, a.size), dtype=complex) if work is None
              else work[1][:m * a.size].reshape(m, a.size))
    for i, j, r0, g in dates:
        specfun._exp_table(r0 - top, g, j - i - 1, out=powers[i:j])
    s *= powers[pick].T
    del powers
    if skip is not None:
        s[skip] = 0.0
    f = (factor * weight)[:, pick]
    out += specfun._split_exp(top.astype(complex), (
        s.reshape(shape + (-1,)) @ f[:, :, None]).reshape(-1))
    return out.reshape(shape)


def _log_density_v_vec(t, v, t_prime, v_prime, params: ModelParams):
    """Vectorized log of the V-transition density (real orders throughout)."""
    return specfun._split_log(*_log_g_vec(t, v, t_prime, 0.0, 0.0, v_prime,
                                          params)).real


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
    tables of the output's size are alive at once.  log Gamma(bt - at) and
    log Gamma(bt) come from one ``specfun._log_gamma_vec`` call on both
    row sets stacked; every element takes its own shifts there, so the
    pair is bit-identical to two calls."""
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
        lg_top, lg_bt = np.split(
            specfun._log_gamma_vec(np.concatenate([bt - at, bt])), 2)
        part = lg_top - lg_bt + at * np.log(xt)
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
