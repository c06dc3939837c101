"""Closed-form transforms of the (log-price, quadratic-variation, variance) triple.

Implemented here, each with numpy broadcasting:

* ``_log_g_vec``         - the partial transform g of the triple transition
  density (Fourier in the price and quadratic-variation arguments, density
  in the variance argument), in split form,
* ``_g_contract``        - g on uniform v' rules from one (t, v), from its
  row and column factors (``_lattice_columns``) with no exp per element,
  contracted against a factor of K columns (the timer kernel's v' sums,
  the swaps' g1 against w D(v)),
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
per-element log of the sum.  The timer kernel and the swaps' g1 do not
form E at all: on uniform rules in ln v' the series exponent is a row
term plus a column term plus a row slope times the node index, so
``_g_contract`` takes g from one table of powers per row for all its
dates (``_g_rows``, ``_g_columns``).

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
    arguments, one pair per element; every pair needs t' - t >=
    SMALL_DT_DELTA.  The density scan and the swaps' tower pairs take this
    table; the timer kernel and the swaps' g1, on uniform rules, take g
    from its factors instead (``_g_contract``).
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
    """g's column terms (``_g_columns``) on v' columns from one (t, v), in
    runs: the columns of one date t' side by side, nodes of a uniform rule
    in u = ln v' in rule order, and the runs' dates distinct from their
    neighbours'.  Per column: the step dt = t' - t, its rule's spacing du,
    its index k on its rule (a run may start above 0 and skip indices),
    z, lav and e0."""

    dt: np.ndarray
    du: np.ndarray
    k: np.ndarray
    z: np.ndarray
    lav: np.ndarray
    e0: np.ndarray

    def take(self, cols) -> "_GColumns":
        return _GColumns(*(x[cols] for x in self))


def _runs(dt):
    """Where each run of equal entries of ``dt`` starts and ends (past its
    last): the dates' runs of ``_GColumns``."""
    if not dt.size:
        return np.empty((2, 0), dtype=int)
    edge = (np.flatnonzero(dt[1:] != dt[:-1]) + 1).tolist()
    return np.array([0] + edge), np.array(edge + [dt.size])


def _lattice_columns(params: ModelParams, t_prime, v_prime, k) -> _GColumns:
    """g's column terms from (0, V0) (``_GColumns``) on nodes ``v_prime``
    of uniform rules in ln v', with their dates ``t_prime`` and their
    indices ``k`` on their rules: the timer's v' rules, the swaps' period
    lattices.  A and C are one array call; each run's spacing comes from
    lav = log(A V0 / v'), which falls by du per index (a lone node's du
    is never used)."""
    dt, A, C = _date_coefficients(0.0, t_prime, params)
    z, lav, e0 = _g_columns(dt, A, C, params.v0, v_prime)
    starts, ends = _runs(dt)
    du = (lav[starts] - lav[ends - 1]) / np.maximum(k[ends - 1] - k[starts], 1)
    return _GColumns(dt, np.repeat(du, ends - starts), k, z.astype(complex),
                     lav, e0)


def _g_contract_rows(omega, eta, params: ModelParams):
    """``_g_contract``'s rows at the broadcast arrays ``omega`` and
    ``eta``: g's row terms (``_g_rows``) broadcast to one shape, and
    log Gamma(nu + 1)."""
    a, b0, nu = np.broadcast_arrays(*_g_rows(omega, eta, params))
    return a, b0, nu, specfun._log_gamma_vec(nu + 1.0)


def _g_contract(rows, cols: _GColumns, factor, work=None, per_run=False):
    """sum_j g_ij factor[i, j, :], g from one (t, v) (``_GColumns``) on rows
    ``rows`` = (a, b0, nu, log Gamma(nu + 1)), each of shape (n_omega,
    n_eta), against ``factor`` of shape (n_omega or 1, columns, K): shape
    (n_omega, n_eta, K), or with ``per_run`` each run's sum apart, (n_omega,
    n_eta, runs, K), with no exp per element where the Bessel function
    takes its series.  The timer kernel sums its v' rules against w phi_j
    (``pricers._timer_w_matrix``, K = 1); the moment swaps sum g1 on their
    period lattices, with eta = 0, against w D(v) (``pricers._g1_contract``,
    K = 2 per period where both Cauchy rules are checked on the sums).

    On a run's rule u_j = u_0 + n_j du (n_j = k_j less the run's first k),
    so log(z/2) and lav are affine in n and g's series exponent is
    E_ij = R_i + gamma_i n_j + e0_j:

        R_i = a dt + b0 lav_0 + nu log(z_0 / 2) - log Gamma(nu + 1),
        gamma_i = -(b0 + nu / 2) du.

    e^{e0_j - mu_d} (mu_d the run's largest e0) joins the factor, one real
    exp per column, and e^{R_i + mu_d + gamma_i n} comes from one table
    for every run at once (``specfun._exp_table``: a few exps per row and
    run), n = 0..L-1 with L the longest run's span of indices, shifted by
    each row's largest real part over the runs, top_i, so that no entry
    passes 1 whatever the rows; e^{top_i} joins the row's sums through
    ``specfun._split_exp``, by logs where it passes the double range.  (On
    the timer's rules the real parts of R_i + gamma_i n span about e^-103
    to e^32 and e0 about e^-288 to e^1.4, N = 4 to 52.)  Where every run
    fills the table (L columns, n = 0..L-1: the timer's tiles) it is built
    in place; runs of unequal spans or with gaps (the swaps' pruned
    lattices) gather their columns from it, runs x L entries per row (the
    swaps' blocks count it so, ``pricers._blocks``).  The series sums S
    (``specfun._log_bessel_series``) times the powers are then one
    product against the factor, or with ``per_run`` one sum per run of
    their products with it.  Elements with an exponent of another
    form take their own exp (``specfun._split_exp``): the asymptotic
    Bessel elements, E = a dt + b0 lav + e0 + z - 1/2 log(2 pi z), and
    any series element whose sum needed a log scale.

    ``work``, a pair of complex arrays of at least rows x columns elements
    each, holds the series sums (its first) and, in turn, the series'
    term ratios, its stop rule's moduli and the exp table (its second), so
    that a caller's tiles can share one; without it the tables are
    allocated here.
    """
    shape = rows[0].shape
    a, b0, nu, lgam = (np.reshape(x, -1) for x in rows)
    m = cols.z.size
    starts, ends = _runs(cols.dt)
    run = np.repeat(np.arange(starts.size), ends - starts)
    out = np.zeros((a.size, starts.size if per_run else 1, factor.shape[-1]),
                   dtype=complex)

    def own(r, c, e_bessel, s):
        # e^E S of the elements (r, c) that take their own exp, E from
        # their Bessel exponent and the row and column terms, against the
        # factor into ``out``
        e = a[r] * cols.dt[c] + b0[r] * cols.lav[c] + cols.e0[c] + e_bessel
        val = specfun._split_exp(e, s)[:, None] * factor[
            r // shape[1] if factor.shape[0] > 1 else 0, c]
        acc = np.zeros_like(out)
        n, k = out.shape[1:]  # a flat index per entry: add.at's fast path
        at = (r * n + (run[c] if per_run else 0))[:, None] * k
        np.add.at(acc.reshape(-1), (at + np.arange(k)).ravel(), val.ravel())
        out[...] += acc

    pick = slice(None)  # the columns some element takes the series in
    skip = None  # the asymptotic elements of the series columns
    far = np.abs(cols.z) > specfun.BESSEL_ASYMPTOTIC_MIN_Z
    if np.any(far):  # first, while no table is held
        asym = np.zeros((a.size, m), dtype=bool)
        asym[:, far] = specfun._bessel_asym_mask(nu[:, None], cols.z[far])
        r, c = np.nonzero(asym)
        own(r, c, *specfun._log_bessel_asym(nu[r], cols.z[c]))
        series = ~np.all(asym, axis=0)
        if not np.any(series):
            return out.reshape(shape + out.shape[2 - per_run:])
        if not np.all(series):
            pick = np.flatnonzero(series)
        if r.size:
            skip = asym[:, pick]
    s, scale = specfun._log_bessel_series(nu[:, None], cols.z[pick], work)
    if scale is not None:  # elements whose sums needed a log scale
        scaled = scale != 0.0
        if skip is not None:
            scaled &= ~skip
        r, c = np.nonzero(scaled)
        c_all = np.arange(m)[pick][c]
        own(r, c_all, nu[r] * np.log(0.5 * cols.z[c_all]) - lgam[r]
            + scale[r, c], s[r, c])
        skip = scaled if skip is None else skip | scaled
    span = int((cols.k[ends - 1] - cols.k[starts]).max()) + 1
    mu = np.maximum.reduceat(cols.e0, starts)
    weight = np.exp(cols.e0 - np.repeat(mu, ends - starts))
    # the column terms of each run's first column, against the rows
    dt, lav, z, du, mu = (x[:, None] for x in (
        cols.dt[starts], cols.lav[starts], cols.z[starts], cols.du[starts],
        mu))
    r0 = a * dt + b0 * lav + nu * np.log(0.5 * z) - lgam + mu
    g = -(b0 + 0.5 * nu) * du
    top = (r0.real + np.maximum(g.real, 0.0) * (span - 1)).max(axis=0)
    if m == starts.size * span:  # every run is n = 0..span-1
        powers = (np.empty((m, a.size), dtype=complex) if work is None
                  else work[1][:m * a.size].reshape(m, a.size))
        specfun._exp_table(r0 - top, g, span - 1, out=powers.reshape(
            starts.size, span, a.size).swapaxes(0, 1))
    else:
        powers = specfun._exp_table(r0 - top, g, span - 1).reshape(
            span, -1, a.size)[cols.k - cols.k[starts][run], run]
    s *= powers[pick].T
    del powers
    if skip is not None:
        s[skip] = 0.0
    f = (factor * weight[:, None])[:, pick]
    s = s.reshape(shape + (-1,))
    if out.shape[1] == 1:  # one sum for every run
        s = s @ f
    else:  # each run's sum apart, over its picked columns (0 if none)
        bounds = np.searchsorted(run[pick], np.arange(starts.size + 1))
        s = np.add.reduceat(s[..., None] * f[:, None], np.minimum(
            bounds[:-1], bounds[-1] - 1), axis=-2)
        s[..., bounds[:-1] == bounds[1:], :] = 0.0
    out += specfun._split_exp(np.broadcast_to(
        top[:, None, None], out.shape).astype(complex), s.reshape(out.shape))
    return out.reshape(shape + out.shape[2 - per_run:])


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
      property (admissible ``model.ModelParams``: b0 = 1/2 + (kappa -
      rho eps)/eps^2 >= 0, so c = sqrt(b0^2) = b0 and at comes out
      exactly 0.0, unless rounding leaves b0 a hair below 0 at the
      admissibility boundary), and omega = 0, where h = 1;
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
