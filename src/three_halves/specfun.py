"""Complex-parameter special functions: log-gamma, modified Bessel I, Kummer M.

Every closed-form transform in this package reduces to three ingredients:
the principal branch of ``ln Gamma(z)``, the modified Bessel function of the
first kind ``I_nu(z)`` with complex order, and Kummer's confluent
hypergeometric function ``M(a, b, z)`` with complex parameters.  All three
are implemented here with explicit series/asymptotic regime switches and
log-space variants so that callers can compose values spanning hundreds of
orders of magnitude without overflow.

The power series of ``I_nu(z)`` (a 0F1 in z^2/4) and the Taylor series of
``M(a, b, x)`` (a 1F1) are summed by one of two routes, chosen by the
layout of the inputs, never by their values:

* parameters (orders, or Kummer's a and b) on the leading axes with a
  size-1 last axis, against arguments that vary only along the last axis
  -- the (omega, eta) x v' tensor of the timer kernel, the omega x v grid
  of the joint characteristic function (real x only for Kummer) -- sum as
  a matrix product, coefficients (parameters x terms) times powers (terms
  x arguments).  Both series share this route (``_log_series_outer``):
  the coefficient table is one cumulative product per row block, each row
  carries a log scale so no stored coefficient passes 1e250, and rows
  whose terms needed that scale group the arguments into bands over which
  the sum changes by at most e^300, so nothing significant underflows;
* every other layout (paired elements, as in the scalar ``kummer_m`` and
  the per-element Bessel fallback) sums by a running product per element.

Both routes stop only when every element's last terms are at most
SERIES_STOP_REL x |sum|, raise SeriesNonConvergenceError past
SERIES_MAX_TERMS terms and share the prefactor, the order check and the
Kummer b-pole check.  The Kummer routes also return the digits the series
lost to cancellation: log(peak partial sum / |M|) for the running product,
log(sum of |terms| / |M|), which is never smaller, for the matrix product.

All operations are pure; arrays are never mutated in place across calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    OverflowSignalError,
    PrecisionLossError,
    SeriesNonConvergenceError,
    SpecfunDomainError,
)

# Series controls: a term pair below SERIES_STOP_REL x |partial sum| stops the
# sum; exceeding SERIES_MAX_TERMS is an error, never a silent return.
SERIES_MAX_TERMS = 10_000
SERIES_STOP_REL = 1e-16

# Large-argument regime for I_nu(z).  The asymptotic expansion is used only
# when |z| exceeds BESSEL_ASYMPTOTIC_MIN_Z *and* the order is moderate
# relative to the argument (|nu|^2 <= FACTOR * |z|, where the expansion's
# optimally truncated tail still reaches ~1e-13; see
# tests/test_specfun.py::TestBesselRegimes for the accuracy study).  The
# rescaled power series owns everything else.
BESSEL_ASYMPTOTIC_MIN_Z = 30.0
BESSEL_ASYMPTOTIC_ORDER_FACTOR = 2.5

# Kummer asymptotic switch for the large negative-real-argument branch.
KUMMER_ASYM_MIN_X = 60.0
KUMMER_ASYM_ORDER_FACTOR = 3.0

# Growth of log(sum of |terms|) allowed across one argument band of the
# outer-layout series: a band spans 300 in |z| for the Bessel series and
# 300 / rho in x for Kummer's (see _log_series_outer).
_SERIES_BAND_WIDTH = 300.0
# Size of the row blocks of the coefficient table and of the column blocks
# of the power table in the outer-layout series.
_SERIES_BLOCK_BYTES = 2**19
# Tables with at least this many columns are multiplied row by row.
_CUMPROD_LOOP_MIN_COLUMNS = 64

_RESCALE_LIMIT = 1e250
_RESCALE_SHIFT = 2.0**-512
_RESCALE_LOG = 512.0 * math.log(2.0)

_LOG_2PI = math.log(2.0 * math.pi)

# Stirling series coefficients B_{2n} / (2n (2n-1)).
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_STIRLING_MIN_RE = 9.0


def _mag(z):
    """Cheap magnitude proxy |Re| + |Im| (within sqrt(2) of |z|)."""
    return np.abs(z.real) + np.abs(z.imag)


def _log_sin_pi(z):
    """log(sin(pi z)) stable for large |Im z| (used by the reflection formula)."""
    w = np.pi * np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(w.shape, dtype=complex)
    upper = w.imag >= 0.0
    lower = ~upper
    out[upper] = np.log(0.5j) - 1j * w[upper] + np.log(1.0 - np.exp(2j * w[upper]))
    out[lower] = np.log(-0.5j) + 1j * w[lower] + np.log(1.0 - np.exp(-2j * w[lower]))
    return out


def _log_gamma_right(z):
    """Stirling expansion with upward recurrence; requires Re(z) > 0.

    Each element is shifted, adding log z to its correction and then 1 to
    z, while Re z < _STIRLING_MIN_RE.  The shift counts are estimated once
    as ceil(_STIRLING_MIN_RE - Re z); with the elements sorted by count,
    pass p runs over the contiguous prefix still expected to shift and
    tests Re z there.  Rounding in z += 1 can end an element's shifts a
    pass early (it is then masked) or late (a final masked loop finishes
    it), so every element sees exactly the sequence of the per-element
    rule.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    count = _shift_counts(z.real.reshape(-1))
    order = np.argsort(-count, kind="stable")
    z = z.reshape(-1)[order]
    correction = np.zeros_like(z)
    ends = np.searchsorted(-count[order], -np.arange(1, count.max(initial=0) + 1),
                           side="right")
    for end in ends:
        head = z[:end]
        needs = head.real < _STIRLING_MIN_RE
        if np.all(needs):
            correction[:end] += np.log(head)
            head += 1.0
        else:
            correction[:end][needs] += np.log(head[needs])
            head[needs] += 1.0
    needs = z.real < _STIRLING_MIN_RE
    while np.any(needs):
        correction[needs] += np.log(z[needs])
        z[needs] += 1.0
        needs = z.real < _STIRLING_MIN_RE
    w = 1.0 / z
    w2 = w * w
    tail = np.zeros_like(z)
    power = w
    for coeff in _STIRLING_COEFFS:
        tail += coeff * power
        power = power * w2
    value = (z - 0.5) * np.log(z) - z + 0.5 * _LOG_2PI + tail - correction
    correction[order] = value  # back to the input order, in a spent buffer
    return correction.reshape(shape)


def _shift_counts(re):
    """ceil(_STIRLING_MIN_RE - re) clipped to 0..127 (0 for NaN), as int8."""
    deficit = _STIRLING_MIN_RE - re
    np.fmin(np.fmax(deficit, 0.0, out=deficit), 127.0, out=deficit)
    return np.ceil(deficit, out=deficit).astype(np.int8)


def _log_gamma_vec(z):
    """Vectorized principal-branch log-gamma for complex input."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    left = z.real < 0.0
    if np.any(~left):
        out[~left] = _log_gamma_right(z[~left])
    if np.any(left):
        zl = z[left]
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).  The branch of the
        # result is whatever log(pi/sin) yields; exp() recovers Gamma exactly.
        out[left] = math.log(math.pi) - _log_sin_pi(zl) - _log_gamma_right(1.0 - zl)
    return out


def log_gamma(z):
    """Principal-branch ``ln Gamma(z)`` for complex ``z``.

    Raises:
        SpecfunDomainError: if ``z`` is a non-positive integer (gamma pole).
        OverflowSignalError: if the result is not finite.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise SpecfunDomainError(f"log_gamma pole at non-positive integer z={z}")
    val = complex(_log_gamma_vec(np.array([z], dtype=complex))[0])
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise OverflowSignalError(f"log_gamma({z}) is not representable")
    return val


def gamma(z):
    """Gamma function via ``exp(log_gamma)``; overflow is signaled."""
    val = log_gamma(z)
    if val.real > 709.0:
        raise OverflowSignalError(f"gamma({z}) overflows double precision")
    return complex(np.exp(val))


# ---------------------------------------------------------------------------
# Modified Bessel function of the first kind, complex order and argument.
# ---------------------------------------------------------------------------


def _check_bessel_order(nu):
    """Reject orders at (or numerically on top of) negative integers."""
    risky = (np.abs(nu.imag) < 1e-12) & (nu.real < -0.5)
    if np.any(risky):
        near = np.abs(nu.real[risky] - np.round(nu.real[risky])) < 1e-12
        if np.any(near):
            raise SpecfunDomainError("bessel_i order at a negative integer")


def _series_prefactor(nu, z, log_gamma=None):
    """log of (z/2)^nu / Gamma(nu + 1), the factor both series routes share;
    ``log_gamma`` is log Gamma(nu + 1) where the caller has it already."""
    if log_gamma is None:
        log_gamma = _log_gamma_vec(nu + 1.0)
    return nu * np.log(z * 0.5) - log_gamma


def _log_bessel_series(nu, z, log_gamma=None):
    """log I_nu(z) by the defining power series.

    Intended for Re(z) >= 0 and z != 0 (callers reflect first).  The series
    is I_nu(z) = (z/2)^nu / Gamma(nu+1) * sum_k q^k / (k! (nu+1)_k) with
    q = z^2/4; the prefactor is applied in log space at the end.  Two
    routes sum it, chosen by the layout of the inputs:

    * Outer layout: orders on the leading axes with a size-1 last axis
      (``nu.ndim >= 2``) and arguments varying only along the last axis,
      as in the (omega, eta) x v' tensor of the timer kernel.  The sum
      is a matrix product, see ``_series_outer``.
    * Any other layout (paired or materialized elements): a running
      product per element, see ``_series_paired``.

    Both stop only once every element's last terms are at most
    SERIES_STOP_REL x |sum| (the terms at two consecutive checkpoints for
    the running product, the last two terms for the matrix product), and
    raise SeriesNonConvergenceError past SERIES_MAX_TERMS terms.

    ``log_gamma``, log Gamma(nu + 1) shaped like ``nu``, spares the paired
    route its prefactor's log-gamma.
    """
    _check_bessel_order(nu)
    if nu.ndim >= 2 and nu.shape[-1] == 1 and 0 < z.size == z.shape[-1]:
        return _series_outer(nu, z)
    return _series_paired(nu, z, log_gamma)


def _series_paired(nu, z, log_gamma=None):
    """Series by a running product per element, with dynamic rescaling.

    Terms are accumulated as c_0 = 1, c_k = c_{k-1} * q / (k (nu + k)); a
    partial sum beyond 1e250 is shifted down by 2^-512 and the shift is
    kept in a per-element log scale.  ``nu`` and ``z`` may have unexpanded
    broadcast shapes; only the output-shaped term/total arrays are
    materialized.  Checkpoints are every 8 terms up to k = 60 and every
    term after; two consecutive checkpoints must pass the stopping rule.
    """
    out_shape = np.broadcast_shapes(nu.shape, z.shape)
    q = z * z * 0.25
    term = np.ones(out_shape, dtype=complex)
    total = np.ones(out_shape, dtype=complex)
    scale = np.zeros(out_shape, dtype=float)
    small_prev = False
    for k in range(1, SERIES_MAX_TERMS + 1):
        term *= q
        term /= k * (nu + k)
        total += term
        if k % 8 == 0 or k > 60:
            tm = _mag(term)
            sm = _mag(total)
            small = bool(np.all(tm <= SERIES_STOP_REL * sm))
            if small and small_prev:
                break
            small_prev = small
            if np.max(sm) > _RESCALE_LIMIT:
                big = sm > _RESCALE_LIMIT
                term[big] *= _RESCALE_SHIFT
                total[big] *= _RESCALE_SHIFT
                scale[big] += _RESCALE_LOG
    else:
        raise SeriesNonConvergenceError(
            f"bessel_i series did not converge within {SERIES_MAX_TERMS} terms"
        )
    return _series_prefactor(nu, z, log_gamma) + np.log(total) + scale


def _series_outer(nu, z):
    """Bessel series for orders x arguments by the matrix route.

    With q = z^2/4 the sum is sum_k q^k / (k! (nu+1)_k), the shared table
    with den = nu and no numerator (see ``_log_series_outer``).  The
    powers stay complex: on the timer's wide tables (about 40 terms) one
    complex product is cheaper than two real ones plus assembling their
    parts.  Bands group the columns by |z|: for
    Re(nu) >= -1/2 and real z, d log(sum)/d|z| = I_{nu+1}(z)/I_nu(z) <= 1,
    so a band _SERIES_BAND_WIDTH wide in |z| keeps every column's sum
    within e^-300 of the band's largest.  The N=4 timer kernel (|z| < 20)
    needs one band and about 40 terms.
    """
    out_shape = np.broadcast_shapes(nu.shape, z.shape)
    q = (z * z * 0.25).reshape(-1)
    log_sum, _ = _log_series_outer(nu.reshape(-1), q, np.abs(z).reshape(-1),
                                   _SERIES_BAND_WIDTH)
    out = _series_prefactor(nu, z)
    out += log_sum.reshape(out_shape)
    return out


def _log_series_outer(den, q, key, width, num=None):
    """log sum_k C[i, k] q_j^k for 1-D rows i x 1-D columns j, the matrix
    route shared by the Bessel (0F1) and Kummer (1F1) series.

    The terms are c_0 = 1, c_k = c_{k-1} q num_k / (k (den + k)) with
    num_k = num + k - 1 (1F1) or 1 (0F1, ``num`` is None).  With the
    largest |q_j| as s, C[i, k] = s^k (num_i)_k / (k! (den_i+1)_k) is
    built once per row block (``_series_table``) and P[k, j] = (q_j / s)^k
    per column block, so |P| <= 1 and the sum is one matrix product: two
    real ones (the real and imaginary parts of C against P, as one product
    of C viewed as reals) when q is real, one complex otherwise.

    Every element is checked after the product: its last two terms must
    be at most SERIES_STOP_REL x |sum| (term magnitudes taken as
    |Re| + |Im|, so the rule is no looser than the running product's),
    else the table grows by half (at least 8 terms) and the row block is
    summed again.

    Bands.  No stored coefficient passes 1e250 (e^575) and |P| <= 1, so
    a product C P that underflows (|P| < e^-708) is below e^-133.  A row
    whose terms at q = s stay below 1e250 keeps scale 0: each column's sum
    of |terms| is at least its k = 0 term, 1, and what underflows is
    negligible, so one band holds every column.  Only when some row of the
    block needs a log scale are the columns split: the columns whose
    ``key`` is within ``width`` of the largest form one band and the rest
    are summed again on their own (recursively).  The caller picks ``key``
    and ``width`` so that log(sum of |terms|) falls by at most
    _SERIES_BAND_WIDTH (300) across a band; the scale leaves the band's
    largest term above 1e250 / 2^512 (e^220), so every column's scaled sum
    of |terms| stays above e^-80 and again nothing that matters underflows.

    Returns (log sums, lost) as (rows x columns) arrays; ``lost`` is
    log(sum of |terms| / |sum|) for 1F1 and None for 0F1.
    """
    n, m = den.size, q.size
    out = np.empty((n, m), dtype=complex)
    lost = None if num is None else np.empty((n, m))
    s = float(np.max(np.abs(q))) or 1.0
    step = max(1, _SERIES_BLOCK_BYTES // (16 * (_first_terms(den, s, num) + 1)))
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        _log_series_rows(den[rows], None if num is None else num[rows], q,
                         key, width, out[rows],
                         None if lost is None else lost[rows])
    return out, lost


def _log_series_rows(den, num, q, key, width, out, lost):
    """``_log_series_outer`` for one row block, written into ``out`` (and
    ``lost``)."""
    s = float(np.max(np.abs(q))) or 1.0
    x = q / s
    min_terms = 0
    while True:
        coef, row_scale = _series_table(den, s, min_terms, num)
        if np.any(row_scale) and np.ptp(key) > width:
            top = key > np.max(key) - width
            for cols in (top, ~top):
                part = out[:, cols]
                part_lost = None if lost is None else lost[:, cols]
                _log_series_rows(den, num, q[cols], key[cols], width, part,
                                 part_lost)
                out[:, cols] = part
                if lost is not None:
                    lost[:, cols] = part_lost
            return
        n_terms = coef.shape[0] - 1
        abs_coef = None if num is None else np.abs(coef)
        step = max(1, _SERIES_BLOCK_BYTES // (8 * (n_terms + 1)))
        for c0 in range(0, q.size, step):
            cols = slice(c0, c0 + step)
            if not _sum_columns(coef, abs_coef, row_scale, x[cols],
                                out[:, cols],
                                None if lost is None else lost[:, cols]):
                break
        else:
            return
        min_terms = n_terms + max(8, n_terms // 2)


def _sum_columns(coef, abs_coef, row_scale, x, out, lost):
    """One column block: writes log sums (and lost digits) into ``out``
    (and ``lost``); False if some element's last two terms are too big.

    The last two terms are bounded together by max(|C[K-1]|, |C[K]|) x
    |P[K-1]| (|P[K]| <= |P[K-1]|), magnitudes taken as |Re| + |Im|.
    """
    n_terms = coef.shape[0] - 1
    powers = np.empty((n_terms + 1, x.size), dtype=x.dtype)
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(x, (n_terms, x.size)), axis=0, out=powers[1:])
    if powers.dtype.kind == "f":
        pair = coef.view(float).T @ powers  # rows Re C_i, Im C_i alternate
        total = np.empty((coef.shape[1], x.size), dtype=complex)
        total.real = pair[0::2]
        total.imag = pair[1::2]
    else:
        total = coef.T @ powers
    mag = np.abs(total)
    last = np.maximum(_mag(coef[-2]), _mag(coef[-1])) / SERIES_STOP_REL
    if not np.all(np.multiply.outer(last, _mag(powers[-2])) <= mag):
        return False
    if lost is not None:
        np.log(abs_coef.T @ np.abs(powers), out=lost)
        lost -= np.log(mag)
    np.arctan2(total.imag, total.real, out=out.imag)
    np.log(mag, out=mag)
    np.add(mag, row_scale[:, None], out=out.real)
    return True


def _first_terms(den, s, num):
    """Initial table length: past the peak of the terms at q = s.

    The 1F1 terms at x = s behave like a Poisson(s) weight times
    k^(a - b), which falls to 1e-16 of its peak about 9 sqrt(s) terms past
    k = s + Re(a - b); the 0F1 terms s^k / (k! (nu+1)_k) peak near
    k = sqrt(s) - Re(nu) and fall to 1e-16 of it by about 2.7 sqrt(s).
    """
    root = math.sqrt(s)
    if num is None:
        lead = 2.7 * root + max(0.0, -float(np.min(den.real)))
    else:
        lead = s + 9.0 * root + max(0.0, float(np.max((num - den).real)) - 1.0)
    return int(lead) + 16


def _series_table(den, s, min_terms, num=None):
    """The table C[k, i] = s^k (num_i)_k / (k! (den_i+1)_k) for k = 0..K,
    one row per k, and the per-row log scales (see ``_scaled_cumprod``).

    Without ``num`` the factor (num_i)_k is dropped.  K starts at the
    larger of ``min_terms`` and ``_first_terms`` and grows by half (at
    least 8 terms) until, at q = s, the last two terms are at most
    SERIES_STOP_REL x |sum| and the last is the smaller of the two.

    Raises:
        SpecfunDomainError: a denominator den + k, k = 1..K, is zero (the
            Kummer b-pole; Bessel orders are checked before).
        SeriesNonConvergenceError: K would pass SERIES_MAX_TERMS.
    """
    what = "bessel_i" if num is None else "kummer_m"
    if min_terms > SERIES_MAX_TERMS:
        raise SeriesNonConvergenceError(
            f"{what} series did not converge within {SERIES_MAX_TERMS} terms")
    n_terms = min(max(min_terms, _first_terms(den, s, num)), SERIES_MAX_TERMS)
    on_axis = (np.abs(den.imag) < 1e-300) & (den.real == np.round(den.real))
    while True:
        if np.any(on_axis & (den.real <= -1.0) & (den.real >= -n_terms)):
            raise SpecfunDomainError(
                f"{what} parameter pole at a non-positive integer")
        # ratio = s num_k / (k (den + k)), dividing by den + k = u + iv as
        # (u - iv) / (u^2 + v^2) in real arithmetic (about twice as fast as
        # complex division).
        k = np.arange(1.0, n_terms + 1.0)[:, None]
        u = den.real + k
        f = s / (k * (u * u + den.imag * den.imag))
        ratio = np.empty(u.shape, dtype=complex)
        np.multiply(f, u, out=ratio.real)
        np.multiply(f, -den.imag, out=ratio.imag)
        del u, f
        if num is not None:
            ratio *= num + (k - 1.0)
        coef, row_scale = _scaled_cumprod(ratio)
        del ratio
        limit = SERIES_STOP_REL * np.abs(coef.sum(axis=0))
        last, prev = coef[-1], coef[-2]
        if (np.all(_mag(last) <= limit) and np.all(_mag(prev) <= limit)
                and np.all(np.abs(last) <= np.abs(prev))):
            return coef, row_scale
        if n_terms == SERIES_MAX_TERMS:
            raise SeriesNonConvergenceError(
                f"{what} series did not converge within {SERIES_MAX_TERMS} "
                "terms")
        n_terms = min(n_terms + max(8, n_terms // 2), SERIES_MAX_TERMS)


def _scaled_cumprod(ratio):
    """Partial products 1, r_1, r_1 r_2, ... of each column of ``ratio``
    (one row per k) and a log scale per column.

    A column whose products pass 1e250 is multiplied again with its ratios
    scaled by 2^-512 at each step where the running peak of log|product|
    passes another multiple of 512 log 2 beyond log 1e250; then every
    product is brought to the column's final scale.  Powers of two scale
    exactly, so the stored products are those of the unscaled recurrence
    times one power of two per column (products far below the peak flush
    to zero), none passes 1e250 and the largest stays above
    1e250 / 2^512.  The log scale is the number of shifts x 512 log 2.
    The rescaling works in place where it can: a table of many terms is
    long, and its temporaries set the peak memory of the series.
    """
    coef = _cumprod_rows(ratio)
    row_scale = np.zeros(ratio.shape[1])
    flat = coef.view(float)
    with np.errstate(invalid="ignore"):
        if max(flat.max(), -flat.min()) <= _RESCALE_LIMIT / 2.0:
            return coef, row_scale  # |coef| <= sqrt(2) x max(|Re|, |Im|)
        big = ~(np.max(np.abs(coef), axis=0) <= _RESCALE_LIMIT)
    if not np.any(big):
        return coef, row_scale
    r = ratio[:, big]
    with np.errstate(divide="ignore"):  # a zero ratio ends the column
        peak = np.log(np.abs(r))
    # the running peak of log|product| sets the shift count of each step
    np.cumsum(peak, axis=0, out=peak)
    np.maximum.accumulate(peak, axis=0, out=peak)
    peak -= math.log(_RESCALE_LIMIT)
    np.maximum(peak, 0.0, out=peak)
    peak /= _RESCALE_LOG
    shifts = np.ceil(peak, out=peak).astype(int)
    del peak
    step = np.diff(shifts, axis=0, prepend=0)
    step *= -512
    _ldexp_inplace(r, step)
    del step
    shifted = _cumprod_rows(r)
    del r
    final = shifts[-1]
    lag = np.empty(shifted.shape, dtype=int)  # final - shifts, row 0 final
    lag[0] = final
    np.subtract(final, shifts, out=lag[1:])
    del shifts
    lag *= -512
    _ldexp_inplace(shifted, lag)
    coef[:, big] = shifted
    row_scale[big] = final * _RESCALE_LOG
    return coef, row_scale


def _cumprod_rows(ratio):
    """1, r_1, r_1 r_2, ... down each column of ``ratio`` (one row per k).

    Narrow tables use np.cumprod; from _CUMPROD_LOOP_MIN_COLUMNS columns on,
    one vector multiply per row is faster (NumPy's accumulate runs about
    four times slower per element than a multiply, which amortizes the
    per-row call on wide tables).  Both multiply in the same order.
    """
    n_terms, n = ratio.shape
    coef = np.empty((n_terms + 1, n), dtype=complex)
    coef[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n < _CUMPROD_LOOP_MIN_COLUMNS:
            np.cumprod(ratio, axis=0, out=coef[1:])
        else:
            for k in range(n_terms):
                np.multiply(coef[k], ratio[k], out=coef[k + 1])
    return coef


def _ldexp_inplace(c, e):
    """c *= 2^e for complex ``c`` and integer ``e`` of c's shape, exact
    barring underflow."""
    np.ldexp(c.real, e, out=c.real)
    np.ldexp(c.imag, e, out=c.imag)


def _log_bessel_asym(nu, z):
    """log I_nu(z) by the large-|z| expansion (DLMF 10.40.5.

    Valid in the sector the caller gates on (Re(z) >= 0.35 |z|).  Includes
    the e^{-z} companion term, which matters near the sector edge; for z real
    positive it underflows harmlessly.  Truncates at the smallest term
    (optimal truncation of the divergent expansion) and signals if that term
    is not small enough.
    """
    out_shape = np.broadcast_shapes(nu.shape, z.shape)
    nu2 = 4.0 * nu * nu
    ak = np.ones(out_shape, dtype=complex)
    s_alt = np.ones(out_shape, dtype=complex)
    s_plus = np.ones(out_shape, dtype=complex)
    zinv = 1.0 / z
    prev_mag = np.full(out_shape, np.inf)
    active = np.ones(out_shape, dtype=bool)
    floor_mag = np.full(out_shape, np.inf)
    for k in range(1, 60):
        ak = ak * ((nu2 - (2 * k - 1) ** 2) / (8.0 * k)) * zinv
        tm = _mag(ak)
        active &= tm < prev_mag
        sign = -1.0 if k % 2 else 1.0
        contrib = np.where(active, ak, 0.0)
        s_alt += sign * contrib
        s_plus += contrib
        prev_mag = np.where(active, tm, prev_mag)
        np.minimum(floor_mag, tm, out=floor_mag)
        if not np.any(active & (tm > 1e-17 * _mag(s_alt))):
            break
    if np.any(floor_mag > 1e-11 * _mag(s_alt)):
        raise SeriesNonConvergenceError(
            "bessel asymptotic expansion cannot reach tolerance; |z| too small "
            "relative to |nu|^2"
        )
    sigma = np.where(z.imag >= 0.0, 1.0, -1.0)
    recessive = np.exp(sigma * (nu + 0.5) * 1j * np.pi - 2.0 * z)
    return z - 0.5 * np.log(2.0 * np.pi * z) + np.log(s_alt + recessive * s_plus)


def _log_bessel_i_vec(nu, z):
    """Vectorized log I_nu(z); ``nu`` and ``z`` broadcast against each other.

    The imaginary part of the result is *some* branch of the logarithm;
    exp() of it recovers I_nu(z) exactly, which is all the transform
    formulas need.

    The asymptotic branch is gated on |z| beyond the named threshold, |z|
    dominating |nu|^2, and a sector away from the imaginary axis; the
    rescaled power series owns everything else (production arguments are
    real positive, so the sector test only bites exotic inputs).  When the
    whole call falls in one regime the inputs are kept in unexpanded
    broadcast form, which is what makes grid-shaped transform evaluations
    cheap.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    abs_z = np.abs(z)
    abs_nu2 = nu.real * nu.real + nu.imag * nu.imag
    use_asym = (
        (abs_z > BESSEL_ASYMPTOTIC_MIN_Z)
        & (abs_nu2 <= BESSEL_ASYMPTOTIC_ORDER_FACTOR * abs_z)
        & (z.real >= 0.35 * abs_z)
    )

    clean = not (np.any(z == 0.0) or np.any(z.real < 0.0))
    if clean and not np.any(use_asym):
        return _log_bessel_series(nu, z)
    if clean and np.all(use_asym):
        return _log_bessel_asym(nu, z)

    # Mixed regimes with z varying only along the last axis (the common
    # tensor layout: orders on a Fourier grid x arguments on a variance
    # grid): dispatch per z slice so each slice is single-regime or a cheap
    # small materialization, instead of materializing the full tensor.
    if (z.shape[-1] > 1 and all(s == 1 for s in z.shape[:-1])
            and nu.shape[-1] == 1 and nu.size > 64 * z.shape[-1]):
        shape = np.broadcast_shapes(nu.shape, z.shape)
        out = np.empty(shape, dtype=complex)
        for i in range(z.shape[-1]):
            out[..., i:i + 1] = _log_bessel_i_vec(nu, z[..., i:i + 1])
        return out

    # General path: materialize the broadcast and dispatch per element.
    nu_b, z_b = np.broadcast_arrays(nu, z)
    nu_b = np.ascontiguousarray(nu_b)
    z_b = np.ascontiguousarray(z_b)
    out = np.empty(z_b.shape, dtype=complex)

    zero = z_b == 0.0
    if np.any(zero):
        nz = nu_b[zero]
        if np.any(nz.real < 0.0):
            raise SpecfunDomainError("bessel_i(nu, 0) undefined for Re(nu) < 0")
        out[zero] = np.where(nz == 0.0, 0.0, -np.inf)

    live = ~zero
    zr = z_b[live]
    nr = nu_b[live]
    # Map Re(z) < 0 into the right half-plane: I_nu(z) = e^{+-i pi nu} I_nu(-z).
    reflect = zr.real < 0.0
    if np.any(reflect):
        phase = np.where(reflect, np.where(zr.imag >= 0.0, 1.0, -1.0), 0.0)
        zr = np.where(reflect, -zr, zr)

    abs_z = np.abs(zr)
    abs_nu2 = nr.real * nr.real + nr.imag * nr.imag
    use_asym = (
        (abs_z > BESSEL_ASYMPTOTIC_MIN_Z)
        & (abs_nu2 <= BESSEL_ASYMPTOTIC_ORDER_FACTOR * abs_z)
        & (zr.real >= 0.35 * abs_z)
    )

    res = np.empty(zr.shape, dtype=complex)
    if np.any(use_asym):
        res[use_asym] = _log_bessel_asym(nr[use_asym], zr[use_asym])
    series = ~use_asym
    if np.any(series):
        log_gamma = None
        if nu.size < np.count_nonzero(series):
            # log Gamma(nu + 1) on the orders before they are broadcast; an
            # order at a pole is rejected by the series' order check
            with np.errstate(divide="ignore", invalid="ignore"):
                log_gamma = _log_gamma_vec(nu + 1.0)
            log_gamma = np.broadcast_to(log_gamma, z_b.shape)[live][series]
        res[series] = _log_bessel_series(nr[series], zr[series], log_gamma)
    if np.any(reflect):
        res = res + phase * 1j * np.pi * nr
    out[live] = res
    return out


def log_bessel_i(nu, z):
    """``log I_nu(z)`` for scalar complex arguments (branch only fixed by exp)."""
    return complex(
        _log_bessel_i_vec(np.array([complex(nu)]), np.array([complex(z)]))[0]
    )


def bessel_i(nu, z, scaled=False):
    """Modified Bessel function of the first kind ``I_nu(z)``.

    Args:
        nu: complex order.  Principal branch is used for ``z**nu``.
        z: complex argument; must be nonzero when ``Re(nu) < 0``.
        scaled: if True, return ``exp(-Re(z)) * I_nu(z)`` (overflow-safe form
            for the Bessel ratios in the conditional characteristic function).

    Raises:
        OverflowSignalError: if the (scaled) value overflows.
        SeriesNonConvergenceError: if the power series hits the term cap.
    """
    nu = complex(nu)
    z = complex(z)
    if z == 0.0:
        if nu == 0.0:
            return 1.0 + 0.0j
        if nu.real > 0.0:
            return 0.0 + 0.0j
        raise SpecfunDomainError("bessel_i(nu, 0) undefined for Re(nu) <= 0, nu != 0")
    logv = log_bessel_i(nu, z)
    if scaled:
        logv = logv - z.real
    if logv.real > 709.0:
        raise OverflowSignalError(
            f"bessel_i(nu={nu}, z={z}, scaled={scaled}) overflows double precision"
        )
    return complex(np.exp(logv))


# ---------------------------------------------------------------------------
# Kummer confluent hypergeometric function M(a, b, z).
# ---------------------------------------------------------------------------


def _check_b_pole(b):
    b = complex(b)
    if b.imag == 0.0 and b.real <= 0.0 and abs(b.real - round(b.real)) < 1e-12:
        raise SpecfunDomainError(f"kummer_m parameter pole at b={b}")


def _log_kummer_taylor(a, b, z):
    """log M(a,b,z) by the Taylor series.

    Returns (log M, digits-lost proxy).  The proxy is log of the ratio of
    the partial sums' magnitude (peak partial sum, or the sum of |terms|,
    which is never smaller) to |M|; large values mean the series cancelled
    catastrophically (happens for Re(z) << 0, which callers avoid via the
    Kummer transformation).  Two routes, chosen by layout:

    * Outer layout: a and b on the leading axes with a size-1 last axis
      (ndim >= 2), against two or more real (float-dtype) z along the
      last axis -- the omega x v grid of the joint characteristic
      function.  M = C @ P by the matrix route shared with the Bessel
      series (``_log_series_outer`` with den = b - 1, num = a); the
      proxy is log((|C| @ |P|) / |M|).  Bands group the columns by |z|,
      ``_SERIES_BAND_WIDTH / rho`` wide, where rho = 1 + max|a - b| /
      min_k |b + k| bounds |a + k| / |b + k| and hence, since
      (k+1)|t_{k+1}(x)| = |t_k(x)| |a + k| / |b + k|, the slope
      d/dx log sum_k |t_k(x)| (M itself grows like e^x x^(a-b), so the
      slope can exceed 1).
    * Any other layout, including a single argument (``kummer_m``,
      ``joint_cf_h``, the omega grid at one variance), where no powers
      are shared: a running product per element with dynamic rescaling,
      until every element's term is below SERIES_STOP_REL x |sum| at two
      consecutive checkpoints.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    z = np.asarray(z)
    rows = np.broadcast_shapes(a.shape, b.shape)
    if (z.dtype.kind == "f" and len(rows) >= 2 and rows[-1] == 1
            and z.ndim >= 1 and 1 < z.size == z.shape[-1]):
        return _kummer_outer(a, b, z)
    a, b, z = np.broadcast_arrays(
        np.atleast_1d(a), np.atleast_1d(b),
        np.atleast_1d(np.asarray(z, dtype=complex)),
    )
    term = np.ones_like(z)
    total = np.ones_like(z)
    scale = np.zeros(z.shape, dtype=float)
    peak_log = np.zeros(z.shape, dtype=float)
    small_prev = np.zeros(z.shape, dtype=bool)
    for k in range(SERIES_MAX_TERMS):
        denom = b + k
        if np.any(_mag(denom) < 1e-300):
            raise SpecfunDomainError("kummer_m parameter pole at non-positive int b")
        term = term * (a + k) * z / (denom * (k + 1.0))
        total = total + term
        if k % 4 == 3 or k > 40:
            tm = _mag(term)
            sm = _mag(total)
            small = tm <= SERIES_STOP_REL * sm
            if np.all(small & small_prev):
                break
            small_prev = small
            peak_log = np.maximum(peak_log, np.log(np.maximum(sm, 1e-300)) + scale)
            big = np.maximum(sm, tm) > _RESCALE_LIMIT
            if np.any(big):
                term = np.where(big, term * _RESCALE_SHIFT, term)
                total = np.where(big, total * _RESCALE_SHIFT, total)
                scale = scale + np.where(big, _RESCALE_LOG, 0.0)
    else:
        raise SeriesNonConvergenceError(
            f"kummer_m series did not converge within {SERIES_MAX_TERMS} terms"
        )
    logm = np.log(total) + scale
    lost = peak_log - logm.real
    return logm, lost


def _kummer_outer(a, b, x):
    """The outer-layout route of ``_log_kummer_taylor``."""
    a, b = np.broadcast_arrays(a, b)
    out_shape = np.broadcast_shapes(a.shape, x.shape)
    a, b, x = a.reshape(-1), b.reshape(-1), x.reshape(-1)
    nearest = np.abs(b + np.maximum(np.round(-b.real), 0.0))
    with np.errstate(divide="ignore"):
        rho = 1.0 + float(np.max(np.abs(a - b) / nearest))
    logm, lost = _log_series_outer(b - 1.0, x, np.abs(x),
                                   _SERIES_BAND_WIDTH / rho, num=a)
    return logm.reshape(out_shape), lost.reshape(out_shape)


def _log_kummer_asym_sum(a, b, x):
    """log of sum_s (a)_s (a-b+1)_s / (s! x^s), the algebraic branch factor.

    This is M(a, b, -x) stripped of its Gamma(b)/Gamma(b-a) x^{-a} prefactor
    (which cancels analytically inside the joint characteristic function).
    Optimal truncation of the divergent tail; raises if it cannot reach
    1e-11 relative.
    """
    a, b, x = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=complex)),
        np.atleast_1d(np.asarray(b, dtype=complex)),
        np.atleast_1d(np.asarray(x, dtype=float)),
    )
    term = np.ones_like(a)
    total = np.ones_like(a)
    prev_mag = np.full(x.shape, np.inf)
    floor_mag = np.full(x.shape, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for s in range(60):
        term = term * (a + s) * (a - b + 1.0 + s) / ((s + 1.0) * x)
        tm = _mag(term)
        active = active & (tm < prev_mag)
        total = total + np.where(active, term, 0.0)
        prev_mag = np.where(active, tm, prev_mag)
        floor_mag = np.minimum(floor_mag, tm)
        if not np.any(active & (tm > 1e-17 * _mag(total))):
            break
    bad = floor_mag > 1e-11 * _mag(total)
    if np.any(bad):
        raise SeriesNonConvergenceError(
            "kummer asymptotic branch cannot reach tolerance; argument too small "
            "relative to parameters"
        )
    return np.log(total)


def _log_kummer_asym_neg(a, b, x):
    """log M(a, b, -x) for large real x > 0 via the algebraic asymptotic branch.

    M(a,b,-x) ~ Gamma(b)/Gamma(b-a) * x^{-a} * sum_s (a)_s (a-b+1)_s / (s! x^s).
    The exponentially small e^{-x} companion term is dropped; callers gate on
    x >= KUMMER_ASYM_MIN_X and moderate parameters, where it is < 1e-15
    relative.
    """
    a, b, x = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=complex)),
        np.atleast_1d(np.asarray(b, dtype=complex)),
        np.atleast_1d(np.asarray(x, dtype=float)),
    )
    return (
        _log_gamma_vec(b)
        - _log_gamma_vec(b - a)
        - a * np.log(x)
        + _log_kummer_asym_sum(a, b, x)
    )


KUMMER_REL_TOL = 5e-10
# The raw series' roundoff stays below 20 eps e^lost (see ``kummer_m``), so
# this is the most it may lose, in nats, and still meet KUMMER_REL_TOL.
_KUMMER_MAX_LOST = math.log(KUMMER_REL_TOL / (20.0 * np.finfo(float).eps))


def kummer_m(a, b, z, transform="auto"):
    """Kummer's confluent hypergeometric function ``M(a, b, z)``.

    The Kummer transformation ``M(a,b,z) = e^z M(b-a, b, -z)`` is applied
    automatically when ``Re(z) < 0`` to avoid cancellation in the Taylor
    series.  Pass ``transform="never"`` to force raw series evaluation (the
    identity tests do this so both sides are computed independently).

    The result is accurate to KUMMER_REL_TOL relative.  The series'
    roundoff stays below 20 eps e^lost, with ``lost`` the digits-lost proxy
    of ``_log_kummer_taylor`` in nats (measured against mpmath on 6000
    random points with |Im a|, |Im z| <= 4, Re a in [0.5, 6], |Re z| <= 6:
    at most 17 eps e^lost); where that bound passes KUMMER_REL_TOL, the
    function raises instead of returning.

    Raises:
        SpecfunDomainError: ``b`` at a non-positive integer.
        SeriesNonConvergenceError: term cap exceeded.
        PrecisionLossError: the series may have lost more than
            KUMMER_REL_TOL to cancellation.
    """
    if transform not in ("auto", "never", "always"):
        raise ValueError(f"unknown transform mode {transform!r}")
    a = complex(a)
    b = complex(b)
    z = complex(z)
    _check_b_pole(b)
    shift = 0.0 + 0.0j
    if transform == "always" or (transform == "auto" and z.real < 0.0):
        a, z, shift = b - a, -z, z
    logm, lost = _log_kummer_taylor(
        np.array([a]), np.array([b]), np.array([z])
    )
    if float(lost[0]) > _KUMMER_MAX_LOST:
        raise PrecisionLossError(
            f"kummer_m({a}, {b}, {z}) lost {float(lost[0]):.1f} nats to "
            f"cancellation in the raw series, beyond its {KUMMER_REL_TOL:g} "
            f"accuracy; use the Kummer transformation"
        )
    val = logm[0] + shift
    if val.real > 709.0:
        raise OverflowSignalError(f"kummer_m overflow at (a={a}, b={b}, z={z})")
    return complex(np.exp(val))
