"""Complex-parameter special functions: log-gamma, modified Bessel I, Kummer M.

Every closed-form transform in this package reduces to three ingredients:
the principal branch of ``ln Gamma(z)``, the modified Bessel function of the
first kind ``I_nu(z)`` with complex order, and Kummer's confluent
hypergeometric function ``M(a, b, z)`` with complex parameters.  All three
are implemented here with explicit series/asymptotic regime switches, so
that callers can compose values spanning hundreds of orders of magnitude
without overflow: log Gamma and log M as logs, and I_nu in split form, a
pair of tables (E, S) with value e^E S (``_split_exp``) and log E + log S
(``_split_log``), E the exponential scale and S a sum of moderate size.

The power series of ``I_nu(z)`` (a 0F1 in q = z^2/4) and the Taylor
series of ``M(a, b, x)`` (a 1F1) are summed by one kernel on one layout:
parameters (orders, or Kummer's a and b) as rows against arguments as
columns.  It is the layout of every transform: the Bessel order 2c and
the Kummer parameters depend on the transform variables only, the
arguments on the variances and dates only.  ``_rows_by_columns`` alone
maps inputs to it -- parameters broadcasting to one shape and arguments
to another, along disjoint axes, become (n, 1) rows and (m,) columns, and
the (n, m) result goes back to their broadcast -- and raises
SpecfunDomainError where a parameter and an argument share an axis.  A
single point (``bessel_i``, ``kummer_m``) is a 1 x 1 table.

The kernel builds the coefficient table C[k, i] = s^k (num_i)_k /
(k! (den_i+1)_k) at s = max |q| (``_series_table``) as one cumulative
product of the term ratios with an exact power-of-two log scale per
parameter, grown until every parameter's last two terms are at most
SERIES_STOP_REL x |sum| and falling, and sums it as one matrix product
with the powers (q_j / s)^k (``_log_series_outer``), real or complex;
parameters whose terms needed a log scale group the arguments into bands
over which the sum changes by at most e^300, so nothing significant
underflows.  It raises SeriesNonConvergenceError past SERIES_MAX_TERMS
terms and SpecfunDomainError at a Kummer b-pole; its sums come back with
their log scale apart.  Kummer's lost-digits proxy is log(sum of |terms|
/ |M|), +inf where the sum cancels to exactly 0.

The Bessel call takes its regime per element of that table
(``_log_bessel_table``): the asymptotic expansion for large |z|, the
series elsewhere.  It takes Re z >= 0 and z != 0 only and raises
SpecfunDomainError otherwise; ``bessel_i`` has the closed form at z = 0.

Both asymptotic branches, I_nu(z) for large |z| and the joint CF's
M(a, b, -x) for large x, are one divergent 2F0 summed to its smallest
term per element by one kernel (``_asym_sum``).

All operations are pure; arrays are never mutated in place across calls.
"""

from __future__ import annotations

import math
import sys

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

# Kummer asymptotic switch for the large negative-real-argument branch
# (see ``_kummer_asym_mask``).
KUMMER_ASYM_MIN_X = 60.0

# Growth of log(sum of |terms|) allowed across one argument band of the
# series: a band spans 300 in |z| for the Bessel series and
# 300 / rho in x for Kummer's (see _log_series_outer).
_SERIES_BAND_WIDTH = 300.0
# Size of the row blocks of the coefficient table and of the column blocks
# of the power table in the series.
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


def _mag_into(z, out, part):
    """``_mag(z)`` written into ``out``, with ``part`` as scratch."""
    np.abs(z.real, out=out)
    np.abs(z.imag, out=part)
    out += part
    return out


def _clog(w):
    """Principal complex log, log|w| + i atan2(Im w, Re w): np.log's branch,
    signed zeros included, at a quarter of its cost or less (NumPy's
    complex log is slowest near |w| = 1, where the asymptotic sums lie).
    log|w| carries about an ulp of |w| more error than np.log's, and the
    angle NumPy's arctan2, within an ulp of libm's."""
    out = np.empty(np.shape(w), dtype=complex)
    np.arctan2(w.imag, w.real, out=out.imag)
    np.log(np.abs(w), out=out.real)
    return out


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

    Each element is shifted n = ceil(_STIRLING_MIN_RE - Re z) times (0 for
    NaN), adding log z to its correction and then 1 to z per shift.  Pass
    k runs over the whole array, adding log 1 = 0 and 0 to the elements
    whose n is spent, so every element sees exactly its own sequence of
    shifts with no sort and no gather.  One n per call for every element
    (the least Re z's) takes fewer operations, but it moves the elements
    further right of the expansion's range than they need, where its terms
    are larger and round coarser: a timer kernel built from one omega row
    per table then drifts 1.9e-13 of its largest value from the per-date
    route, against 7e-14 with each element's own n.
    """
    z = np.array(z, dtype=complex)
    count = _STIRLING_MIN_RE - z.real
    np.fmax(np.ceil(count, out=count), 0.0, out=count)
    correction = np.zeros_like(z)
    for k in range(int(count.max(initial=0.0))):
        live = count > k
        correction += np.log(np.where(live, z, 1.0))
        z += live
    w = 1.0 / z
    w2 = w * w
    tail = np.zeros_like(z)
    power = w
    for coeff in _STIRLING_COEFFS:
        tail += coeff * power
        power = power * w2
    return (z - 0.5) * np.log(z) - z + 0.5 * _LOG_2PI + tail - correction


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


def _log_bessel_series(nu, z):
    """I_nu(z) by the defining power series, for orders ``nu`` as (n, 1)
    rows x arguments ``z`` as (m,) columns, in factored form: the sums S
    and their log scale (None where every row kept scale 0), with

        I_nu(z) = (z/2)^nu / Gamma(nu+1) e^scale S,

    S = sum_k q^k / (k! (nu+1)_k), q = z^2/4, the shared table with den =
    nu and no numerator (``_log_series_outer``).  The prefactor is left to
    the caller: ``_log_bessel_table`` takes it per element into E, the timer
    kernel (``transforms._g_contract``) as row and column factors.  The
    powers stay complex: on the timer's wide tables (about 40 terms) one
    complex product is cheaper than two real ones plus assembling their
    parts.  Bands group the columns by |z|: for Re(nu) >= -1/2 and real z,
    d log(sum)/d|z| = I_{nu+1}/I_nu <= 1, so a band _SERIES_BAND_WIDTH wide
    in |z| keeps every column's sum within e^-300 of the band's largest.
    Re z >= 0 and z != 0, as ``_log_bessel_i_vec`` checks.
    """
    _check_bessel_order(nu)
    s, scale, _ = _log_series_outer(nu[:, 0], z * z * 0.25, np.abs(z),
                                    _SERIES_BAND_WIDTH)
    return s, scale


def _log_series_outer(den, q, key, width, num=None):
    """sum_k C[i, k] q_j^k for 1-D rows i x 1-D columns j, with a log
    scale: the matrix route of the Bessel (0F1) and Kummer (1F1) series.

    The terms are c_0 = 1, c_k = c_{k-1} q num_k / (k (den + k)) with
    num_k = num + k - 1 (1F1) or 1 (0F1, ``num`` is None).  With the
    largest |q_j| as s, C[i, k] = s^k (num_i)_k / (k! (den_i+1)_k) is
    built once per row block (``_series_table``) and P[k, j] = (q_j / s)^k
    per column block, so |P| <= 1 and the sum is one matrix product: two
    real ones (the real and imaginary parts of C against P, as one product
    of C viewed as reals) when q is real, one complex otherwise.

    Every element is checked after the product: its last two terms must
    be at most SERIES_STOP_REL x |sum| (term magnitudes taken as
    |Re| + |Im|, never below the modulus), else the table grows by half
    (at least 8 terms) and the row block is summed again.

    Bands.  No stored coefficient passes 1e250 (e^575) and |P| <= 1, so
    a product C P that underflows (|P| < e^-708) is below e^-133.  A row
    whose terms at q = s stay below 1e250 keeps scale 0: each column's sum
    of |terms| is at least 1, so one band holds every column.  Only when
    some row of the block needs a log scale are the columns split: those
    whose ``key`` is within ``width`` of the largest form one band, the
    rest are summed on their own (recursively).  ``key`` and ``width`` make
    log(sum of |terms|) fall by at most _SERIES_BAND_WIDTH (300) across a
    band; the scale leaves its largest term above 1e250 / 2^512 (e^220),
    so every scaled sum of |terms| stays above e^-80.

    Returns (sums, scale, lost), (rows x columns) arrays: the sum is
    e^scale sums (``scale`` None if all 0); ``lost`` is log(sum of |terms|)
    in the units of ``sums`` for 1F1, None for 0F1.  A sum that cancels to
    exactly 0 has no relative accuracy to reach: it passes the check.
    """
    n, m = den.size, q.size
    out = np.empty((n, m), dtype=complex)
    lost = None if num is None else np.empty((n, m))
    s = float(np.max(np.abs(q))) or 1.0
    step = max(1, _SERIES_BLOCK_BYTES // (16 * (_first_terms(den, s, num) + 1)))
    scale = None
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        part = _log_series_rows(den[rows], None if num is None else num[rows],
                                q, key, width, out[rows],
                                None if lost is None else lost[rows])
        scale = _put_scale(scale, (n, m), rows, part)
    return out, scale, lost


def _put_scale(scale, shape, where, part):
    """``scale`` with ``part`` at ``where``, made as zeros on first need."""
    if part is not None:
        scale = np.zeros(shape) if scale is None else scale
        scale[where] = part
    return scale


def _log_series_rows(den, num, q, key, width, out, lost):
    """``_log_series_outer`` for one row block, written into ``out`` (and
    ``lost``); returns its log scale, as ``_log_series_outer`` does."""
    s = float(np.max(np.abs(q)))
    if not s >= sys.float_info.min:  # 0 or subnormal: q / s would overflow
        s = 1.0
    x = q / s
    min_terms = 0
    while True:
        coef, row_scale = _series_table(den, s, min_terms, num)
        if np.any(row_scale) and np.ptp(key) > width:
            top = key > np.max(key) - width
            scale = None
            for cols in (top, ~top):
                part = out[:, cols]
                part_lost = None if lost is None else lost[:, cols]
                part_scale = _log_series_rows(den, num, q[cols], key[cols],
                                              width, part, part_lost)
                out[:, cols] = part
                if lost is not None:
                    lost[:, cols] = part_lost
                scale = _put_scale(scale, out.shape, (slice(None), cols),
                                   part_scale)
            return scale
        n_terms = coef.shape[0] - 1
        abs_coef = None if num is None else np.abs(coef)
        step = max(1, _SERIES_BLOCK_BYTES // (8 * (n_terms + 1)))
        for c0 in range(0, q.size, step):
            cols = slice(c0, c0 + step)
            if not _sum_columns(coef, abs_coef, x[cols], out[:, cols],
                                None if lost is None else lost[:, cols]):
                break
        else:
            return row_scale[:, None] if np.any(row_scale) else None
        min_terms = n_terms + max(8, n_terms // 2)


def _sum_columns(coef, abs_coef, x, out, lost):
    """One column block: writes the sums sum_k C[k, i] x_j^k (no log)
    into ``out`` (and log(sum of |terms|) into ``lost``); False if some
    element's last two terms, bounded together by max(|C[K-1]|, |C[K]|)
    |P[K-1]| (magnitudes |Re| + |Im|), are too big.  P[k] = x^k comes from
    ``_power_table``.
    """
    n_terms = coef.shape[0] - 1
    powers = _power_table(x, n_terms)
    if powers.dtype.kind == "f":
        # the sums go straight into ``out`` (or the block is summed again)
        pair = coef.view(float).T @ powers  # rows Re C_i, Im C_i alternate
        out.real = pair[0::2]
        out.imag = pair[1::2]
        del pair
    else:
        np.matmul(coef.T, powers, out=out)
    mag = np.abs(out)
    last = np.maximum(_mag(coef[-2]), _mag(coef[-1])) / SERIES_STOP_REL
    small = np.multiply.outer(last, _mag(powers[-2])) <= mag
    if not np.all(small) and not np.all(small | (mag == 0.0)):
        return False
    if lost is not None:
        np.log(abs_coef.T @ np.abs(powers), out=lost)
    return True


def _power_table(x, n_terms):
    """P[k] = x^k for k = 0..n_terms, one row per k, by doubling
    (``_doubled``): log2 K vector products where a running product takes
    K steps (NumPy's accumulate along axis 0 runs several times slower per
    element than a multiply).

    Each anchor x^(2^j) multiplies the error it carries into the 2^j rows
    that follow it, so it is taken by ``np.power`` (within an ulp) where x
    is real, a complex table whose imaginary parts are all zero (the
    production Bessel series) included: P[k] then carries at most one
    rounding and one anchor's error per binary digit of k, a few ulps at
    the corridor's 1400 terms, where squaring the anchors lets the error
    grow like k/3 ulps.  A truly complex x squares its anchors; its tables
    are the Bessel series' tens of terms.
    """
    digits = n_terms.bit_length()
    if x.dtype.kind == "f" or not np.any(x.imag):
        anchors = np.power(x.real, 2 ** np.arange(digits)[:, None])
    else:
        anchors = np.empty((digits, x.size), dtype=x.dtype)
        anchors[:1] = x
        for j in range(1, digits):
            np.multiply(anchors[j - 1], anchors[j - 1], out=anchors[j])
    return _doubled(np.ones(x.size, dtype=x.dtype), n_terms, anchors)


def _exp_table(r, g, n_terms, out=None):
    """T[k] = e^(r + k g) for k = 0..n_terms, one row per k: the doubling
    of ``_power_table`` from T[0] = e^r, with every anchor e^(2^j g) taken
    directly by exp, so each entry carries one exp's error and at most one
    rounding per binary digit of k (no error grows along a squaring
    chain).  One exp per anchor and row, none per entry; written into
    ``out`` if given."""
    steps = 2.0 ** np.arange(n_terms.bit_length())
    return _doubled(np.exp(r), n_terms, np.exp(np.multiply.outer(steps, g)),
                    out)


def _doubled(first, n_terms, anchors, out=None):
    """T[0] = ``first`` and, for b = 2^j, T[b .. 2b-1] = T[0 .. b-1] x
    anchors[j], up to T[n_terms]: T[k] is ``first`` times the anchors of
    k's binary digits, one row per k (written into ``out`` if given)."""
    table = out if out is not None else np.empty(
        (n_terms + 1,) + first.shape, dtype=np.result_type(first, anchors))
    table[0] = first
    for j, anchor in enumerate(anchors):
        b = 1 << j
        e = min(2 * b, n_terms + 1)
        np.multiply(table[:e - b], anchor, out=table[b:e])
    return table


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
    one row per k, and the per-parameter log scales (see
    ``_scaled_cumprod``).

    ``s`` is the largest |q| of the arguments; their powers (q / s)^k
    follow in ``_sum_columns``.  Without ``num`` the factor (num_i)_k is
    dropped.  K starts at the larger of ``min_terms`` and ``_first_terms``
    and grows by half (at least 8 terms) until, at q = s, the last two
    terms are at most SERIES_STOP_REL x |sum| and the last is the smaller
    of the two.

    Raises:
        SpecfunDomainError: a denominator den + k, k = 1..K, is zero (the
            Kummer b-pole; Bessel orders are checked before).
        SeriesNonConvergenceError: K would pass SERIES_MAX_TERMS.
    """
    what = "bessel_i" if num is None else "kummer_m"
    if min_terms > SERIES_MAX_TERMS:
        raise SeriesNonConvergenceError(
            f"{what} series did not converge within {SERIES_MAX_TERMS} terms")
    n_terms = min(max(min_terms, _first_terms(den, s, num)),
                  SERIES_MAX_TERMS)
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


def _asym_sum(mid, half2, y, mirror=False):
    """The optimally truncated 2F0(p, q; y) = sum_k (p)_k (q)_k y^k / k!,
    p, q = mid -+ h with h^2 = ``half2``, per element of the broadcast;
    with ``mirror`` also the same terms summed at -y, as a second table.

    Term k + 1 is term k times y ((k + mid)^2 - h^2) / (k + 1), so the
    Bessel branch (mid = 1/2, h = nu) takes no product of nu -+ 1/2.  Each
    element adds terms while they fall (optimal truncation) and stops after
    the first within 1e-17 of its sum, or 60 past the first, independent of
    its call-mates.  The loop works in place but takes no complex product
    in place (NumPy rounds those apart at some positions of an array).

    Raises:
        SeriesNonConvergenceError: some element's smallest term is above
            1e-11 of its sum (its argument is too small for its parameters).
    """
    shape = np.broadcast_shapes(np.shape(mid), np.shape(half2), np.shape(y))
    term = np.ones(shape, dtype=complex)
    total = np.ones(shape, dtype=complex)
    other = np.ones(shape, dtype=complex) if mirror else None
    contrib = np.empty(shape, dtype=complex)
    # contrib's memory doubles as two real tables (memory peaks in Kummer's)
    part, limit = contrib.reshape(-1).view(float).reshape((2,) + shape)
    active = np.ones(shape, dtype=bool)
    going = np.empty(shape, dtype=bool)
    floor_mag = np.full(shape, np.inf)
    tm = np.empty(shape)
    ratio = np.empty(np.broadcast_shapes(np.shape(mid), np.shape(half2)),
                     dtype=complex)
    for k in range(60):
        np.square(mid + k, out=ratio)
        ratio -= half2
        ratio /= k + 1.0
        np.multiply(term, ratio, out=contrib)
        np.multiply(contrib, y, out=term)
        _mag_into(term, tm, part)
        # an active element's terms have fallen so far, so its last term
        # is the smallest: it stays active while the terms keep falling
        np.less(tm, floor_mag, out=going)
        active &= going
        np.minimum(floor_mag, tm, out=floor_mag)
        np.multiply(term, active, out=contrib)
        total += contrib
        if mirror:  # term k + 1 has the sign (-1)^(k + 1) at -y
            (np.add if k % 2 else np.subtract)(other, contrib, out=other)
        _mag_into(total, limit, part)
        limit *= 1e-17
        np.greater(tm, limit, out=going)
        active &= going
        if not np.any(active):
            break
    _mag_into(total, limit, part)
    if np.any(floor_mag > 1e-11 * limit):
        raise SeriesNonConvergenceError(
            "asymptotic series cannot reach tolerance; argument too small "
            "relative to parameters")
    return (total, other) if mirror else total


def _log_bessel_asym(nu, z):
    """I_nu(z) by the large-|z| expansion (DLMF 10.40.5) in split form,
    in the broadcast shape: E = z - 1/2 log(2 pi z) and S = 2F0(1/2 - nu,
    1/2 + nu; 1/(2z)) plus its e^{-z} companion, e^{i sigma pi (nu + 1/2)
    - 2z} times the same terms at -1/(2z) (``_asym_sum``'s mirror), which
    matters near the edge of the sector the caller gates on
    (Re(z) >= 0.35 |z|).
    """
    s, s_plus = _asym_sum(0.5, nu * nu, 0.5 / z, mirror=True)
    sigma = np.where(z.imag >= 0.0, 1.0, -1.0)
    w = sigma * (nu + 0.5) * 1j * np.pi - 2.0 * z
    recessive = np.zeros(s.shape, dtype=complex)  # e^w is 0 below -746
    np.exp(w, out=recessive, where=w.real > -746.0)
    s += recessive * s_plus
    return np.broadcast_to(z - 0.5 * _clog(2.0 * np.pi * z),
                           s.shape).copy(), s


def _bessel_asym_mask(nu, z):
    """Where I_nu(z) takes the asymptotic branch, per element of the
    broadcast: |z| beyond BESSEL_ASYMPTOTIC_MIN_Z, |nu|^2 within
    BESSEL_ASYMPTOTIC_ORDER_FACTOR |z| and z away from the imaginary axis."""
    abs_z = np.abs(z)
    abs_nu2 = nu.real * nu.real + nu.imag * nu.imag
    return (
        (abs_z > BESSEL_ASYMPTOTIC_MIN_Z)
        & (abs_nu2 <= BESSEL_ASYMPTOTIC_ORDER_FACTOR * abs_z)
        & (z.real >= 0.35 * abs_z)
    )


def _kummer_asym_mask(at, bt, x):
    """Where the joint CF's Kummer factor Gamma(bt - at)/Gamma(bt) x^at
    M(at, bt, -x) takes the algebraic asymptotic branch
    (``_log_kummer_asym_sum``), per element of the broadcast: x beyond
    KUMMER_ASYM_MIN_X and beyond mx^2 + 50, mx = max(|at|, |at - bt + 1|).

    The gate is where the branch provably converges.  Its term ratio is
    |at + s| |at - bt + 1 + s| / ((s + 1) x) <= (mx + s)^2 / ((s + 1) x),
    so with x >= max(60, mx^2 + 50) the smallest of the first 60 terms is
    at most 10^-17.8 of the first for every mx (the worst case is
    mx = 3.3): ``_asym_sum``'s 60 terms always reach full precision.
    Against mpmath's log of the whole factor (which keeps the e^{-x}
    companion the branch drops, below e^{-73} of it there), on the
    corridor swaps' elements that x > 3 mx^2 + 50 used to send to the
    Taylor series (200 of 3,097, x/mx^2 from 1.1 to 17): the branch is
    within 7.2e-16 and the Taylor series off by up to 1.2e-13.  Taylor
    tables grow like x + 9 sqrt(x) terms, so the gate also keeps them
    short: the corridor's largest Taylor x falls from 1,076 to 395.
    """
    mx = np.maximum(np.abs(at), np.abs(at - bt + 1.0))
    return x > np.maximum(KUMMER_ASYM_MIN_X, mx * mx + 50.0)


def _rows_by_columns(fn, params, args):
    """``fn`` on the parameters as rows x the arguments as columns, mapped
    back to their broadcast: the one layout of the series kernel.

    ``params`` (Bessel orders, Kummer parameters) broadcast together to
    one shape and ``args`` (their arguments) to another; the two must vary
    along disjoint axes (aligned from the right, every axis of size 1 in
    one of them).  ``fn`` gets each parameter as an (n, 1) row and each
    argument as an (m,) column and returns the (n, m) table, or a tuple of
    them (a split form), whose axes are then interleaved back into the
    broadcast shape, at least 1-D.

    Raises:
        SpecfunDomainError: a parameter and an argument vary along one axis.
    """
    p_shape, a_shape = np.broadcast(*params).shape, np.broadcast(*args).shape
    d = max(len(p_shape), len(a_shape), 1)
    p_pad, a_pad = ((1,) * (d - len(x)) + x for x in (p_shape, a_shape))
    if any(p != 1 and a != 1 for p, a in zip(p_pad, a_pad)):
        raise SpecfunDomainError(
            f"parameters of shape {p_shape} and arguments of shape "
            f"{a_shape} vary along one axis; the series kernel takes them "
            "only on disjoint axes, as rows x columns")

    def flat(x, shape, to):
        if np.shape(x) != shape:
            x = np.broadcast_to(x, shape)
        return np.reshape(x, to)

    out = fn(*(flat(p, p_shape, (-1, 1)) for p in params),
             *(flat(a, a_shape, -1) for a in args))
    # rows x columns -> the parameters' axes interleaved with the arguments'
    order = [k for pair in zip(range(d), range(d, 2 * d)) for k in pair]

    def back(table):
        return table.reshape(p_pad + a_pad).transpose(order).reshape(
            [a if p == 1 else p for p, a in zip(p_pad, a_pad)])
    return tuple(map(back, out)) if isinstance(out, tuple) else back(out)


def _log_bessel_i_vec(nu, z):
    """Vectorized I_nu(z) in split form, (E, S) with I_nu(z) = e^E S, for
    orders ``nu`` and arguments ``z`` that vary along disjoint axes, in the
    shape of their broadcast (the transforms' order 2c varies with the
    transform variables, the argument with the variances and dates), laid
    out as orders x arguments for ``_log_bessel_table``.

    Raises:
        SpecfunDomainError: an order and an argument vary along one axis;
            some z is 0 (``bessel_i`` has the closed form there) or has
            Re z < 0; an order sits at a negative integer.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0.0):
        raise SpecfunDomainError(
            "log I_nu(z) takes z != 0; bessel_i has the closed form at z = 0")
    if np.any(z.real < 0.0):
        raise SpecfunDomainError("log I_nu(z) takes Re z >= 0 only")
    return _rows_by_columns(_log_bessel_table,
                            (np.asarray(nu, dtype=complex),), (z,))


def _log_bessel_table(nu, z):
    """I_nu(z) in split form on orders ``nu`` as (n, 1) rows x arguments
    ``z`` as (m,) columns, the regime taken per element
    (``_bessel_asym_mask``: asymptotic where |z| is large against the
    threshold and |nu|^2, the rescaled power series elsewhere).  The series
    is summed on every row of each column that some row needs it in,
    sharing one power table; ``_log_bessel_asym`` takes the columns every
    row takes asymptotically in broadcast form and, in the others, the
    asymptotic elements only, which replace their series values.
    """
    use_asym = _bessel_asym_mask(nu, z)
    series = ~np.all(use_asym, axis=0)
    if not np.any(series):
        return _log_bessel_asym(nu, z)
    every = np.all(series)
    s_cols, mixed = (z, use_asym) if every else (z[series],
                                                 use_asym[:, series])
    flat = np.flatnonzero(mixed)  # first, while no table is held
    rows, cols = np.divmod(flat, mixed.shape[1])
    asym = _log_bessel_asym(nu[:, 0][rows], s_cols[cols]) if flat.size else ()
    s, scale = _log_bessel_series(nu, s_cols)
    e = nu * np.log(s_cols * 0.5)
    e -= _log_gamma_vec(nu + 1.0)
    if scale is not None:
        e += scale
    out = e, s
    del e, s
    for table, part in zip(out, asym):
        table.reshape(-1)[flat] = part
    if every:
        return out
    full = tuple(np.empty(use_asym.shape, dtype=complex) for _ in out)
    for table, part in zip(full, out):
        table[:, series] = part
    del out, part  # before the asymptotic columns' tables are made
    for table, part in zip(full, _log_bessel_asym(nu, z[~series])):
        table[:, ~series] = part
    return full


def _split_log(e, s):
    """log of a split table, E + log S (a branch that exp() undoes)."""
    with np.errstate(divide="ignore"):  # a sum of exactly 0
        return e + np.log(s)


def _split_exp(e, s):
    """The value e^E S of a split table, written into ``e``; exp(E + log S)
    where |Re E| > 700, as e^E alone could overflow or underflow there."""
    far = np.abs(e.real) > 700.0
    with np.errstate(over="ignore", invalid="ignore"):
        fixed = np.exp(_split_log(e[far], s[far])) if far.any() else None
        np.exp(e, out=e)
        e *= s
    if fixed is not None:
        e[far] = fixed
    return e


def log_bessel_i(nu, z):
    """``log I_nu(z)`` for scalar complex arguments (branch only fixed by
    exp), a 1 x 1 table; Re z >= 0 and z != 0."""
    return complex(_split_log(*_log_bessel_i_vec(complex(nu), complex(z)))[0])


def bessel_i(nu, z, scaled=False):
    """Modified Bessel function of the first kind ``I_nu(z)``.

    Args:
        nu: complex order.  Principal branch is used for ``z**nu``.
        z: complex argument with Re(z) >= 0; z = 0 is taken in closed
            form and needs Re(nu) > 0 or nu = 0.
        scaled: if True, return ``exp(-Re(z)) * I_nu(z)`` (overflow-safe form
            for the Bessel ratios in the conditional characteristic function).

    Raises:
        SpecfunDomainError: Re(z) < 0, or z = 0 with Re(nu) <= 0, nu != 0.
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


def _log_kummer_taylor(a, b, x):
    """log M(a, b, x) by the Taylor series for parameters ``a``, ``b`` as
    (n, 1) rows x arguments ``x``, real or complex, as (m,) columns: the
    shared table with den = b - 1 and num = a, summed by
    ``_log_series_outer``.

    Returns (log M, lost) as (n, m) arrays.  ``lost`` is the digits-lost
    proxy log((|C| @ |P|) / |M|), the sum of |terms| over |M|; large values
    mean the series cancelled catastrophically (Re x << 0, which callers
    avoid via the Kummer transformation), +inf where it cancelled to
    exactly 0.  Bands group the columns by |x|, ``_SERIES_BAND_WIDTH /
    rho`` wide, where rho = 1 + max|a - b| / min_k |b + k| bounds
    |a + k| / |b + k| and hence, since (k+1)|t_{k+1}(x)| = |t_k(x)|
    |a + k| / |b + k|, the slope d/d|x| log sum_k |t_k(x)| (M itself grows
    like e^x x^(a-b), so the slope can exceed 1).
    """
    a, b = a[:, 0], b[:, 0]
    nearest = np.abs(b + np.maximum(np.round(-b.real), 0.0))
    with np.errstate(divide="ignore"):
        rho = 1.0 + float(np.max(np.abs(a - b) / nearest))
    sums, scale, lost = _log_series_outer(b - 1.0, x, np.abs(x),
                                          _SERIES_BAND_WIDTH / rho, num=a)
    with np.errstate(divide="ignore"):  # a sum of exactly 0
        logm = _clog(sums)
    lost -= logm.real
    logm.real += 0.0 if scale is None else scale
    return logm, lost


def _log_kummer_asym_sum(a, b, x):
    """log 2F0(a, a - b + 1; 1/x) = log sum_s (a)_s (a-b+1)_s / (s! x^s),
    the algebraic branch factor, by ``_asym_sum`` (h = (1 - b)/2).

    This is M(a, b, -x) stripped of its Gamma(b)/Gamma(b-a) x^{-a} prefactor
    (which cancels analytically inside the joint characteristic function).
    """
    a, b, x = np.atleast_1d(a, b, x)
    return _clog(_asym_sum(a + 0.5 * (1.0 - b), 0.25 * (1.0 - b) ** 2,
                           1.0 / x))


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
    of ``_log_kummer_taylor`` in nats, log(sum of |terms| / |M|) (measured
    against mpmath on 9000 random points with Re a in [0.5, 6],
    Re b in [0.6, 5], |Re z| <= 6, |Im a|, |Im z| <= 4, |Im b| <= 2: at
    most 8.2 eps e^lost; 428 of the points raise); where that bound passes
    KUMMER_REL_TOL, or the sum cancels to exactly 0, the function raises
    instead of returning.

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
    logm, lost = _log_kummer_taylor(np.array([[a]]), np.array([[b]]),
                                    np.array([z]))
    if lost[0, 0] > _KUMMER_MAX_LOST:
        raise PrecisionLossError(
            f"kummer_m({a}, {b}, {z}) lost {lost[0, 0]:.1f} nats to "
            f"cancellation in the raw series, beyond its {KUMMER_REL_TOL:g} "
            f"accuracy; use the Kummer transformation"
        )
    val = logm[0, 0] + shift
    if val.real > 709.0:
        raise OverflowSignalError(f"kummer_m overflow at (a={a}, b={b}, z={z})")
    return complex(np.exp(val))
