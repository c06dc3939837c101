"""Complex-parameter special functions: log-gamma, modified Bessel I, Kummer M.

Every closed-form transform in this package reduces to three ingredients:
the principal branch of ``ln Gamma(z)``, the modified Bessel function of the
first kind ``I_nu(z)`` with complex order, and Kummer's confluent
hypergeometric function ``M(a, b, z)`` with complex parameters.  All three
are implemented here with explicit series/asymptotic regime switches and
log-space variants so that callers can compose values spanning hundreds of
orders of magnitude without overflow.

The power series of ``I_nu(z)`` is summed by one of two routes, chosen by
the layout of the inputs, never by their values:

* orders on the leading axes (size-1 last axis) against arguments that vary
  only along the last axis -- the (omega, eta) x v' tensor of the timer
  kernel -- sum as a matrix product, coefficients (orders x terms) times
  powers (terms x arguments), with the arguments grouped into bands of
  similar |z| so that no scaled coefficient or power leaves the double
  range;
* every other layout (paired elements, as in the swap and European
  pricers) sums by a running product per element.

Both routes stop only when every element's last terms are at most
SERIES_STOP_REL x |sum|, raise SeriesNonConvergenceError past
SERIES_MAX_TERMS terms and share the prefactor and the order check.

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

# Width in |z| of one argument band of the outer-layout Bessel series.
_SERIES_BAND_WIDTH = 300.0

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
    """Stirling expansion with upward recurrence; requires Re(z) > 0."""
    z = np.array(z, dtype=complex)
    correction = np.zeros_like(z)
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


def _series_prefactor(nu, z):
    """log of (z/2)^nu / Gamma(nu + 1), the factor both series routes share."""
    return nu * np.log(z * 0.5) - _log_gamma_vec(nu + 1.0)


def _log_bessel_series(nu, z):
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
    """
    _check_bessel_order(nu)
    if nu.ndim >= 2 and nu.shape[-1] == 1 and 0 < z.size == z.shape[-1]:
        return _series_outer(nu, z)
    return _series_paired(nu, z)


def _series_paired(nu, z):
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
    return _series_prefactor(nu, z) + np.log(total) + scale


def _series_outer(nu, z):
    """Series for orders x arguments as one matrix product per band.

    With q_j = z_j^2/4 and a band scale s, the sum for order nu_i and
    argument z_j is  sum_k C[i, k] P[k, j]  with  C[i, k] = s^k / (k!
    (nu_i+1)_k)  (a cumulative product over k on the n_nu x K table) and
    P[k, j] = (q_j / s)^k.  So the whole (n_nu x n_z) block costs one
    complex matrix product instead of K elementwise passes over it.

    Bands keep every factor in range.  The columns are grouped by |z|:
    column j belongs to band floor((max|z| - |z_j|) / _SERIES_BAND_WIDTH),
    and each band takes s = max |q| over its columns, so |P| <= 1.  Each
    order carries a log scale: when its sum at q = s passes 1e250 at a
    checkpoint, all its coefficients are shifted by 2^-512.  For Re(nu) >= -1/2
    and real z, d log(sum)/d|z| = I_{nu+1}(z)/I_nu(z) <= 1, so within a
    band no column's sum is below e^{-_SERIES_BAND_WIDTH} of the row scale:
    the scaled sums (the k = 0 term included wherever it is not negligible)
    stay far above the underflow threshold e^{-708}.  The N=4 timer
    kernel (|z| < 20) needs a single band.

    The number of terms K is first set by the paired route's rule applied
    to the table at x = q/s = 1 (the band's largest argument), then checked
    against every element: its last two terms C[i, K-1] P[K-1, j] and
    C[i, K] P[K, j] must be at most SERIES_STOP_REL x |sum|, else K grows
    by half (at least 8) and the band is summed again.
    """
    out_shape = np.broadcast_shapes(nu.shape, z.shape)
    nu_col = nu.reshape(-1)
    q = (z * z * 0.25).reshape(-1)
    z_mag = np.abs(z).reshape(-1)
    band = ((np.max(z_mag) - z_mag) // _SERIES_BAND_WIDTH).astype(int)
    if np.all(band == 0):
        log_sum = _log_series_band(nu_col, q)
    else:
        log_sum = np.empty((nu_col.size, q.size), dtype=complex)
        for b in np.unique(band):
            cols = np.flatnonzero(band == b)
            log_sum[:, cols] = _log_series_band(nu_col, q[cols])
    out = _series_prefactor(nu, z)
    out += log_sum.reshape(out_shape)
    return out


def _log_series_band(nu, q):
    """log of the series for 1-D orders x 1-D arguments of one band."""
    s = float(np.max(np.abs(q)))
    x = q / s
    min_terms = 0
    while True:
        coef, row_scale = _series_table(nu, s, min_terms)
        n_terms = coef.shape[0] - 1
        powers = np.empty((n_terms + 1, x.size), dtype=complex)
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(x, (n_terms, x.size)), axis=0,
                   out=powers[1:])
        total = coef.T @ powers
        mag = np.abs(total)
        limit = SERIES_STOP_REL * mag
        if all(np.all(np.multiply.outer(np.abs(coef[k]),
                                        np.abs(powers[k])) <= limit)
               for k in (n_terms - 1, n_terms)):
            break
        min_terms = n_terms + max(8, n_terms // 2)
    # log(total) in place; np.log on complex arrays is several times
    # slower than log|total| + i arg(total).
    arg = np.arctan2(total.imag, total.real)
    np.log(mag, out=mag)
    mag += row_scale[:, None]
    total.real = mag
    total.imag = arg
    return total


def _series_table(nu, s, min_terms):
    """The table C[i, k] = s^k / (k! (nu_i+1)_k) for k = 0..K, stored
    transposed (one row per k), and the per-order log scales.

    Built by the running product of the paired route, with the same
    checkpoints, stopping rule (applied to the sums at q = s) and 1e250
    rescaling, which shifts every stored coefficient of that order.  Stops
    at the first passing checkpoint at or beyond ``min_terms``.
    """
    a = np.ones(nu.shape, dtype=complex)
    coef = [a]
    total = a.copy()
    row_scale = np.zeros(nu.shape, dtype=float)
    small_prev = False
    for k in range(1, SERIES_MAX_TERMS + 1):
        a = a * (s / (k * (nu + k)))
        coef.append(a)
        total += a
        if k % 8 == 0 or k > 60:
            sm = _mag(total)
            small = bool(np.all(_mag(a) <= SERIES_STOP_REL * sm))
            if small and small_prev and k >= min_terms:
                break
            small_prev = small
            if np.max(sm) > _RESCALE_LIMIT:
                big = sm > _RESCALE_LIMIT
                for c in coef:
                    c[big] *= _RESCALE_SHIFT
                total[big] *= _RESCALE_SHIFT
                row_scale[big] += _RESCALE_LOG
    else:
        raise SeriesNonConvergenceError(
            f"bessel_i series did not converge within {SERIES_MAX_TERMS} terms"
        )
    return np.stack(coef), row_scale


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
    if np.any(~use_asym):
        res[~use_asym] = _log_bessel_series(nr[~use_asym], zr[~use_asym])
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
    """log M(a,b,z) by the Taylor series with rescaling.

    Returns (log M, digits-lost proxy).  The proxy is the ratio of the peak
    partial-sum magnitude to the final magnitude; large values mean the
    series cancelled catastrophically (happens for Re(z) << 0, which callers
    avoid via the Kummer transformation).
    """
    a, b, z = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=complex)),
        np.atleast_1d(np.asarray(b, dtype=complex)),
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


def kummer_m(a, b, z, transform="auto"):
    """Kummer's confluent hypergeometric function ``M(a, b, z)``.

    The Kummer transformation ``M(a,b,z) = e^z M(b-a, b, -z)`` is applied
    automatically when ``Re(z) < 0`` to avoid cancellation in the Taylor
    series.  Pass ``transform="never"`` to force raw series evaluation (the
    identity tests do this so both sides are computed independently).

    Raises:
        SpecfunDomainError: ``b`` at a non-positive integer.
        SeriesNonConvergenceError: term cap exceeded.
        PrecisionLossError: raw series cancelled away more than ~10 digits.
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
    if float(lost[0]) > 23.0:  # ~10 decimal digits cancelled
        raise PrecisionLossError(
            f"kummer_m({a}, {b}, {z}) lost too much precision in the raw series; "
            "use the Kummer transformation"
        )
    val = logm[0] + shift
    if val.real > 709.0:
        raise OverflowSignalError(f"kummer_m overflow at (a={a}, b={b}, z={z})")
    return complex(np.exp(val))
