"""Reference routes that only the tests use: an adaptive v' integral and the
paper's two-date joint characteristic function built on it.

They share no quadrature with the pricers (whose v' rules are fixed
trapezoids from ``quadrature.log_density_grid``), so agreement between the
two is a check on both.
"""

import math
from typing import Callable, Tuple

import numpy as np

from three_halves import specfun
from three_halves import transforms as tr
from three_halves.errors import (
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from three_halves.quadrature import QuadratureConfig

_SCAN_LO, _SCAN_HI = -46.0, 46.0  # v' from ~1e-20 to ~1e20
MAX_REFINEMENTS = 12  # doublings of the adaptive v' integral


def stable_complex_sum(values) -> complex:
    """Order-insensitive compensated sum of complex values."""
    arr = np.asarray(values, dtype=complex).ravel()
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


def _trapezoid_complex(fu, lo, hi, n) -> complex:
    u = np.linspace(lo, hi, n + 1)
    vals = fu(u)
    h = (hi - lo) / n
    interior = stable_complex_sum(vals[1:-1])
    return h * (interior + 0.5 * (complex(vals[0]) + complex(vals[-1])))


def integrate_semi_infinite(f: Callable, cfg: QuadratureConfig,
                            ) -> Tuple[complex, float]:
    """Adaptive integral of ``f`` over v' in (0, inf).

    The log substitution v' = e^u flattens both the essential singularity
    exp(-const/v') at the origin and the power-law tail; the mapped
    integrand is summed by a doubling trapezoid rule with compensated sums.
    ``f`` must accept a float ndarray of v' values and return complex
    values elementwise.  Returns (value, achieved error estimate).

    Raises:
        QuadratureNonConvergenceError: refinement stalled above rel_tol.
    """

    def fu(u):
        vp = np.exp(u)
        try:
            vals = np.asarray(f(vp), dtype=complex)
        except ThreeHalvesError as exc:
            raise ThreeHalvesError(
                f"integrand failed near v'={vp.ravel()[0]:.3g}.."
                f"{vp.ravel()[-1]:.3g}: {exc}"
            ) from exc
        return vals * vp  # jacobian of v' = e^u

    # Coarse scan to locate the support of the mapped integrand.
    u_scan = np.arange(_SCAN_LO, _SCAN_HI + 0.5, 1.0)
    mags = np.abs(fu(u_scan))
    peak = mags.max()
    if peak == 0.0:
        return 0.0 + 0.0j, 0.0
    keep = np.nonzero(mags > peak * 1e-18)[0]
    lo = u_scan[max(keep[0] - 2, 0)]
    hi = u_scan[min(keep[-1] + 2, len(u_scan) - 1)]

    n = max(int(cfg.v_nodes), 32)
    prev = _trapezoid_complex(fu, lo, hi, n)
    for _ in range(MAX_REFINEMENTS):
        n *= 2
        cur = _trapezoid_complex(fu, lo, hi, n)
        err = abs(cur - prev)
        scale = max(abs(cur), cfg.abs_tol / max(cfg.rel_tol, 1e-300))
        if err <= cfg.rel_tol * scale:
            return cur, err
        prev = cur
    raise QuadratureNonConvergenceError(
        f"semi-infinite integral did not converge below rel_tol={cfg.rel_tol} "
        f"within {MAX_REFINEMENTS} doublings",
        achieved=abs(cur - prev) if "cur" in locals() else None,
    )


def bivariate_cf_phi(t: float, state: Tuple[float, float, float], t1: float,
                     t2: float, w: Tuple[complex, complex],
                     e: Tuple[complex, complex], params,
                     cfg: QuadratureConfig) -> complex:
    """Joint CF of ((X_{t1}, I_{t1}), (X_{t2}, I_{t2})) from state (x, y, v).

    Phi = e^{i(w1+w2)x + i(e1+e2)y}
          int_0^inf g(t, v; t1, w1+w2, e1+e2, v') h(t1, v'; t2, w2, e2) dv'.

    Degenerate cases are taken analytically: at t1 == t2 the inner h is 1
    and the integral collapses to h(t, v; t1, w1+w2, e1+e2).
    """
    x, y, v = state
    w1, w2 = complex(w[0]), complex(w[1])
    e1, e2 = complex(e[0]), complex(e[1])
    if not t < t1 <= t2:
        raise ThreeHalvesError("need t < t1 <= t2")
    pref = np.exp(1j * (w1 + w2) * x + 1j * (e1 + e2) * y)
    if t1 == t2:
        return complex(pref * tr.joint_cf_h(
            t, v, t1, tr.TransformPoint(w1 + w2, e1 + e2), params))

    def integrand(vp):
        lg = specfun._split_log(*tr._log_g_vec(t, v, t1, w1 + w2, e1 + e2,
                                               vp, params))
        lh = tr._log_h_vec(t1, vp, t2, w2, e2, params)
        return tr._exp_checked(lg + lh, "bivariate_cf_phi integrand")

    value, _err = integrate_semi_infinite(integrand, cfg)
    return complex(pref * value)
