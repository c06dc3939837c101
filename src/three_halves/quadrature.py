"""Numerical integration: semi-infinite variance integrals and the one rule
for every Fourier inversion over the log-price frequency omega.

* Semi-infinite integrals over v' in (0, inf) are computed after the log
  substitution v' = e^u, which flattens both the essential singularity
  exp(-const/v') at the origin and the power-law tail; the mapped integrand
  is handled by a doubling trapezoid rule summed by math.fsum.
* Every omega integral (the European call, the timer's Parseval integral,
  the corridor swap) runs along a damped contour Im(omega) = const, folded
  to omega_R >= 0 since its result is real, and is summed by one rule,
  ``omega_integral``: graded Clenshaw-Curtis panels added outward until
  the integrand is spent, so each product's cutoff is measured, not set.

The omega rule
--------------
* Each panel has PANEL_NODES = 17 nodes; its 9 nodes of even index are the
  nested coarse rule, whose gap is the error estimate (Trefethen 2008, "Is
  Gauss quadrature better than Clenshaw-Curtis?").  With 13 nodes the
  Europeans of ``bench/references.json`` miss their converged values by up
  to 3.0e-10; with 17 the worst of 31 is 1.3e-11.
* Widths double from FIRST_PANEL = 0.25, where the CF peaks, up to
  MAX_PANEL = 24 and then stay 24.  The first batch is every doubling panel
  (omega_R up to 31.75, 119 nodes); after it each batch is one panel.
* The rule stops after the batch whose last panel's absolute share,
  scale * sum w |f|, is at most max(abs_tol, rel_tol |value so far|), the
  value including what the product adds outside the integral (the timer's
  European base); a vector integrand stops when every component passes.
  A panel that would end past OMEGA_LIMIT = 1000 raises instead: the rule
  never returns a truncated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Numeric controls for every integral in the package; a product that
    needs other values passes ``dataclasses.replace(cfg, ...)``.

    ``v_nodes``, ``v_upper_mass_tol`` and ``max_refinements`` size the v'
    rules; ``rel_tol`` and ``abs_tol`` stop the adaptive ones, the omega
    rule's panels and the timer's Talbot contours.  The call and timer
    contours sit at Im(omega) = ``damping_omega`` < -1 (enforced at the
    point of use).  The omega rule's panels are fixed by measurement.
    """

    v_nodes: int = 64
    v_upper_mass_tol: float = 1e-9
    damping_omega: float = -1.5
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self):
        problems = []
        if self.v_nodes < 8:
            problems.append("v_nodes must be >= 8")
        for name in ("v_upper_mass_tol", "rel_tol", "abs_tol"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be > 0")
        if problems:
            raise InvalidParametersError(
                "bad quadrature config: " + "; ".join(problems)
            )

    def require_timer_contour(self) -> None:
        if not self.damping_omega < -1.0:
            raise InvalidParametersError(
                f"timer payoff transform needs damping_omega < -1 "
                f"(got {self.damping_omega})"
            )


def stable_complex_sum(values) -> complex:
    """Order-insensitive compensated sum of complex values."""
    arr = np.asarray(values, dtype=complex).ravel()
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


# ---------------------------------------------------------------------------
# Semi-infinite integrals over v'.
# ---------------------------------------------------------------------------

_SCAN_LO, _SCAN_HI = -46.0, 46.0  # v' from ~1e-20 to ~1e20


def _trapezoid_complex(fu, lo, hi, n) -> complex:
    u = np.linspace(lo, hi, n + 1)
    vals = fu(u)
    h = (hi - lo) / n
    interior = stable_complex_sum(vals[1:-1])
    return h * (interior + 0.5 * (complex(vals[0]) + complex(vals[-1])))


def integrate_semi_infinite(f: Callable, cfg: QuadratureConfig,
                            ) -> Tuple[complex, float]:
    """Adaptive integral of ``f`` over v' in (0, inf).

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
    for _ in range(cfg.max_refinements):
        n *= 2
        cur = _trapezoid_complex(fu, lo, hi, n)
        err = abs(cur - prev)
        scale = max(abs(cur), cfg.abs_tol / max(cfg.rel_tol, 1e-300))
        if err <= cfg.rel_tol * scale:
            return cur, err
        prev = cur
    raise QuadratureNonConvergenceError(
        f"semi-infinite integral did not converge below rel_tol={cfg.rel_tol} "
        f"within {cfg.max_refinements} doublings",
        achieved=abs(cur - prev) if "cur" in locals() else None,
    )


def log_density_grid(log_density: Callable, cfg: QuadratureConfig,
                     n: Optional[int] = None,
                     margin: float = 1.5) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed trapezoid grid (nodes, weights) in v' adapted to a density.

    ``log_density`` maps a v' ndarray to log-density values; the grid spans
    the region where the density is above ``v_upper_mass_tol`` relative to
    its peak, extended by ``margin`` in log space.  Weights include the
    e^u jacobian, so ``sum(w * f(nodes))`` approximates int f dv'.
    """
    u_scan = np.arange(_SCAN_LO, _SCAN_HI + 0.25, 0.25)
    ld = np.asarray(log_density(np.exp(u_scan)), dtype=float) + u_scan
    peak = ld.max()
    if not np.isfinite(peak):
        raise ThreeHalvesError("density scan found no finite values")
    thresh = math.log(cfg.v_upper_mass_tol) + peak
    keep = np.nonzero(ld > thresh)[0]
    lo = u_scan[keep[0]] - margin
    hi = u_scan[keep[-1]] + margin
    n = int(n or cfg.v_nodes)
    u = np.linspace(lo, hi, n)
    du = (hi - lo) / (n - 1)
    w = np.full(n, du)
    w[0] *= 0.5
    w[-1] *= 0.5
    nodes = np.exp(u)
    return nodes, w * nodes


# ---------------------------------------------------------------------------
# The omega rule: graded Clenshaw-Curtis panels, folded to omega_R >= 0.
# ---------------------------------------------------------------------------


def _cc_nodes_weights(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Closed Clenshaw-Curtis rule with m+1 nodes on [-1, 1] (m even)."""
    if m % 2 or m < 2:
        raise ValueError("CC order must be even and >= 2")
    j = np.arange(m + 1)
    x = np.cos(j * math.pi / m)
    w = np.zeros(m + 1)
    for k in range(m + 1):
        acc = 1.0
        for i in range(1, m // 2 + 1):
            factor = 0.5 if 2 * i == m else 1.0
            acc -= factor * 2.0 * math.cos(2.0 * i * k * math.pi / m) / (4 * i * i - 1)
        w[k] = 2.0 * acc / m
    w[0] *= 0.5
    w[-1] *= 0.5
    return x[::-1], w[::-1]


PANEL_NODES = 17
FIRST_PANEL = 0.25
MAX_PANEL = 24.0
OMEGA_LIMIT = 1000.0
FIRST_BATCH = math.ceil(math.log2(MAX_PANEL / FIRST_PANEL))  # doubling panels

_X, _W_FINE = _cc_nodes_weights(PANEL_NODES - 1)
_W_COARSE = np.zeros(PANEL_NODES)
_W_COARSE[::2] = _cc_nodes_weights((PANEL_NODES - 1) // 2)[1]


def _panels(start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes omega_R, shape (stop - start, PANEL_NODES), and half-widths,
    shape (stop - start, 1), of the omega rule's panels start..stop-1."""
    widths = np.minimum(FIRST_PANEL * 2.0 ** np.arange(stop), MAX_PANEL)
    hi = np.cumsum(widths)[start:, None]
    half = 0.5 * widths[start:, None]
    return hi - half * (1.0 - _X), half


def omega_integral(f: Callable, cfg: QuadratureConfig, damping: float,
                   scale: float, base=0.0, panels: Optional[int] = None):
    """scale * int_0^inf Re f(w_R + i damping) dw_R by the omega rule.

    ``f`` maps a 1-D array of contour points to values with the points on
    the last axis; leading axes are independent integrands (the timer's
    strikes), each with its own ``base``, the part of its product's value
    outside the integral.  Batches of panels are added until every
    component's last panel is spent (see the module docstring).  With
    ``panels`` the first that many panels are evaluated in one batch and
    no stopping test is made: a later pass on the grid an earlier one
    chose.

    Returns (value, err_estimate, diagnostics); value and err_estimate
    have the leading shape of ``f``, err_estimate is the gap to the nested
    coarse rule.

    Raises:
        ThreeHalvesError: the integrand is not finite.
        QuadratureNonConvergenceError: it is not spent by OMEGA_LIMIT.
    """
    start, stop = 0, panels or FIRST_BATCH
    value = coarse = 0.0
    while True:
        nodes, half = _panels(start, stop)
        vals = np.asarray(f(nodes.ravel() + 1j * damping), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ThreeHalvesError(
                f"omega integrand is not finite on omega_R in "
                f"[{nodes[0, 0]:g}, {nodes[-1, -1]:g}]")
        re = vals.real.reshape(vals.shape[:-1] + nodes.shape)
        w = scale * half
        value = value + np.tensordot(re, w * _W_FINE, axes=2)
        coarse = coarse + np.tensordot(re, w * _W_COARSE, axes=2)
        tail = np.abs(re[..., -1, :]) @ (w[-1] * _W_FINE)
        if panels or np.all(tail <= np.maximum(
                cfg.abs_tol, cfg.rel_tol * np.abs(base + value))):
            break
        if nodes[-1, -1] + MAX_PANEL > OMEGA_LIMIT:
            raise QuadratureNonConvergenceError(
                f"omega integrand is not spent by omega_R = "
                f"{nodes[-1, -1]:g}: its last panel still contributes "
                f"{np.max(tail):.3e}", achieved=float(np.max(tail)))
        start, stop = stop, stop + 1
    return value, np.abs(value - coarse), {
        "omega_panels": stop, "omega_nodes": stop * PANEL_NODES,
        "omega_cutoff": float(nodes[-1, -1]), "omega_tail": tail}


def fourier_invert_1d(cf: Callable, payoff_transform: Callable,
                      cfg: QuadratureConfig,
                      damping: Optional[float] = None):
    """(1/2pi) int payoff_transform(w) cf(w) dw_R along Im(w) = damping
    (default ``cfg.damping_omega``), by the omega rule.

    The result must be real: the integrand at -conj(w) is the conjugate of
    the integrand at w, so only the right half-axis is evaluated.  Returns
    (value, diagnostics); the diagnostics hold the err_estimate, the node
    count, the cutoff the rule measured and the last panel's share.
    """
    damp = cfg.damping_omega if damping is None else damping
    value, err, diag = omega_integral(
        lambda w: np.asarray(payoff_transform(w), dtype=complex) * cf(w),
        cfg, damp, 1.0 / math.pi)  # folding doubles the half-axis integral
    diag.update(err_estimate=float(err), omega_tail=float(diag["omega_tail"]),
                damping=damp)
    return float(value), diag
