"""Numerical integration: the v' rule of a variance density and the one rule
for every Fourier inversion over the log-price frequency omega.

* A v' rule (``log_density_grid``) is a fixed trapezoid in u = ln v' over
  the span where the density is not negligible: the log substitution
  flattens both the essential singularity exp(-const/v') at the origin and
  the power-law tail.
* Every omega integral (the European call, the timer's Parseval integral,
  the corridor swap) runs along its payoff's contour Im(omega) = const, folded
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
  MAX_PANEL = 24 and then stay 24.  The FIRST_BATCH = 7 doubling panels end
  at omega_R = 31.75 (119 nodes).
* The rule stops at the first panel whose absolute share, scale * sum
  w |f|, is at most max(abs_tol, rel_tol |value so far|), the value
  including what the product adds outside the integral (the timer's
  European base); a vector integrand stops when every component passes.
  The doubling panels are summed and tested as one, every later panel on
  its own.  A panel that would end past OMEGA_LIMIT = 1000 raises
  instead: the rule never returns a truncated value.
* Every call of the integrand rebuilds what does not depend on omega (the
  swaps' period lattices and moments, the per-call set-up of the
  transforms), so the panels are evaluated in few batches: the first
  holds the doubling panels and the first full-width one (omega_R up to
  55.75, 136 nodes), where every benchmark product's integrand is spent or
  nearly so.  A tail batch holds the full-width panels that the decay
  measured on the last two summed panels says are still needed: their
  shares per unit width fit e^{-lam omega_R} per component.  It holds at
  least one panel, and at most half the panels summed so far and those
  left before OMEGA_LIMIT; if a component's lam is not positive and
  finite, one panel.  Panels past the stop are evaluated but never read,
  so the rule sums the same panels, in the same sums, as one that
  evaluated one panel per batch: how many panels a batch holds moves no
  bit of a result whose integrand is elementwise in omega.
* An integrand may raise on panels the rule would never have summed (a
  corridor's v lattice sized at a batch's largest omega_R may pass its
  node cap; a timer's Talbot contour may need more nodes than it may
  have).  A batch that raises is evaluated again as that one-panel rule
  evaluates it, the doubling panels in one call and then one panel a
  call, and so is the rest of the integral: only a panel that rule
  evaluates can make the integral raise.
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

    ``v_nodes`` sizes the v' rules; ``rel_tol`` and ``abs_tol`` stop the
    omega rule's panels and the timer's Talbot contours.  The omega
    rule's panels are fixed by measurement, and each payoff's contour
    Im(omega) = const is its pricer's (``pricers.CALL_DAMPING``,
    ``pricers.CORRIDOR_DAMPING``).
    """

    v_nodes: int = 64
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        problems = []
        if self.v_nodes < 8:
            problems.append("v_nodes must be >= 8")
        for name in ("rel_tol", "abs_tol"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be > 0")
        if problems:
            raise InvalidParametersError(
                "bad quadrature config: " + "; ".join(problems)
            )


# ---------------------------------------------------------------------------
# The v' rule.
# ---------------------------------------------------------------------------

_SCAN_LO, _SCAN_HI = -46.0, 46.0  # v' from ~1e-20 to ~1e20
_GRID_MARGIN = 1.5  # in ln v', beyond the scan's last kept points
_MASS_TOL = 1e-9  # a grid keeps the scan points above this share of the peak


def log_density_grid(log_density: Callable,
                     cfg: QuadratureConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed trapezoid grids (nodes, weights) in v' adapted to densities.

    ``log_density`` maps a v' ndarray of scan points to log-density values
    of shape (..., scan points): one density per leading index, each with
    its own grid.  A grid spans the region where its density is above
    _MASS_TOL relative to its peak, extended by _GRID_MARGIN in log
    space, with ``v_nodes`` nodes.  Returns nodes and weights of shape
    (..., v_nodes), so a 1-D density gets one 1-D grid.  Weights include
    the e^u jacobian, so ``sum(w * f(nodes))`` approximates int f dv'.
    """
    u_scan = np.arange(_SCAN_LO, _SCAN_HI + 0.25, 0.25)
    ld = np.asarray(log_density(np.exp(u_scan)), dtype=float) + u_scan
    peak = ld.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise ThreeHalvesError("density scan found no finite values")
    keep = ld > math.log(_MASS_TOL) + peak
    # first and last kept scan point of each density
    lo = u_scan[np.argmax(keep, axis=-1)] - _GRID_MARGIN
    hi = u_scan[keep.shape[-1] - 1 - np.argmax(keep[..., ::-1], axis=-1)
                ] + _GRID_MARGIN
    n = cfg.v_nodes
    u = np.linspace(lo, hi, n, axis=-1)
    w = np.repeat(((hi - lo) / (n - 1))[..., None], n, axis=-1)
    w[..., 0] *= 0.5
    w[..., -1] *= 0.5
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


def _panel_sums(re, w):
    """The fine and coarse rules' sums and the last panel's share
    sum w |f| of each component of ``re`` (leading axes, then panels x
    nodes) on panels of half-widths ``w``, each component by its own
    products: its sums are the same bits whatever other components share
    the batch (a matrix-vector product may order its sums by the number
    of rows)."""
    fine, coarse, last = w * _W_FINE, w * _W_COARSE, w[-1] * _W_FINE
    sums = np.array([(np.tensordot(r, fine, axes=2),
                      np.tensordot(r, coarse, axes=2), np.abs(r[-1]) @ last)
                     for r in re.reshape((-1,) + re.shape[-2:])])
    return sums.T.reshape((3,) + re.shape[:-2])


def _panels_to_spend(last, thresh) -> int:
    """The MAX_PANEL-wide panels still needed until every component's last
    panel is spent, as the decay measured so far predicts it.  ``last``
    holds (centre, width, share) of the last two summed panels; their
    shares per unit width fit a rate lam of e^{-lam omega_R} per
    component, and a component whose last share s passes ``thresh`` needs
    ln(s / thresh) / (MAX_PANEL lam) more panels.  1 if any such
    component's lam is not finite and positive (it does not decay)."""
    (c0, w0, s0), (c1, w1, s1) = last
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = np.log((s0 / w0) / (s1 / w1)) / (c1 - c0)
        need = np.log(s1 / thresh) / (MAX_PANEL * lam)
    live = s1 > thresh
    if not np.all(~live | ((lam > 0) & np.isfinite(lam)
                           & np.isfinite(need))):
        return 1
    return int(np.ceil(np.max(np.where(live, need, 0.0))))


def omega_integral(f: Callable, cfg: QuadratureConfig, damping: float,
                   scale: float, base=0.0, panels: Optional[int] = None):
    """scale * int_0^inf Re f(w_R + i damping) dw_R by the omega rule.

    ``f`` maps a 1-D array of contour points to values with the points on
    the last axis; leading axes are independent integrands (the timer's
    strikes), each with its own ``base``, the part of its product's value
    outside the integral.  Panels are summed until every component's last
    panel is spent, evaluated in batches of several panels (see the
    module docstring): a batch may run past the stop, and the panels
    beyond it are neither summed nor checked for finiteness.  A batch
    for which ``f`` raises a ThreeHalvesError is evaluated again, and the
    rest of the integral too, one panel a call after the doubling panels:
    ``f`` makes the rule raise only on a panel it would sum.  With
    ``panels`` the first that many panels are evaluated in one batch and
    no stopping test is made: the timer's growth pass, which sums a larger
    Talbot contour on the panels its first pass chose.

    Returns (value, err_estimate, diagnostics); value and err_estimate
    have the leading shape of ``f``, err_estimate is the gap to the nested
    coarse rule.  The diagnostics hold the panels and nodes summed
    (``omega_panels``, ``omega_nodes``), the cutoff, the last panel's
    share (``omega_tail``), the calls of ``f`` (``omega_batches``) and the
    nodes it was given, those past the stop included
    (``omega_evaluated``).

    Raises:
        ThreeHalvesError: the integrand is not finite, or ``f`` raised on
            a panel the rule sums or would go on to sum.
        QuadratureNonConvergenceError: it is not spent by OMEGA_LIMIT.
    """
    value = coarse = 0.0
    summed = batches = evaluated = 0
    last = []  # (centre, width, share) of the last two summed panels
    alone = False  # a batch raised: one panel a batch from here on
    stop = panels or FIRST_BATCH + 1
    while True:
        first = panels or (FIRST_BATCH if summed == 0 else 1)
        nodes, half = _panels(summed, stop)
        batches, evaluated = batches + 1, evaluated + nodes.size
        try:
            vals = np.asarray(f(nodes.ravel() + 1j * damping), dtype=complex)
        except ThreeHalvesError:
            if stop - summed == first:
                raise
            alone, stop = True, summed + first
            continue
        vals = vals.reshape(vals.shape[:-1] + nodes.shape)
        i = 0
        for n in [first] + [1] * (stop - summed - first):
            part = vals[..., i:i + n, :]
            if not np.all(np.isfinite(part)):
                raise ThreeHalvesError(
                    f"omega integrand is not finite on omega_R in "
                    f"[{nodes[i, 0]:g}, {nodes[i + n - 1, -1]:g}]")
            fine, rough, tail = _panel_sums(part.real,
                                            scale * half[i:i + n])
            value = value + fine
            coarse = coarse + rough
            i, summed = i + n, summed + n
            cutoff = float(nodes[i - 1, -1])
            h = float(half[i - 1, 0])
            last = last[-1:] + [(cutoff - h, 2.0 * h, tail)]
            thresh = np.maximum(cfg.abs_tol,
                                cfg.rel_tol * np.abs(base + value))
            if panels or np.all(tail <= thresh):
                return value, np.abs(value - coarse), {
                    "omega_panels": summed,
                    "omega_nodes": summed * PANEL_NODES,
                    "omega_cutoff": cutoff, "omega_tail": tail,
                    "omega_batches": batches, "omega_evaluated": evaluated}
        left = int((OMEGA_LIMIT - cutoff) // MAX_PANEL)
        if left < 1:
            raise QuadratureNonConvergenceError(
                f"omega integrand is not spent by omega_R = {cutoff:g}: "
                f"its last panel still contributes {np.max(tail):.3e}")
        stop = summed + (1 if alone else max(1, min(
            _panels_to_spend(last, thresh), summed // 2, left)))


def fourier_invert_1d(cf: Callable, payoff_transform: Callable,
                      cfg: QuadratureConfig, damping: float):
    """(1/2pi) int payoff_transform(w) cf(w) dw_R along the payoff's
    contour Im(w) = damping, by the omega rule.

    The integrand may be a vector: ``payoff_transform`` (or ``cf``) may
    return leading axes before the points' axis, one integral per leading
    index (the European bases of several strikes at one maturity, a row
    per strike, on one omega grid that runs until every row is spent).
    Each result must be real: the integrand at -conj(w) is the conjugate
    of the integrand at w, so only the right half-axis is evaluated.
    Returns (value, diagnostics); the diagnostics hold the err_estimate
    and those of ``omega_integral``: the nodes summed, the cutoff the rule
    measured, the last panel's share, and the batches and nodes the
    integrand was evaluated in (the first batch runs to omega_R = 55.75,
    so ``omega_evaluated`` may pass ``omega_nodes``).  The value,
    err_estimate and last panel's share are floats for a scalar integrand
    and arrays of its leading shape otherwise.
    """
    value, err, diag = omega_integral(
        lambda w: np.asarray(payoff_transform(w), dtype=complex) * cf(w),
        cfg, damping, 1.0 / math.pi)  # folding doubles the half-axis integral

    def real(x):
        return float(x) if np.ndim(x) == 0 else x
    diag.update(err_estimate=real(err), omega_tail=real(diag["omega_tail"]),
                damping=damping)
    return real(value), diag
