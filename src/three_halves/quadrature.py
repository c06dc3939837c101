"""Numerical integration: semi-infinite variance integrals, damped-contour
Fourier inversion, and the two-dimensional Parseval integral.

Conventions
-----------
* Semi-infinite integrals over v' in (0, inf) are computed after the log
  substitution v' = e^u, which flattens both the essential singularity
  exp(-const/v') at the origin and the power-law tail; the mapped integrand
  is handled by a doubling trapezoid rule.
* Fourier inversions run along damped contours (fixed imaginary part) with
  conjugate folding when the result is known to be real.
* The 2-D Parseval rule is a tensor product of graded Clenshaw-Curtis
  panels per axis (nested, so the half-order result is a free error
  estimate), with per-axis truncation diagnostics.
* Final reductions use math.fsum (an error-free transformation), so results
  are independent of summation order.

Default numeric controls live on :class:`QuadratureConfig`; every default is
overridable per product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
    TruncationWarning,
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Numeric controls for every integral in the package.

    Contour constraints for the timer payoff transform (damping_omega < -1,
    damping_eta > 0) are enforced at the point of use.
    """

    v_nodes: int = 64
    v_upper_mass_tol: float = 1e-9
    fourier_nodes: int = 4096
    fourier_truncation: float = 200.0
    damping_omega: float = -1.5
    damping_eta: float = 0.5
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    # Per-product overrides for the 2-D timer integral.  Axes are covered by
    # Clenshaw-Curtis panels whose widths double away from the origin (where
    # the eta payoff pole and the CF peak live) up to a cap.
    timer_omega_truncation: float = 120.0
    timer_eta_truncation: float = 240.0
    timer_panel_nodes: int = 13
    timer_first_panel: float = 0.25
    timer_max_panel_omega: float = 24.0
    timer_max_panel_eta: float = 16.0
    timerlet_nodes: int = 16
    timer_contour: str = "auto"  # direct | complement | auto
    max_refinements: int = 12

    def __post_init__(self):
        problems = []
        for name in ("v_nodes", "fourier_nodes", "timer_panel_nodes"):
            if getattr(self, name) < 8:
                problems.append(f"{name} must be >= 8")
        for name in ("v_upper_mass_tol", "rel_tol", "abs_tol",
                     "fourier_truncation", "timer_omega_truncation",
                     "timer_eta_truncation", "timer_first_panel",
                     "timer_max_panel_omega", "timer_max_panel_eta"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be > 0")
        if self.timer_contour not in ("direct", "complement", "auto"):
            problems.append("timer_contour must be direct|complement|auto")
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
        if not self.damping_eta > 0.0:
            raise InvalidParametersError(
                f"timer payoff transform needs damping_eta > 0 "
                f"(got {self.damping_eta})"
            )


def stable_sum(values) -> float:
    """Order-insensitive compensated sum of real values."""
    arr = np.asarray(values, dtype=float).ravel()
    return math.fsum(arr.tolist())


def stable_complex_sum(values) -> complex:
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
# 1-D damped-contour Fourier inversion.
# ---------------------------------------------------------------------------


def fourier_invert_1d(cf: Callable, payoff_transform: Callable,
                      cfg: QuadratureConfig,
                      damping: Optional[float] = None,
                      truncation: Optional[float] = None,
                      nodes: Optional[int] = None,
                      with_diagnostics: bool = False):
    """(1/2pi) int payoff_transform(w) cf(w) dw_R along a damped contour.

    Uses conjugate folding (the result must be real): the integrand at
    -conj(w) is the conjugate of the integrand at w, so only the right
    half-axis is evaluated.  The last decade of the truncated range is
    compared against abs_tol and a TruncationWarning carries the tail
    estimate if it is too large.
    """
    damp = cfg.damping_omega if damping is None else damping
    L = float(truncation or cfg.fourier_truncation)
    n = int(nodes or cfg.fourier_nodes)
    if n % 2:
        n += 1
    w_r = np.linspace(0.0, L, n + 1)
    w = w_r + 1j * damp
    vals = np.asarray(payoff_transform(w), dtype=complex) * np.asarray(
        cf(w), dtype=complex
    )
    h = L / n
    real_line = vals.real
    total = stable_sum(real_line[1:-1]) + 0.5 * (real_line[0] + real_line[-1])
    value = total * h / math.pi  # folding doubles the half-axis integral
    half = stable_sum(real_line[2:-2:2]) + 0.5 * (real_line[0] + real_line[-1])
    value_half = half * (2 * h) / math.pi
    err = abs(value - value_half)

    tail_n = max(n // 10, 2)
    tail = abs(stable_sum(real_line[-tail_n:]) * h / math.pi)
    if tail > cfg.abs_tol:
        warnings.warn(
            f"fourier_invert_1d truncation at |w_R|={L} leaves an estimated "
            f"tail of {tail:.3e} (> abs_tol={cfg.abs_tol})",
            TruncationWarning,
            stacklevel=2,
        )
    if with_diagnostics:
        return value, {"err_estimate": err, "tail_estimate": tail,
                       "nodes": n + 1, "truncation": L, "damping": damp}
    return value


# ---------------------------------------------------------------------------
# 2-D Parseval integral on graded Clenshaw-Curtis panels.
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


def _panel_edges(L: float, first: float, max_width: float):
    """Panel edges on [0, L]: widths double from ``first`` up to ``max_width``."""
    edges = [0.0]
    width = min(first, L)
    while edges[-1] < L:
        edges.append(min(edges[-1] + width, L))
        width = min(2.0 * width, max_width)
    return edges


def _graded_axis(L: float, first: float, max_width: float, panel_nodes: int,
                 two_sided: bool):
    """Panel grid on [0, L] (or mirrored to [-L, L]) graded toward 0.

    Returns (nodes, weights_fine, weights_coarse, outer_mask); the coarse
    weights use every second node per panel (nested CC), giving a free error
    estimate, and outer_mask flags the outermost panel(s) for truncation
    diagnostics.
    """
    m = panel_nodes - 1
    if m % 2:
        m += 1
    x_f, w_f = _cc_nodes_weights(m)
    x_c, w_c = _cc_nodes_weights(m // 2)
    edges = _panel_edges(L, first, max_width)
    npanels = len(edges) - 1
    nodes, wf, wc, outer = [], [], [], []
    sides = (1.0, -1.0) if two_sided else (1.0,)
    for sign in sides:
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            mid = 0.5 * (a + b) * sign
            halfw = 0.5 * (b - a)
            nodes.append(mid + sign * halfw * x_f)
            wf.append(np.full(m + 1, halfw) * w_f)
            coarse = np.zeros(m + 1)
            coarse[::2] = halfw * w_c
            wc.append(coarse)
            outer.append(np.full(m + 1, i == npanels - 1))
    return (np.concatenate(nodes), np.concatenate(wf), np.concatenate(wc),
            np.concatenate(outer))


@dataclass(frozen=True)
class ParsevalGrid:
    """Tensor node set for the 2-D Parseval rule (eta folded to eta_R >= 0)."""

    omega: np.ndarray
    eta: np.ndarray
    w_fine: np.ndarray
    w_coarse: np.ndarray
    e_fine: np.ndarray
    e_coarse: np.ndarray
    outer_w: np.ndarray
    outer_e: np.ndarray


def parseval_grid(cfg: QuadratureConfig,
                  omega_truncation: Optional[float] = None,
                  eta_truncation: Optional[float] = None,
                  damping_omega: Optional[float] = None,
                  damping_eta: Optional[float] = None,
                  first_panel: Optional[float] = None,
                  panel_nodes: Optional[int] = None) -> ParsevalGrid:
    Lw = float(omega_truncation or cfg.timer_omega_truncation)
    Le = float(eta_truncation or cfg.timer_eta_truncation)
    dw = cfg.damping_omega if damping_omega is None else damping_omega
    de = cfg.damping_eta if damping_eta is None else damping_eta
    first = float(first_panel or cfg.timer_first_panel)
    pnodes = int(panel_nodes or cfg.timer_panel_nodes)

    w_nodes, w_wf, w_wc, outer_w = _graded_axis(
        Lw, first, cfg.timer_max_panel_omega, pnodes, two_sided=True
    )
    e_nodes, e_wf, e_wc, outer_e = _graded_axis(
        Le, first, cfg.timer_max_panel_eta, pnodes, two_sided=False
    )
    # No node-sharing correction is needed at eta_R = 0: the fold doubles a
    # half-axis *panel* rule, whose boundary node keeps its natural weight.
    return ParsevalGrid(omega=w_nodes + 1j * dw, eta=e_nodes + 1j * de,
                        w_fine=w_wf, w_coarse=w_wc, e_fine=e_wf,
                        e_coarse=e_wc, outer_w=outer_w, outer_e=outer_e)


def parseval_contract(grid: ParsevalGrid, mat: np.ndarray,
                      cfg: QuadratureConfig) -> Tuple[float, float, dict]:
    """Contract an integrand matrix against the grid weights.

    Returns (value, error_estimate, diagnostics) as for parseval_double.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (grid.omega.size, grid.eta.size):
        raise ThreeHalvesError(
            f"integrand returned shape {mat.shape}, expected "
            f"{(grid.omega.size, grid.eta.size)}"
        )
    re = mat.real
    scale = 2.0 / (4.0 * math.pi**2)  # folding factor x Parseval prefactor
    fine = scale * stable_sum(np.outer(grid.w_fine, grid.e_fine) * re)
    coarse = scale * stable_sum(np.outer(grid.w_coarse, grid.e_coarse) * re)
    err = abs(fine - coarse)

    tail_w = abs(scale * stable_sum(
        np.outer(grid.w_fine[grid.outer_w], grid.e_fine)
        * re[grid.outer_w, :]))
    tail_e = abs(scale * stable_sum(
        np.outer(grid.w_fine, grid.e_fine[grid.outer_e])
        * re[:, grid.outer_e]))
    diagnostics = {
        "omega_tail": tail_w,
        "eta_tail": tail_e,
        "omega_nodes": grid.omega.size,
        "eta_nodes": grid.eta.size,
        "err_estimate": err,
    }
    for axis, tail in (("omega", tail_w), ("eta", tail_e)):
        if tail > max(cfg.abs_tol, 1e-6 * abs(fine)):
            warnings.warn(
                f"parseval rule {axis}-axis outermost panel contributes "
                f"{tail:.3e}; truncation may be insufficient",
                TruncationWarning,
                stacklevel=2,
            )
    return fine, err, diagnostics


def parseval_double(integrand: Callable, cfg: QuadratureConfig,
                    omega_truncation: Optional[float] = None,
                    eta_truncation: Optional[float] = None,
                    damping_omega: Optional[float] = None,
                    damping_eta: Optional[float] = None,
                    first_panel: Optional[float] = None,
                    panel_nodes: Optional[int] = None,
                    ) -> Tuple[float, float, dict]:
    """(1/4pi^2) double integral of ``integrand`` over shifted contours.

    ``integrand(omega, eta)`` receives the full omega node vector (complex,
    damped) and the eta node vector restricted to eta_R >= 0 (conjugate
    folding in the pair (omega_R, eta_R) -> (-omega_R, -eta_R) covers the
    other half; the result must be real), and returns an (n_omega, n_eta)
    complex matrix.

    Returns (value, error_estimate, diagnostics).  Error estimate comes from
    the nested half-order rule; per-axis truncation diagnostics report the
    outermost-panel contribution.
    """
    grid = parseval_grid(cfg, omega_truncation, eta_truncation, damping_omega,
                         damping_eta, first_panel, panel_nodes)
    mat = integrand(grid.omega, grid.eta)
    return parseval_contract(grid, mat, cfg)
