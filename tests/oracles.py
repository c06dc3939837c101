"""Reference routes that only the tests use: the paper's second derivation
of the partial transform g (its probabilistic factorization), an adaptive
v' integral, the paper's two-date joint characteristic function built on
it, the swaps' g1 tabulated per element, the omega rule summed one
panel per batch and a full-truncation Euler scheme for the log price.

They share no quadrature with the pricers, whose v' rules are fixed
trapezoids: the timer's from ``quadrature.log_density_grid``, the swaps'
lattices from ``pricers._transition_grid``.  The factorization shares no
algebra with the closed form beyond the Bessel kernel, so agreement
between the two is a check on both.
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
from three_halves.model import coef_A, coef_C
from three_halves.quadrature import (
    FIRST_BATCH,
    MAX_PANEL,
    OMEGA_LIMIT,
    QuadratureConfig,
    _panel_sums,
    _panels,
)

_SCAN_LO, _SCAN_HI = -46.0, 46.0  # v' from ~1e-20 to ~1e20
MAX_REFINEMENTS = 12  # doublings of the adaptive v' integral


# ---------------------------------------------------------------------------
# The probabilistic factorization of g (the paper's second derivation).
# ---------------------------------------------------------------------------


def _log_bessel(nu, z):
    """log I_nu(z) at one point, from the package's kernel."""
    return specfun._split_log(*specfun._log_bessel_i_vec(nu, z))[0]


def cir_transition_density_u(t: float, u: float, t_prime: float,
                             u_prime: float, params) -> float:
    """Transition density of U = 1/V, an inhomogeneous CIR process.

    p_U(u'|u) = (A/C) exp(-(A u' + u)/C) (A u'/u)^{1/2 + kappa/eps^2}
                I_{1 + 2 kappa/eps^2}((2/C) sqrt(A u u')).

    Related to the V-density by p_V(v'|v) = (1/v'^2) p_U(1/v' | 1/v).
    """
    tr._require_dt(t, t_prime)
    if u <= 0.0 or u_prime <= 0.0:
        raise ThreeHalvesError("CIR state must be positive")
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    order = 1.0 + 2.0 * params.kappa / params.eps2
    z = (2.0 / C) * np.sqrt(A * u * u_prime)
    log_p = (np.log(A) - np.log(C) - (A * u_prime + u) / C
             + (0.5 + params.kappa / params.eps2)
             * (np.log(A) + np.log(u_prime) - np.log(u))
             + _log_bessel(order, z))
    return float(np.exp(log_p).real)


def conditional_cf_integrated_variance(xi: complex, t: float, t_prime: float,
                                       v: float, v_prime: float,
                                       params) -> complex:
    """CF of int_t^{t'} V ds conditional on both variance endpoints.

    A ratio of Bessel functions sharing one argument; both are evaluated in
    log space so the (huge) shared exponential scale cancels analytically:

        I_nuhat(z) / I_b1(z),  nuhat = sqrt((1 + 2k/e^2)^2 - 8 i xi / e^2),
        b1 = 1 + 2 kappa/eps^2,  z = (2/C) sqrt(A/(v v')).
    """
    tr._require_dt(t, t_prime)
    if v <= 0.0 or v_prime <= 0.0:
        raise ThreeHalvesError("variance endpoints must be positive")
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    b1 = 1.0 + 2.0 * params.kappa / params.eps2
    nuhat = np.sqrt(complex(b1 * b1) - 8j * complex(xi) / params.eps2)
    z = (2.0 / C) * math.sqrt(A / (v * v_prime))
    return complex(np.exp(_log_bessel(nuhat, z) - _log_bessel(b1, z)))


def xi_for_factorization(omega, eta, params):
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
                                   omega: complex, eta: complex,
                                   v_prime: float, params) -> complex:
    """g at one point, assembled from its probabilistic factorization.

    Product of (i) the deterministic prefactor of the rewritten dynamics,
    (ii) the conditional CF of integrated variance at the mapped xi, and
    (iii) the V-transition density.  Agrees with the closed form
    (``transforms._log_g_vec``) pointwise; only meaningful without jumps
    (the factorization rewrites the pure diffusion dynamics).
    """
    if params.jumps is not None and params.jumps.lam > 0.0:
        raise ThreeHalvesError("factorized route is defined for the no-jump model")
    om, et = complex(omega), complex(eta)
    dt = tr._require_dt(t, t_prime)
    A = coef_A(params.theta, t, t_prime)
    pref = np.exp(1j * om * (params.r - params.q) * dt) * (
        v_prime / (A * v)) ** (1j * om * params.rho / params.epsilon)
    cf = conditional_cf_integrated_variance(
        xi_for_factorization(om, et, params), t, t_prime, v, v_prime, params)
    dens = np.exp(tr._log_density_v_vec(t, v, t_prime, v_prime, params))
    return complex(pref * cf * dens[0])


def g1_tabulated(params, t_km1, v, omega):
    """g1(0, V0; t_{k-1}, omega, 0, v) per omega (rows) and period-grid
    node, each node with its own date t_{k-1}, by the route that takes
    g's value per element: e^E S from ``_log_g_vec`` in split form.  1 at
    a node from t_{k-1} = 0 (the Dirac mass at V0).  The swaps contract g1
    from its row and column factors (``pricers._g1_contract``) instead."""
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    table = np.ones((omega.size, np.size(v)), dtype=complex)
    live = t_km1 > 0.0
    if np.any(live):
        table[:, live] = specfun._split_exp(*tr._log_g_vec(
            0.0, params.v0, t_km1[live], omega[:, None], 0.0, v[live],
            params))
    return table


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
        f"within {MAX_REFINEMENTS} doublings")


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
        return complex(pref * np.exp(tr._log_h_vec(t, v, t1, w1 + w2,
                                                   e1 + e2, params)[0]))

    def integrand(vp):
        lg = specfun._split_log(*tr._log_g_vec(t, v, t1, w1 + w2, e1 + e2,
                                               vp, params))
        return np.exp(lg + tr._log_h_vec(t1, vp, t2, w2, e2, params))

    value, _err = integrate_semi_infinite(integrand, cfg)
    return complex(pref * value)


def omega_integral_panel_by_panel(f: Callable, cfg: QuadratureConfig,
                                  damping: float, scale: float, base=0.0):
    """``quadrature.omega_integral`` with its batches as they were first
    written: the doubling panels in one call of ``f``, then one call per
    panel, each tested as it is summed.  It evaluates no panel it does not
    sum, so the larger batches of ``omega_integral`` must stop at the same
    panel with the same sums.  Returns (value, err_estimate, diagnostics)
    with the panels summed, the cutoff and the last panel's share."""
    start, stop = 0, FIRST_BATCH
    value = coarse = 0.0
    while True:
        nodes, half = _panels(start, stop)
        vals = np.asarray(f(nodes.ravel() + 1j * damping), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ThreeHalvesError("omega integrand is not finite")
        re = vals.real.reshape(vals.shape[:-1] + nodes.shape)
        fine, rough, tail = _panel_sums(re, scale * half)
        value = value + fine
        coarse = coarse + rough
        if np.all(tail <= np.maximum(cfg.abs_tol,
                                     cfg.rel_tol * np.abs(base + value))):
            break
        if nodes[-1, -1] + MAX_PANEL > OMEGA_LIMIT:
            raise QuadratureNonConvergenceError("omega integrand is not spent")
        start, stop = stop, stop + 1
    return value, np.abs(value - coarse), {
        "omega_panels": stop, "omega_cutoff": float(nodes[-1, -1]),
        "omega_tail": tail}


# ---------------------------------------------------------------------------
# A second Monte Carlo scheme: full-truncation Euler in (X, V).
# ---------------------------------------------------------------------------


def euler_terminal_log_price(horizon: float, params, n_paths: int,
                             steps_per_year: int, seed: int) -> np.ndarray:
    """X_T per path by the full-truncation Euler scheme of the diffusion
    (no jumps), on round(steps_per_year T) equal steps:

        V+ = max(V, 0),
        X' = X + (r - q - V+/2) dt + sqrt(V+ dt) (rho Z1 + sqrt(1-rho^2) Z2),
        V' = V + V+ (theta(t) - kappa V+) dt + eps V+^{3/2} sqrt(dt) Z1.

    It shares no step with the package's exact sampler, whose
    noncentral chi-square transitions it checks to within its O(dt) bias.
    """
    if params.jumps is not None and params.jumps.lam > 0.0:
        raise ValueError("the Euler oracle simulates the diffusion only")
    rng = np.random.default_rng(seed)
    n_steps = max(1, round(steps_per_year * horizon))
    dt = horizon / n_steps
    sq1mr2 = math.sqrt(1.0 - params.rho**2)
    x = np.full(n_paths, params.x0)
    v = np.full(n_paths, params.v0)
    for s in range(n_steps):
        vp = np.maximum(v, 0.0)
        z1 = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        x = (x + (params.r - params.q - 0.5 * vp) * dt
             + np.sqrt(vp * dt) * (params.rho * z1 + sq1mr2 * z2))
        v = (v + vp * (params.theta.value_at(s * dt) - params.kappa * vp) * dt
             + params.epsilon * vp**1.5 * math.sqrt(dt) * z1)
    return x
