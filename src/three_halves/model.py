"""Model parameters, admissibility checks, and time-dependence coefficients.

The 3/2 dynamics are

    dS/S = (r - q) dt + sqrt(V) (rho dW1 + sqrt(1-rho^2) dW2)
    dV   = V (theta_t - kappa V) dt + eps V^{3/2} dW1

with a deterministic, piecewise-constant mean-reversion level theta_t.
Restricting theta_t to piecewise-constant curves keeps the two
time-dependence coefficients

    A(t, t') = exp(int_t^{t'} theta_s ds)
    C(t, t') = (eps^2 / 2) int_t^{t'} exp(int_t^s theta) ds

in exact closed form per segment, which every transform formula relies on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BranchCutWarning, CurveDomainError, InvalidParametersError


@dataclass(frozen=True)
class ThetaCurve:
    """Piecewise-constant deterministic mean-reversion level theta_t.

    ``breakpoints`` are the right edges of the segments (strictly
    increasing; the last one is the domain horizon and may be ``inf``);
    ``values[i]`` applies on ``[breakpoints[i-1], breakpoints[i])`` with the
    first segment starting at 0.  A constant curve is the single-segment
    case.
    """

    breakpoints: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) or not bps:
            raise InvalidParametersError(
                "ThetaCurve needs one value per segment and at least one segment"
            )
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or bps[0] <= 0.0:
            raise InvalidParametersError("ThetaCurve breakpoints must be increasing")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParametersError("ThetaCurve values must be finite")

    @classmethod
    def constant(cls, theta: float, horizon: float = math.inf) -> "ThetaCurve":
        return cls(breakpoints=(horizon,), values=(float(theta),))

    @property
    def horizon(self) -> float:
        return self.breakpoints[-1]

    def value_at(self, t: float) -> float:
        if t < 0.0 or t > self.horizon:
            raise CurveDomainError(f"t={t} outside curve domain [0, {self.horizon}]")
        for b, v in zip(self.breakpoints, self.values):
            if t < b:
                return v
        return self.values[-1]

    def _segments(self, t: float, t_prime: float):
        """Yield (length, theta) pieces covering [t, t_prime]."""
        if t_prime < t:
            raise CurveDomainError("t_prime < t")
        if t < 0.0 or t_prime > self.horizon:
            raise CurveDomainError(
                f"[{t}, {t_prime}] exceeds curve domain [0, {self.horizon}]"
            )
        lo = t
        for b, v in zip(self.breakpoints, self.values):
            if lo >= t_prime:
                break
            if lo < b:
                hi = min(b, t_prime)
                yield hi - lo, v
                lo = hi

    def integral(self, t: float, t_prime: float) -> float:
        """Exact int_t^{t'} theta_s ds."""
        return math.fsum(length * v for length, v in self._segments(t, t_prime))


@dataclass(frozen=True)
class JumpParams:
    """Compound-Poisson lognormal jumps appended to the asset price."""

    lam: float
    mu: float
    sigma: float

    def __post_init__(self):
        if self.lam < 0.0 or self.sigma < 0.0:
            raise InvalidParametersError("jump intensity and size std must be >= 0")

    @property
    def compensator(self) -> float:
        """vartheta = E[e^J - 1]."""
        return math.exp(self.mu + 0.5 * self.sigma**2) - 1.0


@dataclass(frozen=True)
class ModelParams:
    """Parameter set of the 3/2 model (optionally with jumps)."""

    kappa: float
    epsilon: float
    rho: float
    r: float
    q: float
    s0: float
    v0: float
    theta: ThetaCurve
    jumps: Optional[JumpParams] = None

    @classmethod
    def with_constant_theta(cls, kappa, theta, epsilon, rho, r, q, s0, v0,
                            jumps=None) -> "ModelParams":
        return cls(kappa=kappa, epsilon=epsilon, rho=rho, r=r, q=q, s0=s0,
                   v0=v0, theta=ThetaCurve.constant(theta), jumps=jumps)

    @property
    def eps2(self) -> float:
        return self.epsilon * self.epsilon

    @property
    def x0(self) -> float:
        return math.log(self.s0)


def validate(params: ModelParams) -> Tuple[str, ...]:
    """Check every structural constraint; returns the violations (empty = ok).

    The admissibility constraint kappa - rho*eps >= -eps^2/2 guarantees
    non-explosion of V and the martingale property of the discounted price.
    """
    v = []
    if not params.epsilon > 0.0:
        v.append(f"epsilon must be > 0 (got {params.epsilon})")
    if not params.s0 > 0.0:
        v.append(f"s0 must be > 0 (got {params.s0})")
    if not params.v0 > 0.0:
        v.append(f"v0 must be > 0 (got {params.v0})")
    if not -1.0 <= params.rho <= 1.0:
        v.append(f"rho must lie in [-1, 1] (got {params.rho})")
    if params.epsilon > 0.0:
        slack = params.kappa - params.rho * params.epsilon + 0.5 * params.eps2
        if slack < 0.0:
            v.append(
                "admissibility violated: kappa - rho*eps >= -eps^2/2 fails "
                f"({params.kappa} - {params.rho}*{params.epsilon} < "
                f"{-0.5 * params.eps2})"
            )
    return tuple(v)


def require_valid(params: ModelParams) -> None:
    violations = validate(params)
    if violations:
        raise InvalidParametersError(
            "invalid model parameters: " + "; ".join(violations),
            violations=violations,
        )


def coef_A(theta: ThetaCurve, t: float, t_prime: float) -> float:
    """A(t, t') = exp(int_t^{t'} theta_s ds); A(t, t) = 1 exactly."""
    if t_prime == t:
        return 1.0
    return math.exp(theta.integral(t, t_prime))


def coef_C(theta: ThetaCurve, epsilon: float, t: float, t_prime: float) -> float:
    """C(t, t') = (eps^2/2) int_t^{t'} exp(int_t^s theta) ds, exact per segment.

    For a constant theta != 0 this is (eps^2/2) (e^{theta d} - 1) / theta;
    for theta == 0 it is eps^2 d / 2.  Piecewise curves compose the segment
    closed forms.  C(t, t) = 0 exactly.
    """
    if t_prime == t:
        return 0.0
    acc = 0.0
    theta_so_far = 0.0
    for length, th in theta._segments(t, t_prime):
        if th == 0.0:
            piece = length
        else:
            piece = math.expm1(th * length) / th
        acc += math.exp(theta_so_far) * piece
        theta_so_far += th * length
    return 0.5 * epsilon * epsilon * acc


# A jump-transform point this close to the cut of sqrt(w), relative to |w|,
# could land on either side of it under rounding of eta.
_CUT_REL_TOL = 1e-8


def _jump_exponent(omega, eta, jp: JumpParams):
    """(num / (2 w), w) with E[e^{i omega J + i eta J^2}] = e^{num/(2w)}/sqrt(w),
    w = 1 - 2 i eta sigma^2; singular at w = 0 (s = -i eta = -1/(2 sigma^2))."""
    sig2 = jp.sigma * jp.sigma
    w = 1.0 - 2j * eta * sig2
    num = 2j * jp.mu * (omega + eta * jp.mu) - omega * omega * sig2
    return num / (2.0 * w), w


def _drift_a_vec(omega, eta, params: ModelParams):
    """Vectorized drift coefficient; omega/eta may be complex ndarrays."""
    omega = np.asarray(omega, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    jp = params.jumps
    if jp is None or jp.lam == 0.0:
        # lam == 0 agrees exactly with the no-jump value
        return 1j * omega * (params.r - params.q)
    expo, w = _jump_exponent(omega, eta, jp)
    if np.any((w.real <= 0.0) & (np.abs(w.imag) <= _CUT_REL_TOL * np.abs(w))):
        warnings.warn(
            "sqrt(1 - 2 i eta sigma^2) evaluated on or next to its branch "
            "cut w <= 0; the jump transform is discontinuous there",
            BranchCutWarning,
            stacklevel=2,
        )
    jump_cf = np.exp(expo) / np.sqrt(w)
    return (
        1j * omega * (params.r - params.q - jp.lam * jp.compensator)
        + jp.lam * jump_cf
        - jp.lam
    )


def drift_a(omega: complex, eta: complex, params: ModelParams) -> complex:
    """Drift coefficient a(omega, eta) of the partial transform.

    Without jumps: a = i omega (r - q).  With compound-Poisson lognormal
    jumps the drift is corrected by the compensator and the joint jump
    transform E[e^{i omega J + i eta J^2}]:

        a = i omega (r - q - lam*vartheta)
            + lam * exp[(2 i mu (omega + eta mu) - omega^2 sigma^2)
                        / (2 (1 - 2 i eta sigma^2))] / sqrt(1 - 2 i eta sigma^2)
            - lam
    """
    return complex(_drift_a_vec(complex(omega), complex(eta), params))
