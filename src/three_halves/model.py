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
``coef_A`` and ``coef_C`` take arrays of (t, t') pairs (a float for
scalars): a swap's periods or a timer's dates are one call each, the
curve's segments on one more axis.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import BranchCutWarning, CurveDomainError, InvalidParametersError


def _check_fields(obj, positive=(), finite=(), integers=None, more=()):
    """Raise InvalidParametersError naming every field of ``obj`` in
    ``positive`` that is not finite and > 0, in ``finite`` that is not
    finite, or in ``integers`` (name: least, most) that is not an integer
    in its range (NaN, inf and 2.0 fail), and every violation in ``more``:
    each parameter object checks itself so at construction."""
    integers = integers or {}
    bad = []
    for name in (*positive, *finite, *integers):
        x = getattr(obj, name)
        if name in integers:
            least, most = integers[name]
            ok = isinstance(x, numbers.Integral) and least <= x <= most
        else:
            ok = math.isfinite(x) and (name in finite or x > 0.0)
        if not ok:
            bad.append(f"invalid {name}: {x!r}")
    bad += more
    if bad:
        raise InvalidParametersError(
            f"{type(obj).__name__}: " + "; ".join(bad))


@dataclass(frozen=True)
class ThetaCurve:
    """Piecewise-constant deterministic mean-reversion level theta_t.

    ``breakpoints`` are the right edges of the segments (strictly
    increasing and finite; the last one is the domain horizon and may be
    ``inf``);
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
        # negated, so that NaN fails; an inf but the last fails too
        if not (bps[0] > 0.0
                and all(b1 < b2 for b1, b2 in zip(bps, bps[1:]))):
            raise InvalidParametersError(
                "ThetaCurve breakpoints must be increasing from above 0 "
                f"and finite but the last: {bps}")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParametersError("ThetaCurve values must be finite")

    @classmethod
    def constant(cls, theta: float) -> "ThetaCurve":
        return cls(breakpoints=(math.inf,), values=(float(theta),))

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

    @cached_property
    def _arrays(self):
        """The segments' left and right edges and values, as arrays."""
        right = np.array(self.breakpoints)
        left = np.concatenate([[0.0], right[:-1]])
        return left, right, np.array(self.values)

    def _lengths(self, t, t_prime):
        """The length of [t, t'] inside each segment, the segments on a new
        last axis (0 where they miss it), for arrays ``t`` and ``t_prime``
        that broadcast; every pair must lie in the domain with t <= t'."""
        t = np.asarray(t, dtype=float)[..., None]
        t_prime = np.asarray(t_prime, dtype=float)[..., None]
        bad = (t_prime < t) | (t < 0.0) | (t_prime > self.horizon)
        if bad.any():
            a, b = (np.broadcast_to(x, bad.shape)[bad][0]
                    for x in (t, t_prime))
            raise CurveDomainError(
                f"t_prime < t at [{a}, {b}]" if b < a else
                f"[{a}, {b}] exceeds curve domain [0, {self.horizon}]")
        left, right, _ = self._arrays
        return np.maximum(np.minimum(right, t_prime) - np.maximum(left, t),
                          0.0)

    def integral(self, t, t_prime):
        """int_t^{t'} theta_s ds, exact per segment and summed over the
        segments, per pair of the broadcast arrays ``t`` and ``t_prime``;
        a float for scalars."""
        return _float_if_scalar(
            (self._lengths(t, t_prime) * self._arrays[2]).sum(axis=-1))


def _float_if_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class JumpParams:
    """Compound-Poisson lognormal jumps appended to the asset price."""

    lam: float
    mu: float
    sigma: float

    def __post_init__(self):
        _check_fields(self, finite=("lam", "mu", "sigma"), more=[
            f"{name} must be >= 0" for name in ("lam", "sigma")
            if getattr(self, name) < 0.0])

    @property
    def compensator(self) -> float:
        """vartheta = E[e^J - 1]."""
        return math.exp(self.mu + 0.5 * self.sigma**2) - 1.0


@dataclass(frozen=True)
class ModelParams:
    """Parameter set of the 3/2 model (optionally with jumps), checked at
    construction: kappa, r and q finite, epsilon, s0 and v0 finite and
    > 0, rho in [-1, 1], and the admissibility constraint
    kappa - rho*eps >= -eps^2/2, which guarantees non-explosion of V and
    the martingale property of the discounted price."""

    kappa: float
    epsilon: float
    rho: float
    r: float
    q: float
    s0: float
    v0: float
    theta: ThetaCurve
    jumps: Optional[JumpParams] = None

    def __post_init__(self):
        more = ([] if -1.0 <= self.rho <= 1.0
                else [f"rho must lie in [-1, 1] (got {self.rho!r})"])
        if self.kappa - self.rho * self.epsilon + 0.5 * self.eps2 < 0.0:
            more.append(
                "admissibility violated: kappa - rho*eps >= -eps^2/2 fails "
                f"({self.kappa} - {self.rho}*{self.epsilon} < "
                f"{-0.5 * self.eps2})")
        _check_fields(self, ("epsilon", "s0", "v0"), ("kappa", "r", "q"),
                      more=more)

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


def coef_A(theta: ThetaCurve, t, t_prime):
    """A(t, t') = exp(int_t^{t'} theta_s ds) per pair of the broadcast
    arrays ``t`` and ``t_prime`` (a float for scalars); A(t, t) = 1
    exactly."""
    return _float_if_scalar(np.exp(theta.integral(t, t_prime)))


def coef_C(theta: ThetaCurve, epsilon: float, t, t_prime):
    """C(t, t') = (eps^2/2) int_t^{t'} exp(int_t^s theta) ds, exact per
    segment, per pair of the broadcast arrays ``t`` and ``t_prime`` (a
    float for scalars).

    For a constant theta != 0 this is (eps^2/2) (e^{theta d} - 1) / theta;
    for theta == 0 it is eps^2 d / 2.  Piecewise curves compose the segment
    closed forms, each weighted by e^{int theta} over the segments before
    it; a segment that misses [t, t'] adds exactly 0, so C(t, t) = 0
    exactly.
    """
    length = theta._lengths(t, t_prime)
    th = theta._arrays[2]
    rise = th * length
    piece = np.divide(np.expm1(rise), th, out=length.copy(), where=th != 0.0)
    before = np.zeros_like(rise)  # int theta over the segments before
    np.cumsum(rise[..., :-1], axis=-1, out=before[..., 1:])
    return _float_if_scalar(
        0.5 * epsilon * epsilon * (np.exp(before) * piece).sum(axis=-1))


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
    """Drift coefficient a(omega, eta) of the partial transform, with numpy
    broadcasting over complex ``omega`` and ``eta``.

    Without jumps: a = i omega (r - q).  With compound-Poisson lognormal
    jumps the drift is corrected by the compensator and the joint jump
    transform E[e^{i omega J + i eta J^2}]:

        a = i omega (r - q - lam*vartheta)
            + lam * exp[(2 i mu (omega + eta mu) - omega^2 sigma^2)
                        / (2 (1 - 2 i eta sigma^2))] / sqrt(1 - 2 i eta sigma^2)
            - lam
    """
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
