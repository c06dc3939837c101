"""Tests for model parameters, theta-curve coefficients, and the jump drift."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from three_halves.errors import (
    BranchCutWarning,
    CurveDomainError,
    InvalidParametersError,
)
from three_halves.model import (
    JumpParams,
    ModelParams,
    ThetaCurve,
    _drift_a_vec,
    coef_A,
    coef_C,
    validate,
)

mp.mp.dps = 30


def make_params(**over):
    base = dict(kappa=1.0, theta=1.0, epsilon=1.0, rho=0.0, r=0.0, q=0.0,
                s0=100.0, v0=0.04)
    base.update(over)
    return ModelParams.with_constant_theta(**base)


class TestValidate:
    def test_table_params_admissible(self, snp_params):
        assert validate(snp_params) == ()

    def test_inadmissible_combination(self):
        # kappa=0, rho=1, eps=1: 0 - 1 < -0.5
        params = make_params(kappa=0.0, rho=1.0, epsilon=1.0)
        violations = validate(params)
        assert len(violations) == 1
        assert "admissibility" in violations[0]

    def test_boundary_inside(self):
        # kappa=1, rho=0, eps=2: 1 >= -2
        assert validate(make_params(kappa=1.0, rho=0.0, epsilon=2.0)) == ()

    def test_multiple_violations_all_named(self):
        params = ModelParams.with_constant_theta(
            kappa=0.0, theta=1.0, epsilon=-1.0, rho=2.0, r=0.0, q=0.0,
            s0=-5.0, v0=-0.1)
        msgs = "\n".join(validate(params))
        for name in ("epsilon", "s0", "v0", "rho"):
            assert name in msgs

    def test_pure_predicate(self, snp_params):
        before = snp_params
        validate(snp_params)
        assert snp_params == before


class TestThetaCurve:
    def test_constant_curve_value(self):
        curve = ThetaCurve.constant(2.0)
        assert curve.value_at(0.0) == 2.0
        assert curve.value_at(123.0) == 2.0

    def test_bad_breakpoints(self):
        with pytest.raises(InvalidParametersError):
            ThetaCurve(breakpoints=(1.0, 0.5), values=(1.0, 2.0))
        with pytest.raises(InvalidParametersError):
            ThetaCurve(breakpoints=(1.0,), values=(1.0, 2.0))

    def test_domain_error(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(1.0, 3.0))
        with pytest.raises(CurveDomainError):
            curve.integral(0.5, 2.5)

    def test_integral_two_piece(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(1.0, 3.0))
        # int_{0.5}^{1.5} = 0.5*1 + 0.5*3 = 2
        assert curve.integral(0.5, 1.5) == pytest.approx(2.0, abs=1e-15)


class TestCoefA:
    def test_constant_closed_form(self):
        curve = ThetaCurve.constant(2.0)
        assert coef_A(curve, 0.0, 0.5) == pytest.approx(math.e, rel=1e-15)

    def test_zero_theta(self):
        curve = ThetaCurve.constant(0.0)
        assert coef_A(curve, 0.0, 7.3) == 1.0

    def test_identity_at_equal_times(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(1.0, 3.0))
        assert coef_A(curve, 0.7, 0.7) == 1.0

    def test_two_piece_against_quadrature_oracle(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(1.0, 3.0))
        got = coef_A(curve, 0.5, 1.5)
        # adaptive numeric integration oracle (mpmath)
        want = mp.e ** mp.quad(lambda s: 1 if s < 1 else 3, [0.5, 1.0, 1.5])
        assert abs(got - float(want)) <= 1e-12 * float(want)

    def test_monotone_in_t_prime(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(0.5, 2.0))
        vals = [coef_A(curve, 0.2, tp) for tp in np.linspace(0.2, 1.9, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCoefC:
    def test_zero_theta(self):
        curve = ThetaCurve.constant(0.0)
        assert coef_C(curve, 2.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_constant_closed_form(self):
        curve = ThetaCurve.constant(2.0)
        want = 0.5 * (math.e - 1.0) / 2.0
        assert coef_C(curve, 1.0, 0.0, 0.5) == pytest.approx(want, rel=1e-12)
        assert coef_C(curve, 1.0, 0.0, 0.5) == pytest.approx(0.4295704571, rel=1e-9)

    def test_zero_at_equal_times(self):
        curve = ThetaCurve.constant(2.0)
        assert coef_C(curve, 1.0, 0.3, 0.3) == 0.0

    def test_two_piece_against_nested_quadrature_oracle(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(1.0, 3.0))
        eps = 2.0
        got = coef_C(curve, eps, 0.5, 1.5)
        inner = lambda s: mp.quad(lambda u: 1 if u < 1 else 3,
                                  [0.5, min(s, 1.0), s] if s > 1 else [0.5, s])
        want = (eps**2 / 2) * mp.quad(lambda s: mp.e ** inner(s), [0.5, 1.0, 1.5])
        assert abs(got - float(want)) <= 1e-10 * float(want)

    def test_monotone_in_t_prime(self):
        curve = ThetaCurve(breakpoints=(1.0, 2.0), values=(0.5, 2.0))
        vals = [coef_C(curve, 1.3, 0.2, tp) for tp in np.linspace(0.2, 1.9, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCoefArrays:
    """coef_A and coef_C on arrays of (t, t') pairs, against a per-segment
    math.fsum oracle, on a three-segment theta(t) with a theta = 0
    segment."""

    CURVE = ThetaCurve(breakpoints=(0.5, 1.25, 2.0), values=(1.5, 0.0, -2.0))
    EPS = 1.7
    # inside one segment (twice), across one break, across two breaks,
    # and ending at the horizon (from inside the last segment and from 0)
    T = np.array([0.1, 0.6, 0.3, 0.2, 1.4, 0.0])
    T_PRIME = np.array([0.4, 1.1, 0.9, 1.7, 2.0, 2.0])

    def pieces(self, t, t_prime):
        """(length, theta) of each segment that [t, t'] overlaps."""
        out, left = [], 0.0
        for right, theta in zip(self.CURVE.breakpoints, self.CURVE.values):
            lo, hi = max(left, t), min(right, t_prime)
            if hi > lo:
                out.append((hi - lo, theta))
            left = right
        return out

    def oracle(self, t, t_prime):
        pieces = self.pieces(t, t_prime)
        A = math.exp(math.fsum(length * th for length, th in pieces))
        terms, before = [], []
        for length, th in pieces:
            piece = length if th == 0.0 else math.expm1(th * length) / th
            terms.append(math.exp(math.fsum(before)) * piece)
            before.append(th * length)
        return A, 0.5 * self.EPS**2 * math.fsum(terms)

    def test_against_the_fsum_oracle(self):
        assert [len(self.pieces(a, b)) for a, b in zip(self.T, self.T_PRIME)
                ] == [1, 1, 2, 3, 1, 3]
        A = coef_A(self.CURVE, self.T, self.T_PRIME)
        C = coef_C(self.CURVE, self.EPS, self.T, self.T_PRIME)
        assert A.shape == C.shape == self.T.shape
        for a, b, got_A, got_C in zip(self.T, self.T_PRIME, A, C):
            want_A, want_C = self.oracle(a, b)
            assert got_A == pytest.approx(want_A, rel=1e-14, abs=0.0)
            assert got_C == pytest.approx(want_C, rel=1e-14, abs=0.0)

    def test_each_pair_as_its_scalar_call(self):
        # one implementation: an array's elements are its scalar calls
        # bit for bit, whatever the shape they broadcast to
        t, t_prime = self.T[:, None], self.T_PRIME[:, None]
        A = coef_A(self.CURVE, t, t_prime)
        C = coef_C(self.CURVE, self.EPS, t, t_prime)
        assert A.shape == C.shape == (self.T.size, 1)
        for a, b, got_A, got_C in zip(self.T, self.T_PRIME, A[:, 0],
                                      C[:, 0]):
            assert got_A == coef_A(self.CURVE, a, b)
            assert got_C == coef_C(self.CURVE, self.EPS, a, b)

    def test_equal_times_exact(self):
        t = np.array([0.0, 0.3, 0.5, 1.25, 1.6, 2.0])
        assert np.all(coef_A(self.CURVE, t, t) == 1.0)
        assert np.all(coef_C(self.CURVE, self.EPS, t, t) == 0.0)
        assert not np.any(np.signbit(coef_C(self.CURVE, self.EPS, t, t)))

    def test_scalars_return_floats(self):
        for t, t_prime in [(0.2, 1.7), (np.float64(0.2), np.float64(1.7)),
                           (np.array(0.2), np.array(1.7)), (0.7, 0.7)]:
            assert type(coef_A(self.CURVE, t, t_prime)) is float
            assert type(coef_C(self.CURVE, self.EPS, t, t_prime)) is float
            assert type(self.CURVE.integral(t, t_prime)) is float

    @pytest.mark.parametrize("t,t_prime,what", [
        ([0.1, 0.9, 0.3], [0.4, 0.8, 0.9], r"t_prime < t at \[0.9, 0.8\]"),
        ([0.1, 0.2, 0.3], [0.4, 2.5, 0.9], r"\[0.2, 2.5\] exceeds"),
        ([0.1, -0.2, 0.3], [0.4, 0.5, 0.9], r"\[-0.2, 0.5\] exceeds"),
    ])
    def test_one_bad_pair_raises(self, t, t_prime, what):
        for coef in (lambda a, b: coef_A(self.CURVE, a, b),
                     lambda a, b: coef_C(self.CURVE, self.EPS, a, b)):
            with pytest.raises(CurveDomainError, match=what):
                coef(np.array(t), np.array(t_prime))


class TestDriftA:
    def test_zero_point(self, snp_params):
        assert _drift_a_vec(0.0, 0.0, snp_params) == 0.0

    def test_no_jump_value(self, snp_params):
        assert _drift_a_vec(1.0, 0.0, snp_params) == pytest.approx(0.015j, abs=1e-16)

    def test_lambda_zero_equals_no_jumps(self, snp_params):
        with_zero = ModelParams.with_constant_theta(
            kappa=22.84, theta=4.979, epsilon=8.56, v0=0.060025, rho=-0.99,
            s0=100.0, r=0.015, q=0.0, jumps=JumpParams(lam=0.0, mu=-0.1, sigma=0.2))
        for om, et in [(1.0, 0.0), (2.0 - 1.5j, 0.3 + 0.5j)]:
            assert _drift_a_vec(om, et, with_zero) == _drift_a_vec(om, et, snp_params)

    def test_jump_drift_against_quadrature_oracle(self, jump_params):
        # lam * E[e^{i om J + i eta J^2} - 1] via Gauss-Hermite over the
        # normal jump density, plus the compensator part.
        jp = jump_params.jumps
        nodes, weights = np.polynomial.hermite_e.hermegauss(120)
        xs = jp.mu + jp.sigma * nodes
        w = weights / np.sqrt(2.0 * np.pi)
        for om, et in [(1.0, 0.0), (0.7, 1.3), (2.0 - 1.5j, 0.4 + 0.5j)]:
            cf = np.sum(w * np.exp(1j * om * xs + 1j * et * xs * xs))
            want = (
                1j * om * (jump_params.r - jump_params.q - jp.lam * jp.compensator)
                + jp.lam * (cf - 1.0)
            )
            got = _drift_a_vec(om, et, jump_params)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_frozen_oracle_value(self, jump_params):
        want = complex(-0.012349118629891832, 0.004513535532231361)
        assert abs(_drift_a_vec(1.0, 0.0, jump_params) - want) < 1e-15

    @staticmethod
    def eta_at(w, jump_params):
        """The eta with w = 1 - 2 i eta sigma_J^2."""
        return (1.0 - w) / (2j * jump_params.jumps.sigma**2)

    @pytest.mark.parametrize("w", [-1.0, -1.0 + 1e-12j])
    def test_on_or_next_to_the_cut_warns(self, jump_params, w):
        # sqrt(w) is discontinuous across w in (-inf, 0]; a point there,
        # or within rounding of it, may sit on either sheet.
        with pytest.warns(BranchCutWarning):
            _drift_a_vec(0.5 - 1.5j, self.eta_at(w, jump_params), jump_params)

    def test_left_of_the_origin_off_the_cut_is_silent(self, jump_params):
        # Re(w) < 0 but well off the cut, where a Talbot contour passes as
        # it wraps the cut: the principal root is continuous there.
        with warnings.catch_warnings():
            warnings.simplefilter("error", BranchCutWarning)
            _drift_a_vec(0.5 - 1.5j, self.eta_at(-1.0 + 0.5j, jump_params),
                    jump_params)
