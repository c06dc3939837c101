"""Tests for the closed-form transform layer.

The two independent derivations of the partial transform (direct closed form
vs the probabilistic factorization) and the marginalization identity
``int g dv' = h`` are the package's primary formula-transcription checks.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from three_halves import specfun
from three_halves.errors import (DeltaRegimeError, SpecfunDomainError,
                                 ThreeHalvesError)
from three_halves.model import (JumpParams, ModelParams, _drift_a_vec,
                                coef_A, coef_C, validate)
from three_halves.quadrature import QuadratureConfig
from three_halves import transforms as tr

from oracles import bivariate_cf_phi, integrate_semi_infinite

CFG = QuadratureConfig()


class TestCoefficients:
    def test_zero_point_exact(self, snp_params):
        co = tr.coefficients(tr.TransformPoint(0.0, 0.0), snp_params, 0.0, 0.5)
        want = 0.5 + snp_params.kappa / snp_params.eps2
        assert co.c == pytest.approx(want, rel=1e-15)
        assert co.kappa_tilde == snp_params.kappa
        assert co.a == 0.0

    def test_real_eta_branch(self, snp_params):
        for x in (0.5, 2.0, 7.0):
            co = tr.coefficients(tr.TransformPoint(0.0, x), snp_params, 0.0, 0.5)
            b0 = 0.5 + snp_params.kappa / snp_params.eps2
            want = complex(np.sqrt(complex(b0 * b0, 0) - 2j * x / snp_params.eps2))
            assert co.c == pytest.approx(want, rel=1e-14)
            assert co.c.real > b0

    def test_squared_back_identity(self, snp_params):
        om, et = 3.0 - 1.5j, 2.0 + 0.5j
        co = tr.coefficients(tr.TransformPoint(om, et), snp_params, 0.0, 0.5)
        b0 = 0.5 + co.kappa_tilde / snp_params.eps2
        rhs = b0 * b0 + (1j * om + om * om - 2j * et) / snp_params.eps2
        assert abs(co.c * co.c - rhs) <= 1e-12 * abs(rhs)

    def test_branch_bound_on_real_grid(self, snp_params):
        b0 = 0.5 + snp_params.kappa / snp_params.eps2
        for om in np.linspace(-6, 6, 7):
            for et in np.linspace(-6, 6, 7):
                if om == 0 and et == 0:
                    continue
                co = tr.coefficients(tr.TransformPoint(om, et), snp_params,
                                     0.0, 0.5)
                assert co.c.real > b0 - 1e-12


class TestTransitionDensity:
    @pytest.mark.parametrize("dt", [0.1, 0.25, 0.5, 1.0])
    def test_normalizes(self, snp_params, dt):
        f = lambda vp: np.exp(
            tr._log_density_v_vec(0.0, snp_params.v0, dt, vp, snp_params))
        val, _ = integrate_semi_infinite(f, CFG)
        assert abs(val - 1.0) <= 1e-6

    def test_nonnegative(self, snp_params):
        for vp in np.geomspace(1e-4, 5.0, 40):
            assert tr.transition_density_v(0.0, snp_params.v0, 0.25, vp,
                                           snp_params) >= 0.0

    def test_equals_g_at_zero_point(self, snp_params):
        for vp in (0.01, 0.06, 0.3):
            d = tr.transition_density_v(0.0, snp_params.v0, 0.5, vp, snp_params)
            g = tr.partial_transform_g(0.0, snp_params.v0, 0.5,
                                       tr.TransformPoint(0.0, 0.0), vp,
                                       snp_params)
            assert abs(g - d) <= 1e-12 * abs(d)

    def test_reciprocal_cir_consistency(self, snp_params):
        # p_V(v'|v) = (1/v'^2) p_U(1/v' | 1/v) exactly (change of variables)
        v = snp_params.v0
        for vp in (0.02, 0.06, 0.2):
            lhs = tr.transition_density_v(0.0, v, 0.25, vp, snp_params)
            rhs = tr.cir_transition_density_u(0.0, 1.0 / v, 0.25, 1.0 / vp,
                                              snp_params) / vp**2
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_delta_regime_error(self, snp_params):
        with pytest.raises(DeltaRegimeError):
            tr.transition_density_v(0.0, 0.06, 1e-12, 0.06, snp_params)


class TestConditionalCF:
    def test_unity_at_zero(self, snp_params):
        val = tr.conditional_cf_integrated_variance(0.0, 0.0, 0.5, 0.06, 0.07,
                                                    snp_params)
        assert abs(val - 1.0) <= 1e-12

    def test_modulus_bound(self, snp_params):
        for xi in np.linspace(-40, 40, 50):
            val = tr.conditional_cf_integrated_variance(
                xi, 0.0, 0.5, snp_params.v0, snp_params.v0, snp_params)
            assert abs(val) <= 1.0 + 1e-10

    def test_small_time_step_overflow_safe(self, snp_params):
        # z = (2/C) sqrt(A/(v v')) is enormous here; the scaled ratio must
        # still be finite.
        val = tr.conditional_cf_integrated_variance(
            1.0, 0.0, 1.0 / 252.0, 0.01, 0.012, snp_params)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) <= 1.0 + 1e-10


class TestTwoDerivationConsistency:
    """g from the closed form vs g from the probabilistic factorization."""

    @pytest.mark.parametrize("dt", [0.1, 0.5, 1.0])
    def test_grid_agreement(self, snp_params, dt):
        v = vp = snp_params.v0
        for om in np.linspace(0.0, 4.0, 5):
            for et in np.linspace(0.0, 4.0, 5):
                point = tr.TransformPoint(om, et)
                direct = tr.partial_transform_g(0.0, v, dt, point, vp,
                                                snp_params)
                routed = tr.partial_transform_g_factorized(
                    0.0, v, dt, point, vp, snp_params)
                assert abs(direct - routed) <= 1e-8 * abs(direct), (om, et, dt)

    def test_complex_contour_agreement(self, snp_params):
        point = tr.TransformPoint(1.0 - 1.5j, 0.5 + 0.5j)
        direct = tr.partial_transform_g(0.0, 0.06, 0.5, point, 0.08, snp_params)
        routed = tr.partial_transform_g_factorized(0.0, 0.06, 0.5, point, 0.08,
                                                   snp_params)
        assert abs(direct - routed) <= 1e-8 * abs(direct)


class TestJointCF:
    def test_unity_at_zero_point(self, snp_params):
        val = tr.joint_cf_h(0.0, snp_params.v0, 0.5, tr.TransformPoint(0, 0),
                            snp_params)
        assert abs(val - 1.0) <= 1e-12

    def test_terminal_condition_exact(self, snp_params):
        val = tr.joint_cf_h(0.5, 0.08, 0.5, tr.TransformPoint(2.0, 1.0),
                            snp_params)
        assert val == 1.0

    def test_cf_modulus_bound(self, snp_params):
        for om in np.linspace(-5, 5, 9):
            for et in np.linspace(-5, 5, 9):
                val = tr.joint_cf_h(0.0, snp_params.v0, 0.5,
                                    tr.TransformPoint(om, et), snp_params)
                assert abs(val) <= 1.0 + 1e-10

    def test_hermitian_symmetry(self, snp_params):
        for om, et in [(1.5, 0.7), (3.0, -2.0), (0.3, 4.0)]:
            a = tr.joint_cf_h(0.0, 0.06, 0.5, tr.TransformPoint(om, et),
                              snp_params)
            b = tr.joint_cf_h(0.0, 0.06, 0.5, tr.TransformPoint(-om, -et),
                              snp_params)
            assert abs(b - np.conj(a)) <= 1e-12 * abs(a)

    def test_martingale_value(self, snp_params):
        # h at omega = -i, eta = 0 is E[S_{t'}/S_t] / 1 = e^{(r-q) dt}
        dt = 0.75
        val = tr.joint_cf_h(0.0, snp_params.v0, dt, tr.TransformPoint(-1j, 0.0),
                            snp_params)
        want = math.exp((snp_params.r - snp_params.q) * dt)
        assert abs(val - want) <= 1e-9 * want

    def test_small_time_step_tends_to_one(self, snp_params):
        val = tr.joint_cf_h(0.0, 0.06, 1e-6, tr.TransformPoint(2.0, 1.0),
                            snp_params)
        assert abs(val - 1.0) < 1e-3

    @pytest.mark.parametrize("om,et", [(2.0, 0.0), (1.0, 1.0), (4.0, 3.0)])
    def test_marginalization_identity(self, snp_params, om, et):
        """int_0^inf g(.., v') dv' = h (Appendix identity)."""
        point = tr.TransformPoint(om, et)
        h = tr.joint_cf_h(0.0, snp_params.v0, 0.5, point, snp_params)

        def f(vp):
            return specfun._split_exp(*tr._log_g_vec(
                0.0, snp_params.v0, 0.5, om, et, vp, snp_params))

        val, _ = integrate_semi_infinite(f, CFG)
        assert abs(val - h) <= 1e-6 * abs(h)

    def test_g1_marginalization(self, snp_params):
        om = 2.0
        h = tr.joint_cf_h(0.0, snp_params.v0, 0.5, tr.TransformPoint(om, 0.0),
                          snp_params)

        def f(vp):
            return specfun._split_exp(*tr._log_g_vec(
                0.0, snp_params.v0, 0.5, om, 0.0, vp, snp_params))

        val, _ = integrate_semi_infinite(f, CFG)
        assert abs(val - h) <= 1e-6 * abs(h)


def log_err(got, want):
    """|got - want| for logs, with the imaginary part taken modulo 2 pi."""
    d = np.asarray(got) - np.asarray(want)
    return np.abs(d.real + 1j * ((d.imag + math.pi) % (2.0 * math.pi) - math.pi))


def corridor_h_grid(params):
    """omega on the corridor contour x the variance nodes of the N=2 lag-0
    swap's second period, and the mask of asymptotic-branch elements."""
    from three_halves import specfun
    from three_halves.model import coef_C
    from three_halves.pricers import _transition_grid

    omega = (np.linspace(-80.0, 80.0, 769) - 0.5j)[::8]
    nodes, _ = _transition_grid(params, 0.0, 0.5, params.v0, CFG)
    v = nodes[0]
    c = tr._c_exponent(omega, 0.0, params)
    at = -0.5 - tr._kappa_tilde(omega, params) / params.eps2 + c
    x = 1.0 / (coef_C(params.theta, params.epsilon, 0.5, 1.0) * v)
    asym = specfun._kummer_asym_mask(at[:, None], 1.0 + 2.0 * c[:, None], x)
    return omega, v, asym


def mp_log_h(t, v, t_prime, omega, eta, params):
    """log h by mpmath: a dt + log(Gamma(bt - at)/Gamma(bt) x^at
    M(at, bt, -x)), with the coefficients of ``_log_h_vec``."""
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    c = complex(tr._c_exponent(omega, eta, params))
    at = mp.mpc(complex(-0.5 - tr._kappa_tilde(omega, params) / params.eps2
                        + c))
    bt = mp.mpc(1.0 + 2.0 * c)
    x = 1.0 / (C * mp.mpf(v))
    a_dt = complex(_drift_a_vec(omega, eta, params)) * (t_prime - t)
    with mp.workdps(30):
        return a_dt + complex(mp.log(mp.gamma(bt - at) / mp.gamma(bt)
                                     * x ** at * mp.hyp1f1(at, bt, -x)))


class TestLogHLayouts:
    """h on parameter rows x variance columns (the one layout) against
    the same inputs one row or one point at a time, and mpmath."""

    def test_rows_by_columns_equal_paired(self, snp_params):
        omega, v, asym = corridor_h_grid(snp_params)
        mixed = np.any(asym, axis=0) & ~np.all(asym, axis=0)
        assert np.count_nonzero(mixed) >= 3
        outer = tr._log_h_vec(0.5, v[None, :], 1.0, omega[:, None], 0.0,
                              snp_params)
        # one omega against every variance, row by row
        rows = np.array([tr._log_h_vec(0.5, v, 1.0, om, 0.0, snp_params)
                         for om in omega])
        assert np.max(log_err(outer, rows)) <= 1e-13
        # each asymptotic element stops its sum on its own, so it does not
        # depend on the rest of its call: bit for bit in either layout
        asym = np.broadcast_to(asym, outer.shape)
        assert np.array_equal(outer[asym], rows[asym])
        # (omega, v) pairs, each a 1 x 1 table, on every mixed column
        for i, j in zip(*np.nonzero(np.broadcast_to(mixed, asym.shape))):
            one = tr._log_h_vec(0.5, v[j], 1.0, omega[i], 0.0, snp_params)
            assert one.shape == (1,)
            assert log_err(one[0], outer[i, j]) <= 1e-13, (i, j)

    def test_shared_axis_raises(self, snp_params):
        omega, v, _ = corridor_h_grid(snp_params)
        with pytest.raises(SpecfunDomainError, match="vary along one axis"):
            tr._log_h_vec(0.5, v[:5], 1.0, omega[:5], 0.0, snp_params)

    def test_tower_layout_with_per_node_dates(self, snp_params):
        # the tower's h after t_k: omega (w, 1, 1) at generic points
        # against an inner (rows, n) variance grid, here with one date pair
        # per node, reaching both Kummer branches
        p = snp_params
        omega = np.array([0.3 - 1j, 2.0 - 0.5j, -15.0 + 0.2j])[:, None, None]
        v = np.geomspace(1e-3, 2.0, 12).reshape(3, 4)
        t = np.linspace(0.1, 0.6, 12).reshape(3, 4)
        t_prime = t + np.geomspace(1.0 / 252.0, 0.5, 12).reshape(3, 4)
        got = tr._log_h_vec(t, v, t_prime, omega, 0.0, p)
        assert got.shape == (3, 3, 4)
        x = 1.0 / (np.vectorize(lambda a, b: coef_C(p.theta, p.epsilon, a,
                                                    b))(t, t_prime) * v)
        assert x.min() < specfun.KUMMER_ASYM_MIN_X < x.max()
        for i in range(omega.shape[0]):
            for r, n in np.ndindex(v.shape):
                one = tr._log_h_vec(t[r, n], v[r, n], t_prime[r, n],
                                    omega[i, 0, 0], 0.0, p)
                assert log_err(one[0], got[i, r, n]) <= 1e-13, (i, r, n)
        for i, r, n in ((0, 0, 0), (1, 1, 2), (2, 2, 3), (2, 0, 1)):
            want = mp_log_h(t[r, n], v[r, n], t_prime[r, n],
                            omega[i, 0, 0], 0.0, p)
            assert log_err(got[i, r, n], want) <= 1e-11, (i, r, n)

    def test_timer_single_variance_grid(self, timer_params):
        # the timer's h(0, V0; t', omega, eta): an (omega, eta) grid at
        # one variance, one column of the table
        p = timer_params
        omega = np.linspace(-40.0, 40.0, 7)[:, None] - 0.5j
        eta = np.array([0.5, 3.0 + 2.0j, -1.0 + 10.0j, 40.0j])[None, :]
        eta = eta + 0.1 * omega.real
        got = tr._log_h_vec(0.0, p.v0, 0.25, omega, eta, p)
        assert got.shape == (7, 4)
        for i, j in np.ndindex(got.shape):
            one = tr._log_h_vec(0.0, p.v0, 0.25, omega[i, 0], eta[i, j], p)
            assert log_err(one[0], got[i, j]) <= 1e-13, (i, j)
        for i, j in ((0, 0), (3, 1), (5, 2), (6, 3)):
            want = mp_log_h(0.0, p.v0, 0.25, omega[i, 0], eta[i, j], p)
            assert log_err(got[i, j], want) <= 1e-11, (i, j)

    def test_digits_check_skips_asymptotic_elements(self, snp_params,
                                                    monkeypatch):
        # Taylor is summed for every row of a mixed column; a lost-digit
        # reading on an element that takes the asymptotic value must not
        # raise, one on a Taylor element must.
        from three_halves import specfun

        omega, v, asym = corridor_h_grid(snp_params)
        taylor = specfun._log_kummer_taylor
        mark = {}

        def marked(a, b, x):
            logm, lost = taylor(a, b, x)
            cols = ~np.all(asym, axis=0)
            lost = lost.copy()
            lost[mark["where"][:, cols]] = 30.0
            return logm, lost

        monkeypatch.setattr(specfun, "_log_kummer_taylor", marked)
        mark["where"] = asym
        tr._log_h_vec(0.5, v[None, :], 1.0, omega[:, None], 0.0, snp_params)
        mark["where"] = np.zeros_like(asym)
        mark["where"][np.nonzero(~asym)[0][0], np.nonzero(~asym)[1][0]] = True
        with pytest.raises(ThreeHalvesError):
            tr._log_h_vec(0.5, v[None, :], 1.0, omega[:, None], 0.0,
                          snp_params)


class TestGSplitForm:
    """g in split form, (E, S) with g = e^E S: the value is finite wherever
    g is representable and agrees with the log route exp(E + log S) to the
    rounding exp gives the exponent."""

    @pytest.mark.parametrize("dt", [1.0 / 252.0, 1.0 / 12.0, 1.0])
    def test_value_wherever_representable(self, snp_params, dt):
        # (omega, eta) on and off the real axes x v' from 1e-5 to 10: the
        # short step reaches the asymptotic branch, and log g spans
        # -6.8e5 to 4
        p = snp_params
        omega = np.array([0.0, 2.0 - 0.5j, -30.0 + 0.2j,
                          150.0 - 1.0j])[:, None, None]
        eta = np.array([0.0, 3.0j, 40.0 + 2.0j])[None, :, None]
        v_prime = np.geomspace(1e-5, 10.0, 60)
        e, s = tr._log_g_vec(0.0, p.v0, dt, omega, eta, v_prime, p)
        log_g = specfun._split_log(e, s)
        value = specfun._split_exp(e.copy(), s)
        there = np.abs(log_g.real) < 700.0
        assert 0 < np.count_nonzero(there) < there.size
        assert np.all(np.isfinite(value[there]))
        assert np.all(value[~there] == 0.0)  # far below the double range
        eps = np.finfo(float).eps
        rel = np.abs(value[there] / np.exp(log_g[there]) - 1.0)
        assert np.all(rel <= 1e-14 + 2.0 * eps * (
            np.abs(e[there]) + np.abs(np.log(s[there]))))
        if dt < 0.01:
            z = (2.0 / coef_C(p.theta, p.epsilon, 0.0, dt)) * np.sqrt(
                coef_A(p.theta, 0.0, dt) / (p.v0 * v_prime))
            asym = specfun._bessel_asym_mask(
                2.0 * tr._c_exponent(omega, eta, p), z.astype(complex))
            assert np.any(asym[there]) and np.any(~asym[there])


class TestPerNodeDates:
    """g and h with one date pair per node, the layout of the moment swaps'
    stacked period grids, against one scalar-date call per node."""

    # One-day steps from small variances reach the asymptotic branches
    # (Kummer x = 1/(C v) and Bessel z beyond their switches); the long
    # steps stay in the Taylor and series branches.
    T_FROM = np.array([0.0, 0.2, 0.5, 0.5, 0.25, 0.75])
    T_TO = T_FROM + np.array([1.0, 1.0, 1.0, 63.0, 126.0, 63.0]) / 252.0
    V = np.array([0.03, 0.05, 0.2, 0.1, 0.3, 1.0])
    OMEGA = np.array([0.25j, 0.2 - 0.1j, -1j, 3.0 - 0.5j])

    def per_node(self, fn, *columns):
        return np.stack([fn(*col) for col in zip(*columns)], axis=-1)

    def test_log_h_equals_scalar_dates(self, snp_params):
        from three_halves import specfun
        from three_halves.model import coef_C

        got = tr._log_h_vec(self.T_FROM, self.V, self.T_TO,
                            self.OMEGA[:, None], 0.0, snp_params)
        want = self.per_node(
            lambda a, v, b: tr._log_h_vec(a, v, b, self.OMEGA, 0.0,
                                          snp_params),
            self.T_FROM, self.V, self.T_TO)
        c = tr._c_exponent(self.OMEGA, 0.0, snp_params)
        kt = tr._kappa_tilde(self.OMEGA, snp_params)
        at = -0.5 - kt / snp_params.eps2 + c
        x = 1.0 / (np.array([coef_C(snp_params.theta, snp_params.epsilon,
                                    a, b)
                             for a, b in zip(self.T_FROM, self.T_TO)])
                   * self.V)
        asym = specfun._kummer_asym_mask(at[:, None], 1.0 + 2.0 * c[:, None],
                                         x)
        assert np.any(asym) and np.any(~asym)
        assert np.max(log_err(got, want)
                      / np.maximum(1.0, np.abs(want))) <= 1e-14

    @pytest.mark.parametrize("from_v0", [True, False])
    def test_log_g_equals_scalar_dates(self, snp_params, from_v0):
        # from V0 at 0 (the swaps' g1 weights) or from each node's own
        # date and variance
        from three_halves import specfun
        from three_halves.model import coef_A, coef_C

        if from_v0:
            t = np.zeros_like(self.T_TO)
            v = np.full_like(self.V, snp_params.v0)
        else:
            t, v = self.T_FROM, self.V
        v_prime = 1.3 * self.V
        got = specfun._split_log(*tr._log_g_vec(
            0.0 if from_v0 else t, snp_params.v0 if from_v0 else v,
            self.T_TO, self.OMEGA[:, None], 0.0, v_prime, snp_params))
        want = self.per_node(
            lambda a, x, b, y: specfun._split_log(*tr._log_g_vec(
                a, x, b, self.OMEGA, 0.0, y, snp_params)),
            t, v, self.T_TO, v_prime)
        pairs = list(zip(t, self.T_TO))
        A = np.array([coef_A(snp_params.theta, a, b) for a, b in pairs])
        C = np.array([coef_C(snp_params.theta, snp_params.epsilon, a, b)
                      for a, b in pairs])
        z = (2.0 / C) * np.sqrt(A / (v * v_prime))
        nu2 = np.abs(2.0 * tr._c_exponent(self.OMEGA, 0.0, snp_params)) ** 2
        asym = ((z > specfun.BESSEL_ASYMPTOTIC_MIN_Z)
                & (nu2[:, None] <= specfun.BESSEL_ASYMPTOTIC_ORDER_FACTOR * z))
        assert np.any(asym) and np.any(~asym)
        assert np.max(log_err(got, want)
                      / np.maximum(1.0, np.abs(want))) <= 1e-14

    def test_array_dates_need_a_step(self, snp_params):
        with pytest.raises(DeltaRegimeError):
            tr._log_h_vec(self.T_FROM, self.V, self.T_FROM, 0.0, 0.0,
                          snp_params)


@st.composite
def admissible_params(draw):
    """Parameters that ``model.validate`` admits, with or without jumps,
    whose b0 = 1/2 + (kappa - rho eps)/eps^2 comes out >= 0 (at the
    admissibility boundary rounding can leave it a hair below zero)."""
    eps = draw(st.floats(0.3, 12.0))
    rho = draw(st.floats(-1.0, 1.0))
    kappa = rho * eps - 0.5 * eps * eps + draw(st.floats(0.0, 60.0))
    jumps = draw(st.one_of(st.none(), st.builds(
        JumpParams, lam=st.floats(0.0, 2.0), mu=st.floats(-0.3, 0.3),
        sigma=st.floats(0.0, 0.5))))
    params = ModelParams.with_constant_theta(
        kappa=kappa, theta=draw(st.floats(0.5, 10.0)), epsilon=eps, rho=rho,
        r=draw(st.floats(-0.05, 0.1)), q=draw(st.floats(0.0, 0.05)),
        s0=100.0, v0=draw(st.floats(0.005, 1.0)), jumps=jumps)
    assume(not validate(params))
    b0 = 0.5 + tr._kappa_tilde(-1j, params) / params.eps2
    assume(b0.real >= 0.0)
    return params


class TestMartingaleRegime:
    """At omega = -i, eta = 0, h is E[S_t'/S_t | v] = e^{a dt}: at = 0
    exactly, and _log_h_vec returns a dt without a Kummer call (as at
    omega = eta = 0, where h = 1)."""

    V = np.geomspace(1e-3, 5.0, 9)
    # one month from 0.5: x = 1/(C v) reaches both Kummer branches
    T1 = 0.5 + 1.0 / 12.0
    T_FROM = np.linspace(0.0, 0.8, 9)
    T_TO = T_FROM + np.geomspace(1.0 / 252.0, 1.0, 9)

    @settings(max_examples=60, deadline=None)
    @given(admissible_params())
    def test_exact_in_every_layout(self, params):
        c = tr._c_exponent(-1j, 0.0, params)
        assert -0.5 - tr._kappa_tilde(-1j, params) / params.eps2 + c == 0.0
        a = _drift_a_vec(-1j, 0.0, params)
        # one parameter point (and one row), or three rows, against the
        # variances, or against one variance
        for omega in (-1j, np.array([[-1j]]), np.full((3, 1), -1j)):
            for v in (self.V, self.V[0]):
                got = tr._log_h_vec(0.25, v, 1.0, omega, 0.0, params)
                assert np.array_equal(got,
                                      np.broadcast_to(a * 0.75, got.shape))
        # per-node dates, one row or three
        want = a * (self.T_TO - self.T_FROM)
        for omega in (-1j, np.full((3, 1), -1j)):
            got = tr._log_h_vec(self.T_FROM, self.V, self.T_TO, omega, 0.0,
                                params)
            assert np.array_equal(got, np.broadcast_to(want, got.shape))

    @pytest.mark.parametrize("fixture", ["snp_params", "timer_params",
                                         "jump_params"])
    def test_equals_the_kummer_branches(self, fixture, request):
        # the asymptotic and Taylor branches on (at = 0, bt, x), as h
        # took them before the exact regime
        params = request.getfixturevalue(fixture)
        v = np.geomspace(1e-3, 5.0, 40)
        bt = 1.0 + 2.0 * tr._c_exponent(-1j, 0.0, params)
        x = 1.0 / (coef_C(params.theta, params.epsilon, 0.5, self.T1) * v)
        asym = specfun._kummer_asym_mask(0.0, bt, x)
        assert np.any(asym) and np.any(~asym)
        a = _drift_a_vec(-1j, 0.0, params)
        want = a * (self.T1 - 0.5) + tr._log_kummer_factor(
            np.zeros((1, 1)), np.reshape(bt, (1, 1)), x)
        got = tr._log_h_vec(0.5, v, self.T1, -1j, 0.0, params)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_generic_points_take_the_kummer_branches(self, snp_params,
                                                     monkeypatch):
        calls = []
        for name in ("_log_kummer_taylor", "_log_kummer_asym_sum"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        v = np.geomspace(1e-3, 5.0, 40)
        tr._log_h_vec(0.5, v, self.T1, -1j, 0.0, snp_params)
        # omega = 0 is the other root of c = b0 at eta = 0: h = 1
        assert np.array_equal(tr._log_h_vec(0.5, v, self.T1, 0.0, 0.0,
                                            snp_params), np.zeros(v.size))
        assert calls == []
        for omega, eta in ((-1j + 0.25, 0.0), (-1j, 0.5), (0.5, 0.0),
                           (-1j * (1.0 + 1e-12), 0.0)):
            calls.clear()
            tr._log_h_vec(0.5, v, self.T1, omega, eta, snp_params)
            assert calls, (omega, eta)

    def test_exact_rows_beside_generic_rows(self, snp_params):
        # rows at omega = -i are exact; the other rows of the same call
        # equal a call on them alone
        omega = np.array([-1j, 0.25 - 1j, -1j, 2.0 + 0.1j])[:, None]
        v = np.geomspace(1e-3, 5.0, 40)
        got = tr._log_h_vec(0.5, v, 1.0, omega, 0.0, snp_params)
        a = _drift_a_vec(-1j, 0.0, snp_params)
        assert np.array_equal(got[[0, 2]], np.full((2, v.size), a * 0.5))
        alone = tr._log_h_vec(0.5, v, 1.0, omega[[1, 3]], 0.0, snp_params)
        assert np.max(log_err(got[[1, 3]], alone)) <= 1e-13


class TestG1:
    def test_equals_g_at_eta_zero(self, snp_params):
        got = tr.partial_transform_g1(0.0, 0.06, 0.5, 2.0 - 1.0j, 0.08,
                                      snp_params)
        want = tr.partial_transform_g(0.0, 0.06, 0.5,
                                      tr.TransformPoint(2.0 - 1.0j, 0.0), 0.08,
                                      snp_params)
        assert got == want

    def test_omega_zero_is_density(self, snp_params):
        got = tr.partial_transform_g1(0.0, 0.06, 0.5, 0.0, 0.08, snp_params)
        want = tr.transition_density_v(0.0, 0.06, 0.5, 0.08, snp_params)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_moment_contour_real_positive(self, snp_params):
        # omega = -i weights by S_{t'}/S_t; the result must be a positive
        # real (it is e^{(r-q)dt} times a tilted density).
        for vp in (0.02, 0.06, 0.2):
            val = tr.partial_transform_g1(0.0, snp_params.v0, 0.5, -1j, vp,
                                          snp_params)
            assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1e-300)
            assert val.real > 0.0


class TestBivariatePhi:
    def test_degenerate_second_leg(self, snp_params):
        # t1 == t2 collapses to h at (w1+w2, e1+e2)
        state = (0.0, 0.0, snp_params.v0)
        val = bivariate_cf_phi(0.0, state, 0.25, 0.25, (1.0, 1.0),
                               (0.5, 0.0), snp_params, CFG)
        want = tr.joint_cf_h(0.0, snp_params.v0, 0.25, tr.TransformPoint(2.0, 0.5),
                             snp_params)
        assert abs(val - want) <= 1e-12 * abs(want)

    def test_zero_second_point_reduces_to_univariate(self, snp_params):
        state = (math.log(100.0), 0.0, snp_params.v0)
        val = bivariate_cf_phi(0.0, state, 0.25, 0.5, (1.0, 0.0),
                               (0.5, 0.0), snp_params, CFG)
        want = np.exp(1j * 1.0 * state[0] + 1j * 0.5 * state[1]) * tr.joint_cf_h(
            0.0, snp_params.v0, 0.25, tr.TransformPoint(1.0, 0.5), snp_params)
        assert abs(val - want) <= 1e-6 * abs(want)

    def test_tower_against_terminal_cf(self, snp_params):
        # With w = (0, w2), e = (0, e2) the bivariate CF must equal the
        # univariate CF at (w2, e2) over the longer horizon.
        state = (0.0, 0.0, snp_params.v0)
        val = bivariate_cf_phi(0.0, state, 0.25, 0.5, (0.0, 1.5),
                               (0.0, 0.8), snp_params, CFG)
        want = tr.joint_cf_h(0.0, snp_params.v0, 0.5, tr.TransformPoint(1.5, 0.8),
                             snp_params)
        assert abs(val - want) <= 2e-6 * abs(want)

    def test_ordering_validation(self, snp_params):
        with pytest.raises(ThreeHalvesError):
            bivariate_cf_phi(0.3, (0, 0, 0.06), 0.25, 0.5, (1, 1), (0, 0),
                             snp_params, CFG)
