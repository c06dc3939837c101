"""Tests for the complex special-function kernel."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from three_halves import pricers, specfun
from three_halves import transforms as tr
from three_halves.errors import (
    PrecisionLossError,
    SeriesNonConvergenceError,
    SpecfunDomainError,
)
from three_halves.model import coef_A, coef_C
from three_halves.quadrature import (
    FIRST_BATCH,
    QuadratureConfig,
    _panels,
    log_density_grid,
)

mp.mp.dps = 40


def rel_err(got, want):
    want = complex(want)
    if want == 0:
        return abs(complex(got))
    return abs(complex(got) - want) / abs(want)


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(specfun.log_gamma(1.0)) < 1e-14

    def test_factorial(self):
        assert rel_err(specfun.log_gamma(5.0), math.log(24.0)) < 1e-14

    def test_complex_point_frozen_oracle(self):
        # mpmath (40 dps) oracle computed ahead of the build:
        want = complex(-1.8760787864309293412, 0.12964631630978831138)
        assert rel_err(specfun.log_gamma(1 + 2j), want) < 1e-12

    def test_pole_raises(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(SpecfunDomainError):
                specfun.log_gamma(z)

    def test_recurrence_grid(self):
        # Gamma(z+1) = z Gamma(z) on a reproducible random grid.
        rng = np.random.default_rng(20260809)
        re = rng.uniform(0.5, 10.0, size=100)
        im = rng.uniform(-10.0, 10.0, size=100)
        for zr, zi in zip(re, im):
            z = complex(zr, zi)
            lhs = specfun.log_gamma(z + 1)
            rhs = specfun.log_gamma(z) + np.log(z)
            # branches may differ by 2*pi*i; compare through exp
            assert rel_err(np.exp(lhs), np.exp(rhs)) < 1e-12

    def test_left_half_plane_reflection(self):
        for z in (-0.5 + 0.3j, -2.2 - 1.7j, -5.1 + 4.0j):
            got = np.exp(specfun.log_gamma(z))
            want = mp.gamma(mp.mpc(z.real, z.imag))
            assert rel_err(got, complex(want)) < 1e-11

    def test_matches_mpmath_on_right_half_plane(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = complex(rng.uniform(0.05, 30), rng.uniform(-30, 30))
            want = mp.loggamma(mp.mpc(z.real, z.imag))
            assert rel_err(specfun.log_gamma(z), complex(want)) < 1e-12


class TestBesselI:
    def test_zero_argument(self):
        assert specfun.bessel_i(0.0, 0.0) == 1.0
        assert specfun.bessel_i(2.5, 0.0) == 0.0
        with pytest.raises(SpecfunDomainError):
            specfun.bessel_i(-0.5, 0.0)

    def test_half_integer_closed_form(self):
        want = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0)
        assert rel_err(specfun.bessel_i(0.5, 2.0), want) < 1e-13

    def test_complex_order_frozen_oracle(self):
        # Brute-force 300-term extended-precision partial sum (mpmath, 40 dps):
        want = complex(4.0125767613721858133, -9.2495463541737218248)
        got = specfun.bessel_i(1.3 + 0.7j, 4 - 1j)
        assert rel_err(got, want) < 1e-10

    def test_real_order_real_argument_is_real(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nu = rng.uniform(0.0, 8.0)
            z = rng.uniform(1e-3, 25.0)
            val = specfun.bessel_i(nu, z)
            assert val.real > 0.0
            assert abs(val.imag) <= 1e-12 * abs(val.real)

    def test_scaled_matches_unscaled(self):
        for nu, z in [(0.7, 3.0), (1.2 + 0.5j, 10.0), (2.0, 25.0 + 4.0j)]:
            plain = specfun.bessel_i(nu, z)
            scaled = specfun.bessel_i(nu, z, scaled=True)
            assert rel_err(scaled * np.exp(complex(z).real), plain) < 1e-12

    def test_scaled_finite_for_huge_argument(self):
        val = specfun.bessel_i(1.62, 5000.0, scaled=True)
        want = mp.besseli(mp.mpf("1.62"), 5000, derivative=0) * mp.e ** (-5000)
        assert rel_err(val, complex(want)) < 1e-11

    @pytest.mark.parametrize("z", [0.5, 3.0, 20.0, 80.0, 400.0, 3000.0])
    def test_real_axis_against_mpmath(self, z):
        for nu in (0.0, 1.6234, 4.5, 1.5 + 2.0j, 6.0 - 3.0j):
            got = np.exp(specfun.log_bessel_i(nu, z) - z)
            want = mp.besseli(mp.mpc(complex(nu).real, complex(nu).imag), z) * mp.e ** (
                -z
            )
            assert rel_err(got, complex(want)) < 1e-10


class TestBesselRegimes:
    """Accuracy study around the series/asymptotic switch.

    BESSEL_ASYMPTOTIC_MIN_Z = 30 is the documented threshold; the branch map
    additionally requires |z| >= |nu|^2 + 25 and a sector away from the
    imaginary axis.  This test sweeps both sides of every gate.
    """

    def test_switch_continuity_real_axis(self):
        for nu in (0.8, 1.6234, 3.0 + 1.0j):
            for z in np.linspace(25.0, 40.0, 16):
                got = np.exp(specfun.log_bessel_i(nu, z) - z)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag), mp.mpf(z)
                ) * mp.e ** (-mp.mpf(z))
                assert rel_err(got, complex(want)) < 5e-11, (nu, z)

    def test_moderate_order_large_argument(self):
        # |nu|^2 comparable to z: must stay on the series branch and stay
        # accurate.
        for nu in (6.0, 8.0 + 2.0j, 12.0):
            for z in (40.0, 90.0, 160.0):
                got = np.exp(specfun.log_bessel_i(nu, z) - z)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag), mp.mpf(z)
                ) * mp.e ** (-mp.mpf(z))
                assert rel_err(got, complex(want)) < 1e-9, (nu, z)

    def test_complex_argument_sector(self):
        # Arguments off the real axis but inside the asymptotic sector.
        for z in (60.0 + 30.0j, 120.0 - 60.0j, 45.0 + 10.0j):
            for nu in (1.0, 2.5 + 1.5j):
                got = specfun.bessel_i(nu, z, scaled=True)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag),
                    mp.mpc(complex(z).real, complex(z).imag),
                ) * mp.e ** (-complex(z).real)
                assert rel_err(got, complex(want)) < 1e-9, (nu, z)

    def test_negative_real_part_reflection(self):
        for z in (-4.0 + 1.0j, -12.0 - 3.0j):
            got = specfun.bessel_i(1.2 + 0.4j, z)
            want = mp.besseli(mp.mpc(1.2, 0.4), mp.mpc(complex(z).real, complex(z).imag))
            assert rel_err(got, complex(want)) < 1e-9


def log_err(got, want):
    """|got - want| for logs, with the imaginary part taken modulo 2 pi."""
    d = complex(got) - complex(want)
    return abs(complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi))


def mp_log_bessel_i(nu, z):
    nu, z = complex(nu), complex(z)
    return complex(mp.log(mp.besseli(mp.mpc(nu.real, nu.imag),
                                     mp.mpc(z.real, z.imag))))


def outer_and_paired(nu, z):
    """The series on orders x arguments (outer layout) and on the same
    inputs materialized element by element (paired layout)."""
    outer = specfun._log_bessel_series(nu, z)
    nu_b, z_b = (np.ascontiguousarray(a) for a in np.broadcast_arrays(nu, z))
    return outer, specfun._log_bessel_series(nu_b, z_b)


class TestBesselSeriesOuter:
    """The matrix-product route of the series against the running-product
    route on the same inputs and against mpmath."""

    def test_timer_grid_orders(self, timer_params):
        # Orders 2c(omega, eta) on a subsample of the omega rule's first
        # batch and the benchmark timer's Talbot nodes (N = 4, B = 0.087;
        # first monitoring date) x the 64 v' nodes of that date's density
        # grid.
        p = timer_params
        cfg = QuadratureConfig()
        omega = _panels(0, FIRST_BATCH)[0].ravel()[::13] + 1j * cfg.damping_omega
        s = pricers._talbot_contour(pricers.TALBOT_NODES, 0.087, 1.0, omega,
                                    p)[0]
        t_j = 0.25
        nodes, _ = log_density_grid(
            lambda vp: tr._log_density_v_vec(0.0, p.v0, t_j, vp, p), cfg)
        assert nodes.size == cfg.v_nodes
        A = coef_A(p.theta, 0.0, t_j)
        C = coef_C(p.theta, p.epsilon, 0.0, t_j)
        z = ((2.0 / C) * np.sqrt(A / (p.v0 * nodes)))[None, None, :]
        eta = 1j * s[:, ::3, None]
        nu = 2.0 * tr._c_exponent(omega[:, None, None], eta, p)
        z = z.astype(complex)
        outer, paired = outer_and_paired(nu, z)
        assert outer.shape == eta.shape[:2] + (nodes.size,)
        assert np.max(np.abs(outer - paired)) <= 1e-13
        rng = np.random.default_rng(5)
        for _ in range(12):
            i, j, k = (rng.integers(n) for n in outer.shape)
            want = mp_log_bessel_i(nu[i, j, 0], z[0, 0, k])
            assert log_err(outer[i, j, k], want) <= 1e-13, (i, j, k)

    def test_huge_terms_need_several_bands(self):
        # |nu|^2 > 2.5 |z| keeps every pair in the series regime; at z=1400
        # the terms pass 1e250 and the |z| spread needs three bands.
        nu = np.array([60.0, 60.0 + 5.0j])[:, None]
        z = np.array([1.0, 50.0, 600.0, 1400.0], dtype=complex)[None, :]
        assert np.ptp(np.abs(z)) > 2 * specfun._SERIES_BAND_WIDTH
        outer, paired = outer_and_paired(nu, z)
        for i in range(nu.shape[0]):
            for j in range(z.shape[1]):
                want = mp_log_bessel_i(nu[i, 0], z[0, j])
                tol = 1e-13 + 2e-15 * abs(want)
                assert log_err(outer[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], paired[i, j]) <= tol, (i, j)

    def test_order_imaginary_part_dominates(self):
        nu = np.array([0.5 + 200.0j, 3.0 - 500.0j, 1000.0j])[:, None]
        z = np.array([0.1, 2.0, 10.0, 30.0], dtype=complex)[None, :]
        outer, paired = outer_and_paired(nu, z)
        for i in range(nu.shape[0]):
            for j in range(z.shape[1]):
                want = mp_log_bessel_i(nu[i, 0], z[0, j])
                tol = 1e-13 + 2e-15 * abs(want)
                assert log_err(outer[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], paired[i, j]) <= tol, (i, j)

    def test_element_rule_rejects_a_short_table(self, monkeypatch):
        # Every element's last two terms are checked after the product: a
        # table cut after 4 terms must be rejected and rebuilt longer.
        nu = np.array([1.5, 2.0 + 1.0j, 7.0 - 3.0j])[:, None]
        z = np.array([1.0, 4.0, 9.0 + 2.0j], dtype=complex)[None, :]
        want = specfun._log_bessel_series(nu, z)
        calls = []
        table = specfun._series_table

        def short_first(den, s, min_terms, num=None):
            calls.append(min_terms)
            coef, row_scale = table(den, s, min_terms, num)
            return (coef[:5] if len(calls) == 1 else coef), row_scale

        monkeypatch.setattr(specfun, "_series_table", short_first)
        got = specfun._log_bessel_series(nu, z)
        assert calls == [0, 12]
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        nu = np.array([1.5, 2.0 + 1.0j])[:, None]
        z = np.array([1.0, 4.0], dtype=complex)[None, :]
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_bessel_series(nu, z)

    def test_negative_integer_order_raises(self):
        nu = np.array([1.5, -3.0])[:, None].astype(complex)
        z = np.array([1.0, 4.0], dtype=complex)[None, :]
        with pytest.raises(SpecfunDomainError):
            specfun._log_bessel_series(nu, z)
        with pytest.raises(SpecfunDomainError):
            specfun._log_bessel_i_vec(nu, z)


def corridor_kummer_grid(params):
    """Kummer parameters of the joint CF on the corridor contour (rows) and
    x = 1/(C v) on the variance nodes of the N=2 lag-0 swap's second
    period that some row sums by the Taylor series (columns): a = bt - at,
    b = bt after the Kummer transformation.
    """
    cfg = QuadratureConfig()
    omega = (np.linspace(-80.0, 80.0, 769) - 0.5j)[::16] + 1e-3
    c = tr._c_exponent(omega, 0.0, params)
    at = -0.5 - tr._kappa_tilde(omega, params) / params.eps2 + c
    bt = 1.0 + 2.0 * c
    nodes, _ = pricers._transition_grid(params, 0.0, 0.5, params.v0, cfg)
    x = 1.0 / (coef_C(params.theta, params.epsilon, 0.5, 1.0) * nodes[0])
    mx = np.maximum(np.abs(at), np.abs(at - bt + 1.0))
    reach = max(specfun.KUMMER_ASYM_MIN_X,
                np.max(specfun.KUMMER_ASYM_ORDER_FACTOR * mx * mx + 50.0))
    return (bt - at)[:, None], bt[:, None], x[x <= reach]


def mp_log_hyp1f1(a, b, x):
    a, b = complex(a), complex(b)
    return complex(mp.log(mp.hyp1f1(mp.mpc(a.real, a.imag),
                                    mp.mpc(b.real, b.imag), mp.mpf(x))))


def kummer_outer_and_paired(a, b, x):
    """Kummer's Taylor series on parameters x real arguments (matrix route)
    and on the same inputs materialized as complex pairs (running product)."""
    outer = specfun._log_kummer_taylor(a, b, x)
    a_b, b_b, x_b = (np.ascontiguousarray(v)
                     for v in np.broadcast_arrays(a, b, x.astype(complex)))
    return outer, specfun._log_kummer_taylor(a_b, b_b, x_b)


class TestKummerTaylorOuter:
    """The matrix-product route of Kummer's Taylor series against the
    running product on the same inputs and against mpmath."""

    def test_corridor_grid(self, snp_params):
        a, b, x = corridor_kummer_grid(snp_params)
        assert x.min() < 1e-4 and x.max() > 400.0
        (outer, lost), (paired, lost_paired) = kummer_outer_and_paired(a, b, x)
        assert outer.shape == (a.shape[0], x.size)
        assert max(log_err(o, p) for o, p in zip(outer.flat, paired.flat)) \
            <= 1e-13
        # sum |terms| >= |peak partial sum|; the running route measures the
        # partial sums as |Re| + |Im|, up to sqrt(2) above their modulus.
        assert np.all(lost >= lost_paired - 0.5 * math.log(2.0) - 1e-12)
        rng = np.random.default_rng(7)
        for _ in range(12):
            i, j = (rng.integers(n) for n in outer.shape)
            want = mp_log_hyp1f1(a[i, 0], b[i, 0], x[j])
            assert log_err(outer[i, j], want) <= 1e-13, (i, j)

    def test_terms_past_1e250_split_the_bands(self, monkeypatch):
        # At x = 1400 the terms pass 1e250, so those rows carry a log scale
        # and the x spread is summed in several bands, each with its own s.
        a = np.array([1.3 + 0.3j, 4.0 - 2.0j])[:, None]
        b = np.array([3.1, 2.0 + 1.0j])[:, None]
        x = np.array([1e-3, 1.0, 50.0, 600.0, 1400.0])
        scales = []
        table = specfun._series_table

        def spy(den, s, min_terms, num=None):
            coef, row_scale = table(den, s, min_terms, num)
            scales.append((s, bool(np.any(row_scale))))
            return coef, row_scale

        monkeypatch.setattr(specfun, "_series_table", spy)
        (outer, _), (paired, _) = kummer_outer_and_paired(a, b, x)
        assert (1400.0, True) in scales
        assert len({s for s, _ in scales}) >= 3
        for i in range(a.shape[0]):
            for j in range(x.size):
                want = mp_log_hyp1f1(a[i, 0], b[i, 0], x[j])
                tol = 1e-13 + 2e-15 * abs(want)
                assert log_err(outer[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], paired[i, j]) <= tol, (i, j)

    def test_single_argument_takes_the_running_product(self, snp_params):
        a, b, x = corridor_kummer_grid(snp_params)
        one = x[-1:]
        logm, lost = specfun._log_kummer_taylor(a, b, one)
        want, want_lost = specfun._log_kummer_taylor(
            a, b, one.astype(complex))
        assert np.array_equal(logm, want) and np.array_equal(lost, want_lost)

    def test_lost_digits_measured(self):
        # Negative real arguments cancel: the raw series loses ~15 digits at
        # x = -80 on both routes (kummer_m raises PrecisionLossError there).
        a = np.array([0.8, 0.8 + 0.5j])[:, None]
        b = np.array([2.3, 2.3])[:, None]
        x = np.array([-80.0, -1.0])
        (_, lost), (_, lost_paired) = kummer_outer_and_paired(a, b, x)
        assert np.all(lost[:, 0] > 23.0) and np.all(lost_paired[:, 0] > 23.0)
        assert np.all(lost[:, 1] < 2.0)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        a = np.array([1.5, 2.0 + 1.0j])[:, None]
        b = np.array([2.5, 3.0])[:, None]
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_kummer_taylor(a, b, np.array([1.0, 4.0]))

    def test_b_pole_raises(self):
        a = np.array([1.5, 1.5])[:, None].astype(complex)
        b = np.array([2.5, -3.0])[:, None].astype(complex)
        with pytest.raises(SpecfunDomainError):
            specfun._log_kummer_taylor(a, b, np.array([1.0, 4.0]))


class TestKummerM:
    def test_z_zero(self):
        assert specfun.kummer_m(0.77 - 3j, 2 + 1j, 0.0) == 1.0

    def test_a_equals_b_is_exp(self):
        got = specfun.kummer_m(1.5 - 0.2j, 1.5 - 0.2j, 3.0)
        assert rel_err(got, math.exp(3.0)) < 1e-13

    def test_transform_identity_paper_example(self):
        a, b, z = 0.8 + 0.1j, 2.3, -5.0
        lhs = specfun.kummer_m(a, b, z, transform="never")
        rhs = np.exp(z) * specfun.kummer_m(b - a, b, -z, transform="never")
        assert rel_err(lhs, rhs) <= 1e-10
        # frozen mpmath oracle for the same point
        want = complex(0.32711129485162253713, -0.050725074183882724294)
        assert rel_err(specfun.kummer_m(a, b, z), want) < 1e-12

    def test_b_pole_raises(self):
        with pytest.raises(SpecfunDomainError):
            specfun.kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(SpecfunDomainError):
            specfun.kummer_m(1.0, -3.0, 0.5)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
            z = complex(rng.uniform(-12, 12), rng.uniform(-6, 6))
            got = specfun.kummer_m(a, b, z)
            want = mp.hyp1f1(mp.mpc(a.real, a.imag), mp.mpc(b.real, b.imag),
                             mp.mpc(z.real, z.imag))
            assert rel_err(got, complex(want)) < 1e-10, (a, b, z)

    def test_large_positive_argument(self):
        got = specfun.kummer_m(1.3 + 0.3j, 3.1, 300.0)
        want = mp.hyp1f1(mp.mpc(1.3, 0.3), mp.mpf(3.1), mp.mpf(300))
        assert rel_err(got, complex(want)) < 1e-10

    def test_raw_series_cancellation_guard(self):
        with pytest.raises(PrecisionLossError):
            specfun.kummer_m(0.8, 2.3, -80.0, transform="never")

    def test_asymptotic_negative_branch(self):
        # internal branch used by the joint CF for tiny time steps
        a = np.array([0.9 + 0.4j])
        b = np.array([2.6 + 0.8j])
        for x in (80.0, 400.0, 2000.0):
            got = np.exp(specfun._log_kummer_asym_neg(a, b, np.array([x])))[0]
            want = mp.hyp1f1(mp.mpc(0.9, 0.4), mp.mpc(2.6, 0.8), mp.mpf(-x))
            assert rel_err(got, complex(want)) < 1e-10, x


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 6.0),
    st.floats(-3.0, 3.0),
    st.floats(0.6, 5.0),
    st.floats(-2.0, 2.0),
    st.floats(-6.0, 6.0),
    st.floats(-4.0, 4.0),
)
# The raw series cancels 16.1 nats here; it used to return a value 3.5e-9
# off mpmath.
@example(6.0, 2.0, 0.609375, 0.0, -5.0, 2.0)
def test_kummer_transform_property(ar, ai, br, bi, zr, zi):
    """Kummer transformation holds on random complex triples (rel 1e-9)
    wherever the raw series keeps its accuracy; elsewhere it raises."""
    a = complex(ar, ai)
    b = complex(br, bi)
    z = complex(zr, zi)
    try:
        lhs = specfun.kummer_m(a, b, z, transform="never")
        rhs = np.exp(z) * specfun.kummer_m(b - a, b, -z, transform="never")
    except PrecisionLossError:
        return
    assert rel_err(lhs, rhs) <= 1e-9


def test_kummer_raises_where_the_series_cancels():
    # The proxy reads 16.1 nats lost, so the raw value cannot be trusted
    # to 1e-9 (it is 3.5e-9 off mpmath); the transformed side is fine.
    a, b, z = 6.0 + 2.0j, 0.609375, -5.0 + 2.0j
    with pytest.raises(PrecisionLossError):
        specfun.kummer_m(a, b, z, transform="never")
    got = np.exp(z) * specfun.kummer_m(b - a, b, -z, transform="never")
    assert rel_err(got, mp.hyp1f1(a, b, z)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 6.0), st.floats(0.1, 28.0))
def test_bessel_recurrence_property(nu, z):
    """I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)."""
    lhs = specfun.bessel_i(nu - 1, z) - specfun.bessel_i(nu + 1, z)
    rhs = 2 * nu / z * specfun.bessel_i(nu, z)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
