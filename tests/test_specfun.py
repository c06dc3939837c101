"""Tests for the complex special-function kernel."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from three_halves import pricers, specfun
from three_halves import transforms as tr
from three_halves.errors import SeriesNonConvergenceError, SpecfunDomainError
from three_halves.model import coef_A, coef_C
from three_halves.quadrature import (
    FIRST_BATCH,
    OMEGA_LIMIT,
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


EPS = np.finfo(float).eps


def log_gamma(z):
    """log Gamma(z) at one point, a 1-element ``_log_gamma_vec`` call."""
    return complex(specfun._log_gamma_vec(z)[0])


def log_i(nu, z):
    """log I_nu(z) at one point, a 1 x 1 table of ``_log_bessel_i_vec``
    (branch only fixed by exp)."""
    return complex(specfun._split_log(*specfun._log_bessel_i_vec(
        complex(nu), complex(z)))[0])


def bessel(nu, z):
    """I_nu(z) at one point, exp of ``log_i``."""
    return complex(np.exp(log_i(nu, z)))


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_factorial(self):
        assert rel_err(log_gamma(5.0), math.log(24.0)) < 1e-14

    def test_complex_point_frozen_oracle(self):
        # mpmath (40 dps) oracle computed ahead of the build:
        want = complex(-1.8760787864309293412, 0.12964631630978831138)
        assert rel_err(log_gamma(1 + 2j), want) < 1e-12

    def test_recurrence_grid(self):
        # Gamma(z+1) = z Gamma(z) on a reproducible random grid.
        rng = np.random.default_rng(20260809)
        re = rng.uniform(0.5, 10.0, size=100)
        im = rng.uniform(-10.0, 10.0, size=100)
        for zr, zi in zip(re, im):
            z = complex(zr, zi)
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + np.log(z)
            # branches may differ by 2*pi*i; compare through exp
            assert rel_err(np.exp(lhs), np.exp(rhs)) < 1e-12

    def test_left_half_plane_reflection(self):
        for z in (-0.5 + 0.3j, -2.2 - 1.7j, -5.1 + 4.0j):
            got = np.exp(log_gamma(z))
            want = mp.gamma(mp.mpc(z.real, z.imag))
            assert rel_err(got, complex(want)) < 1e-11

    def test_matches_mpmath_on_right_half_plane(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = complex(rng.uniform(0.05, 30), rng.uniform(-30, 30))
            want = mp.loggamma(mp.mpc(z.real, z.imag))
            assert rel_err(log_gamma(z), complex(want)) < 1e-12


    def test_stacked_call_is_bit_identical(self):
        # Every element takes its own upward shifts: stacking two sets of
        # arguments in one call (``transforms._log_kummer_factor``'s
        # log Gamma(bt - at) and log Gamma(bt)) returns each set exactly
        # as its own call does, whatever shifts the other set needs.
        rng = np.random.default_rng(3)
        low = rng.uniform(0.05, 3.0, (5, 1)) + 1j * rng.uniform(-4, 4, (5, 1))
        high = low + rng.uniform(8.0, 40.0, (5, 1))
        left = -low
        for a, b in [(low, high), (high, low), (low, left)]:
            both = specfun._log_gamma_vec(np.concatenate([a, b]))
            assert np.array_equal(both[:5], specfun._log_gamma_vec(a))
            assert np.array_equal(both[5:], specfun._log_gamma_vec(b))

class TestBesselI:
    def test_half_integer_closed_form(self):
        want = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0)
        assert rel_err(bessel(0.5, 2.0), want) < 1e-13

    def test_complex_order_frozen_oracle(self):
        # Brute-force 300-term extended-precision partial sum (mpmath, 40 dps):
        want = complex(4.0125767613721858133, -9.2495463541737218248)
        got = bessel(1.3 + 0.7j, 4 - 1j)
        assert rel_err(got, want) < 1e-10

    def test_real_order_real_argument_is_real(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nu = rng.uniform(0.0, 8.0)
            z = rng.uniform(1e-3, 25.0)
            val = bessel(nu, z)
            assert val.real > 0.0
            assert abs(val.imag) <= 1e-12 * abs(val.real)

    def test_scaled_finite_for_huge_argument(self):
        # e^-z I_nu(z), overflow-safe from the log
        val = np.exp(log_i(1.62, 5000.0) - 5000.0)
        want = mp.besseli(mp.mpf("1.62"), 5000, derivative=0) * mp.e ** (-5000)
        assert rel_err(val, complex(want)) < 1e-11

    @pytest.mark.parametrize("z", [0.5, 3.0, 20.0, 80.0, 400.0, 3000.0])
    def test_real_axis_against_mpmath(self, z):
        for nu in (0.0, 1.6234, 4.5, 1.5 + 2.0j, 6.0 - 3.0j):
            got = np.exp(log_i(nu, z) - z)
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
                got = np.exp(log_i(nu, z) - z)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag), mp.mpf(z)
                ) * mp.e ** (-mp.mpf(z))
                assert rel_err(got, complex(want)) < 5e-11, (nu, z)

    def test_moderate_order_large_argument(self):
        # |nu|^2 comparable to z: must stay on the series branch and stay
        # accurate.
        for nu in (6.0, 8.0 + 2.0j, 12.0):
            for z in (40.0, 90.0, 160.0):
                got = np.exp(log_i(nu, z) - z)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag), mp.mpf(z)
                ) * mp.e ** (-mp.mpf(z))
                assert rel_err(got, complex(want)) < 1e-9, (nu, z)

    def test_complex_argument_sector(self):
        # Arguments off the real axis but inside the asymptotic sector.
        for z in (60.0 + 30.0j, 120.0 - 60.0j, 45.0 + 10.0j):
            for nu in (1.0, 2.5 + 1.5j):
                got = np.exp(log_i(nu, z) - complex(z).real)
                want = mp.besseli(
                    mp.mpc(complex(nu).real, complex(nu).imag),
                    mp.mpc(complex(z).real, complex(z).imag),
                ) * mp.e ** (-complex(z).real)
                assert rel_err(got, complex(want)) < 1e-9, (nu, z)


def log_err(got, want):
    """|got - want| for logs, with the imaginary part taken modulo 2 pi."""
    d = complex(got) - complex(want)
    return abs(complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi))


def mp_log_bessel_i(nu, z):
    nu, z = complex(nu), complex(z)
    return complex(mp.log(mp.besseli(mp.mpc(nu.real, nu.imag),
                                     mp.mpc(z.real, z.imag))))


def running_bessel_series(nu, z):
    """Oracle: log I_nu(z) by the series summed with a running product per
    element, c_0 = 1, c_k = c_{k-1} q / (k (nu + k)) with q = z^2/4.  A
    partial sum past 1e250 is shifted down by 2^-512 and the shift kept in
    a per-element log scale.  Checkpoints are every 8 terms up to k = 60
    and every term after; the sum stops once every element's term is at
    most SERIES_STOP_REL x |sum| at two consecutive checkpoints."""
    nu, z = (np.ascontiguousarray(x, dtype=complex)
             for x in np.broadcast_arrays(nu, z))
    q = z * z * 0.25
    term = np.ones(z.shape, dtype=complex)
    total = np.ones(z.shape, dtype=complex)
    scale = np.zeros(z.shape)
    small_prev = False
    for k in range(1, specfun.SERIES_MAX_TERMS + 1):
        term *= q / (k * (nu + k))
        total += term
        if k % 8 == 0 or k > 60:
            sm = specfun._mag(total)
            small = bool(np.all(specfun._mag(term)
                                <= specfun.SERIES_STOP_REL * sm))
            if small and small_prev:
                break
            small_prev = small
            big = sm > specfun._RESCALE_LIMIT
            term[big] *= specfun._RESCALE_SHIFT
            total[big] *= specfun._RESCALE_SHIFT
            scale[big] += specfun._RESCALE_LOG
    else:
        raise SeriesNonConvergenceError("oracle series did not converge")
    return (nu * np.log(z * 0.5) - specfun._log_gamma_vec(nu + 1.0)
            + np.log(total) + scale)


def running_kummer_taylor(a, b, z):
    """Oracle: (log M(a, b, z), lost) by the Taylor series summed with a
    running product per element, t_{k+1} = t_k (a + k) z / ((b + k)(k + 1)),
    rescaled as in ``running_bessel_series``, with checkpoints every 4
    terms up to k = 40 and every term after.  ``lost`` is the digits-lost
    proxy log(sum of |terms| / |M|)."""
    a, b, z = (np.ascontiguousarray(x, dtype=complex)
               for x in np.broadcast_arrays(a, b, z))
    term = np.ones(z.shape, dtype=complex)
    total = np.ones(z.shape, dtype=complex)
    abs_total = np.ones(z.shape)
    scale = np.zeros(z.shape)
    small_prev = np.zeros(z.shape, dtype=bool)
    for k in range(specfun.SERIES_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        abs_total += np.abs(term)
        if k % 4 == 3 or k > 40:
            tm = specfun._mag(term)
            small = tm <= specfun.SERIES_STOP_REL * specfun._mag(total)
            if np.all(small & small_prev):
                break
            small_prev = small
            big = abs_total > specfun._RESCALE_LIMIT
            term[big] *= specfun._RESCALE_SHIFT
            total[big] *= specfun._RESCALE_SHIFT
            abs_total[big] *= specfun._RESCALE_SHIFT
            scale[big] += specfun._RESCALE_LOG
    else:
        raise SeriesNonConvergenceError("oracle series did not converge")
    logm = np.log(total) + scale
    return logm, np.log(abs_total) + scale - logm.real


def log_series(nu, z):
    """The series on orders (n, 1) x arguments (m,) as a log: its sums S
    and log scale with the prefactor (z/2)^nu / Gamma(nu + 1), nu log(z/2)
    - log Gamma(nu + 1) + scale + log S."""
    s, scale = specfun._log_bessel_series(nu, z)
    e = nu * np.log(z * 0.5) - specfun._log_gamma_vec(nu + 1.0)
    return specfun._split_log(e if scale is None else e + scale, s)


def log_bessel(nu, z):
    """``_log_bessel_i_vec``'s split table as a log, E + log S."""
    return specfun._split_log(*specfun._log_bessel_i_vec(nu, z))


def bessel_point(nu, z):
    """The series at one (nu, z), a 1 x 1 table."""
    return log_series(np.array([[nu]]), np.array([z]))[0, 0]


def table_points_oracle(nu, z):
    """The series on orders x arguments in their layout (one table), at
    every element as a 1 x 1 table, and by the running-product oracle."""
    table = specfun._rows_by_columns(log_series, (nu,), (z,))
    points = np.vectorize(bessel_point, otypes=[complex])(nu, z)
    return table, points, running_bessel_series(nu, z)


class TestBesselSeriesOuter:
    """The matrix-product route of the series on orders x arguments against
    1 x 1 tables of the same inputs, the running-product oracle and
    mpmath."""

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
        outer, points, oracle = table_points_oracle(nu, z)
        assert outer.shape == eta.shape[:2] + (nodes.size,)
        assert np.max(np.abs(outer - points)) <= 1e-13
        assert np.max(np.abs(outer - oracle)) <= 1e-13
        assert np.max(np.abs(points - oracle)) <= 1e-13
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
        outer, points, oracle = table_points_oracle(nu, z)
        for i in range(nu.shape[0]):
            for j in range(z.shape[1]):
                want = mp_log_bessel_i(nu[i, 0], z[0, j])
                tol = 1e-13 + 2e-15 * abs(want)
                for got in (outer, points, oracle):
                    assert log_err(got[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], points[i, j]) <= tol, (i, j)

    def test_order_imaginary_part_dominates(self):
        nu = np.array([0.5 + 200.0j, 3.0 - 500.0j, 1000.0j])[:, None]
        z = np.array([0.1, 2.0, 10.0, 30.0], dtype=complex)[None, :]
        outer, points, oracle = table_points_oracle(nu, z)
        for i in range(nu.shape[0]):
            for j in range(z.shape[1]):
                want = mp_log_bessel_i(nu[i, 0], z[0, j])
                tol = 1e-13 + 2e-15 * abs(want)
                for got in (outer, points, oracle):
                    assert log_err(got[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], points[i, j]) <= tol, (i, j)

    def test_element_rule_rejects_a_short_table(self, monkeypatch):
        # Every element's last two terms are checked after the product: a
        # table cut after 4 terms must be rejected and rebuilt longer.
        nu = np.array([1.5, 2.0 + 1.0j, 7.0 - 3.0j])[:, None]
        z = np.array([1.0, 4.0, 9.0 + 2.0j], dtype=complex)
        want = log_series(nu, z)
        calls = []
        table = specfun._series_table

        def short_first(den, s, min_terms, num=None, spare=None):
            calls.append(min_terms)
            coef, row_scale = table(den, s, min_terms, num, spare)
            return (coef[:5] if len(calls) == 1 else coef), row_scale

        monkeypatch.setattr(specfun, "_series_table", short_first)
        got = log_series(nu, z)
        assert calls == [0, 12]
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        nu = np.array([1.5, 2.0 + 1.0j])[:, None]
        z = np.array([1.0, 4.0], dtype=complex)
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_bessel_series(nu, z)

    def test_negative_integer_order_raises(self):
        nu = np.array([1.5, -3.0])[:, None].astype(complex)
        z = np.array([1.0, 4.0], dtype=complex)
        with pytest.raises(SpecfunDomainError):
            specfun._log_bessel_series(nu, z)
        with pytest.raises(SpecfunDomainError):
            specfun._log_bessel_i_vec(nu, z)


def series_layouts(monkeypatch):
    """Record the (nu, z) shapes of every ``_log_bessel_series`` call."""
    shapes = []
    series = specfun._log_bessel_series

    def spy(nu, z):
        shapes.append((nu.shape, z.shape))
        return series(nu, z)

    monkeypatch.setattr(specfun, "_log_bessel_series", spy)
    return shapes


class TestBesselTable:
    """Orders and arguments on disjoint axes in mixed regimes: the orders as
    rows x the arguments as columns, the series by the matrix route, against
    every element as a 1 x 1 table.  Each layout has columns whose regime
    differs across rows."""

    def table_and_elements(self, monkeypatch, nu, z):
        nu, z = nu.astype(complex), z.astype(complex)
        use_asym = specfun._bessel_asym_mask(nu.reshape(-1, 1),
                                             z.reshape(1, -1))
        assert np.any(np.any(use_asym, axis=0) & ~np.all(use_asym, axis=0))
        shapes = series_layouts(monkeypatch)
        table = log_bessel(nu, z)
        # one series call, on orders (n, 1) x arguments (k,)
        [(rows, cols)] = shapes
        assert rows == (nu.size, 1) and len(cols) == 1
        assert table.shape == np.broadcast_shapes(nu.shape, z.shape)
        # up to 1500 elements, each of both regimes
        nu_b, z_b = (x.ravel() for x in np.broadcast_arrays(nu, z))
        pick = np.random.default_rng(9).permutation(nu_b.size)[:1500]
        assert 0 < np.count_nonzero(
            specfun._bessel_asym_mask(nu_b[pick], z_b[pick])) < pick.size
        elements = np.vectorize(log_i, otypes=[complex])(
            nu_b[pick], z_b[pick])
        assert all(shape == ((1, 1), (1,)) for shape in shapes[1:])
        assert np.max([log_err(a, b) for a, b in
                       zip(table.ravel()[pick], elements)]) <= 1e-13
        return table

    def test_timer_orders_at_an_n12_date(self, monkeypatch, timer_params):
        # (omega, eta, 1) x v' at t_1 = T/12 of an N = 12 timer, where
        # |z| reaches 44: omega_R from 30 to 70 puts |nu|^2 on both sides
        # of 2.5 |z| for the largest v' arguments.
        p = timer_params
        cfg = QuadratureConfig()
        t_j = 1.0 / 12.0
        nodes, _ = log_density_grid(
            lambda vp: tr._log_density_v_vec(0.0, p.v0, t_j, vp, p), cfg)
        A = coef_A(p.theta, 0.0, t_j)
        C = coef_C(p.theta, p.epsilon, 0.0, t_j)
        z = ((2.0 / C) * np.sqrt(A / (p.v0 * nodes)))[None, None, :]
        omega = np.linspace(30.0, 70.0, 6) + 1j * cfg.damping_omega
        s = pricers._talbot_contour(pricers.TALBOT_NODES, 0.087, 1.0, omega,
                                    p)[0]
        nu = 2.0 * tr._c_exponent(omega[:, None, None], 1j * s[:, ::4, None],
                                  p)
        table = self.table_and_elements(monkeypatch, nu, z)
        assert table.shape == nu.shape[:2] + (nodes.size,)

    def test_corridor_g1_orders(self, monkeypatch, snp_params):
        # (omega, 1) x the stacked period nodes of the N = 12 lag-1
        # corridor swap, each node with its own date t_{k-1}.
        p = snp_params
        cfg = QuadratureConfig()
        v, _, t_km1, _, _ = (np.concatenate(x) for x in zip(*(
            pricers._period_grids(p, cfg, [(k / 12.0, (k + 1) / 12.0)
                                           for k in range(1, 12)], 130.0))))
        _, A, C = tr._date_coefficients(0.0, t_km1, p)
        z = (2.0 / C) * np.sqrt(A / (p.v0 * v))
        omega = np.linspace(60.0, 130.0, 8) + 1j * pricers.CORRIDOR_DAMPING
        nu = 2.0 * tr._c_exponent(omega[:, None], 0.0, p)
        self.table_and_elements(monkeypatch, nu, z)

    def test_tower_orders(self, monkeypatch, snp_params):
        # (phi, 1, 1, 1) x (rows, inner) of the tower route's second
        # period, with orders 2c(omega - i) at omega_R = 0, 80, 100, 120 on
        # the phi axis: the production phi nodes all take one regime per
        # column.
        p = snp_params
        cfg = QuadratureConfig()
        t_km1, t_k = 1.0 / 12.0, 2.0 / 12.0
        v = next(pricers._period_grids(p, cfg, [(t_km1, t_k)], 1.0))[0]
        inner, _ = pricers._transition_grid(p, t_km1, t_k, v, cfg, 1.0)
        A = coef_A(p.theta, t_km1, t_k)
        C = coef_C(p.theta, p.epsilon, t_km1, t_k)
        z = (2.0 / C) * np.sqrt(A / (v[::12, None] * inner[::12]))
        omega = np.array([0.0, 80.0, 100.0, 120.0]) - 1j
        nu = 2.0 * tr._c_exponent(omega[:, None, None, None], 0.0, p)
        table = self.table_and_elements(monkeypatch, nu, z)
        assert table.shape == (4, 1) + z.shape

    def test_all_series_tower_layout_is_one_table_call(self, monkeypatch,
                                                       snp_params):
        # The tower's g factor at omega = -i plus the Cauchy nodes phi,
        # (phi, 1, 1, 1) x (rows, inner), on the rows whose arguments all
        # stay below the asymptotic threshold: one series call on the
        # orders as rows x every (row, inner) argument as columns.
        p = snp_params
        cfg = QuadratureConfig()
        t_km1, t_k = 1.0 / 12.0, 2.0 / 12.0
        v = next(pricers._period_grids(p, cfg, [(t_km1, t_k)], 1.0))[0]
        inner, _ = pricers._transition_grid(p, t_km1, t_k, v, cfg, 1.0)
        A = coef_A(p.theta, t_km1, t_k)
        C = coef_C(p.theta, p.epsilon, t_km1, t_k)
        z = (2.0 / C) * np.sqrt(A / (v[:, None] * inner))
        z = z[np.max(z, axis=1) < specfun.BESSEL_ASYMPTOTIC_MIN_Z]
        assert z.shape[0] > 1
        phis = pricers.MOMENT_RADIUS * np.exp(
            2j * np.pi * (np.arange(pricers.MOMENT_NODES) + 0.5)
            / pricers.MOMENT_NODES)
        nu = 2.0 * tr._c_exponent(-1j + phis[:, None, None, None], 0.0, p)
        shapes = series_layouts(monkeypatch)
        got = log_bessel(nu, z)
        assert shapes == [((phis.size, 1), (z.size,))]
        assert got.shape == (phis.size, 1) + z.shape
        oracle = running_bessel_series(nu, z)
        assert np.max(np.abs(got - oracle)) <= 1e-13

    def test_orders_after_the_arguments(self, monkeypatch):
        # disjoint axes in either order: z on the leading axis, nu last
        nu = np.array([0.5, 1.0, 14.0, 20.0 + 3.0j])
        z = np.array([2.0, 35.0, 80.0, 150.0])[:, None]
        table = self.table_and_elements(monkeypatch, nu, z)
        assert table.shape == (4, 4)

    @pytest.mark.parametrize("edge", [0.0, -3.0 + 1.0j])
    def test_zero_or_left_argument_raises(self, monkeypatch, edge):
        # z = 0 and Re z < 0 are outside the kernel: a typed error naming
        # the cause, before any series is summed
        nu = np.array([0.5, 1.0, 14.0])[:, None].astype(complex)
        z = np.array([edge, 2.0, 35.0, 80.0], dtype=complex)[None, :]
        shapes = series_layouts(monkeypatch)
        cause = "z != 0" if edge == 0.0 else "Re z >= 0"
        with pytest.raises(SpecfunDomainError, match=cause):
            specfun._log_bessel_i_vec(nu, z)
        with pytest.raises(SpecfunDomainError, match=cause):
            specfun._log_bessel_i_vec(1.2 + 0.4j, edge)
        assert shapes == []

    def test_shared_axis_raises(self):
        # orders and arguments varying along one axis have no rows x
        # columns layout
        nu = np.array([0.5, 1.0, 14.0])
        z = np.array([2.0, 35.0, 80.0])
        with pytest.raises(SpecfunDomainError, match="vary along one axis"):
            specfun._log_bessel_i_vec(nu, z)
        with pytest.raises(SpecfunDomainError, match="vary along one axis"):
            specfun._log_bessel_i_vec(nu[:, None], z[None, :, None])
        # a size-1 axis is shared by nobody
        assert all(t.shape == (3,)
                   for t in specfun._log_bessel_i_vec(nu[:1], z))

    def test_negative_integer_order_raises(self):
        nu = np.array([1.5, -3.0, 14.0])[:, None].astype(complex)
        z = np.array([1.0, 35.0, 200.0], dtype=complex)[None, :]
        mask = specfun._bessel_asym_mask(nu, z)
        assert np.any(mask) and not np.all(mask)
        with pytest.raises(SpecfunDomainError):
            specfun._log_bessel_i_vec(nu, z)


class TestSplitForm:
    """I_nu(z) = e^E S against mpmath in each regime of the table: the
    series, the series with a row scale (terms past 1e250), the asymptotic
    expansion, and one table that mixes all three.  The value e^E S
    (``_split_exp``) agrees with the log route exp(E + log S)
    (``_split_log``) to the rounding of exp at that magnitude."""

    @staticmethod
    def check(nu, z, regimes):
        nu = np.asarray(nu, dtype=complex)[:, None]
        z = np.asarray(z, dtype=float)
        scales = []
        series = specfun._log_series_outer

        def spy(*args, **kwargs):
            out = series(*args, **kwargs)
            scales.append(out[1])
            return out

        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(specfun, "_log_series_outer", spy)
            e, s = specfun._log_bessel_i_vec(nu, z)
        seen = {name for name, hit in (
            ("asymptotic",
             np.any(specfun._bessel_asym_mask(nu, z.astype(complex)))),
            ("series", any(x is None or not np.all(x) for x in scales)),
            ("scaled series", any(x is not None for x in scales))) if hit}
        assert seen == regimes
        log_route = specfun._split_log(e, s)
        for i, j in np.ndindex(e.shape):
            want = mp_log_bessel_i(nu[i, 0], z[j])
            tol = 1e-13 + 2e-15 * abs(want)
            assert log_err(log_route[i, j], want) <= tol, (i, j)
            if want.real > 700.0:
                # not representable: its value brought into range by e^-z
                got = specfun._split_exp(e[i:i + 1, j] - z[j],
                                         s[i:i + 1, j])[0]
                assert rel_err(got, np.exp(want - z[j])) <= tol, (i, j)
                continue
            got = specfun._split_exp(e[i:i + 1, j].copy(), s[i:i + 1, j])[0]
            assert np.isfinite(got), (i, j)
            assert rel_err(got, np.exp(want)) <= tol, (i, j)
            # the two routes round E + log S apart, and exp turns that
            # into a relative error
            assert rel_err(got, np.exp(log_route[i, j])) <= 1e-14 + 2.0 * EPS * (
                abs(e[i, j]) + abs(np.log(s[i, j]))), (i, j)

    def test_series(self):
        self.check([0.5, 3.0 + 2.0j, 20.0 - 5.0j], [0.1, 2.0, 15.0, 29.0],
                   {"series"})

    def test_series_with_a_row_scale(self):
        # |nu|^2 > 2.5 |z| keeps the series; at z = 1000 and 1400 its
        # terms pass 1e250
        self.check([60.0, 60.0 + 5.0j], [1000.0, 1400.0], {"scaled series"})

    def test_asymptotic(self):
        self.check([0.5, 2.0 + 1.0j, 6.0 - 3.0j], [40.0, 200.0, 900.0],
                   {"asymptotic"})

    def test_one_table_mixing_all_three(self):
        self.check([0.5, 3.0 + 1.0j, 60.0], [2.0, 45.0, 1000.0, 1400.0],
                   {"series", "scaled series", "asymptotic"})

    @pytest.mark.parametrize("e,log_s", [(-800.0, 200.0), (800.0, -200.0),
                                         (-760.0 + 3.0j, 100.0 - 1.0j)])
    def test_exponent_past_the_double_range(self, e, log_s):
        # e^E alone would underflow or overflow; the value is e^(E + log S)
        e_tab = np.full((2, 3), e, dtype=complex)
        s_tab = np.full((2, 3), np.exp(log_s), dtype=complex)
        e_tab[0, 0], s_tab[0, 0] = 1.5 - 2.0j, 0.25
        got = specfun._split_exp(e_tab, s_tab)
        assert rel_err(got[0, 0], 0.25 * np.exp(1.5 - 2.0j)) <= 4.0 * EPS
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got.ravel()[1:] / np.exp(e + log_s) - 1.0)) \
            <= 1e-14 + 2.0 * EPS * abs(e)


class TestClog:
    """``specfun._clog`` against ``np.log``: log|w| from the rounded |w|
    carries about an ulp of |w| (an absolute error near eps where |w| is
    near 1), and its angle is NumPy's arctan2, within an ulp of libm's."""

    @staticmethod
    def check(w):
        got, want = specfun._clog(w), np.log(w)
        assert np.all(np.abs(got.real - want.real)
                      <= 2.0 * EPS * (1.0 + np.abs(want.real)))
        assert np.all(np.abs(got.imag - want.imag)
                      <= np.spacing(np.abs(want.imag)))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_random_points(self, scale):
        rng = np.random.default_rng(3)
        n = 20000
        spread = rng.choice([1e-3, 1e-9, 1e-15], n)
        r = scale * (1.0 + spread * rng.standard_normal(n))
        self.check(r * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))

    def test_wide_magnitudes(self):
        rng = np.random.default_rng(4)
        n = 20000
        self.check(np.exp(rng.uniform(-700.0, 700.0, n)
                          + 1j * rng.uniform(-np.pi, np.pi, n)))

    def test_real_axis_exact(self):
        # the branch cut and the positive axis: signed zeros pick +-pi
        w = np.array([complex(-2.0, 0.0), complex(-2.0, -0.0),
                      complex(-1e-300, 0.0), complex(-1e300, -0.0),
                      complex(-1.0, 0.0), complex(1.0, -0.0),
                      complex(3.5, 0.0), complex(1e-300, 0.0)])
        got, want = specfun._clog(w), np.log(w)
        assert np.array_equal(got.imag, want.imag)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert np.array_equal(got.real, want.real)


class TestPowerTable:
    """``specfun._power_table`` (doubling) against exact powers."""

    @staticmethod
    def worst_ulps(x, n_terms):
        table = specfun._power_table(x, n_terms)
        worst = 0.0
        with mp.workdps(40):
            for j, xj in enumerate(x):
                base = mp.mpc(xj.real, xj.imag)
                exact = mp.mpf(1)
                for k in range(n_terms + 1):
                    if abs(exact) < 1e-300:
                        break
                    got = mp.mpc(table[k, j].real, table[k, j].imag)
                    worst = max(worst, float(abs(got - exact) / abs(exact)))
                    exact *= base
        return worst / EPS

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_tables_to_corridor_lengths(self, dtype):
        # Kummer's real arguments, and the Bessel series' complex arrays
        # of real q, up to the corridor's table lengths (about 1400 terms)
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(0.0, 1.0, 12),
                            1.0 - rng.uniform(0.0, 1e-3, 4), [1.0, 0.5]])
        assert self.worst_ulps(x.astype(dtype), 1400) <= 6.0

    def test_complex_tables(self):
        # complex x squares its anchors: the error grows about like K / 3
        rng = np.random.default_rng(6)
        x = rng.uniform(0.5, 1.0, 12) * np.exp(1j * rng.uniform(-np.pi,
                                                                 np.pi, 12))
        assert self.worst_ulps(x, 64) <= 0.5 * 64

    @pytest.mark.parametrize("n_terms", [0, 1, 2, 3, 7, 8, 9])
    def test_short_tables(self, n_terms):
        x = np.array([0.3, -0.7, 1.0, 0.0])
        for xx in (x, x + 0.25j):
            want = xx ** np.arange(n_terms + 1)[:, None]
            got = specfun._power_table(xx, n_terms)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=4 * EPS, atol=0.0)


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
    taylor = ~np.all(specfun._kummer_asym_mask(at[:, None], bt[:, None], x),
                     axis=0)
    return (bt - at)[:, None], bt[:, None], x[taylor]


def mp_log_hyp1f1(a, b, x):
    a, b = complex(a), complex(b)
    return complex(mp.log(mp.hyp1f1(mp.mpc(a.real, a.imag),
                                    mp.mpc(b.real, b.imag), mp.mpf(x))))


def kummer_point(a, b, x):
    """Kummer's Taylor series at one (a, b, x), a 1 x 1 table:
    (log M, lost)."""
    logm, lost = specfun._log_kummer_taylor(np.array([[a]]), np.array([[b]]),
                                            np.array([x]))
    return logm[0, 0], lost[0, 0]


def kummer_table_points_oracle(a, b, x):
    """Kummer's Taylor series on parameter rows x argument columns (one
    table), at every element as a 1 x 1 table, and by the running-product
    oracle, each as (log M, lost)."""
    points = np.vectorize(kummer_point, otypes=[complex, float])(a, b, x)
    return (specfun._log_kummer_taylor(a, b, x), points,
            running_kummer_taylor(a, b, x))


def max_log_err(got, want):
    return max(log_err(g, w) for g, w in zip(np.ravel(got), np.ravel(want)))


def recorded_tables(monkeypatch):
    """Record (s, whether a column needed a log scale) per
    ``_series_table`` call."""
    tables = []
    table = specfun._series_table

    def spy(den, s, min_terms, num=None, spare=None):
        coef, row_scale = table(den, s, min_terms, num, spare)
        tables.append((s, bool(np.any(row_scale))))
        return coef, row_scale

    monkeypatch.setattr(specfun, "_series_table", spy)
    return tables


class TestKummerTaylorOuter:
    """The matrix-product route of Kummer's Taylor series on parameters x
    arguments against 1 x 1 tables of the same inputs, the running-product
    oracle and mpmath."""

    def test_corridor_grid(self, snp_params):
        a, b, x = corridor_kummer_grid(snp_params)
        # the columns the gate sends to Taylor reach past KUMMER_ASYM_MIN_X
        # to about 190 (mx^2 + 50 of the largest row is 207);
        # test_terms_past_1e250_split_the_bands covers x = 600 and 1400
        assert x.min() < 1e-4 and x.max() > 150.0
        (outer, lost), (points, lost_points), (oracle, lost_oracle) = \
            kummer_table_points_oracle(a, b, x)
        assert outer.shape == (a.shape[0], x.size)
        assert max_log_err(outer, points) <= 1e-13
        assert max_log_err(outer, oracle) <= 1e-13
        assert max_log_err(points, oracle) <= 1e-13
        # every route reads the sum of |terms| over |M|
        assert np.max(np.abs(lost - lost_points)) <= 1e-12
        assert np.max(np.abs(lost - lost_oracle)) <= 1e-12
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
        tables = recorded_tables(monkeypatch)
        outer, _ = specfun._log_kummer_taylor(a, b, x)
        assert (1400.0, True) in tables
        assert len({s for s, _ in tables}) >= 3
        (_, _), (points, _), (oracle, _) = kummer_table_points_oracle(a, b, x)
        for i in range(a.shape[0]):
            for j in range(x.size):
                want = mp_log_hyp1f1(a[i, 0], b[i, 0], x[j])
                tol = 1e-13 + 2e-15 * abs(want)
                for got in (outer, points, oracle):
                    assert log_err(got[i, j], want) <= tol, (i, j)
                assert log_err(outer[i, j], points[i, j]) <= tol, (i, j)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_single_argument_is_one_column(self, snp_params, monkeypatch,
                                           dtype):
        # one variance (the European CF, the timer's h): every parameter
        # row against one column, the table built at s = that argument
        a, b, x = corridor_kummer_grid(snp_params)
        one = x[-1:].astype(dtype)
        tables = recorded_tables(monkeypatch)
        logm, lost = specfun._log_kummer_taylor(a, b, one)
        assert logm.shape == lost.shape == (a.size, 1)
        assert tables and all(s == abs(one[0]) for s, _ in tables)
        oracle, oracle_lost = running_kummer_taylor(a, b, one)
        assert max_log_err(logm, oracle) <= 1e-13
        assert np.max(np.abs(lost - oracle_lost)) <= 1e-12

    def test_lost_digits_measured(self):
        # Negative real arguments cancel: the raw series loses ~15 digits at
        # x = -80 on every route, far past MAX_LOST.
        a = np.array([0.8, 0.8 + 0.5j])[:, None]
        b = np.array([2.3, 2.3])[:, None]
        x = np.array([-80.0, -1.0])
        (_, lost), (_, lost_points), (_, lost_oracle) = \
            kummer_table_points_oracle(a, b, x)
        for got in (lost, lost_points, lost_oracle):
            assert np.all(got[:, 0] > 23.0)
        assert np.all(lost[:, 1] < 2.0)
        # at x = -80 |M| itself is lost, so the readings agree only at -1
        assert np.max(np.abs(lost[:, 1] - lost_oracle[:, 1])) <= 1e-12
        assert np.max(np.abs(lost_points[:, 1] - lost_oracle[:, 1])) <= 1e-12

    @pytest.mark.parametrize("x", [2.0, 2.0 + 0.0j])
    def test_sum_cancelled_to_zero(self, x):
        # M(-1, 2, x) = 1 - x/2: at x = 2 the terms 1 and -1 are exact and
        # cancel to exactly 0, so log M = -inf and lost = +inf, with no
        # warning (RuntimeWarnings are errors in this suite)
        logm, lost = kummer_point(-1.0, 2.0, x)
        assert logm.real == -np.inf and lost == np.inf

    def test_zero_sum_keeps_its_table(self, monkeypatch):
        # a sum of exactly 0 has no relative accuracy to reach, so its
        # table is not grown for it, though its last terms are as big as
        # the first: 1 - 1 + 1 - 1
        calls = []

        def ones(den, s, min_terms, num=None, spare=None):
            assert not calls, "the table was grown"
            calls.append(min_terms)
            return np.ones((4, den.size), dtype=complex), np.zeros(den.size)

        monkeypatch.setattr(specfun, "_series_table", ones)
        logm, lost = kummer_point(0.5, 1.5, -1.0)
        assert calls == [0]
        assert logm.real == -np.inf and lost == np.inf

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


class TestPairedTable:
    """Paired inputs (parameter_i, argument_i) beyond the production grids,
    each summed as a 1 x 1 table, against the running-product oracle and
    mpmath: complex Bessel arguments, negative and complex Kummer
    arguments, terms past 1e250, b-poles and term caps."""

    def test_bessel_complex_arguments(self, monkeypatch):
        nu = np.array([0.5, 1.6 + 0.7j, 6.0 - 3.0j, 12.0 + 20.0j,
                       0.3 + 150.0j])
        z = np.array([2.0 + 3.0j, 15.0 - 8.0j, 0.4 + 0.1j, 25.0 + 12.0j,
                      9.0 - 4.0j])
        tables = recorded_tables(monkeypatch)
        got = np.vectorize(bessel_point, otypes=[complex])(nu, z)
        assert len(tables) == nu.size
        oracle = running_bessel_series(nu, z)
        for i in range(nu.size):
            want = mp_log_bessel_i(nu[i], z[i])
            tol = 1e-13 + 2e-15 * abs(want)
            assert log_err(got[i], want) <= tol, i
            assert log_err(oracle[i], want) <= tol, i
            assert log_err(got[i], oracle[i]) <= tol, i

    def test_kummer_negative_and_complex_arguments(self):
        a = np.array([0.8, 0.8 + 0.5j, 1.3 - 2.0j, 4.0 + 1.0j, 2.0, 0.5])
        b = np.array([2.3, 1.7 - 0.4j, 3.1 + 1.0j, 0.6 + 0.2j, 5.0, 1.5])
        x = np.array([-5.0, -3.0 + 2.0j, 4.0 - 6.0j, -2.0 - 1.0j, 10.0j,
                      -12.0])
        logm, lost = np.vectorize(kummer_point, otypes=[complex, float])(
            a, b, x)
        oracle, oracle_lost = running_kummer_taylor(a, b, x)
        assert np.max(lost) > 5.0  # some of these cancel
        for i in range(x.size):
            want = complex(mp.log(mp.hyp1f1(
                mp.mpc(a[i].real, a[i].imag), mp.mpc(b[i].real, b[i].imag),
                mp.mpc(x[i].real, x[i].imag))))
            # the series' roundoff bound (see MAX_LOST)
            tol = 1e-14 + 20.0 * EPS * math.exp(lost[i])
            assert log_err(logm[i], want) <= tol, i
            assert log_err(logm[i], oracle[i]) <= tol, i
            assert abs(lost[i] - oracle_lost[i]) <= 1e-12 + tol, i

    def test_terms_past_1e250_take_a_log_scale(self, monkeypatch):
        tables = recorded_tables(monkeypatch)
        nu = np.array([60.0, 60.0 + 5.0j, 20.0, 1.5])
        z = np.array([1400.0, 1000.0 + 50.0j, 1400.0, 2.0])
        got = np.vectorize(bessel_point, otypes=[complex])(nu, z)
        assert [scaled for _, scaled in tables] == [True, True, True, False]
        oracle = running_bessel_series(nu, z)
        for i in range(nu.size):
            want = mp_log_bessel_i(nu[i], z[i])
            tol = 1e-13 + 2e-15 * abs(want)
            assert log_err(got[i], want) <= tol, i
            assert log_err(got[i], oracle[i]) <= tol, i
        tables.clear()
        a = np.array([1.3 + 0.3j, 4.0 - 2.0j, 0.5])
        b = np.array([3.1, 2.0 + 1.0j, 1.5])
        x = np.array([1400.0, 900.0, 1.0])
        logm, _ = np.vectorize(kummer_point, otypes=[complex, float])(a, b, x)
        assert [scaled for _, scaled in tables] == [True, True, False]
        oracle, _ = running_kummer_taylor(a, b, x)
        for i in range(x.size):
            want = mp_log_hyp1f1(a[i], b[i], x[i])
            tol = 1e-13 + 2e-15 * abs(want)
            assert log_err(logm[i], want) <= tol, i
            assert log_err(logm[i], oracle[i]) <= tol, i

    def test_b_pole_and_term_cap(self, monkeypatch):
        a = np.array([1.5, 1.5], dtype=complex)[:, None]
        with pytest.raises(SpecfunDomainError):
            specfun._log_kummer_taylor(a, np.array([2.5, -3.0])[:, None],
                                       np.array([1.0]))
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_kummer_taylor(a, np.array([2.5, 3.0])[:, None],
                                       np.array([1.0]))
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_bessel_series(a, np.array([4.0 + 1.0j]))


# The Taylor series' roundoff stays below 20 eps e^lost, with ``lost`` the
# digits-lost proxy of ``_log_kummer_taylor`` in nats, log(sum of |terms| /
# |M|) (measured against mpmath on 9000 random points with Re a in [0.5, 6],
# Re b in [0.6, 5], |Re z| <= 6, |Im a|, |Im z| <= 4, |Im b| <= 2: at most
# 8.2 eps e^lost), so a value that lost at most MAX_LOST is within 5e-10.
MAX_LOST = math.log(5e-10 / (20.0 * EPS))


def kummer(a, b, z, transform=False):
    """(M(a, b, z), lost) at one point by the Taylor series, through
    Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z) where
    ``transform``."""
    if transform:
        logm, lost = kummer_point(b - a, b, -z)
        return complex(np.exp(logm + z)), lost
    logm, lost = kummer_point(a, b, z)
    return complex(np.exp(logm)), lost


class TestKummerM:
    """M by the Taylor kernel, through the transformation where Re z < 0
    (the side that does not cancel), against closed forms and mpmath."""

    def test_z_zero(self):
        assert kummer(0.77 - 3j, 2 + 1j, 0.0)[0] == 1.0

    def test_a_equals_b_is_exp(self):
        got, _ = kummer(1.5 - 0.2j, 1.5 - 0.2j, 3.0)
        assert rel_err(got, math.exp(3.0)) < 1e-13

    def test_transform_identity_paper_example(self):
        a, b, z = 0.8 + 0.1j, 2.3, -5.0
        lhs, _ = kummer(a, b, z)
        rhs, _ = kummer(a, b, z, transform=True)
        assert rel_err(lhs, rhs) <= 1e-10
        # frozen mpmath oracle for the same point
        want = complex(0.32711129485162253713, -0.050725074183882724294)
        assert rel_err(rhs, want) < 1e-12

    def test_b_pole_raises(self):
        with pytest.raises(SpecfunDomainError):
            kummer(1.0, 0.0, 1.0)
        with pytest.raises(SpecfunDomainError):
            kummer(1.0, -3.0, 0.5)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
            z = complex(rng.uniform(-12, 12), rng.uniform(-6, 6))
            got, lost = kummer(a, b, z, transform=z.real < 0.0)
            assert lost <= MAX_LOST, (a, b, z)
            want = mp.hyp1f1(mp.mpc(a.real, a.imag), mp.mpc(b.real, b.imag),
                             mp.mpc(z.real, z.imag))
            assert rel_err(got, complex(want)) < 1e-10, (a, b, z)

    def test_large_positive_argument(self):
        got, _ = kummer(1.3 + 0.3j, 3.1, 300.0)
        want = mp.hyp1f1(mp.mpc(1.3, 0.3), mp.mpf(3.1), mp.mpf(300))
        assert rel_err(got, complex(want)) < 1e-10

    def test_raw_series_cancellation_guard(self):
        # the raw series cancels past MAX_LOST at x = -80; the transformed
        # side, all of whose terms are positive, loses nothing
        _, lost = kummer(0.8, 2.3, -80.0)
        assert lost > MAX_LOST
        _, lost = kummer(0.8, 2.3, -80.0, transform=True)
        assert lost <= 1e-12

    def test_asymptotic_negative_branch(self):
        # the algebraic sum the joint CF uses for large x, with the
        # Gamma(b)/Gamma(b - a) x^{-a} prefactor that cancels inside h:
        # M(a, b, -x) ~ Gamma(b)/Gamma(b - a) x^{-a} sum_s ...
        a = np.array([0.9 + 0.4j])
        b = np.array([2.6 + 0.8j])
        for x in (80.0, 400.0, 2000.0):
            xs = np.array([x])
            got = np.exp(specfun._log_gamma_vec(b)
                         - specfun._log_gamma_vec(b - a) - a * np.log(xs)
                         + specfun._log_kummer_asym_sum(a, b, xs))[0]
            want = mp.hyp1f1(mp.mpc(0.9, 0.4), mp.mpc(2.6, 0.8), mp.mpf(-x))
            assert rel_err(got, complex(want)) < 1e-10, x


def mp_log_kummer_factor(a, b, x):
    """log(Gamma(b - a)/Gamma(b) x^a M(a, b, -x)) by mpmath, the imaginary
    part reduced to (-pi, pi] before rounding (it can reach thousands)."""
    a, b = (mp.mpc(complex(p).real, complex(p).imag) for p in (a, b))
    x = mp.mpf(float(x))
    w = (mp.loggamma(b - a) - mp.loggamma(b) + a * mp.log(x)
         + mp.log(mp.hyp1f1(a, b, -x)))
    im = w.imag - 2 * mp.pi * mp.floor((w.imag + mp.pi) / (2 * mp.pi))
    return complex(w.real, im)


class TestKummerAsymGate:
    """The joint CF's Kummer factor takes the algebraic asymptotic branch
    where x > max(KUMMER_ASYM_MIN_X, mx^2 + 50), mx = max(|at|,
    |at - bt + 1|): there its 60-term loop provably reaches full
    precision."""

    def test_worst_case_bound(self):
        # The term ratio is at most (mx + s)^2 / ((s + 1) x), and falls as
        # x grows; at the smallest x the gate admits, the smallest of the
        # first 60 running products of that bound is below 1e-17 for
        # every mx.
        mx = np.concatenate([np.linspace(0.0, 10.0, 1001),
                             np.geomspace(10.0, 1e4, 300)])
        at, bt = mx, np.ones_like(mx)  # mx = max(|at|, |at - bt + 1|)
        edge = np.maximum(specfun.KUMMER_ASYM_MIN_X, mx * mx + 50.0)
        assert not np.any(specfun._kummer_asym_mask(at, bt, edge))
        assert np.all(specfun._kummer_asym_mask(at, bt,
                                                np.nextafter(edge, np.inf)))
        s = np.arange(60.0)[:, None]
        with np.errstate(divide="ignore"):
            log_terms = np.cumsum(2.0 * np.log(mx + s)
                                  - np.log((s + 1.0) * edge), axis=0)
        assert np.max(np.min(log_terms, axis=0)) <= math.log(1e-17)

    def test_admitted_band_against_mpmath(self, snp_params):
        # (at, bt) on the corridor contour omega_R - 0.5i out to
        # OMEGA_LIMIT, and at the Cauchy offsets omega + r e^{i theta} of
        # its moments; x on the band [mx^2 + 50, 3 mx^2 + 50] (x >= 60)
        # that the Taylor series used to take
        theta = 2.0 * math.pi * (np.arange(pricers.MOMENT_NODES) + 0.5) \
            / pricers.MOMENT_NODES
        offsets = np.append(0.0, pricers.MOMENT_RADIUS * np.exp(1j * theta))
        omega = ((np.linspace(0.0, OMEGA_LIMIT, 21) - 0.5j)[:, None]
                 + offsets).ravel()
        c = tr._c_exponent(omega, 0.0, snp_params)
        at = c - tr._b0(omega, snp_params)
        bt = 1.0 + 2.0 * c
        mx = np.maximum(np.abs(at), np.abs(at - bt + 1.0))
        lo = np.maximum(specfun.KUMMER_ASYM_MIN_X, mx * mx + 50.0)
        hi = 3.0 * mx * mx + 50.0
        keep = hi > lo  # the band is empty only at omega_R = 0
        assert np.count_nonzero(keep) == omega.size - offsets.size
        at, bt, lo, hi = at[keep], bt[keep], lo[keep], hi[keep]
        x = np.nextafter(lo[:, None] * (hi / lo)[:, None]
                         ** np.linspace(0.0, 1.0, 16), np.inf)
        at, bt = (np.broadcast_to(p[:, None], x.shape) for p in (at, bt))
        assert np.all(specfun._kummer_asym_mask(at, bt, x))
        got = specfun._log_kummer_asym_sum(at.ravel(), bt.ravel(),
                                           x.ravel())
        rng = np.random.default_rng(11)
        for k in rng.choice(got.size, 60, replace=False):
            want = mp_log_kummer_factor(at.flat[k], bt.flat[k], x.flat[k])
            assert log_err(got[k], want) <= 1e-13, (at.flat[k], x.flat[k])


class TestAsymSum:
    """The one optimally truncated 2F0 kernel of both asymptotic branches
    (its accuracy is the mpmath tests' above)."""

    def test_bessel_below_its_gate_raises(self):
        # nu = 4 at |z| = 5: the smallest term is 4.8e-5, the sum 0.19
        nu, z = np.array([4.0 + 0.0j]), np.array([5.0 + 0.0j])
        assert not specfun._bessel_asym_mask(nu, z)[0]
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_bessel_asym(nu, z)

    def test_kummer_below_its_gate_raises(self):
        # a = 3 at x = 2: the terms grow from the first
        a, b = np.array([3.0 + 0.0j]), np.array([1.5 + 0.0j])
        x = np.array([2.0])
        assert not specfun._kummer_asym_mask(a, b, x)[0]
        with pytest.raises(SeriesNonConvergenceError):
            specfun._log_kummer_asym_sum(a, b, x)

    @pytest.mark.parametrize("kind", ["bessel", "kummer"])
    def test_mirror_is_the_sum_at_minus_y(self, kind):
        if kind == "bessel":
            nu = np.array([[0.3], [1.3 + 0.4j], [2.5 - 1.0j]])
            z = np.array([35.0, 40.0 + 10.0j, 80.0 - 20.0j, 300.0 + 5.0j])
            mid, half2, y = 0.5, nu * nu, 0.5 / z
        else:
            a = np.array([0.9 + 0.4j, 2.0 - 1.0j, -0.3])
            b = np.array([2.6 + 0.8j, 4.5 + 2.0j, 1.2])
            h = 0.5 * (1.0 - b)
            mid, half2, y = a + h, h * h, 1.0 / np.array([80.0, 150.0, 61.0])
        total, mirror = specfun._asym_sum(mid, half2, y, mirror=True)
        np.testing.assert_array_equal(total, specfun._asym_sum(mid, half2, y))
        np.testing.assert_allclose(mirror, specfun._asym_sum(mid, half2, -y),
                                   rtol=1e-15, atol=0.0)


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
# A subnormal argument: the table is built at s = 1, not at s = |z|.
@example(1.0, 0.0, 1.0, 0.0, 0.0, 2.225073858507e-311)
def test_kummer_transform_property(ar, ai, br, bi, zr, zi):
    """Kummer transformation holds on random complex triples (rel 1e-9)
    wherever the raw series keeps its accuracy (lost <= MAX_LOST)."""
    a = complex(ar, ai)
    b = complex(br, bi)
    z = complex(zr, zi)
    lhs, lost = kummer(a, b, z)
    rhs, lost_rhs = kummer(a, b, z, transform=True)
    if max(lost, lost_rhs) > MAX_LOST:
        return
    assert rel_err(lhs, rhs) <= 1e-9


def test_lost_proxy_flags_where_the_series_cancels():
    # The proxy reads 16.1 nats lost, past MAX_LOST, and the raw value is
    # 3.5e-9 off mpmath; the transformed side is fine.
    a, b, z = 6.0 + 2.0j, 0.609375, -5.0 + 2.0j
    want = mp.hyp1f1(a, b, z)
    raw, lost = kummer(a, b, z)
    assert lost > MAX_LOST
    assert rel_err(raw, want) > 1e-9
    got, lost = kummer(a, b, z, transform=True)
    assert lost <= MAX_LOST
    assert rel_err(got, want) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 6.0), st.floats(0.1, 28.0))
def test_bessel_recurrence_property(nu, z):
    """I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)."""
    lhs = bessel(nu - 1, z) - bessel(nu + 1, z)
    rhs = 2 * nu / z * bessel(nu, z)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
