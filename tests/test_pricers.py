"""Tests for the pricers: identities the model gives for free, the moment
primitive, converged reference prices and agreement with the Monte Carlo
oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import three_halves
from three_halves import pricers, quadrature, specfun
from three_halves import transforms as tr
from three_halves.errors import (
    BranchCutWarning,
    InvalidParametersError,
    QuadratureNonConvergenceError,
    ThreeHalvesError,
)
from three_halves.mc_oracle import (
    SimulationConfig,
    _floating_leg,
    _mean_se,
    _timer_payoff,
    mc_price,
    simulate_paths,
)
from three_halves.model import ModelParams, coef_A, coef_C
from three_halves.pricers import (
    MOMENT_RADIUS,
    EuropeanSpec,
    MomentSwapSpec,
    TimerOptionSpec,
    _cauchy_moment,
    fair_strike_weighted,
    price_european,
    price_timer_call,
    price_timer_grid,
)
from three_halves.quadrature import QuadratureConfig
from three_halves.specfun import _split_exp, _split_log

from oracles import (
    bivariate_cf_phi,
    g1_tabulated,
    omega_integral_panel_by_panel,
)


@pytest.fixture(scope="module")
def swap_price(snp_params):
    """Fair strike on ``snp_params`` with the default config, priced once
    per spec for all the tests of this module."""
    cache = {}

    def price(spec):
        if spec not in cache:
            cache[spec] = fair_strike_weighted(spec, snp_params,
                                               QuadratureConfig())
        return cache[spec]
    return price


def test_every_exported_name_resolves():
    for name in three_halves.__all__:
        assert getattr(three_halves, name) is not None, name


NAN, INF = math.nan, math.inf
EUROPEAN = dict(strike=100.0, maturity=1.0)
TIMER = dict(strike=100.0, mandatory_maturity=1.0, n_monitoring=4,
             variance_budget=0.087)
SWAP = dict(maturity=1.0, n_periods=12, m=2, weight_kind="corridor", lag=1,
            corridor_lower=80.0, corridor_upper=120.0)


@pytest.mark.parametrize("cls,fields,name,bad", [
    (cls, fields, name, bad)
    for cls, fields, cases in [
        (EuropeanSpec, EUROPEAN, {"strike": (NAN, INF, 0.0, -1.0),
                                  "maturity": (NAN, INF, 0.0)}),
        (TimerOptionSpec, TIMER, {
            "strike": (NAN, -100.0), "mandatory_maturity": (NAN, INF),
            "n_monitoring": (4.5, 4.0, 0),
            "variance_budget": (NAN, INF, 0.0)}),
        (MomentSwapSpec, SWAP, {
            "maturity": (NAN, INF, -1.0), "n_periods": (12.5, 0),
            "m": (2.0, 4), "lag": (0.5, 2), "weight_kind": ("cubic",),
            "corridor_lower": (None, NAN, INF, 0.0, 130.0),
            "corridor_upper": (None, NAN, 80.0)})]
    for name, values in cases.items() for bad in values])
def test_spec_rejects_a_malformed_field(cls, fields, name, bad):
    # a typed error naming the field, before any pricer sees a NaN, an
    # infinity or a float count or order
    cls(**fields)
    with pytest.raises(InvalidParametersError, match=name):
        cls(**{**fields, name: bad})


def test_one_sided_corridor_is_a_spec():
    # an infinite upper bound is a corridor open above
    spec = MomentSwapSpec(**{**SWAP, "corridor_upper": INF})
    assert spec.corridor_upper == INF


class TestTimerIdentities:
    def test_huge_budget_is_european(self, timer_params):
        # With a budget the quadratic variation never reaches, the timer
        # call is exercised at the mandatory maturity: a European call at
        # T.  The Talbot sum is then the tail e^{sB} leaves.  The
        # route this replaced was 0.6% low at N = 4, B = 3.
        cfg = QuadratureConfig()
        european = price_european(EuropeanSpec(100.0, 1.0), timer_params,
                                  cfg)
        for n, budget in [(2, 10.0), (4, 3.0), (4, 10.0)]:
            timer = price_timer_call(TimerOptionSpec(100.0, 1.0, n, budget),
                                     timer_params, cfg)
            assert abs(timer.price - european) <= timer.err_estimate, (
                n, budget)

    @pytest.mark.parametrize("budget", [0.087, 3.0, 10.0])
    def test_one_date_is_european(self, timer_params, budget):
        # With N = 1 the only stopping date is the maturity, whatever the
        # budget: the kernel's two terms cancel and the European base at T
        # is the whole price.
        cfg = QuadratureConfig()
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 1, budget),
                                 timer_params, cfg)
        european = price_european(EuropeanSpec(100.0, 1.0), timer_params,
                                  cfg)
        assert abs(timer.price - european) <= timer.err_estimate

    def test_more_nodes_agree_off_axis_branch_point(self, snp_params,
                                                    monkeypatch):
        # On snp_params (rho = -0.99) the branch point of c runs far off
        # the real axis, to -178 - 882i at omega_R = 120, and each omega's
        # contour follows it.  M + 8 nodes must agree with M within the
        # error estimate; the node count in the diagnostics shows the
        # forcing took.
        spec = TimerOptionSpec(100.0, 1.0, 12, 0.06)
        cfg = QuadratureConfig()
        default = price_timer_call(spec, snp_params, cfg)
        monkeypatch.setattr(pricers, "TALBOT_NODES",
                            pricers.TALBOT_NODES + 8)
        more = price_timer_call(spec, snp_params, cfg)
        assert (more.diagnostics["talbot_nodes"]
                == default.diagnostics["talbot_nodes"] + 8)
        assert abs(default.price - more.price) <= default.err_estimate

    @pytest.mark.parametrize("stage", ["kernel", "zero", "contour", "price"])
    def test_non_finite_stage_raises(self, timer_params, monkeypatch, stage):
        # max(nan, 0) is nan and nan < -err is false, so a NaN would pass
        # every other check; the pricer names the stage instead.
        # H_tilde(omega, 0) is built once per omega batch and subtracted
        # from every contour's values, so a NaN there alone ("zero") must
        # raise where it is built; one on the Talbot contours alone
        # ("contour") where those are summed.  The spot check, which sums
        # the same way, is passed over, so the Parseval pass meets the NaN.
        monkeypatch.setattr(pricers, "_spot_check",
                            lambda kernel, B, strikes, cfg:
                            (0.0, np.zeros(strikes.size)))
        match = stage
        if stage == "kernel":
            monkeypatch.setattr(pricers, "_timer_h_tilde",
                                lambda *args: np.full((1, 1), np.nan))
        elif stage in ("zero", "contour"):
            kernel = pricers._timer_h_tilde

            def poisoned(k, omega, eta, *rest):
                out = kernel(k, omega, eta, *rest)
                return np.where((eta == 0.0) == (stage == "zero"), np.nan,
                                out)
            monkeypatch.setattr(pricers, "_timer_h_tilde", poisoned)
            match = {"zero": "kernel is not finite at eta = 0",
                     "contour": "kernel is not finite on the"}[stage]
        else:  # the European bases, all strikes at T from one inversion
            monkeypatch.setattr(
                pricers, "_price_european_detailed",
                lambda T, strikes, *args: [pricers.PriceResult(np.nan, 0.0)
                                           for _ in strikes])
        with pytest.raises(ThreeHalvesError, match=match):
            price_timer_call(TimerOptionSpec(100.0, 1.0, 4, 0.087),
                             timer_params, QuadratureConfig())

    @pytest.mark.parametrize("params, n, budget", [("timer_params", 4, 0.087),
                                                   ("snp_params", 12, 0.06)])
    def test_contours_of_m_and_m_plus_8_agree(self, request, params, n,
                                              budget):
        # The benchmark's timer and the off-axis branch point above: on the
        # omega panels each price summed, its Talbot sums on M and M + 8
        # nodes agree within the Talbot term it reports.
        results, (s_m, s_next), _ = _talbot_sums(
            request.getfixturevalue(params), n, budget, (90.0, 100.0, 110.0),
            (0, 8))
        for r, a, b in zip(results, s_m, s_next):
            assert abs(a - b) <= r.diagnostics["talbot_err"], r.price

    def test_non_hermitian_kernel_raises(self, timer_params, monkeypatch):
        # A kernel off H(-conj w, -conj e) = conj H(w, e) by a phase of
        # 1e-3 fails the spot check before anything is priced.
        kernel = pricers._timer_h_tilde
        monkeypatch.setattr(pricers, "_timer_h_tilde",
                            lambda *args: kernel(*args) * (1.0 + 1e-3j))
        with pytest.raises(ThreeHalvesError, match="Hermitian-symmetry"):
            price_timer_call(TimerOptionSpec(100.0, 1.0, 4, 0.087),
                             timer_params, QuadratureConfig())


def _per_date_h_tilde(kernel, omega, eta):
    """H_tilde date by date: each inner date j's
    int g(0,V0;t_j,omega,eta,v') phi_j(omega, v') dv', with
    phi_j = e^{-r t_{j+1}} h(t_j,v';t_{j+1},omega,0) - e^{-r t_j}, from its
    own g and h calls on date j's v' rule."""
    p, T, N = kernel.params, kernel.T, kernel.N
    om = omega[:, None]
    acc = np.zeros(np.broadcast_shapes(om.shape, eta.shape), dtype=complex)
    for j in range(1, N):
        t, t_next = T * j / N, T * (j + 1) / N
        cols = kernel.columns(slice(j - 1, j))
        nodes = kernel.nodes[cols]
        g = _split_exp(*tr._log_g_vec(0.0, p.v0, t, om[..., None],
                                      eta[..., None], nodes, p))
        phi = (math.exp(-p.r * t_next)
               * np.exp(tr._log_h_vec(t, nodes, t_next, om, 0.0, p))
               - math.exp(-p.r * t))
        acc += np.einsum("iec,ic->ie", g, kernel.w[cols] * phi)
    return np.exp(1j * om * p.x0) * acc


def _talbot_points(params, T=1.0, budget=0.087):
    """Three omegas on the timer contour and four etas on each one's Talbot
    contour, from its start to its end."""
    omega = np.array([0.3, 5.0, 40.0]) + 1j * QuadratureConfig().damping_omega
    m = int(pricers._talbot_counts(budget, T, omega, params).max())
    s = pricers._talbot_contour(m, budget, T, omega, params)[0]
    return omega, 1j * s[:, [0, m // 4, m // 2, m - 1]]


def _talbot_sums(params, n, budget, strikes, offsets):
    """Timer prices at ``strikes``, T = 1, n dates and ``budget``, and
    each strike's Parseval integral (the price less its European base) on
    the contours of M + extra + offset nodes, a row per offset in
    ``offsets`` (extra the growth passes' nodes, so offset 0 is the
    contour the price summed), on the omega panels the price summed and
    summed as a growth pass sums them; and the integral of |J| of the
    first offset's J less the last's, their gap before it cancels across
    omega."""
    cfg = QuadratureConfig()
    results = price_timer_grid([TimerOptionSpec(k, 1.0, n, budget)
                                for k in strikes], params, cfg)
    panels = results[0].diagnostics["omega_panels"]
    nodes = (quadrature._panels(0, panels)[0].ravel()
             + 1j * cfg.damping_omega)
    extra = (results[0].diagnostics["talbot_nodes"]
             - pricers._talbot_counts(budget, 1.0, nodes, params).max())
    kernel = pricers._TimerKernel(1.0, n, params, cfg)

    def rows(omega):
        j = pricers._budget_integrals(
            kernel, budget, np.array(strikes), omega,
            pricers._talbot_counts(budget, 1.0, omega, params),
            [extra + offset for offset in offsets])
        return np.concatenate([j, np.abs(j[:1] - j[-1:])])
    sums = quadrature.omega_integral(rows, cfg, cfg.damping_omega,
                                     0.5 / math.pi**2, panels=panels)[0]
    return results, sums[:-1], sums[-1]


class TestTalbotTerm:
    """The Talbot term of a price (``talbot_err``) against its sums on
    M + 16 nodes.  It must cover the true error, their gap.  It must also
    be at most 100 times the gap before the gap cancels across omega (the
    integral of |J_M - J_{M+16}|): where a strike's phase K^{-i omega}
    cancels it, the signed gap falls below anything an estimate from a
    few omegas can foresee (snp_params, K = 110: 8.7e-15 against 1.4e-12
    before it cancels, and a term of 2.1e-12).  Without a growth pass the
    term is the spot check's; the jump timer's is the gap its second
    growth pass found."""

    @pytest.mark.parametrize("params, n, budget, strikes", [
        ("timer_params", 4, 0.005, (90.0, 100.0, 110.0)),
        ("timer_params", 4, 0.087, (90.0, 100.0, 110.0)),
        ("timer_params", 4, 3.0, (90.0, 100.0, 110.0)),
        ("snp_params", 12, 0.06, (90.0, 100.0, 110.0)),
        ("jump_params", 4, 0.087, (100.0,))])
    def test_covers_the_error_within_100_times(self, request, params, n,
                                               budget, strikes):
        results, (s_m, s_ref), unsigned = _talbot_sums(
            request.getfixturevalue(params), n, budget, strikes, (0, 16))
        for r, a, b, u in zip(results, s_m, s_ref, unsigned):
            # the sums are the price's own, to roundoff
            assert abs(a - r.diagnostics["integral"]) <= 1e-13 * r.price
            term = r.diagnostics["talbot_err"]
            assert abs(a - b) <= term <= 100.0 * u, (r.price, term, a - b, u)


class TestTimerKernel:
    def test_timerlets_are_the_two_date_cf(self, timer_params):
        # Date j's integral against phi_j is e^{-r t_{j+1}} W_j
        # - e^{-r t_j} h(0,V0;t_j), with W_j = Phi(0; t_j, t_{j+1};
        # (0, omega), (eta, 0)) the paper's two-date joint CF and
        # h(0,V0;t_j) = Phi(0; t_j, t_{j+1}; (omega, 0), (eta, 0)), both
        # here by the oracle's adaptive v' integral instead of the kernel's
        # fixed trapezoid.  At omega = 40 - 1.5i |h(0,V0;t_j)| is 65-235
        # times |W_j|, so the v' rule's error on it (a few 1e-12 of |h|)
        # takes up to 8.5e-10 of the bound's e^{-r t_{j+1}} |W_j| there.
        cfg = QuadratureConfig()
        p = timer_params
        kernel = pricers._TimerKernel(1.0, 4, p, cfg)
        omega, eta = _talbot_points(p)
        for j in range(1, 4):
            t, t_next = kernel.T * j / kernel.N, kernel.T * (j + 1) / kernel.N
            date = slice(j - 1, j)
            got = pricers._timer_w_matrix(kernel, date, omega, eta,
                                          kernel.inner(omega, date))
            for i, l in np.ndindex(eta.shape):
                w_j, h_j = (bivariate_cf_phi(
                    0.0, (0.0, 0.0, p.v0), t, t_next, w, (eta[i, l], 0.0),
                    p, cfg) for w in ((0.0, omega[i]), (omega[i], 0.0)))
                want = math.exp(-p.r * t_next) * w_j - math.exp(-p.r * t) * h_j
                assert (abs(got[i, l] - want)
                        <= 1e-9 * math.exp(-p.r * t_next) * abs(w_j)), (j, i, l)

    @pytest.mark.parametrize("n", [2, 4, 12])
    def test_date_rule_is_the_joint_cf(self, timer_params, n):
        # int g(0,V0;t_j,omega,eta,v') dv' = h(0,V0;t_j,omega,eta): date
        # j's v' rule against 1 reproduces the closed form.  Measured at
        # these points and at eta = 0, at most 4.5e-12 of each date's
        # largest |h| (N = 12, t_1); 1.6e-12 at N = 2 and 4.
        p = timer_params
        kernel = pricers._TimerKernel(1.0, n, p, QuadratureConfig())
        omega, eta = _talbot_points(p)
        for e in (eta, np.zeros((omega.size, 1))):
            for j in range(1, n):
                date = slice(j - 1, j)
                w = kernel.w[kernel.columns(date)]
                got = pricers._timer_w_matrix(
                    kernel, date, omega, e,
                    np.broadcast_to(w, (omega.size, w.size)))
                want = np.exp(tr._log_h_vec(0.0, p.v0, kernel.T * j / n,
                                            omega[:, None], e, p))
                assert (np.max(np.abs(got - want))
                        <= 1e-11 * np.max(np.abs(want))), (j, e.shape)

    @staticmethod
    def check_per_date_sum(kernel, params):
        omega, eta = _talbot_points(params)
        for e in (eta, np.zeros((omega.size, 1))):
            got = pricers._timer_h_tilde(kernel, omega, e)
            want = _per_date_h_tilde(kernel, omega, e)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 4, 12])
    def test_per_date_sum(self, timer_params, n):
        kernel = pricers._TimerKernel(1.0, n, timer_params, QuadratureConfig())
        self.check_per_date_sum(kernel, timer_params)

    @pytest.mark.parametrize("n", [2, 4, 12])
    def test_one_row_and_one_date_per_table(self, timer_params, monkeypatch,
                                            n):
        # At the smallest cap every g and every h table holds one omega
        # row and one date: the route of many row blocks, date runs and
        # tiles, which the default cap takes only at large N or on many
        # omega rows.
        kernel = pricers._TimerKernel(1.0, n, timer_params, QuadratureConfig())
        monkeypatch.setattr(pricers, "_BLOCK_ELEMENTS", 1)
        self.check_per_date_sum(kernel, timer_params)
        g, h = [], []

        def spy_g(rows, cols, *args, fn=tr._g_contract):
            g.append((rows[0].shape[0], np.unique(cols.dt).size))
            return fn(rows, cols, *args)

        def spy_h(t, v, t_prime, omega, *args, fn=tr._log_h_vec):
            h.append((np.size(omega), np.unique(t).size))
            return fn(t, v, t_prime, omega, *args)
        monkeypatch.setattr(tr, "_g_contract", spy_g)
        monkeypatch.setattr(tr, "_log_h_vec", spy_h)
        omega, eta = _talbot_points(timer_params)
        pricers._timer_h_tilde(kernel, omega, eta)
        assert g == [(1, 1)] * (omega.size * (n - 1))
        assert set(h) == {(1, 1)}

    def test_traced_layers_count_the_contracted_elements(self, timer_params,
                                                         monkeypatch):
        # The benchmark's N = 4 timer call: every element _timer_w_matrix
        # contracts passes once through _g_contract and once through the
        # Bessel series (at N = 4 every z stays below the asymptotic
        # switch), so the benchmark tracer's per-layer element counts
        # measure the kernel's work.  g's row terms, log Gamma(2c + 1)
        # among them, are taken once per _timer_w_matrix call, not once per
        # tile (2 calls: the omega rule's one batch and the spot check,
        # whose Hermitian mirrors and Talbot contours are one call), and no
        # g element takes its own exp.
        counts = dict.fromkeys(("contracted", "g", "series", "log_gamma",
                                "w_matrix", "exp"), 0)
        inside = []
        w_matrix = pricers._timer_w_matrix

        def contract(kernel, dates, omega, eta, factor):
            counts["contracted"] += eta.size * factor.shape[1]
            counts["w_matrix"] += 1
            inside.append(dates)
            try:
                return w_matrix(kernel, dates, omega, eta, factor)
            finally:
                inside.pop()

        def counted(module, name, key, size):
            def spy(*args, fn=getattr(module, name)):
                if inside:
                    counts[key] += size(*args)
                return fn(*args)
            monkeypatch.setattr(module, name, spy)

        monkeypatch.setattr(pricers, "_timer_w_matrix", contract)
        counted(tr, "_g_contract",
                "g", lambda rows, cols, *args: rows[0].size * cols.z.size)
        counted(specfun, "_log_bessel_series",
                "series", lambda nu, z, *args: nu.size * z.size)
        counted(specfun, "_log_gamma_vec", "log_gamma", lambda z: 1)
        counted(specfun, "_split_exp", "exp", lambda e, s: e.size)
        price_timer_grid([TimerOptionSpec(k, 1.0, 4, 0.087)
                          for k in (90.0, 100.0, 110.0)], timer_params,
                         QuadratureConfig())
        assert counts["contracted"] == 696_576
        assert counts["g"] == counts["contracted"]
        assert counts["series"] == counts["contracted"]
        assert counts["log_gamma"] <= counts["w_matrix"] == 2
        # one e^{top_i} per (omega, eta) row and tile of at least 64 v'
        # columns, none per element
        assert counts["exp"] < counts["contracted"] / 50

    @pytest.mark.parametrize("n", [4, 12])
    def test_tiles_share_the_workspace_without_state(self, timer_params, n):
        # 21 omegas against their 24-node Talbot contours fill a row block
        # of the g tiles (512 // 24 rows), so a call on them and their
        # mirrors (-conj w, -conj e) runs two row blocks of one-date tiles
        # on one workspace where each half alone runs one: every tile sees
        # the same rows and columns either way, and the stacked call must
        # return the halves' values bit for bit, whatever the tiles before
        # it left in the workspace.  The mirrors go first alone, so that
        # no tile of theirs follows the tile it follows in the stacked call
        # (a freed workspace often comes back at the same address).
        p = timer_params
        kernel = pricers._TimerKernel(1.0, n, p, QuadratureConfig())
        omega = (np.linspace(0.3, 40.0, 21)
                 + 1j * QuadratureConfig().damping_omega)
        eta = 1j * pricers._talbot_contour(24, 0.087, 1.0, omega, p)[0]
        mirror = -np.conj(omega), -np.conj(eta)
        both = pricers._timer_h_tilde(kernel, np.concatenate([omega,
                                                              mirror[0]]),
                                      np.concatenate([eta, mirror[1]]))
        second = pricers._timer_h_tilde(kernel, *mirror)
        first = pricers._timer_h_tilde(kernel, omega, eta)
        assert np.array_equal(both, np.concatenate([first, second]))

    def test_one_date_kernel_is_zero(self, timer_params, monkeypatch):
        grids = []
        monkeypatch.setattr(pricers, "log_density_grid",
                            lambda *args: grids.append(args))
        kernel = pricers._TimerKernel(1.0, 1, timer_params, QuadratureConfig())
        omega, eta = _talbot_points(timer_params)
        got = pricers._timer_h_tilde(kernel, omega, eta)
        assert got.shape == eta.shape and not np.any(got)
        assert grids == []


def _split_form_w_matrix(kernel, omega, eta, factor):
    """``pricers._timer_w_matrix`` over every inner date by the route that
    took g's value per element: e^E S from ``_log_g_vec`` in split form
    (``_split_exp``) per tile, contracted against ``factor``.  Returns the
    sums and the sums of their terms' moduli, sum_j |g_ij factor_j|, the
    scale of their roundoff."""
    p = kernel.params
    out = np.zeros(eta.shape, dtype=complex)
    scale = np.zeros(eta.shape)
    for rows, dates in pricers._tiles(omega.size, kernel.sizes, eta.shape[1]):
        cols = kernel.columns(dates)
        g = _split_exp(*tr._log_g_vec(0.0, p.v0, kernel.t[cols],
                                      omega[rows, None, None],
                                      eta[rows, :, None], kernel.nodes[cols],
                                      p))
        out[rows] += (g @ factor[rows, cols, None])[..., 0]
        scale[rows] += (np.abs(g) @ np.abs(factor[rows, cols, None]))[..., 0]
    return out, scale


class TestFactoredContraction:
    """g contracted from its row and column factors (``_g_contract``)
    against its value per element: the two differ by roundoff only.  The
    v' sums cancel, by up to 4e4 at B = 0.005 (sum_j |g_ij f_j| against
    |sum_j g_ij f_j|), so the bound is 1e-13 of the largest sum of the
    terms' moduli.  Against an extended-precision exponent and exp the
    factored sums err 2.3e-15 of it at most there, the per-element ones
    1.6e-15."""

    @staticmethod
    def rows(kernel, omega, eta):
        a, b0, nu = np.broadcast_arrays(*tr._g_rows(omega[:, None], eta,
                                                     kernel.params))
        return a, b0, nu, specfun._log_gamma_vec(nu + 1.0)

    @pytest.mark.parametrize("params, n, budget", [
        ("timer_params", 4, 0.087), ("timer_params", 12, 0.087),
        ("timer_params", 52, 0.087), ("timer_params", 4, 0.005),
        ("timer_params", 4, 3.0), ("snp_params", 12, 0.06)])
    def test_against_the_value_per_element(self, request, params, n, budget):
        # Every omega's whole Talbot contour and eta = 0, at omega_R up to
        # 150, against the tiled split-form contraction and the per-date
        # sum (whose h factors come from their own Kummer calls).  At N = 12
        # and 52 the first date's tiles mix series and asymptotic Bessel
        # elements.
        p = request.getfixturevalue(params)
        kernel = pricers._TimerKernel(1.0, n, p, QuadratureConfig())
        omega = (np.array([0.3, 5.0, 40.0, 150.0])
                 + 1j * QuadratureConfig().damping_omega)
        m = int(pricers._talbot_counts(budget, 1.0, omega, p).max())
        eta = np.concatenate([np.zeros((omega.size, 1)), 1j * pricers
                              ._talbot_contour(m, budget, 1.0, omega, p)[0]],
                             axis=1)
        factor = kernel.inner(omega)
        want, scale = _split_form_w_matrix(kernel, omega, eta, factor)
        got = pricers._timer_w_matrix(kernel, slice(None), omega, eta, factor)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(scale)
        shift = np.exp(1j * omega[:, None] * p.x0)
        got = pricers._timer_h_tilde(kernel, omega, eta)
        want = _per_date_h_tilde(kernel, omega, eta)
        assert (np.max(np.abs(got - want))
                <= 1e-13 * np.max(np.abs(shift) * scale))
        nu = self.rows(kernel, omega, eta)[2].reshape(-1, 1)
        first = kernel.columns(slice(0, 1))
        asym = specfun._bessel_asym_mask(nu, kernel.g_columns.z[first])
        assert np.any(asym) == (n > 4), n
        if n > 4:
            assert np.any(np.any(asym, axis=0) & ~np.all(asym, axis=0))

    def test_series_sums_with_a_log_scale(self, timer_params, monkeypatch):
        # With the rescaling limit at 1e3 most series rows need a log
        # scale, and those elements take their own exp, to the same values.
        kernel = pricers._TimerKernel(1.0, 4, timer_params, QuadratureConfig())
        omega, eta = _talbot_points(timer_params)
        factor = kernel.inner(omega)
        want, scale = _split_form_w_matrix(kernel, omega, eta, factor)
        scaled = []
        series = specfun._log_bessel_series

        def spy(nu, z, *work):
            out = series(nu, z, *work)
            scaled.append(0 if out[1] is None else np.count_nonzero(out[1]))
            return out
        monkeypatch.setattr(specfun, "_RESCALE_LIMIT", 1e3)
        monkeypatch.setattr(specfun, "_log_bessel_series", spy)
        got = pricers._timer_w_matrix(kernel, slice(None), omega, eta, factor)
        assert sum(scaled) > 0.5 * eta.size * kernel.nodes.size
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(scale)

    def test_a_row_past_the_double_range(self, timer_params):
        # log Gamma(2c + 1) lowered by 800 raises the row's exponents by
        # 800 (e^R and the unshifted powers overflow), and the factor
        # e^-400 brings the sums back into range: the shift per row keeps
        # every table entry at most 1, and e^{top_i} joins the sums by
        # their logs, on each column of a factor of two (K = 2).
        # Exponents near 800 carry about 800 eps of roundoff.
        kernel = pricers._TimerKernel(1.0, 4, timer_params, QuadratureConfig())
        omega, eta = _talbot_points(timer_params)
        a, b0, nu, lgam = self.rows(kernel, omega, eta)
        cols = kernel.g_columns.take(kernel.columns(slice(0, 1)))
        phi = kernel.inner(omega, slice(0, 1))
        factor = np.stack([phi, 1j * np.conj(phi)], axis=-1)
        want = tr._g_contract((a, b0, nu, lgam), cols, factor) * np.exp(400.0)
        r0 = (a * cols.dt[0] + b0 * cols.lav[0] + nu * np.log(0.5 * cols.z[0])
              - lgam + 800.0 + cols.e0.max())
        with np.errstate(over="ignore"):
            assert np.any(np.isinf(np.exp(r0)))
        got = tr._g_contract((a, b0, nu, lgam - 800.0), cols,
                             factor * np.exp(-400.0))
        assert got.shape == eta.shape + (2,) and np.all(np.isfinite(got))
        assert (np.max(np.abs(got - want))
                <= 1000.0 * np.finfo(float).eps * np.max(np.abs(want)))


def _tabulated_sums(g1, t_km1, factor, per_period=False):
    """sum_j g1[i, j] factor[i, j, :] for a table of g1 per omega and node
    (``oracles.g1_tabulated``), over every node or per period (the runs of
    ``t_km1``), and the same sums of the terms' moduli."""
    terms = g1[..., None] * factor
    if not per_period:
        return terms.sum(axis=1), np.abs(terms).sum(axis=1)
    starts = np.flatnonzero(np.r_[True, t_km1[1:] != t_km1[:-1]])
    return (np.add.reduceat(terms, starts, axis=1),
            np.add.reduceat(np.abs(terms), starts, axis=1))


class TestSwapG1Contraction:
    """The swaps contract g1 from its row and column factors
    (``pricers._g1_contract``, ``transforms._g_contract``) against a
    factor, where the tabulated route (``oracles.g1_tabulated``) takes
    each element's value by its own exp.  They differ by roundoff only: a
    sum within 1e-13 of the sum of its terms' moduli."""

    @pytest.mark.parametrize("fields", [
        (2, 2, "corridor", 0, 80.0, 120.0),
        (12, 2, "corridor", 1, 80.0, 120.0), (252, 2, "constant", 0),
        (12, 2, "price_ratio", 0), (12, 2, "price_ratio", 1),
        (12, 2, "terminal_price", 0), (252, 2, "price_ratio", 0)],
        ids=lambda f: "-".join(map(str, f[:4])))
    def test_against_the_tabulated_route(self, snp_params, monkeypatch,
                                         fields):
        # Every call of a swap, against the tabulated g1; where the factor
        # has more than one column, also against one call per column
        # (they round apart: within 4 eps of the terms' moduli).  At
        # N = 252 the lattice from t = 1/252 takes g1 by the asymptotic
        # Bessel branch alone, so its period's sums have no series term.
        eps = np.finfo(float).eps
        calls, current = [], {}
        moment, contract = pricers._weighted_moment, pricers._g1_contract

        def moment_spy(params, cfg, m, periods, omega):
            current["omega"] = np.atleast_1d(np.asarray(omega,
                                                        dtype=complex))
            return moment(params, cfg, m, periods, omega)

        def contract_spy(params, rows, t_km1, v, k, factor, per_period=False):
            got = contract(params, rows, t_km1, v, k, factor, per_period)
            calls.append((current["omega"], rows, t_km1, v, k, factor,
                          per_period, got))
            return got
        monkeypatch.setattr(pricers, "_weighted_moment", moment_spy)
        monkeypatch.setattr(pricers, "_g1_contract", contract_spy)
        fair_strike_weighted(MomentSwapSpec(1.0, *fields), snp_params,
                             QuadratureConfig())
        columns = set()
        for omega, rows, t_km1, v, k, factor, per_period, got in calls:
            want, scale = _tabulated_sums(
                g1_tabulated(snp_params, t_km1, v, omega), t_km1, factor,
                per_period)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            columns.add(factor.shape[-1])
            for j in range(factor.shape[-1] if factor.shape[-1] > 1 else 0):
                one = contract(snp_params, rows, t_km1, v, k,
                               factor[..., j:j + 1], per_period)[..., 0]
                assert np.all(np.abs(got[..., j] - one)
                              <= 4.0 * eps * scale[..., j])
        # the weight at t_{k-1} sums g1 against w D(v); at t_k (lag 0) and
        # on the tower (the terminal price) against w times both Cauchy
        # rules, each period apart for the rules' check
        both = (fields[2] == "terminal_price"
                or fields[2] != "constant" and fields[3] == 0)
        assert columns == ({2} if both else {1})

    @pytest.mark.parametrize("fields", [
        (12, 2, "price_ratio", 0), (12, 2, "terminal_price", 0),
        (12, 2, "price_ratio", 1), (2, 2, "corridor", 0, 80.0, 120.0)],
        ids=lambda f: "-".join(map(str, f[:4])))
    def test_prices_move_as_a_ulp_of_g1_moves_them(self, snp_params,
                                                   swap_price, monkeypatch,
                                                   fields):
        # Every route contracts g1 against the moment it weighs, taken per
        # node before it, so g1 enters the price linearly: the tabulated
        # g1 scaled by 1 + eps or 1 - eps/2 moves these prices by at most
        # 2 eps relative (0.8-1.6 eps measured).  g1 weighing h(omega +
        # phi) before the Cauchy rule would round each node's product on
        # its own and let the rule's m!/r^m amplify it (40 to 357 eps on
        # these swaps).  The factored g1 is a few eps off the tabulated
        # one, and so are the prices (1.7-6.0 eps measured).
        eps = np.finfo(float).eps
        spec = MomentSwapSpec(1.0, *fields)
        factored = swap_price(spec)
        # the tabulated g1, from each call's omega in place of its rows
        monkeypatch.setattr(pricers, "_g1_rows", lambda params, omega: omega)

        def price(scale):
            def tabulated(params, omega, t_km1, v, k, factor,
                          per_period=False):
                return _tabulated_sums(
                    g1_tabulated(params, t_km1, v, omega) * scale, t_km1,
                    factor, per_period)[0]
            monkeypatch.setattr(pricers, "_g1_contract", tabulated)
            return fair_strike_weighted(spec, snp_params, QuadratureConfig())

        tabulated = price(1.0)
        ulp = max(abs(price(s) - tabulated) for s in (1.0 + eps,
                                                      1.0 - eps / 2))
        assert ulp <= 2.0 * eps * abs(tabulated)
        assert abs(factored - tabulated) <= 8.0 * eps * abs(tabulated)

    @pytest.mark.parametrize("case", ["timer-dates", "pruned-lattices",
                                      "asymptotic-run"])
    def test_many_runs_as_one_call_per_run(self, snp_params, timer_params,
                                           case):
        # One _g_contract call over several date runs against one call per
        # run and against one call per column of a factor of three (K =
        # 3), in all and per run: the N = 12 timer's first five inner
        # dates (whole rules, the table built in place, the first with
        # asymptotic elements), four period lattices of the lag-1
        # corridor, each pruned to start above index 0, one with an inner
        # node dropped as a prune may drop it (the table gathered), or the
        # N = 252 price ratio's lattices from 1/252, where g1 takes the
        # asymptotic branch alone, and 2/252, cut to start at its largest
        # node, against 1 / g1 (a run with no series column sums to its
        # asymptotic terms alone).  The shift top_i is the largest over
        # the call's runs, so one call rounds its exp table from another
        # shift than a call per run, and sums its terms in another order:
        # sums agree within 4 eps of their terms' moduli (2.5 eps
        # measured), 8 eps per column.
        eps = np.finfo(float).eps
        if case == "timer-dates":
            p = timer_params
            kernel = pricers._TimerKernel(1.0, 12, p, QuadratureConfig())
            omega, eta = _talbot_points(p)
            rows = TestFactoredContraction.rows(kernel, omega, eta)
            runs = [kernel.columns(slice(j, j + 1)) for j in range(5)]
            whole = kernel.columns(slice(0, 5))
            phi = kernel.inner(omega, slice(0, 5))
            g = _split_exp(*tr._log_g_vec(
                0.0, p.v0, kernel.t[whole], omega[:, None, None],
                eta[:, :, None], kernel.nodes[whole], p))
            cols = kernel.g_columns.take
            bounds = [(c.start, c.stop) for c in runs]
            cols, part = cols(whole), [cols(c) for c in runs]
        else:
            p = snp_params
            if case == "pruned-lattices":
                omega = (np.array([0.0, 20.0, 60.0])
                         + 1j * pricers.CORRIDOR_DAMPING)
                spans = [(k / 12.0, (k + 1) / 12.0) for k in (1, 4, 7, 10)]
            else:
                omega = np.array([-1j])
                spans = [(k / 252.0, (k + 1) / 252.0) for k in (1, 2)]
            grids = list(pricers._period_grids(p, QuadratureConfig(), spans,
                                               omega))
            if case == "pruned-lattices":
                inner = np.arange(grids[1][0].size) != grids[1][0].size // 2
                grids[1] = tuple(x[inner] for x in grids[1])
                assert np.any(np.diff(grids[1][4]) > 1)
            else:
                top = np.argmax(g1_tabulated(p, *grids[1][2::-2], omega))
                grids[1] = tuple(x[top:] for x in grids[1])
            assert all(g[4][0] > 0 for g in grids)
            rows = pricers._g1_rows(p, omega)

            def lattice(gs):
                return tr._lattice_columns(p, *(np.concatenate(
                    [g[i] for g in gs]) for i in (2, 0, 4)))
            t_km1, v = (np.concatenate([g[i] for g in grids]) for i in (2, 0))
            phi = np.concatenate([g[1] for g in grids])[None]
            g = g1_tabulated(p, t_km1, v, omega)[:, None]
            if case == "asymptotic-run":  # every term 1, however far out
                phi = 1.0 / g[:, 0]
            ends = np.cumsum([gr[0].size for gr in grids])
            bounds = list(zip(np.r_[0, ends[:-1]], ends))
            cols, part = lattice(grids), [lattice([gr]) for gr in grids]
        factor = np.stack([phi, np.conj(phi), 1j * phi], axis=-1)
        terms = np.abs(g[..., None] * factor[:, None])
        scale = terms.sum(axis=-2)
        got = tr._g_contract(rows, cols, factor)
        ones = [tr._g_contract(rows, c, factor[:, i:j]) for c, (i, j)
                in zip(part, bounds)]
        assert np.all(np.abs(got - sum(ones)) <= 4.0 * eps * scale)
        for j in range(3):  # another product per column: 5.6 eps measured
            one = tr._g_contract(rows, cols, factor[..., j:j + 1])[..., 0]
            assert np.all(np.abs(got[..., j] - one) <= 8.0 * eps
                          * scale[..., j])
        got = tr._g_contract(rows, cols, factor, per_run=True)
        assert got.shape == scale.shape[:-1] + (len(part), 3)
        for run, (one, (i, j)) in enumerate(zip(ones, bounds)):
            assert np.all(np.abs(got[..., run, :] - one) <= 4.0 * eps
                          * terms[..., i:j, :].sum(axis=-2))


class TestTimerBuildOnce:
    SPEC = TimerOptionSpec(100.0, 1.0, 4, 0.087)

    def test_one_v_rule_per_inner_date(self, timer_params, monkeypatch):
        # One density scan per kernel, a row per inner date, gives each of
        # the N - 1 inner dates its v' rule.
        built = []
        grid = pricers.log_density_grid

        def spy(*args, **kwargs):
            nodes, w = grid(*args, **kwargs)
            built.append(nodes.shape)
            return nodes, w
        monkeypatch.setattr(pricers, "log_density_grid", spy)
        specs = [TimerOptionSpec(k, 1.0, 4, 0.087) for k in (90.0, 110.0)]
        price_timer_grid(specs, timer_params, QuadratureConfig())
        assert built == [(4 - 1, QuadratureConfig().v_nodes)]

    def test_zero_kernel_once_per_omega_node(self, timer_params,
                                             monkeypatch):
        # once per omega node summed, and once per spot of the spot check
        # and its mirror
        nodes = []
        kernel = pricers._timer_h_tilde

        def spy(k, omega, eta, *rest):
            nodes.append(np.count_nonzero(eta == 0.0))
            return kernel(k, omega, eta, *rest)
        monkeypatch.setattr(pricers, "_timer_h_tilde", spy)
        timer = price_timer_call(self.SPEC, timer_params, QuadratureConfig())
        assert sum(nodes) == timer.diagnostics["omega_nodes"] + 2 * 2

    @staticmethod
    def spy_passes(monkeypatch):
        """Record each Parseval pass ``_budget_integrals`` call's offsets,
        omega nodes and Talbot counts, and the omega rows it hands to
        ``_TimerKernel.inner``; the spot check's call is not recorded."""
        calls, inside = [], []
        integrals = pricers._budget_integrals
        inner = pricers._TimerKernel.inner

        def spy_integrals(kernel, B, strikes, omega, counts, offsets,
                          mirrored=False):
            if mirrored:
                return integrals(kernel, B, strikes, omega, counts, offsets,
                                 mirrored)
            calls.append({"offsets": tuple(offsets), "omega": omega,
                          "counts": counts, "inner_rows": 0})
            inside.append(calls[-1])
            try:
                return integrals(kernel, B, strikes, omega, counts, offsets)
            finally:
                inside.pop()

        def spy_inner(kernel, omega, *args):
            for call in inside:
                call["inner_rows"] += omega.size
            return inner(kernel, omega, *args)
        monkeypatch.setattr(pricers, "_budget_integrals", spy_integrals)
        monkeypatch.setattr(pricers._TimerKernel, "inner", spy_inner)
        return calls

    def test_one_pass_sums_one_contour(self, timer_params, monkeypatch):
        # On the common path one pass of the omega rule sums the M-node
        # contour alone, and each omega node's eta-free factors are built
        # once.
        calls = self.spy_passes(monkeypatch)
        specs = [TimerOptionSpec(k, 1.0, 4, 0.087)
                 for k in (90.0, 100.0, 110.0)]
        timer = price_timer_grid(specs, timer_params, QuadratureConfig())[0]
        assert {c["offsets"] for c in calls} == {(0,)}
        assert (sum(c["inner_rows"] for c in calls)
                == timer.diagnostics["omega_nodes"])
        # the rule is spent at the first full-width panel: one batch
        assert len(calls) == timer.diagnostics["omega_batches"] == 1
        assert (timer.diagnostics["omega_evaluated"]
                == timer.diagnostics["omega_nodes"])

    def test_growth_pass_sums_only_the_new_contour(self, jump_params,
                                                   monkeypatch):
        # The jump timer's spot check puts M's error above rel_tol, and so
        # does the first growth pass's gap, so M grows twice.
        # Each growth pass sums one new contour on the omega nodes the
        # first pass summed, which are the first omega_nodes it evaluated
        # (it may evaluate a panel past its cutoff), and evaluates no
        # other.
        calls = self.spy_passes(monkeypatch)
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 4, 0.087),
                                 jump_params, QuadratureConfig())
        n = sum(c["offsets"] == (0,) for c in calls)
        first, growth = calls[:n], calls[n:]
        assert [c["offsets"] for c in growth] == [(8,), (16,)]
        nodes = timer.diagnostics["omega_nodes"]
        omega = np.concatenate([c["omega"] for c in first])
        counts = np.concatenate([c["counts"] for c in first])
        assert omega.size >= nodes
        omega, counts = omega[:nodes], counts[:nodes]
        for c in growth:
            assert np.array_equal(c["omega"], omega)
            assert np.array_equal(c["counts"], counts)
        assert counts.max() + 16 == timer.diagnostics["talbot_nodes"] == 160
        # the diagnostics count the batches and nodes of every pass
        assert timer.diagnostics["omega_batches"] == len(calls)
        assert timer.diagnostics["omega_evaluated"] == sum(
            c["omega"].size for c in calls)

    def test_mixed_groups_price_as_alone(self, timer_params):
        # Two (T, N) groups, one of them at two budgets that share its
        # kernel; each price is the one its (T, N, B) gets alone, bit for
        # bit.
        cfg = QuadratureConfig()
        specs = [TimerOptionSpec(90.0, 1.0, 4, 0.087),
                 TimerOptionSpec(100.0, 0.5, 2, 0.087),
                 TimerOptionSpec(110.0, 1.0, 4, 0.2),
                 TimerOptionSpec(100.0, 1.0, 4, 0.087)]
        mixed = price_timer_grid(specs, timer_params, cfg)
        alone = {}
        for spec in specs:
            alone.setdefault((spec.mandatory_maturity, spec.n_monitoring,
                              spec.variance_budget), []).append(spec)
        for group in alone.values():
            for spec, res in zip(group,
                                 price_timer_grid(group, timer_params, cfg)):
                got = mixed[specs.index(spec)]
                assert (got.price, got.err_estimate) == (
                    res.price, res.err_estimate), spec
                assert got.diagnostics == res.diagnostics


    def test_one_european_base_per_strike(self, timer_params, monkeypatch):
        # The European base at T depends on neither N nor B: three strikes
        # at two budgets take their bases from one inversion at T, a row
        # per strike, and every price is the one its (T, N, B) group gets
        # alone, bit for bit.
        cfg = QuadratureConfig()
        budgets = (0.087, 0.2)
        specs = [TimerOptionSpec(k, 1.0, 4, b) for b in budgets
                 for k in (90.0, 100.0, 110.0)]
        bases, inversions = [], []
        european = pricers._price_european_detailed
        invert = pricers.fourier_invert_1d

        def spy(T, strikes, *args):
            bases.append((T, list(strikes)))
            return european(T, strikes, *args)

        def spy_invert(*args, **kwargs):
            inversions.append(args)
            return invert(*args, **kwargs)
        monkeypatch.setattr(pricers, "_price_european_detailed", spy)
        monkeypatch.setattr(pricers, "fourier_invert_1d", spy_invert)
        mixed = price_timer_grid(specs, timer_params, cfg)
        assert bases == [(1.0, [90.0, 100.0, 110.0])]
        assert len(inversions) == 1
        for b in budgets:
            group = [s for s in specs if s.variance_budget == b]
            for spec, res in zip(group,
                                 price_timer_grid(group, timer_params, cfg)):
                got = mixed[specs.index(spec)]
                assert (got.price, got.err_estimate) == (
                    res.price, res.err_estimate), spec
                assert got.diagnostics == res.diagnostics


class TestEuropeanBases:
    STRIKES = (90.0, 100.0, 110.0)

    def test_each_base_is_its_european(self, timer_params):
        # One inversion, a row per strike, runs until every row is spent,
        # so a strike may get more panels than alone; its price stays
        # within 1e-13 of the one-strike price, and put-call parity holds
        # per strike.
        cfg = QuadratureConfig()
        p = timer_params
        bases = pricers._price_european_detailed(1.0, self.STRIKES, p, cfg)
        assert [b.diagnostics["omega_nodes"] for b in bases] == [
            bases[0].diagnostics["omega_nodes"]] * len(self.STRIKES)
        assert (bases[0].diagnostics["omega_batches"],
                bases[0].diagnostics["omega_evaluated"]) == (1, 136)
        for k, base in zip(self.STRIKES, bases):
            alone = price_european(EuropeanSpec(k, 1.0), p, cfg)
            assert abs(base.price - alone) <= 1e-13 * alone, k
            put = price_european(EuropeanSpec(k, 1.0, is_call=False), p, cfg)
            parity = p.s0 * math.exp(-p.q) - k * math.exp(-p.r)
            assert abs(base.price - put - parity) <= 1e-13 * p.s0, k

    def test_one_inversion_per_maturity(self, timer_params, monkeypatch):
        calls, inversions = [], []
        european = pricers._price_european_detailed
        invert = pricers.fourier_invert_1d

        def spy(T, strikes, *args):
            calls.append((T, list(strikes)))
            return european(T, strikes, *args)

        def spy_invert(*args, **kwargs):
            inversions.append(args)
            return invert(*args, **kwargs)
        monkeypatch.setattr(pricers, "_price_european_detailed", spy)
        monkeypatch.setattr(pricers, "fourier_invert_1d", spy_invert)
        specs = [TimerOptionSpec(k, T, 2, 0.087) for T in (1.0, 0.5)
                 for k in self.STRIKES]
        price_timer_grid(specs, timer_params, QuadratureConfig())
        assert calls == [(1.0, list(self.STRIKES)),
                         (0.5, list(self.STRIKES))]
        assert len(inversions) == 2


class TestTimerMemory:
    """No kernel table of a timer call passes _BLOCK_ELEMENTS, so its
    memory does not grow with N."""

    @staticmethod
    def specs(n):
        return [TimerOptionSpec(k, 1.0, n, 0.087) for k in (90.0, 100.0, 110.0)]

    def test_heap_peak_flat_in_n(self, timer_params):
        # Whole-batch tables peaked at 10.4 MB (N = 4) and 11.8 MB
        # (N = 24) on these calls, so the bound is half the first;
        # tracemalloc counts NumPy's buffers.
        peaks = {}
        for n in (4, 24):
            tracemalloc.start()
            try:
                price_timer_grid(self.specs(n), timer_params,
                                 QuadratureConfig())
                peaks[n] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert peaks[24] <= 1.25 * peaks[4], peaks
        assert max(peaks.values()) <= 5.2, peaks

    def test_no_kernel_table_passes_the_cap(self, timer_params, monkeypatch):
        sizes = []

        def spy_g(rows, cols, *args, fn=tr._g_contract):
            sizes.append(rows[0].size * cols.z.size)  # (omega, eta) x v'
            return fn(rows, cols, *args)

        def spy_h(*args, fn=tr._log_h_vec):
            out = fn(*args)
            sizes.append(out.size)
            return out
        monkeypatch.setattr(tr, "_g_contract", spy_g)
        monkeypatch.setattr(tr, "_log_h_vec", spy_h)
        price_timer_grid(self.specs(24)[1:2], timer_params, QuadratureConfig())
        assert 0 < max(sizes) <= pricers._BLOCK_ELEMENTS


@pytest.fixture(scope="module")
def timer_mc(timer_params):
    """One ensemble for the N = 4 timers on timer_params: 100k paths at 256
    steps a year."""
    spec = TimerOptionSpec(100.0, 1.0, 4, 0.087)
    return simulate_paths(1.0, spec.schedule(), timer_params,
                          SimulationConfig(n_paths=100_000,
                                           steps_per_year=256, seed=29))


class TestTimerAgainstMonteCarlo:
    @pytest.mark.parametrize("budget", [0.087, 0.005])
    def test_within_three_standard_errors(self, timer_params, timer_mc,
                                          budget):
        # The benchmark's timer and a budget small enough that nearly
        # every path stops at the first date (the eta line this replaced
        # sat 2.8 SE below MC there).
        spec = TimerOptionSpec(100.0, 1.0, 4, budget)
        timer = price_timer_call(spec, timer_params, QuadratureConfig())
        mean, se = _mean_se(_timer_payoff(spec, timer_mc, timer_params,
                                          timer_mc.i))
        z = (timer.price - mean) / se
        assert abs(z) <= 3.0, f"{timer.price} vs MC {mean} +- {se}: z = {z:.2f}"

    def test_jumps_within_three_standard_errors(self, jump_params):
        # The jump transform's essential singularity at s = -12.5 and the
        # branch point of c far off the axis (rho = -0.99) must both stay
        # inside every contour: the omegas that cannot hold them get more
        # nodes.  Every kernel value on every contour the rule picks is
        # finite (the pricer raises otherwise), and no node lies on the cut
        # of the jump transform's square root.
        spec = TimerOptionSpec(100.0, 1.0, 4, 0.087)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BranchCutWarning)
            timer = price_timer_call(spec, jump_params, QuadratureConfig())
        assert timer.diagnostics["talbot_nodes"] > pricers.TALBOT_NODES
        mc = mc_price(spec, jump_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=31))
        z = (timer.price - mc.estimate) / mc.std_error
        assert abs(z) <= 3.0, (
            f"{timer.price} vs MC {mc.estimate} +- {mc.std_error}: z = {z:.2f}")


class TestTimerUnderThetaCurve:
    """The timer identities and the Monte Carlo check under a piecewise
    theta(t) whose breaks fall inside monitoring intervals."""

    def test_one_date_is_european(self, theta_curve_params):
        cfg = QuadratureConfig()
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 1, 0.087),
                                 theta_curve_params, cfg)
        assert timer.price == price_european(EuropeanSpec(100.0, 1.0),
                                             theta_curve_params, cfg)

    def test_huge_budget_is_european(self, theta_curve_params):
        cfg = QuadratureConfig()
        timer = price_timer_call(TimerOptionSpec(100.0, 1.0, 4, 50.0),
                                 theta_curve_params, cfg)
        european = price_european(EuropeanSpec(100.0, 1.0),
                                  theta_curve_params, cfg)
        assert abs(timer.price - european) <= timer.err_estimate

    def test_within_three_standard_errors(self, theta_curve_params):
        # 100k paths take about 3 s; the SE is 0.5% of the price.
        spec = TimerOptionSpec(100.0, 1.0, 4, 0.087)
        timer = price_timer_call(spec, theta_curve_params, QuadratureConfig())
        mc = mc_price(spec, theta_curve_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=37))
        z = (timer.price - mc.estimate) / mc.std_error
        assert abs(z) <= 3.0, (
            f"{timer.price} vs MC {mc.estimate} +- {mc.std_error}: z = {z:.2f}")


# The N = 12 swaps under a theta(t) curve, one shared ensemble.
THETA_SWAPS = [MomentSwapSpec(1.0, 12, 2),
               MomentSwapSpec(1.0, 12, 2, "terminal_price"),
               MomentSwapSpec(1.0, 12, 2, "corridor", 1, 80.0, 120.0)]


class TestSwapsUnderThetaCurve:
    """The N = 12 variance, terminal-price and lag-1 corridor swaps under
    ``theta_curve_params``, whose breaks at 0.3 and 0.7 fall inside the
    fourth and ninth periods, so every period has its own A and C, two of
    them integrating a step of theta.  Each fair strike is within 3 SE of
    one Monte Carlo ensemble (100k paths at 256 steps a year, fixed
    seed)."""

    @pytest.fixture(scope="class")
    def legs(self, theta_curve_params):
        parts = {spec: [] for spec in THETA_SWAPS}
        for piece in range(10):
            ens = simulate_paths(1.0, THETA_SWAPS[0].schedule_times(),
                                 theta_curve_params,
                                 SimulationConfig(n_paths=10_000,
                                                  steps_per_year=256,
                                                  seed=37 + piece))
            for spec, p in parts.items():
                p.append(_floating_leg(spec, ens, theta_curve_params))
        return {spec: _mean_se(np.concatenate(p))
                for spec, p in parts.items()}

    @pytest.mark.parametrize("spec", THETA_SWAPS,
                             ids=[s.weight_kind for s in THETA_SWAPS])
    def test_within_three_standard_errors(self, theta_curve_params, legs,
                                          spec):
        price = fair_strike_weighted(spec, theta_curve_params,
                                     QuadratureConfig())
        mean, se = legs[spec]
        z = (price - mean) / se
        assert abs(z) <= 3.0, f"{price} vs MC {mean} +- {se}: z = {z:.2f}"


JUMP_SWAPS = [MomentSwapSpec(1.0, 12, 2),
              MomentSwapSpec(1.0, 12, 2, "price_ratio", 0),
              MomentSwapSpec(1.0, 12, 2, "terminal_price"),
              MomentSwapSpec(1.0, 12, 2, "corridor", 1, 80.0, 120.0)]


class TestSwapsWithJumps:
    """The N = 12 variance, lag-0 price-ratio, terminal-price and lag-1
    corridor swaps on ``jump_params``, whose jumps enter every period's
    transforms through the drift a(omega, eta).  Each fair strike is within
    3 SE of one Monte Carlo ensemble (160k paths, fixed seed).  The
    ensemble steps 1024 times a year: at 256 these swaps read z down to
    -2.2 on some seeds, and the jump-free swaps shift alike, so the shift
    is the simulation's time step, not the pricer's."""

    @pytest.fixture(scope="class")
    def legs(self, jump_params):
        parts = {spec: [] for spec in JUMP_SWAPS}
        for piece in range(16):
            ens = simulate_paths(1.0, JUMP_SWAPS[0].schedule_times(),
                                 jump_params,
                                 SimulationConfig(n_paths=10_000,
                                                  steps_per_year=1024,
                                                  seed=61 + piece))
            for spec, p in parts.items():
                p.append(_floating_leg(spec, ens, jump_params))
        return {spec: _mean_se(np.concatenate(p))
                for spec, p in parts.items()}

    @pytest.mark.parametrize("spec", JUMP_SWAPS,
                             ids=[s.weight_kind for s in JUMP_SWAPS])
    def test_within_three_standard_errors(self, jump_params, legs, spec):
        price = fair_strike_weighted(spec, jump_params, QuadratureConfig())
        mean, se = legs[spec]
        z = (price - mean) / se
        assert abs(z) <= 3.0, f"{price} vs MC {mean} +- {se}: z = {z:.2f}"


class TestCauchyMoment:
    MU, SIGMA = 0.4, 0.2

    def gaussian_cf(self, phi):
        return np.exp(1j * self.MU * phi - 0.5 * self.SIGMA**2 * phi * phi)

    @pytest.mark.parametrize("conj_symmetric", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gaussian_moments(self, m, conj_symmetric):
        mu, s2 = self.MU, self.SIGMA**2
        exact = {1: mu, 2: mu * mu + s2, 3: mu**3 + 3.0 * mu * s2}[m]
        got = complex(_cauchy_moment(m, self.gaussian_cf, conj_symmetric))
        # Eight nodes leave aliasing and roundoff of a few 1e-12 here.
        assert abs(got - exact) <= 1e-11 * abs(exact)

    def test_independent_functions_on_trailing_axes(self):
        mus = np.array([0.1, 0.4, 0.7])
        got = _cauchy_moment(1, lambda p: np.exp(1j * p[:, None] * mus),
                             True)
        np.testing.assert_allclose(got.real, mus, rtol=1e-11)

    def test_pole_inside_the_circle_raises(self):
        def pole(phi):
            return 1.0 / (1.0 - 2.0 * phi / MOMENT_RADIUS)
        with pytest.raises(QuadratureNonConvergenceError):
            _cauchy_moment(2, pole, False)

    def test_each_segment_is_checked(self):
        # A small function with a pole inside the circle next to a large
        # smooth one: the check over all values passes, the one per
        # segment of the last axis raises.
        def pair(phi):
            return np.stack([1e-3 / (1.0 - 2.0 * phi / MOMENT_RADIUS),
                             1e3 * self.gaussian_cf(phi)], axis=-1)
        _cauchy_moment(2, pair, False)
        with pytest.raises(QuadratureNonConvergenceError):
            _cauchy_moment(2, pair, False, np.array([0, 1]))

    def test_half_rule_alias_is_imaginary(self):
        # A real variable's CF is conjugate-symmetric, and the 4-node
        # rule's nodes are not closed under phi -> -conj phi, so its
        # leading alias is imaginary: at sigma = 2 it is 2.8e-3 of the
        # moment, where the real parts agree to 8.5e-16.
        def wide(phi):
            return np.exp(1j * self.MU * phi - 2.0 * phi * phi)
        full, half = pricers._cauchy_rules(2, wide, True)
        assert abs(full - half.real) <= 1e-14 * abs(full) and full.imag == 0
        with pytest.raises(QuadratureNonConvergenceError):
            _cauchy_moment(2, wide, True)

    @pytest.mark.parametrize("radius, raising", [
        (4.0, {"constant", "price_ratio", "terminal_price", "corridor"}),
        (2.0, {"constant", "corridor"})])
    def test_check_fires_on_every_route(self, snp_params, monkeypatch, radius,
                                        raising):
        # Past the radius where the swaps' moments stay analytic on the
        # circle, each route's 8- and 4-node rules part and the swap
        # raises: the weight at t_{k-1} (the variance swap), at t_k (the
        # lag-0 price ratio and corridor) and the tower (the terminal
        # price).  At radius 2 only the variance swap and the corridor
        # raise.
        monkeypatch.setattr(pricers, "MOMENT_RADIUS", radius)
        for fields in [(12, 2, "constant", 0), (12, 2, "price_ratio", 0),
                       (12, 2, "terminal_price", 0),
                       (2, 2, "corridor", 0, 80.0, 120.0)]:
            spec = MomentSwapSpec(1.0, *fields)
            if fields[2] in raising:
                with pytest.raises(QuadratureNonConvergenceError,
                                   match="Cauchy moment"):
                    fair_strike_weighted(spec, snp_params, QuadratureConfig())
            else:
                assert np.isfinite(fair_strike_weighted(
                    spec, snp_params, QuadratureConfig()))

    def test_segment_below_the_calls_roundoff_passes(self):
        # A segment some 1e-33 of its call-mate: its own 8/4-node gap is
        # large, but it is judged against eps times the largest segment,
        # as it cannot move the sum of the call.
        def pair(phi):
            return np.stack([1e-30 / (1.0 - 2.0 * phi / MOMENT_RADIUS),
                             1e3 * self.gaussian_cf(phi)], axis=-1)
        got = _cauchy_moment(2, pair, False, np.array([0, 1]))
        assert np.array_equal(got, _cauchy_moment(2, pair, False))


# Converged references of the benchmark (bench/references.json): swaps at
# T = 1 on snp_params, (n_periods, m, weight_kind, lag[, lower, upper]), the
# N = 4, B = 0.087 timer calls on timer_params, and European calls (the
# parameter set's fixture, spec).  The T = 0.25 calls at K = 80 and 120 set
# the omega rule's panel node count; the timer_params call is the smoke
# timer's base (its N = 1 reference).  The T = 0.02 call is the trapezoid
# rule this rule replaced at 16384 nodes on [0, 800], where 8192 nodes on
# [0, 400] agree to roundoff.
REFERENCES = [
    (("snp_params", EuropeanSpec(80.0, 0.25)), 20.97959125853978),
    (("snp_params", EuropeanSpec(120.0, 0.25)), 0.1231498771451646),
    (("snp_params", EuropeanSpec(100.0, 2.0)), 16.75230580463142),
    (("timer_params", EuropeanSpec(100.0, 1.0)), 12.115563134009195),
    (("snp_params", EuropeanSpec(100.0, 0.02)), 1.4068944742983183),
    ((12, 2, "constant", 0), 0.0862245211228722),
    ((52, 2, "constant", 0), 0.08387024719928397),
    ((252, 2, "constant", 0), 0.0830358894997792),
    ((12, 3, "constant", 0), -0.011893425896997321),
    ((12, 2, "price_ratio", 0), 0.07234626683709036),
    ((12, 2, "price_ratio", 1), 0.08007474267629489),
    ((12, 2, "terminal_price", 0), 0.07284414896816896),
    ((2, 2, "corridor", 0, 80.0, 120.0), 0.018579535610086066),
    ((12, 2, "corridor", 1, 80.0, 120.0), 0.062265447900503944),
    (TimerOptionSpec(90.0, 1.0, 4, 0.087), 17.37558169048536),
    (TimerOptionSpec(100.0, 1.0, 4, 0.087), 11.801307230415539),
    (TimerOptionSpec(110.0, 1.0, 4, 0.087), 7.6064313193798885),
]
TIMER_REFERENCES = [f for f, _ in REFERENCES if isinstance(f, TimerOptionSpec)]


def _reference_id(fields):
    if isinstance(fields, TimerOptionSpec):
        return f"timer-N{fields.n_monitoring}-K{fields.strike:g}"
    if isinstance(fields[1], EuropeanSpec):
        return (f"european-{fields[0].split('_')[0]}-T{fields[1].maturity:g}"
                f"-K{fields[1].strike:g}")
    return "-".join(map(str, fields[:4]))


def _reference_rel_tol(fields):
    """One in a million; ten digits for a European call, the benchmark's
    tolerance, but nine at T = 0.02, whose omega rule stops once its last
    panel's share falls below rel_tol times the price (1.4e-8)."""
    if isinstance(fields, TimerOptionSpec) or not isinstance(
            fields[1], EuropeanSpec):
        return 1e-6
    return 1e-9 if fields[1].maturity < 0.1 else 1e-10


@pytest.fixture(scope="module")
def timer_reference_prices(timer_params):
    """The reference timers, priced in one call as the benchmark does."""
    results = price_timer_grid(TIMER_REFERENCES, timer_params,
                               QuadratureConfig())
    return {spec: res.price for spec, res in zip(TIMER_REFERENCES, results)}


class TestConvergedReferences:
    @pytest.mark.parametrize(
        "fields,ref", REFERENCES,
        ids=[_reference_id(f) for f, _ in REFERENCES])
    def test_within_one_in_a_million(self, request, fields, ref):
        if isinstance(fields, TimerOptionSpec):
            price = request.getfixturevalue("timer_reference_prices")[fields]
        elif isinstance(fields[1], EuropeanSpec):
            price = price_european(fields[1],
                                   request.getfixturevalue(fields[0]),
                                   QuadratureConfig())
        else:
            price = request.getfixturevalue("swap_price")(
                MomentSwapSpec(1.0, *fields))
        assert abs(price - ref) <= _reference_rel_tol(fields) * abs(ref)


CORRIDOR_LAG1 = MomentSwapSpec(1.0, 12, 2, "corridor", 1, 80.0, 120.0)


class TestSwapPeriodBlocks:
    """The moment swaps price their periods in blocks of a bounded element
    count; one period per block, which repeats the kernel calls of pricing
    each period on its own, must give the same fair strikes.

    The kernels round differently in the last bit when a block holds other
    periods (Kummer's coefficient tables are sized by the block's largest
    argument), and the Cauchy rule multiplies that by m! / r^m per period:
    on these swaps the skew moves by 4.6e-13 (3.9e-11 relative), the
    price-ratio lag-0 swap by 1.0e-14 (1.4e-13 relative), the lag-1
    corridor by 5.1e-15 (8.2e-14 relative) and the others by at most
    1e-15.  The bound is 1e-13 relative plus that roundoff floor,
    N eps m! / r^m.
    """

    @pytest.mark.parametrize("fields", [
        (12, 2, "constant", 0), (12, 3, "constant", 0),
        (12, 2, "price_ratio", 0), (12, 2, "price_ratio", 1),
        (2, 2, "corridor", 0, 80.0, 120.0),
        (12, 2, "corridor", 1, 80.0, 120.0)],
        ids=lambda f: "-".join(map(str, f[:4])))
    def test_one_period_per_block(self, snp_params, swap_price, monkeypatch,
                                  fields):
        spec = MomentSwapSpec(1.0, *fields)
        batched = swap_price(spec)
        monkeypatch.setattr(pricers, "_BLOCK_ELEMENTS", 1)
        alone = fair_strike_weighted(spec, snp_params, QuadratureConfig())
        floor = (spec.n_periods * np.finfo(float).eps
                 * math.factorial(spec.m) / MOMENT_RADIUS**spec.m)
        assert abs(alone - batched) <= 1e-13 * abs(batched) + floor

    @pytest.mark.parametrize("fields", [
        (12, 2, "corridor", 1, 80.0, 120.0), (252, 2, "constant", 0),
        (12, 2, "price_ratio", 0), (2, 2, "corridor", 0, 80.0, 120.0),
        (12, 2, "terminal_price", 0)],
        ids=lambda f: "-".join(map(str, f[:4])))
    def test_weight_at_start_tables_within_the_cap(self, snp_params,
                                                    swap_price, monkeypatch,
                                                    fields):
        # g1's contraction holds omega x nodes (its series sums) and omega
        # x runs x the longest run's span of lattice indices (its exp
        # table, padded where a prune shortened or split a lattice).  With
        # the weight at t_{k-1} h is phi x nodes: a block of several
        # periods keeps each within _BLOCK_ELEMENTS.  On the lag-1
        # corridor omega x phi x nodes passes it, where sizing blocks by
        # that product gave each period its own; the constant swap's one
        # omega must not let h's phi x nodes pass it.  With the weight at
        # t_k h is phi x omega x nodes, taken a chunk of omega rows at a
        # time where one period alone passes the cap (the lag-0
        # corridor), and the Cauchy rules' value table is MOMENT_NODES /
        # phi of it.  The tower's blocks of outer rows keep g's table,
        # phi x omega x live pairs, within the cap.
        spec = MomentSwapSpec(1.0, *fields)
        blocks, current = [], {}
        make_blocks = pricers._blocks

        def spy_blocks(grids, per_node, per_span=0):
            for block in make_blocks(grids, per_node, per_span):
                # a block of periods, or of the tower's outer rows
                current["tables"] = {"periods": block[-1].size}
                blocks.append(current["tables"])
                yield block
                current.pop("tables")  # the next period grids are built

        def padded(cols):
            starts, ends = tr._runs(cols.dt)
            return starts.size * (int(np.max(cols.k[ends - 1]
                                             - cols.k[starts])) + 1)

        def record(name, table):
            if "tables" in current:
                current["tables"].setdefault(name, []).append(table)

        def spy(name, fn, table):
            def kernel(*args, **kwargs):
                out = fn(*args, **kwargs)
                record(name, table(args, out))
                return out
            monkeypatch.setattr(pricers.tr, name, kernel)

        def spy_rules(m, f, conj_symmetric, rules=pricers._cauchy_rules):
            def values(phis):
                out = f(phis)
                record("values", (pricers.MOMENT_NODES,) + out.shape[1:])
                return out
            return rules(m, values, conj_symmetric)

        monkeypatch.setattr(pricers, "_blocks", spy_blocks)
        monkeypatch.setattr(pricers, "_cauchy_rules", spy_rules)
        spy("_g_contract", tr._g_contract, lambda args, out: (
            args[0][0].shape[0], args[1].z.size, padded(args[1])))
        spy("_log_h_vec", tr._log_h_vec, lambda args, out: out.shape)
        spy("_log_g_vec", tr._log_g_vec, lambda args, out: out[0].shape)
        price = fair_strike_weighted(spec, snp_params, QuadratureConfig())
        assert price == swap_price(spec)
        cap = pricers._BLOCK_ELEMENTS
        stacked_past_product = False
        for b in blocks:
            shapes = ([(rows, n) for rows, *cols in b.get("_g_contract", [])
                       for n in cols] + b.get("_log_h_vec", [])
                      + b.get("_log_g_vec", []))
            if b["periods"] > 1:
                assert max(math.prod(s) for s in shapes) <= cap, b
            h = b.get("_log_h_vec", [])
            for phis, *rest in (s for s in h if len(s) == 3):
                assert phis * math.prod(rest) <= cap, b
            for table in b.get("values", []):
                assert (math.prod(table) <= pricers.MOMENT_NODES
                        / max(s[0] for s in h) * cap), b
            for (rows, *_), (phis, nodes) in zip(
                    b.get("_g_contract", []), (s for s in h if len(s) == 2)):
                stacked_past_product |= (b["periods"] > 1
                                         and rows * phis * nodes > cap)
        assert stacked_past_product == (spec.weight_kind == "corridor"
                                        and spec.lag == 1)
        routes = {len(s) for b in blocks for s in b.get("_log_h_vec", [])}
        assert routes == ({2} if spec.lag or spec.weight_kind == "constant"
                          else {3})
        assert any("_log_g_vec" in b and b["periods"] > 1
                   for b in blocks) == (spec.weight_kind == "terminal_price")

    def test_tower_one_outer_row_per_call(self, snp_params, swap_price,
                                          monkeypatch):
        # The tower route takes all its phi nodes in each g call on its
        # flat live (v, v') pairs, a block of whole outer rows at a time;
        # one row per call must agree.
        spec = MomentSwapSpec(1.0, 12, 2, "terminal_price")
        chunked = swap_price(spec)
        rows = []
        log_g = pricers.tr._log_g_vec

        def spy(t, v, *args):
            if np.ndim(v) == 1:  # the tower's pairs; g1 starts from V0
                rows.append(np.unique(v).size)
            return log_g(t, v, *args)

        monkeypatch.setattr(pricers, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(pricers.tr, "_log_g_vec", spy)
        alone = fair_strike_weighted(spec, snp_params, QuadratureConfig())
        assert set(rows) == {1}
        floor = (spec.n_periods * np.finfo(float).eps
                 * math.factorial(spec.m) / MOMENT_RADIUS**spec.m)
        assert abs(alone - chunked) <= 1e-13 * abs(chunked) + floor


# The seven strip swaps and the two corridor swaps of the benchmark.
BENCHMARK_SWAPS = [
    (12, 2, "constant", 0), (52, 2, "constant", 0), (252, 2, "constant", 0),
    (12, 3, "constant", 0), (12, 2, "price_ratio", 0),
    (12, 2, "price_ratio", 1), (12, 2, "terminal_price", 0),
    (2, 2, "corridor", 0, 80.0, 120.0), (12, 2, "corridor", 1, 80.0, 120.0)]


def _log_bound(params, t, v, t_prime, v_prime, y):
    """log B, the bound on g(t, v; t', iy, 0, v') that needs no Bessel
    function, written out from its formula (no jumps)."""
    A = coef_A(params.theta, t, t_prime)
    C = coef_C(params.theta, params.epsilon, t, t_prime)
    b0 = 0.5 + (params.kappa + y * params.rho * params.epsilon) / params.eps2
    return (-y * (params.r - params.q) * (t_prime - t) + np.log(A / C)
            - 2.0 * np.log(v_prime) + b0 * np.log(A * v / v_prime)
            - (np.sqrt(A / v_prime) - np.sqrt(1.0 / v)) ** 2 / C)


def _tower_band(params, cfg):
    """The tower route's (v, v') lattice of the terminal-price swap's
    second period, from its live outer nodes, and its transform points
    omega + phi at omega = -i."""
    t_km1, t_k = 1.0 / 12.0, 2.0 / 12.0
    v = next(pricers._period_grids(params, cfg, [(t_km1, t_k)], -1j))[0]
    inner, w_in = pricers._transition_grid(params, t_km1, t_k, v, cfg)
    phis = MOMENT_RADIUS * np.exp(
        2j * np.pi * (np.arange(pricers.MOMENT_NODES) + 0.5)
        / pricers.MOMENT_NODES)
    return t_km1, v[:, None], t_k, inner, w_in, -1j + phis


def _period_lattices(params, cfg):
    """Whole lattices of the period grids from V0 with the transform
    points of their g1: the lag-1 corridor's on its contour out to the
    rule's last node, the lag-0 corridor's second period, the price ratio
    and the constant weight."""
    corridor = np.array([0.0, 60.0, 127.75]) + 1j * pricers.CORRIDOR_DAMPING
    cases = [(k / 12.0, corridor) for k in (1, 6, 11)]
    cases += [(0.5, corridor), (1.0 / 12.0, np.array([-1j])),
              (11.0 / 12.0, np.array([0.0]))]
    for t, omega in cases:
        nodes, w = pricers._transition_grid(
            params, 0.0, t, params.v0, cfg, float(np.max(omega.real)))
        yield 0.0, params.v0, t, nodes[0], w[0], omega


class TestDeadNodePrune:
    """The swaps evaluate g only on the lattice nodes ``_live_nodes``
    keeps; the nodes it drops carry at most _DEAD_SHARE of g's mass."""

    @pytest.mark.parametrize("fields", BENCHMARK_SWAPS,
                             ids=lambda f: "-".join(map(str, f[:4])))
    def test_price_as_on_the_whole_lattice(self, snp_params, swap_price,
                                           monkeypatch, fields):
        # The bound against the whole lattice is 1e-13 relative plus the
        # Cauchy rule's roundoff floor N eps m! / r^m, as for the blocks.
        spec = MomentSwapSpec(1.0, *fields)
        pruned = swap_price(spec)
        dropped = []
        rule = pricers._live_nodes

        def keep_all(*args):
            live = rule(*args)
            w = args[5]  # nodes of weight 0 pad the period lattices
            dropped.append(np.count_nonzero((w > 0.0) & ~live))
            return w > 0.0
        monkeypatch.setattr(pricers, "_live_nodes", keep_all)
        full = fair_strike_weighted(spec, snp_params, QuadratureConfig())
        assert sum(dropped) > 0
        floor = (spec.n_periods * np.finfo(float).eps
                 * math.factorial(spec.m) / MOMENT_RADIUS**spec.m)
        assert abs(pruned - full) <= 1e-13 * abs(full) + floor

    @pytest.mark.parametrize("band", ["period", "tower"])
    def test_dropped_nodes_within_the_bound(self, snp_params, band):
        # On every node g(iy) <= B; on every dropped node |g(omega)| <= B
        # at y = Im omega, computed with the Bessel function (both in log,
        # to 1e-9 for the roundoff of the logs); at every y the dropped
        # nodes' w B sums to at most _DEAD_SHARE of each row's mass h(iy),
        # and so does their w |g(omega)|.
        cfg = QuadratureConfig()
        p = snp_params
        lattices = (_period_lattices(p, cfg) if band == "period"
                    else [_tower_band(p, cfg)])
        dropped = 0
        for t, v, t_prime, nodes, w, omega in lattices:
            live = pricers._live_nodes(p, t, v, t_prime, nodes, w,
                                       omega.imag)
            dropped += np.count_nonzero(~live)
            shape = (-1,) + (1,) * nodes.ndim
            y = np.unique(omega.imag).reshape(shape)
            log_b = _log_bound(p, t, v, t_prime, nodes, y)
            log_gy = _split_log(*tr._log_g_vec(t, v, t_prime, 1j * y, 0.0,
                                               nodes, p))
            assert np.all(log_gy.real <= log_b + 1e-9)
            mass_y = np.exp(tr._log_h_vec(t, v, t_prime, 1j * y, 0.0,
                                          p).real)
            bound_share = np.sum(np.where(live, 0.0, w * np.exp(log_b)),
                                 axis=-1, keepdims=True) / mass_y
            assert np.all(bound_share <= pricers._DEAD_SHARE * (1 + 1e-12))
            at = omega.reshape(shape)
            log_g = _split_log(*tr._log_g_vec(t, v, t_prime, at, 0.0, nodes,
                                              p)).real
            bound = _log_bound(p, t, v, t_prime, nodes, at.imag)
            assert np.all((log_g <= bound + 1e-9) | live)
            mass = np.exp(tr._log_h_vec(t, v, t_prime, 1j * at.imag, 0.0,
                                        p).real)
            carried = np.sum(np.where(live, 0.0, w * np.exp(log_g)), axis=-1,
                             keepdims=True)
            assert np.all(carried <= pricers._DEAD_SHARE * mass)
        assert dropped > 0

    def test_every_node_kept_where_c_is_not_real(self, snp_params):
        # At y = Im omega = 5, c(iy)^2 = b0^2 - (y + y^2)/eps^2 < 0: the
        # order is not real and the bound does not hold.
        cfg = QuadratureConfig()
        nodes, w = pricers._transition_grid(snp_params, 0.0, 0.5,
                                            snp_params.v0, cfg)
        for imag in ([5.0], [0.0, 5.0]):
            assert np.all(pricers._live_nodes(snp_params, 0.0,
                                              snp_params.v0, 0.5, nodes, w,
                                              imag))
        assert not np.all(pricers._live_nodes(snp_params, 0.0,
                                               snp_params.v0, 0.5, nodes, w,
                                               [0.0]))


class TestSelfQuantoRoutes:
    """With S a martingale under the pricing measure, E[S_T dX_k^2] =
    e^{(r-q)(T-t_k)} E[S_{t_k} dX_k^2]: the terminal-price fair strike (the
    tower route through t_k) is (1/T) sum_k e^{(r-q)(T-t_k)} M_k, with M_k
    the price-ratio lag-0 moment of period k."""

    @pytest.mark.xfail(strict=True, reason=(
        "the tower route's inner v' grid (_GRID_STD_SPAN = 9 plus "
        "_GRID_LOG_MARGIN = 2 in ln v') truncates its integral: the "
        "terminal-price swap is 4.4e-8 below the identity, and a span of 14 "
        "moves it onto it"))
    def test_terminal_price_is_discounted_price_ratio_sum(self, snp_params,
                                                         swap_price):
        spec = MomentSwapSpec(1.0, 12, 2, "terminal_price")
        cfg = QuadratureConfig()
        T, growth = spec.maturity, snp_params.r - snp_params.q
        total = 0.0
        for k in range(1, spec.n_periods + 1):
            t_k = spec.date(k)
            m_k = pricers._weighted_moment(
                snp_params, cfg, spec.m, [(spec.date(k - 1), t_k, t_k)], -1j)
            total += np.exp(growth * (T - t_k)) * m_k[0].real
        identity = total / T
        assert abs(swap_price(spec) - identity) <= 1e-9 * abs(identity)


class TestTransitionGridRule:
    """``_transition_grid`` spaces its nodes a quarter of the narrowest
    row's std of ln v' apart, but clips the count that asks for at
    _GRID_MAX_NODES without a word."""

    @pytest.mark.xfail(strict=True, reason=(
        "_transition_grid clips its width-based node count at "
        "_GRID_MAX_NODES = 192: the tower's inner grids for periods 2-11 "
        "of the N = 12 terminal-price swap ask for 388-533 nodes and get "
        "192; mending the clip moves the strip's prices"))
    def test_tower_inner_grids_meet_their_width_rule(self, snp_params):
        spec = MomentSwapSpec(1.0, 12, 2, "terminal_price")
        cfg = QuadratureConfig()
        short = []
        for k in range(2, spec.n_periods):  # the periods with t_i > t_k
            t_km1, t_k = spec.date(k - 1), spec.date(k)
            v = next(pricers._period_grids(snp_params, cfg, [(t_km1, t_k)],
                                           np.array([-1j])))[0]
            nodes, _ = pricers._transition_grid(snp_params, t_km1, t_k, v,
                                                cfg)
            C = coef_C(snp_params.theta, snp_params.epsilon, t_km1, t_k)
            width = np.minimum(np.sqrt(2.0 * C * v),
                               pricers._STATIONARY_WIDTH_CAP)
            span = np.log(nodes[:, -1] / nodes[:, 0])
            need = math.ceil(np.max(span) / (np.min(width) / 4.0))
            if nodes.shape[1] < need:
                short.append((k, need, nodes.shape[1]))
        assert not short, f"(period, nodes asked, nodes given): {short}"


class TestTransitionGridBlocks:
    """``_transition_grid`` builds a block of date pairs in one call, each
    pair's rows with its own node count, padded to the table with nodes 1
    of weight 0."""

    DATES = np.array([1.0 / 252.0, 1.0 / 52.0, 1.0 / 12.0, 0.25, 0.5,
                      11.0 / 12.0])

    @staticmethod
    def linspace_row(params, t, v, n):
        """One row from V0 by np.linspace, in the grid rule's arithmetic."""
        A = coef_A(params.theta, 0.0, np.array([t]))
        C = coef_C(params.theta, params.epsilon, 0.0, np.array([t]))
        df = 4.0 + 4.0 * params.kappa / params.eps2
        center = -np.log(1.0 / v / A + C * df / (2.0 * A))
        width = np.minimum(np.sqrt(2.0 * C * v),
                           pricers._STATIONARY_WIDTH_CAP)
        half = pricers._GRID_STD_SPAN * width + pricers._GRID_LOG_MARGIN
        nodes = np.exp(center + half * np.linspace(-1.0, 1.0, n))
        w = np.full(n, 2.0 * half[0] / (n - 1))
        w[[0, -1]] *= 0.5
        return nodes, w * nodes

    @pytest.mark.parametrize("omega_max", [0.0, 60.0])
    def test_rows_as_one_call_per_date(self, snp_params, omega_max):
        cfg = QuadratureConfig()
        nodes, w = pricers._transition_grid(snp_params, 0.0, self.DATES,
                                            snp_params.v0, cfg, omega_max)
        sizes = []
        for row, t in enumerate(self.DATES):
            one, w_one = pricers._transition_grid(
                snp_params, 0.0, t, snp_params.v0, cfg, omega_max)
            n = one.shape[1]
            sizes.append(n)
            assert np.array_equal(nodes[row, :n], one[0])
            assert np.array_equal(w[row, :n], w_one[0])
            assert np.all(nodes[row, n:] == 1.0) and np.all(w[row, n:] == 0.0)
            ref, w_ref = self.linspace_row(snp_params, t, snp_params.v0, n)
            assert np.array_equal(one[0], ref)
            assert np.array_equal(w_one[0], w_ref)
        assert nodes.shape[1] == max(sizes) > min(sizes)

    def test_centres_of_one_pair_share_a_count(self, snp_params):
        # a tower's outer nodes from one period: one count, its widest
        # span against its narrowest width, larger than the rows alone ask
        cfg = QuadratureConfig()
        t_km1, t_k = 1.0 / 12.0, 2.0 / 12.0
        v = np.geomspace(0.02, 0.5, 5)
        nodes, w = pricers._transition_grid(snp_params, t_km1, t_k, v, cfg)
        C = coef_C(snp_params.theta, snp_params.epsilon, t_km1, t_k)
        width = np.minimum(np.sqrt(2.0 * C * v),
                           pricers._STATIONARY_WIDTH_CAP)
        half = pricers._GRID_STD_SPAN * width + pricers._GRID_LOG_MARGIN
        want = min(max(cfg.v_nodes,
                       math.ceil(np.max(2.0 * half) / (np.min(width) / 4.0))),
                   pricers._GRID_MAX_NODES)
        alone = [pricers._transition_grid(snp_params, t_km1, t_k, x,
                                          cfg)[0].shape[1] for x in v]
        assert nodes.shape == (v.size, want) and np.all(w > 0.0)
        assert want > min(alone)
        # two pairs with their centres in one call: each pair's count
        other = pricers._transition_grid(snp_params, 0.5, 0.75, v, cfg)
        both, w_both = pricers._transition_grid(
            snp_params, np.array([[t_km1], [0.5]]), np.array([[t_k], [0.75]]),
            v, cfg)
        for got, w_got, (one, w_one) in zip(both, w_both,
                                           [(nodes, w), other]):
            n = one.shape[1]
            assert np.array_equal(got[:, :n], one)
            assert np.array_equal(w_got[:, :n], w_one)
            assert np.all(w_got[:, n:] == 0.0)

    def test_one_lattice_call_per_block(self, snp_params, monkeypatch):
        # the N = 252 variance swap's 251 lattices from V0 come in blocks
        # of _BLOCK_ELEMENTS // _GRID_MAX_NODES periods, one call each
        calls = []
        grid = pricers._transition_grid

        def spy(*args, **kwargs):
            calls.append(np.size(args[2]))
            return grid(*args, **kwargs)
        monkeypatch.setattr(pricers, "_transition_grid", spy)
        fair_strike_weighted(MomentSwapSpec(1.0, 252, 2, "constant"),
                             snp_params, QuadratureConfig())
        per_block = pricers._BLOCK_ELEMENTS // pricers._GRID_MAX_NODES
        assert len(calls) == math.ceil(251 / per_block) == 2
        assert sum(calls) == 251

class TestCorridorVGrid:
    """The v grids of the corridor's moments resolve the phase of g1 at
    every omega the rule reaches: a 90-node grid aliased it past
    omega_R = 100, and the price drifted as the cutoff grew."""

    def integrand(self, monkeypatch, params, v_nodes, omega_r):
        captured = {}

        def capture(cf, payoff_transform, cfg, damping=None):
            captured["at"] = lambda w: complex(
                payoff_transform(w) * cf(np.array([w]))[0])
            captured["damping"] = damping
            return 0.0, {}
        with monkeypatch.context() as m:
            m.setattr(pricers, "fourier_invert_1d", capture)
            fair_strike_weighted(CORRIDOR_LAG1, params,
                                 QuadratureConfig(v_nodes=v_nodes))
        return captured["at"](omega_r + 1j * captured["damping"]).real

    def test_integrand_does_not_alias(self, snp_params, monkeypatch):
        # The route this replaced gave -2.0e-10 on 64 nodes and 4.4e-14
        # on 128.
        coarse, fine = (self.integrand(monkeypatch, snp_params, n, 140.0)
                        for n in (64, 128))
        assert abs(coarse - fine) <= 1e-12

    @pytest.mark.parametrize("omega_r", [140.0, 200.0])
    def test_integrand_unmoved_by_the_prune(self, snp_params, monkeypatch,
                                            omega_r):
        # Past the rule's last node (127.75), up to where the 11/12-year
        # grid still resolves g1's phase in 192 nodes (about omega_R =
        # 222; OMEGA_LIMIT = 1000 needs more, and raises): the integrand
        # on the live nodes is the one on the whole lattice, within the
        # roundoff of its sums, eps times its value at omega_R = 0.
        n = QuadratureConfig().v_nodes
        floor = np.finfo(float).eps * abs(
            self.integrand(monkeypatch, snp_params, n, 0.0))
        pruned = self.integrand(monkeypatch, snp_params, n, omega_r)
        monkeypatch.setattr(pricers, "_live_nodes", lambda *args: args[5] > 0)
        full = self.integrand(monkeypatch, snp_params, n, omega_r)
        assert abs(pruned - full) <= floor

    def test_price_converged_in_v(self, snp_params, swap_price):
        fine = fair_strike_weighted(CORRIDOR_LAG1, snp_params,
                                    QuadratureConfig(v_nodes=128))
        assert abs(swap_price(CORRIDOR_LAG1) - fine) <= 1e-9 * abs(fine)

    def test_grid_beyond_its_node_cap_raises(self, snp_params):
        # At omega_R = 1000 the 1/12-year grid from V0 needs 616 nodes.
        with pytest.raises(QuadratureNonConvergenceError, match="needs"):
            pricers._transition_grid(snp_params, 0.0, 1.0 / 12.0,
                                     snp_params.v0, QuadratureConfig(),
                                     1000.0)

    def test_lattice_past_its_cap_beyond_the_stop_prices(self, monkeypatch):
        # At epsilon = 1 the two-year, two-period corridor is spent at
        # omega_R = 31.75, where its second period's lattice fits in
        # _GRID_MAX_NODES; sized at 55.75, the end of the omega rule's
        # first batch, it needs 206 nodes and raises.  The rule evaluates
        # that batch again panel by panel, and the swap prices with the
        # bits of the panel-by-panel rule.
        params = ModelParams.with_constant_theta(
            kappa=22.84, theta=4.979, epsilon=1.0, v0=0.06, rho=-0.5,
            s0=100.0, r=0.015, q=0.0)
        spec = MomentSwapSpec(2.0, 2, 2, "corridor", 0, 80.0, 120.0)
        cfg = QuadratureConfig()
        pricers._transition_grid(params, 0.0, 1.0, params.v0, cfg, 31.75)
        with pytest.raises(QuadratureNonConvergenceError,
                           match="needs 206 nodes"):
            pricers._transition_grid(params, 0.0, 1.0, params.v0, cfg,
                                     55.75)
        price = fair_strike_weighted(spec, params, cfg)
        monkeypatch.setattr(quadrature, "omega_integral",
                            omega_integral_panel_by_panel)
        assert price == fair_strike_weighted(spec, params, cfg)

    @pytest.mark.parametrize("rho,gap", [(-0.5, 1e-6), (-0.3, 3e-5)])
    def test_negligible_period_prices(self, monkeypatch, rho, gap):
        # At epsilon = 1 and V0 = 0.02 the one-panel-a-batch rule (the
        # omega rule's retry path) hands the second period a lattice on
        # which its moments are some 1e-29 of the first period's, and
        # their 8- and 4-node rules disagree by roundoff of that size.
        # The swap prices; it differs from the batched rule by the
        # lattices' own v' error at this epsilon.
        params = ModelParams.with_constant_theta(
            kappa=22.84, theta=4.979, epsilon=1.0, v0=0.02, rho=rho,
            s0=100.0, r=0.015, q=0.0)
        spec = MomentSwapSpec(2.0, 2, 2, "corridor", 0, 80.0, 120.0)
        cfg = QuadratureConfig()
        batched = fair_strike_weighted(spec, params, cfg)
        monkeypatch.setattr(quadrature, "omega_integral",
                            omega_integral_panel_by_panel)
        one_by_one = fair_strike_weighted(spec, params, cfg)
        assert abs(one_by_one - batched) <= gap * batched

    @pytest.mark.xfail(strict=True, reason=(
        "the period lattices' own v' error: at epsilon = 1 the lattices "
        "the one-panel rule sizes for its first call (omega_R up to 31.75) "
        "price the swap 4.0e-4 below v_nodes = 256, and nothing flags it; "
        "the batched rule's, sized at 55.75, are 9.2e-8 off.  A v' rule "
        "sized by its own error estimate (ROADMAP item 12) would mend it"))
    def test_low_epsilon_corridor_on_the_one_panel_rule(self, monkeypatch):
        # The one-panel-a-batch rule is the omega rule's retry path, so a
        # batch that raises hands the swap to these lattices.
        params = ModelParams.with_constant_theta(
            kappa=22.84, theta=4.979, epsilon=1.0, v0=0.2, rho=-0.3,
            s0=100.0, r=0.015, q=0.0)
        spec = MomentSwapSpec(2.0, 12, 2, "corridor", 1, 50.0, 200.0)
        fine = fair_strike_weighted(spec, params,
                                    QuadratureConfig(v_nodes=256))
        monkeypatch.setattr(quadrature, "omega_integral",
                            omega_integral_panel_by_panel)
        one_by_one = fair_strike_weighted(spec, params, QuadratureConfig())
        assert abs(one_by_one - fine) <= 1e-6 * fine


class TestCorridorAgainstMonteCarlo:
    # The two corridor swaps of the benchmark: the lag-0 one sums Kummer's
    # series on the omega x v grid, the lag-1 one on single omega rows.
    @pytest.mark.parametrize("n_periods,lag", [(2, 0), (12, 1)])
    def test_within_three_standard_errors(self, snp_params, swap_price,
                                          n_periods, lag):
        spec = MomentSwapSpec(1.0, n_periods, 2, "corridor", lag, 80.0,
                              120.0)
        mc = mc_price(spec, snp_params,
                      SimulationConfig(n_paths=100_000, steps_per_year=256,
                                       seed=71))
        assert abs(swap_price(spec) - mc.estimate) <= 3.0 * mc.std_error


# Monte Carlo floating legs: every swap on one schedule shares one ensemble,
# simulated in pieces so the 252-date arrays stay small.
MC_PATHS, MC_PIECE, MC_SEED = 40_000, 10_000, 83
MC_SCHEDULES = {n: [MomentSwapSpec(1.0, n, m) for m in (2, 3)]
                for n in (4, 12, 20, 52, 252)}
MC_SCHEDULES[12] += [MomentSwapSpec(1.0, 12, 2, "price_ratio", 0),
                     MomentSwapSpec(1.0, 12, 2, "price_ratio", 1),
                     MomentSwapSpec(1.0, 12, 2, "terminal_price")]
MC_SPECS = [spec for specs in MC_SCHEDULES.values() for spec in specs]


@pytest.fixture(scope="module")
def mc_leg(snp_params):
    """Floating-leg mean and standard error per spec, one shared ensemble
    per schedule."""
    cache = {}

    def leg(spec):
        n = spec.n_periods
        if n not in cache:
            schedule = spec.schedule_times()
            parts = {s: [] for s in MC_SCHEDULES[n]}
            for piece in range(MC_PATHS // MC_PIECE):
                ens = simulate_paths(1.0, schedule, snp_params,
                                     SimulationConfig(n_paths=MC_PIECE,
                                                      steps_per_year=256,
                                                      seed=MC_SEED + piece))
                for s in parts:
                    parts[s].append(_floating_leg(s, ens, snp_params))
            cache[n] = {s: _mean_se(np.concatenate(p))
                        for s, p in parts.items()}
        return cache[n][spec]
    return leg


class TestSwapsAgainstMonteCarlo:
    @pytest.mark.parametrize(
        "spec", MC_SPECS,
        ids=[f"{s.weight_kind}-N{s.n_periods}-m{s.m}-lag{s.lag}"
             for s in MC_SPECS])
    def test_within_three_standard_errors(self, swap_price, mc_leg, spec):
        mean, se = mc_leg(spec)
        assert abs(swap_price(spec) - mean) <= 3.0 * se
