"""Analytic PEP/SER/BER: closed forms against direct numerical integration."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dafrelay import analysis
from dafrelay.analysis import (
    PepParams,
    QuadratureError,
    error_floor,
    gamma_rd,
    gamma_rd_high_snr,
    gamma_sd,
    i1_closed_form,
    pep,
    pep_point,
    pep_points,
    ser_ber_from_pep,
)
from dafrelay.channel import SCENARIOS
from dafrelay.link import Constellation, PowerAllocation
from dafrelay.specials import bessel_j0, exp_e1_scaled

ALPHA = {f: float(bessel_j0(2 * np.pi * f)) for f in (0.001, 0.01, 0.05)}


def params_for(f_sd, f_sr, f_rd, p_db, M):
    return PepParams.for_link(ALPHA[f_sd], ALPHA[f_sr] * ALPHA[f_rd], p_db, M)


def i1_direct(theta, params):
    """Oracle: integrate the conditional factor over the exponential gain density."""
    a, aa, p0, d2 = params.alpha, params.A**2, params.P0, params.d_min_sq

    def integrand(eta):
        rho = aa * p0 * eta / (aa * eta + 1.0)
        g = gamma_rd_high_snr(a, rho)
        return np.exp(-eta) / (1.0 + g * d2 / (2.0 * np.sin(theta) ** 2))

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def pep_mpmath(params, dps=30):
    """Oracle: (1/pi) int_0^(pi/2) I1(theta) / (1 + gamma_sd d^2 / (2 sin^2 theta)) dtheta at `dps` digits.

    I1 is its closed form, which test_closed_form_vs_direct_integration checks against the eta-integral;
    mpmath's tanh-sinh rule resolves the layer near theta = 0 on its own.
    """
    with mpmath.workdps(dps):
        a2, asd2 = mpmath.mpf(params.alpha) ** 2, mpmath.mpf(params.alpha_sd) ** 2
        aa, p0, d2 = mpmath.mpf(params.A) ** 2, mpmath.mpf(params.P0), mpmath.mpf(params.d_min_sq)
        gsd = asd2 * p0 / (2 * p0 * (1 - asd2) + 4 + 2 / p0)

        def integrand(theta):
            s2 = mpmath.sin(theta) ** 2
            denom = a2 * aa * p0 * d2 / s2 + 4 * (1 - a2) * aa * p0 + 8 * aa
            beta1, beta2 = 4 / (2 * (1 - a2) * aa * p0 + 4 * aa), 8 / denom
            eps1 = (4 * (1 - a2) * aa * p0 + 8 * aa) / denom
            i1 = eps1 * (1 + (beta1 - beta2) * mpmath.exp(beta2) * mpmath.e1(beta2))
            return i1 / (1 + gsd * d2 / (2 * s2))

        return float(mpmath.quad(integrand, [0, mpmath.pi / 2]) / mpmath.pi)


class TestSnrTerms:
    def test_gamma_sd_formula(self):
        p = params_for(0.01, 0.01, 0.001, 20.0, 2)
        a2 = p.alpha_sd**2
        expected = a2 * p.P0 / (2 * p.P0 * (1 - a2) + 4 + 2 / p.P0)
        assert gamma_sd(p) == pytest.approx(expected, rel=1e-14)

    def test_gamma_rd_formula(self):
        a = 0.995
        rho = 7.3
        expected = a**2 * rho / (2 * rho * (1 - a**2) + 4 + 2 / rho)
        assert gamma_rd(a, rho) == pytest.approx(expected, rel=1e-14)

    def test_gamma_rd_high_snr_drops_correction(self):
        a = 0.995
        assert gamma_rd_high_snr(a, 1e9) == pytest.approx(gamma_rd(a, 1e9), rel=1e-8)
        # at low rho the correction matters and the two differ
        assert gamma_rd_high_snr(a, 0.1) > gamma_rd(a, 0.1)

    def test_gamma_sd_saturates_at_floor_level(self):
        # as P grows the direct-branch SNR term approaches a^2 / (2(1-a^2))
        p = params_for(0.05, 0.05, 0.01, 150.0, 2)
        a2 = p.alpha_sd**2
        assert gamma_sd(p) == pytest.approx(a2 / (2 * (1 - a2)), rel=1e-4)

    def test_quasi_static_gamma_grows_linearly(self):
        # at alpha = 1 the additive terms stop mattering and gamma ~ P0/4
        lo = PepParams(1e4, 1.0, 1.0, 1.0, 4.0)
        hi = PepParams(1e6, 1.0, 1.0, 1.0, 4.0)
        assert gamma_sd(hi) / gamma_sd(lo) == pytest.approx(100.0, rel=1e-4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PepParams(0.0, 1.0, 0.9, 0.9, 4.0)
        with pytest.raises(ValueError):
            PepParams(1.0, 1.0, 1.5, 0.9, 4.0)
        with pytest.raises(ValueError):
            gamma_rd(0.9, 0.0)


class TestInnerIntegral:
    def test_closed_form_vs_direct_integration(self):
        # 100 random parameter draws, 1e-8 relative agreement
        rng = np.random.default_rng(16)
        for _ in range(100):
            p_db = rng.uniform(-5.0, 45.0)
            alpha = float(np.cos(rng.uniform(0.0, 0.4)))  # (0.92, 1.0)
            theta = rng.uniform(0.05, np.pi / 2)
            M = int(rng.choice([2, 4]))
            pa = PowerAllocation.equal_from_total_db(p_db)
            d2 = 4.0 if M == 2 else 2.0
            params = PepParams(pa.P0, pa.A, alpha, alpha, d2)
            closed = float(i1_closed_form(theta, params))
            direct = i1_direct(theta, params)
            assert closed == pytest.approx(direct, rel=1e-8)

    def test_vectorized_over_theta(self):
        p = params_for(0.01, 0.01, 0.001, 20.0, 2)
        thetas = np.linspace(0.1, np.pi / 2, 7)
        vec = i1_closed_form(thetas, p)
        assert vec.shape == (7,)
        for th, v in zip(thetas, vec):
            assert v == pytest.approx(float(i1_closed_form(th, p)), rel=1e-14)

    def test_bounded_and_increasing_in_theta(self):
        p = params_for(0.05, 0.05, 0.01, 20.0, 2)
        thetas = np.linspace(0.01, np.pi / 2, 100)
        vals = i1_closed_form(thetas, p)
        assert np.all(vals > 0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) > 0)


class TestPep:
    def test_against_two_dimensional_quadrature(self):
        p = params_for(0.01, 0.01, 0.001, 20.0, 2)
        gsd = gamma_sd(p)

        def outer(theta):
            return i1_direct(theta, p) / (1.0 + gsd * p.d_min_sq / (2.0 * np.sin(theta) ** 2))

        ref, _ = integrate.quad(outer, 0.0, np.pi / 2, limit=200, epsabs=1e-13, epsrel=1e-11)
        ref /= np.pi
        assert pep(p) == pytest.approx(ref, rel=1e-6)

    def test_probability_range(self):
        for p_db in (-10.0, 0.0, 20.0, 60.0):
            p = params_for(0.05, 0.05, 0.01, p_db, 4)
            v = pep(p)
            assert 0.0 < v < 0.5

    def test_monotone_in_power(self):
        vals = [pep(params_for(0.01, 0.01, 0.001, p_db, 2)) for p_db in np.arange(0, 55, 5)]
        assert np.all(np.diff(vals) < 0)

    def test_matches_independent_gauss_legendre_rule(self):
        # oracle: the order-128 rule built here, from nodes on (-1, 1) mapped to (0, pi/2)
        x, w = np.polynomial.legendre.leggauss(128)
        theta = (x + 1.0) * np.pi / 4.0
        for args in ((0.01, 0.01, 0.001, 20.0, 2), (0.05, 0.05, 0.01, -10.0, 4), (0.05, 0.01, 0.001, 60.0, 2)):
            p = params_for(*args)
            direct = 1.0 + gamma_sd(p) * p.d_min_sq / (2.0 * np.sin(theta) ** 2)
            ref = np.sum(w * np.pi / 4.0 * i1_closed_form(theta, p) / direct) / np.pi
            assert pep(p) == pytest.approx(ref, rel=1e-14)
        nodes = analysis._theta_rule()[0]
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    @pytest.mark.parametrize(
        "scenario, p_db, M",
        # total powers at which the plain Gauss-Legendre theta-rule failed its refinement check
        [("III", -20.0, 2), ("I", -30.0, 4), ("II", -15.0, 2), ("III", -25.0, 4), ("I", -17.5, 2)],
    )
    def test_low_power_matches_mpmath(self, scenario, p_db, M):
        p = PepParams.for_link(*SCENARIOS[scenario].autocorrs(), p_db, M)
        assert pep(p) == pytest.approx(pep_mpmath(p), rel=1e-12)

    def test_faster_fading_is_worse(self):
        p_db = 30.0
        slow = pep(params_for(0.001, 0.001, 0.001, p_db, 2))
        fast = pep(params_for(0.05, 0.05, 0.01, p_db, 2))
        assert fast > slow


class TestErrorFloor:
    def test_quasi_static_floor_is_zero(self):
        assert error_floor(PepParams(10.0, 1.0, 1.0, 1.0, 4.0)) == 0.0

    def test_floor_matches_high_power_pep(self):
        # PEP at 120 dB total power sits on the floor to 1e-3 relative
        for f_sd, f_sr, f_rd in ((0.01, 0.01, 0.001), (0.05, 0.05, 0.01)):
            for M in (2, 4):
                p = params_for(f_sd, f_sr, f_rd, 120.0, M)
                fl = error_floor(p)
                assert fl > 0
                assert pep(p) == pytest.approx(fl, rel=1e-3)

    def test_equal_branch_is_limit_of_general_branch(self):
        # the removable singularity: approach alpha_sd == alpha from both sides
        alpha = 0.95
        base = PepParams(1e12, 1.0, alpha, alpha, 4.0)
        equal = error_floor(base)
        for eps in (1e-8, -1e-8):
            nearby = PepParams(1e12, 1.0, alpha + eps, alpha, 4.0)
            assert error_floor(nearby) == pytest.approx(equal, rel=1e-6)

    def test_floor_ordering_across_scenarios(self):
        f2 = error_floor(params_for(0.01, 0.01, 0.001, 50.0, 2))
        f3 = error_floor(params_for(0.05, 0.05, 0.01, 50.0, 2))
        assert 0 < f2 < f3

    def test_floor_independent_of_power(self):
        a = error_floor(params_for(0.05, 0.05, 0.01, 10.0, 2))
        b = error_floor(params_for(0.05, 0.05, 0.01, 60.0, 2))
        assert a == pytest.approx(b, rel=1e-12)


class TestSerBerMapping:
    def test_dbpsk_exact(self):
        assert ser_ber_from_pep(0.01, 2) == (0.01, 0.01)

    def test_dqpsk_nearest_neighbour(self):
        ser, ber = ser_ber_from_pep(0.01, 4)
        assert ser == pytest.approx(0.02)
        assert ber == pytest.approx(0.01)

    def test_clamped(self):
        ser, ber = ser_ber_from_pep(0.9, 4)
        assert ser == 1.0

    def test_invalid_m(self):
        for M in (1, 3, 6):
            with pytest.raises(ValueError, match="M must be a power of 2 >= 2"):
                ser_ber_from_pep(0.01, M)
        # a float order is named, by every entry point that takes M
        for call in (lambda M: ser_ber_from_pep(0.01, M), lambda M: pep_point(0.99, 0.98, 10.0, M),
                     Constellation.of):
            with pytest.raises(TypeError, match="M must be an integer power of 2 >= 2, got 4.0"):
                call(4.0)
        assert ser_ber_from_pep(0.01, np.int64(4)) == ser_ber_from_pep(0.01, 4)


class TestPepPoint:
    def test_record_consistency(self):
        alpha_sd = ALPHA[0.01]
        alpha = ALPHA[0.01] * ALPHA[0.001]
        pt = pep_point(alpha_sd, alpha, 25.0, 2)
        assert pt.P_dB == 25.0
        assert pt.ser == pt.pep
        assert pt.ber == pt.pep
        params = PepParams.for_link(alpha_sd, alpha, 25.0, 2)
        assert pt.pep == pytest.approx(pep(params), rel=0)
        assert pt.floor == pytest.approx(error_floor(params), rel=0)


LATTICE = tuple(round(-30.0 + 0.5 * i, 9) for i in range(221))  # -30:0.5:80 dB
NODES = analysis._QUAD_ORDER + analysis._QUAD_CHECK_ORDER


@functools.cache
def pep_one_point(scenario, p_db, M):
    """Oracle: (PEP, SER, BER, floor) of one power point, with scalar coefficients over one row of
    nodes, operation for operation as one point was evaluated before the grid pass."""
    params = PepParams.for_link(*SCENARIOS[scenario].autocorrs(), p_db, M)
    _, wt, s2 = analysis._theta_rule()
    a2, aa, p0, d2 = params.alpha**2, params.A**2, params.P0, params.d_min_sq
    denom = a2 * aa * p0 * d2 / s2 + 4.0 * (1.0 - a2) * aa * p0 + 8.0 * aa
    eps1 = (4.0 * (1.0 - a2) * aa * p0 + 8.0 * aa) / denom
    beta1 = 4.0 / (2.0 * (1.0 - a2) * aa * p0 + 4.0 * aa)
    beta2 = 8.0 / denom
    i1 = eps1 * (1.0 + (beta1 - beta2) * exp_e1_scaled(beta2))
    terms = wt * (i1 / (1.0 + gamma_sd(params) * d2 / (2.0 * s2)))
    value = float(np.sum(terms[analysis._QUAD_ORDER:]) / np.pi)
    return (value, *ser_ber_from_pep(value, M), error_floor(params))


def record(point):
    return point.P_dB, point.pep, point.ser, point.ber, point.floor


def recorded_e1(calls: list):
    """exp_e1_scaled, appending each call's argument to `calls`."""

    def wrapper(x):
        calls.append(np.asarray(x))
        return exp_e1_scaled(x)

    return wrapper


class TestPepPoints:
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("scenario", ["I", "II", "III"])
    def test_bitwise_equal_to_one_point_evaluation(self, monkeypatch, scenario, M):
        calls = []
        monkeypatch.setattr(analysis, "exp_e1_scaled", recorded_e1(calls))
        alphas = SCENARIOS[scenario].autocorrs()
        points = pep_points(*alphas, LATTICE, M)
        assert [record(pt) for pt in points] == [(p_db, *pep_one_point(scenario, p_db, M)) for p_db in LATTICE]
        # both branches of exp_e1_scaled: scipy's E1 up to 50, the asymptotic series above
        x = np.concatenate([c.ravel() for c in calls])
        assert np.any(x <= 50.0) and np.any(x > 50.0)
        monkeypatch.undo()
        assert [record(pt) for pt in points] == [record(pep_point(*alphas, p_db, M)) for p_db in LATTICE]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["I", "II", "III"]), st.sampled_from([2, 4]),
           st.lists(st.sampled_from(LATTICE), min_size=1, max_size=30))
    def test_any_power_sequence_gives_each_points_record(self, scenario, M, p_dbs):
        # unsorted, with repeats: each row of the pass is its own point
        points = pep_points(*SCENARIOS[scenario].autocorrs(), p_dbs, M)
        assert [record(pt) for pt in points] == [(p_db, *pep_one_point(scenario, p_db, M)) for p_db in p_dbs]

    def test_grid_longer_than_a_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "exp_e1_scaled", recorded_e1(calls))
        grid = tuple(round(-30.0 + 0.025 * i, 9) for i in range(3001))  # -30:0.025:45 dB
        points = pep_points(*SCENARIOS["II"].autocorrs(), grid, 4)
        # one call per block, none larger than a block of points times the nodes
        assert len(calls) == math.ceil(len(grid) / analysis._PEP_BLOCK) > 1
        assert max(c.size for c in calls) == analysis._PEP_BLOCK * NODES
        assert [record(pt) for pt in points] == [(p_db, *pep_one_point("II", p_db, 4)) for p_db in grid]

    def test_empty_grid(self):
        assert pep_points(0.99, 0.98, (), 2) == []

    def test_quadrature_failure_names_the_first_failing_point(self, monkeypatch):
        alphas = SCENARIOS["I"].autocorrs()
        # at 1e-12 only -30 dB fails: its orders differ by about 1e-11, the others' by below 3e-14
        monkeypatch.setattr(analysis, "_QUAD_RTOL", 1e-12)
        with pytest.raises(QuadratureError, match=r"did not converge at -30 dB: "):
            pep_points(*alphas, (0.0, 20.0, -30.0, -20.0), 2)
        monkeypatch.setattr(analysis, "_QUAD_RTOL", -1.0)
        with pytest.raises(QuadratureError, match=r"did not converge at 12\.5 dB: "):
            pep_points(*alphas, (12.5, 15.0), 2)
        # pep alone has no power to name
        with pytest.raises(QuadratureError, match=r"did not converge: "):
            pep(PepParams.for_link(*alphas, 12.5, 2))

    def test_first_failing_point_decides_the_error(self, monkeypatch):
        alphas = SCENARIOS["I"].autocorrs()
        monkeypatch.setattr(analysis, "_QUAD_RTOL", -1.0)
        # the points before a rejected power are evaluated first, those after it never
        with pytest.raises(QuadratureError, match="at 10 dB"):
            pep_points(*alphas, (10.0, 2900.0), 2)
        with pytest.raises(ValueError, match="total power 2900.0 dB"):
            pep_points(*alphas, (2900.0, 10.0), 2)
        # also across blocks: a failure in the first block comes before a rejection in the second
        grid = (10.0,) * analysis._PEP_BLOCK + (2900.0,)
        with pytest.raises(QuadratureError, match="at 10 dB"):
            pep_points(*alphas, grid, 2)
