"""Special-function kernels against independent series/quadrature oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafrelay.specials import (
    bessel_j0,
    bessel_k0,
    exp_e1_scaled,
    exp_integral_e1,
    gaussian_q,
)

EULER_GAMMA = 0.5772156649015329


def j0_series(x, terms=40):
    """Power-series oracle: sum (-1)^k (x/2)^(2k) / (k!)^2."""
    acc = 0.0
    term = 1.0
    q = (x / 2.0) ** 2
    for k in range(terms):
        acc += term
        term *= -q / ((k + 1) * (k + 1))
    return acc


def j0_series_mp(x, dps=40):
    """Same series at high precision, for arguments where doubles cancel."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        q = (xm / 2) ** 2
        acc = mpmath.mpf(0)
        term = mpmath.mpf(1)
        k = 0
        while abs(term) > mpmath.mpf(10) ** (-dps) * (abs(acc) + 1):
            acc += term
            term *= -q / ((k + 1) * (k + 1))
            k += 1
        return float(acc)


def k0_series(x, dps=40):
    """K0 oracle: -(ln(x/2)+gamma) I0(x) + sum (x/2)^(2k)/(k!)^2 * H_k.

    Evaluated in extended precision so the oracle error stays below the
    implementation tolerance across the whole grid.
    """
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        q = (xm / 2) ** 2
        i0 = mpmath.mpf(0)
        acc = mpmath.mpf(0)
        term = mpmath.mpf(1)
        harmonic = mpmath.mpf(0)
        for k in range(120):
            i0 += term
            acc += term * harmonic
            harmonic += mpmath.mpf(1) / (k + 1)
            term *= q / ((k + 1) * (k + 1))
            if term < mpmath.mpf(10) ** (-dps) * i0:
                break
        gamma = mpmath.euler
        return float(-(mpmath.log(xm / 2) + gamma) * i0 + acc)


def e1_series(x, terms=80):
    """E1 oracle: -gamma - ln x + sum (-1)^(k+1) x^k / (k k!)."""
    acc = 0.0
    term = 1.0  # x^k / k!
    for k in range(1, terms):
        term *= x / k
        acc += (-1) ** (k + 1) * term / k
    return -EULER_GAMMA - math.log(x) + acc


def e1_lentz(x, max_iter=500, tol=1e-15):
    """Continued-fraction oracle for E1 (independent classical route)."""
    tiny = 1e-300
    b = x + 1.0
    c = 1e300
    d = 1.0 / b
    f = d
    for k in range(1, max_iter):
        a = -k * k
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < tol:
            break
    return math.exp(-x) * f


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_small_doppler_arguments(self):
        # frozen from the 20-term power-series oracle
        assert bessel_j0(2 * np.pi * 0.001) == pytest.approx(0.9999901304199510, abs=1e-12)
        assert bessel_j0(2 * np.pi * 0.05) == pytest.approx(0.9754777740752431, abs=1e-12)

    def test_series_agreement_grid(self):
        xs = np.linspace(0.0, 20.0, 1000)
        ref = np.array([j0_series_mp(x) for x in xs])
        assert np.max(np.abs(bessel_j0(xs) - ref)) <= 1e-12

    def test_large_argument_spot_checks(self):
        for x in np.linspace(20.0, 100.0, 25):
            assert bessel_j0(x) == pytest.approx(j0_series_mp(x, dps=80), abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bessel_j0(np.nan)
        with pytest.raises(ValueError):
            bessel_j0(np.inf)


class TestBesselK0:
    def test_value_at_one_integral_oracle(self):
        # oracle: K0(x) = int_0^inf exp(-x cosh t) dt at x=1; the integrand is
        # below 1e-4000 beyond t = 10, so a finite interval is exact here
        ref = float(mpmath.quad(lambda t: mpmath.e ** (-mpmath.cosh(t)), [0, 10]))
        assert bessel_k0(1.0) == pytest.approx(ref, rel=1e-10)
        assert bessel_k0(1.0) == pytest.approx(0.4210244382407083, rel=1e-10)

    def test_small_argument_log_behavior(self):
        x = 1e-6
        expected = -math.log(x / 2.0) - EULER_GAMMA
        assert bessel_k0(x) == pytest.approx(expected, rel=1e-6)

    def test_asymptotic_ratio(self):
        ratio = bessel_k0(20.0) / bessel_k0(19.0)
        assert ratio == pytest.approx(math.exp(-1.0) * math.sqrt(19.0 / 20.0), rel=0.01)

    def test_series_agreement_grid(self):
        xs = np.geomspace(1e-6, 8.0, 1000)
        ref = np.array([k0_series(x) for x in xs])
        rel = np.abs(bessel_k0(xs) - ref) / np.abs(ref)
        assert np.max(rel) <= 1e-10

    def test_positive_and_decreasing(self):
        xs = np.geomspace(1e-6, 50.0, 500)
        vals = bessel_k0(xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k0(0.0)
        with pytest.raises(ValueError):
            bessel_k0(-1.0)


class TestExpIntegralE1:
    def test_value_at_one_quadrature_oracle(self):
        ref = float(mpmath.quad(lambda t: mpmath.e**-t / t, [1, mpmath.inf]))
        assert exp_integral_e1(1.0) == pytest.approx(ref, rel=1e-10)
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-10)

    def test_series_identity_at_half(self):
        assert exp_integral_e1(0.5) == pytest.approx(e1_series(0.5), rel=1e-12)

    def test_large_argument_asymptote(self):
        x = 50.0
        assert x * math.exp(x) * exp_integral_e1(x) == pytest.approx(1.0, rel=0.02)

    def test_series_and_cf_grids(self):
        xs_small = np.geomspace(1e-6, 5.0, 500)
        ref_small = np.array([e1_series(x) for x in xs_small])
        assert np.max(np.abs(exp_integral_e1(xs_small) - ref_small) / np.abs(ref_small)) <= 1e-10
        xs_big = np.linspace(5.0, 50.0, 500)
        ref_big = np.array([e1_lentz(x) for x in xs_big])
        assert np.max(np.abs(exp_integral_e1(xs_big) - ref_big) / ref_big) <= 1e-10

    def test_derivative_finite_difference(self):
        h = 1e-5
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = (exp_integral_e1(x + h) - exp_integral_e1(x - h)) / (2 * h)
            expected = -math.exp(-x) / x
            assert fd == pytest.approx(expected, rel=1e-6)

    def test_strictly_decreasing(self):
        xs = np.geomspace(1e-4, 40.0, 400)
        assert np.all(np.diff(exp_integral_e1(xs)) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)
        with pytest.raises(ValueError):
            exp_integral_e1(-3.0)


class TestGaussianQ:
    def test_at_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_value_at_one(self):
        ref = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        assert gaussian_q(1.0) == pytest.approx(ref, abs=1e-12)
        assert gaussian_q(1.0) == pytest.approx(0.158655253931457, abs=1e-12)

    def test_erfc_reference_grid(self):
        xs = np.linspace(-8.0, 8.0, 1000)
        ref = np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs])
        assert np.max(np.abs(gaussian_q(xs) - ref)) <= 1e-12

    @settings(max_examples=50)
    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_complement_symmetry(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        xs = np.linspace(-6.0, 6.0, 500)
        assert np.all(np.diff(gaussian_q(xs)) < 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gaussian_q(np.inf)


class TestFusedExpE1:
    def test_matches_product_in_overlap(self):
        assert exp_e1_scaled(0.1) == pytest.approx(math.exp(0.1) * e1_series(0.1), rel=1e-12)
        for x in (1.0, 10.0, 40.0, 49.9):
            assert exp_e1_scaled(x) == pytest.approx(math.exp(x) * e1_lentz(x), rel=1e-12)

    def test_large_arguments_no_overflow(self):
        for x in (60.0, 200.0, 1e4, 1e8):
            v = exp_e1_scaled(x)
            assert np.isfinite(v)
            # leading asymptotic behaviour: ~1/x * (1 - 1/x)
            assert v == pytest.approx(1.0 / x * (1.0 - 1.0 / x), rel=10.0 / x)

    def test_large_arguments_match_mpmath(self):
        # the x > 50 branch against 40-digit exp(x)*E1(x)
        xs = np.geomspace(50.0, 1e8, 41)[1:]
        with mpmath.workdps(40):
            ref = [float(mpmath.exp(mpmath.mpf(x)) * mpmath.e1(mpmath.mpf(x))) for x in xs]
        assert exp_e1_scaled(xs) == pytest.approx(ref, rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_e1_scaled(0.0)
