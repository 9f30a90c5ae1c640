"""Fading generators, cascaded channel models and their statistical validation."""

import numpy as np
import pytest
from scipy import integrate, special

from dafrelay.channel import (
    SCENARIOS,
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    Scenario,
    autocorr,
    envelope_chi_square,
    envelope_pdf_theoretical,
    gen_cascaded,
    gen_fading,
    rayleigh_pdf,
    validate_stats,
)
from dafrelay.channel import _HIST_EDGES, _HIST_MASSES, _N_SINUSOIDS
from dafrelay.specials import bessel_j0


def rng_for(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class TestSpecsAndScenarios:
    def test_autocorr_is_j0(self):
        assert autocorr(FadingSpec(0.01)) == pytest.approx(bessel_j0(2 * np.pi * 0.01), abs=0)
        assert autocorr(FadingSpec(0.01, lag_n=2)) == pytest.approx(
            bessel_j0(4 * np.pi * 0.01), abs=0
        )
        assert autocorr(FadingSpec(0.0)) == 1.0

    @pytest.mark.parametrize("lag_n", [1, 2])
    @pytest.mark.parametrize("name", ["I", "II", "III"])
    def test_scenario_autocorrs_are_j0_products(self, name, lag_n):
        scn = SCENARIOS[name]

        def j0(f):
            return special.j0(2 * np.pi * f * lag_n)

        alpha_sd, alpha = scn.autocorrs(lag_n)
        assert alpha_sd == pytest.approx(j0(scn.f_sd), rel=1e-15)
        assert alpha == pytest.approx(j0(scn.f_sr) * j0(scn.f_rd), rel=1e-15)

    def test_doppler_domain(self):
        with pytest.raises(ValueError):
            FadingSpec(0.5)
        with pytest.raises(ValueError):
            FadingSpec(-0.001)
        with pytest.raises(ValueError):
            FadingSpec(0.01, lag_n=3)

    def test_builtin_scenarios(self):
        assert SCENARIOS["I"] == Scenario("I", 0.001, 0.001, 0.001)
        assert SCENARIOS["II"] == Scenario("II", 0.01, 0.01, 0.001)
        assert SCENARIOS["III"] == Scenario("III", 0.05, 0.05, 0.01)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario("bad", 0.6, 0.001, 0.001)


class TestSingleLinkGenerators:
    def test_zero_doppler_is_constant(self):
        h = gen_fading(FadingSpec(0.0), 1000, rng_for(1))
        assert np.all(h == h[0])

    def test_shapes(self):
        spec = FadingSpec(0.01)
        assert gen_fading(spec, 50, rng_for(2)).shape == (50,)
        assert gen_fading(spec, 50, rng_for(2), realizations=7).shape == (7, 50)
        with pytest.raises(ValueError):
            gen_fading(spec, 0, rng_for(2))

    def test_determinism(self):
        for gen in FadingGenerator:
            spec = FadingSpec(0.01, generator=gen)
            a = gen_fading(spec, 200, rng_for(3), realizations=4)
            b = gen_fading(spec, 200, rng_for(3), realizations=4)
            assert np.array_equal(a, b)

    def test_ar1_moments_and_lag1(self):
        # f = 0.01, 10^6 samples: variance 1 +/- 0.01, lag-1 within 0.01 of J0
        spec = FadingSpec(0.01, generator=FadingGenerator.AR1)
        h = gen_fading(spec, 25, rng_for(4), realizations=40_000)
        st = validate_stats(h)
        assert abs(st.mean) < 0.01
        assert st.variance == pytest.approx(1.0, abs=0.01)
        assert st.lag1_autocorr == pytest.approx(autocorr(spec), abs=0.01)

    @pytest.mark.parametrize(
        "length, realizations, f", [(10001, 8, 0.05), (1001, 64, 0.3), (1, 3, 0.05), (7, None, 0.05)]
    )
    def test_sos_matches_cosine_sum(self, length, realizations, f):
        # oracle: the classical improved-Jakes form, one cos per sinusoid and sample,
        # on the same draws (theta, then phi, then psi)
        spec = FadingSpec(f, generator=FadingGenerator.SUM_OF_SINUSOIDS)
        rng = rng_for(17)
        h = gen_fading(spec, length, rng, realizations)
        ref_rng = rng_for(17)
        n_real = 1 if realizations is None else realizations
        theta = ref_rng.uniform(-np.pi, np.pi, (n_real, 1))
        phi = ref_rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS, 1))
        psi = ref_rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS, 1))
        alpha_n = (2 * np.pi * np.arange(1, _N_SINUSOIDS + 1) - np.pi + theta) / (4 * _N_SINUSOIDS)
        wk = 2 * np.pi * f * np.arange(length)
        hc = np.cos(np.cos(alpha_n)[:, :, None] * wk + phi).sum(axis=1)
        hs = np.cos(np.sin(alpha_n)[:, :, None] * wk + psi).sum(axis=1)
        ref = (hc + 1j * hs) / np.sqrt(_N_SINUSOIDS)
        if realizations is None:
            ref = ref[0]
        assert h.shape == ref.shape
        np.testing.assert_allclose(h, ref, rtol=0, atol=1e-10)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_sos_lag_profile_tracks_j0(self):
        # lag-k autocorrelation follows J0(2 pi f k) for k <= 20 within 0.02
        f = 0.01
        spec = FadingSpec(f, generator=FadingGenerator.SUM_OF_SINUSOIDS)
        h = gen_fading(spec, 21, rng_for(5), realizations=50_000)
        var = np.mean(np.abs(h) ** 2)
        for k in range(21):
            emp = np.real(np.mean(h[:, k:] * np.conj(h[:, : h.shape[1] - k]))) / var
            assert emp == pytest.approx(bessel_j0(2 * np.pi * f * k), abs=0.02)

    def test_sos_unit_variance(self):
        spec = FadingSpec(0.05, generator=FadingGenerator.SUM_OF_SINUSOIDS)
        h = gen_fading(spec, 10, rng_for(6), realizations=20_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
        assert abs(np.mean(h)) < 0.01


class TestCascadedChannel:
    @pytest.mark.parametrize("kind", list(CascadedModelKind))
    def test_moments_and_lag1(self, kind):
        scn = SCENARIOS["II"]
        spec_sr = FadingSpec(scn.f_sr, generator=FadingGenerator.AR1)
        spec_rd = FadingSpec(scn.f_rd, generator=FadingGenerator.AR1)
        alpha = autocorr(spec_sr) * autocorr(spec_rd)
        stream = 1 if kind is CascadedModelKind.EXACT_PRODUCT else 2
        h, h_rd = gen_cascaded(spec_sr, spec_rd, kind, 10, rng_for(7, stream), realizations=100_000)
        st = validate_stats(h)
        assert abs(st.mean) < 0.01
        assert st.variance == pytest.approx(1.0, abs=0.02)
        assert st.lag1_autocorr == pytest.approx(alpha, abs=0.01)
        assert h_rd.shape == h.shape

    def test_innovation_whiteness_approximate(self):
        # residual of the one-term recursion is uncorrelated with h[k-1]
        scn = SCENARIOS["III"]
        spec_sr = FadingSpec(scn.f_sr)
        spec_rd = FadingSpec(scn.f_rd)
        alpha = autocorr(spec_sr) * autocorr(spec_rd)
        h, _ = gen_cascaded(
            spec_sr, spec_rd, CascadedModelKind.APPROXIMATE, 11, rng_for(8), realizations=100_000
        )
        delta = h[:, 1:] - alpha * h[:, :-1]
        prev = h[:, :-1]
        corr = np.abs(np.mean(delta * np.conj(prev))) / np.sqrt(
            np.mean(np.abs(delta) ** 2) * np.mean(np.abs(prev) ** 2)
        )
        assert corr < 0.01

    def test_innovation_power_exact_product(self):
        # E|h[k] - alpha h[k-1]|^2 = 1 - alpha^2 for the exact product process
        scn = SCENARIOS["III"]
        spec_sr = FadingSpec(scn.f_sr)
        spec_rd = FadingSpec(scn.f_rd)
        alpha = autocorr(spec_sr) * autocorr(spec_rd)
        h, _ = gen_cascaded(
            spec_sr, spec_rd, CascadedModelKind.EXACT_PRODUCT, 11, rng_for(9), realizations=100_000
        )
        delta = h[:, 1:] - alpha * h[:, :-1]
        assert np.mean(np.abs(delta) ** 2) == pytest.approx(1.0 - alpha**2, abs=0.01)

    def test_lag_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_cascaded(
                FadingSpec(0.01, lag_n=1),
                FadingSpec(0.01, lag_n=2),
                CascadedModelKind.EXACT_PRODUCT,
                10,
                rng_for(10),
            )

    def test_1d_output_without_realizations(self):
        h, h_rd = gen_cascaded(
            FadingSpec(0.01), FadingSpec(0.001), CascadedModelKind.APPROXIMATE, 30, rng_for(11)
        )
        assert h.shape == (30,)
        assert h_rd.shape == (30,)

    @pytest.mark.parametrize("length, realizations", [(1001, 64), (10, 1000), (30, None)])
    def test_approximate_matches_symbol_loop(self, length, realizations):
        # oracle: the one-term recursion as a plain loop over the same draws
        # (h_rd, then the initial CN(0,1) factor, then the innovations e_sr)
        spec_sr = FadingSpec(0.05)
        spec_rd = FadingSpec(0.01)
        h, h_rd = gen_cascaded(
            spec_sr, spec_rd, CascadedModelKind.APPROXIMATE, length, rng_for(16), realizations
        )
        rng = rng_for(16)

        def crandn(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        n = 1 if realizations is None else realizations
        ref_rd = gen_fading(spec_rd, length, rng, n)
        a = autocorr(spec_sr) * autocorr(spec_rd)
        ref = np.empty((n, length), dtype=complex)
        ref[:, 0] = crandn(n) * ref_rd[:, 0]
        e_sr = crandn((n, length - 1))
        for k in range(1, length):
            ref[:, k] = a * ref[:, k - 1] + np.sqrt(1.0 - a * a) * ref_rd[:, k - 1] * e_sr[:, k - 1]
        if realizations is None:
            ref, ref_rd = ref[0], ref_rd[0]
        assert np.array_equal(h_rd, ref_rd)
        assert np.array_equal(h, ref)


class TestEnvelopeDistribution:
    def test_pdf_zero_at_origin(self):
        assert envelope_pdf_theoretical(0.0) == 0.0

    def test_pdf_normalization(self):
        total, err = integrate.quad(envelope_pdf_theoretical, 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_mean_matches_product_of_rayleigh_means(self):
        # E|h_sr| E|h_rd| = (sqrt(pi)/2)^2 = pi/4
        mean, _ = integrate.quad(lambda x: x * envelope_pdf_theoretical(x), 0, np.inf)
        assert mean == pytest.approx(np.pi / 4.0, abs=1e-8)

    def test_rayleigh_pdf_normalization(self):
        total, _ = integrate.quad(rayleigh_pdf, 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            envelope_pdf_theoretical(-0.5)

    def test_chi_square_bin_masses_match_pdf_quadrature(self):
        # oracle: the density integrated over each bin, plus the tail mass
        # int_5^inf 4x K0(2x) dx = 10 K1(10) in the last bin
        quad = np.array(
            [integrate.quad(envelope_pdf_theoretical, a, b)[0] for a, b in zip(_HIST_EDGES[:-1], _HIST_EDGES[1:])]
        )
        quad[-1] += 10.0 * special.k1(10.0)
        np.testing.assert_allclose(_HIST_MASSES, quad, rtol=1e-8)

    def test_chi_square_counts_top_edge_once(self):
        # a sample exactly on the top edge and one just above it both belong in the tail bin
        rng = rng_for(18)
        n = 20_000
        lam = np.abs(
            (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ) / 2.0
        on_edge, above = lam.copy(), lam.copy()
        on_edge[:3] = _HIST_EDGES[-1]
        above[:3] = _HIST_EDGES[-1] + 1e-9
        assert envelope_chi_square(on_edge) == envelope_chi_square(above)

    def test_chi_square_accepts_true_distribution(self):
        rng = rng_for(12)
        # i.i.d. cascade draws: product of two independent Rayleigh envelopes
        n = 200_000
        lam = np.abs(
            (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ) / 2.0
        stat, p = envelope_chi_square(lam)
        assert p > 0.01

    def test_chi_square_rejects_rayleigh(self):
        rng = rng_for(13)
        n = 200_000
        lam = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        stat, p = envelope_chi_square(lam)
        assert p < 1e-6


class TestValidateStats:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            validate_stats(np.ones(100, dtype=complex))

    def test_iid_samples(self):
        rng = rng_for(14)
        h = (rng.standard_normal((1000, 100)) + 1j * rng.standard_normal((1000, 100))) / np.sqrt(2)
        st = validate_stats(h)
        assert abs(st.mean) < 0.01
        assert st.variance == pytest.approx(1.0, abs=0.02)
        assert st.lag1_autocorr == pytest.approx(0.0, abs=0.01)

    def test_histogram_is_a_density(self):
        rng = rng_for(15)
        h = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / np.sqrt(2)
        st = validate_stats(h)
        widths = np.diff(st.bin_edges)
        assert np.sum(st.densities * widths) == pytest.approx(1.0, abs=0.01)
