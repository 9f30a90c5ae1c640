"""Fading generators, cascaded channel models and their statistical validation."""

import numpy as np
import pytest
from scipy import integrate, special

from dafrelay import channel
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
from dafrelay.channel import (
    _AR1_BLOCK,
    _HIST_EDGES,
    _HIST_MASSES,
    _N_SINUSOIDS,
    _ar1_scan,
    _cascade,
    _crandn,
    _gen_ar1,
    _phasors,
)
from dafrelay.specials import bessel_j0


def rng_for(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


# The AR(1) scan sums each block in another order than the plain loop h[k] = a*h[k-1] + x[k-1].  With |a| <= 1,
# either one's rounding errors add up over at most the 4500 steps of a row here, like a random walk of
# sqrt(4500) * eps ~ 1.5e-14 of max|h|; observed differences stay below 1.5e-14 of max|h| up to 10^5 + 1 steps.
# So the scan must agree with an oracle to SCAN_RTOL * max|oracle| (about 70 times that walk).
SCAN_RTOL = 1e-12


def assert_scan_matches(h, ref):
    assert h.shape == ref.shape
    np.testing.assert_allclose(h, ref, rtol=0, atol=SCAN_RTOL * np.abs(ref).max())


def scanned(a, h0, x):
    """h[:, 0] = h0, then `_ar1_scan` of x over every row in one call, in a new array."""
    h = np.empty((len(h0), x.shape[1] + 1), dtype=complex)
    h[:, 0] = h0
    _ar1_scan(a, h, x)
    return h


def ar1_loop(a, h0, x):
    """Oracle: h[:, 0] = h0, h[:, k] = a*h[:, k-1] + x[:, k-1], one column at a time."""
    h = np.empty((len(h0), x.shape[1] + 1), dtype=complex)
    h[:, 0] = h0
    for k in range(1, h.shape[1]):
        h[:, k] = a * h[:, k - 1] + x[:, k - 1]
    return h


def ar1_lfilter(a, h0, x):
    """Oracle: one complex lfilter over every row at once."""
    from scipy.signal import lfilter

    h = np.empty((len(h0), x.shape[1] + 1), dtype=complex)
    h[:, 0] = h0
    h[:, 1:], _ = lfilter([1.0], [1.0, -a], x, axis=1, zi=a * h[:, :1])
    return h


class TestSpecsAndScenarios:
    def test_autocorr_is_j0(self):
        assert autocorr(FadingSpec(0.01)) == pytest.approx(bessel_j0(2 * np.pi * 0.01), abs=0)
        # a link used every second symbol is the link at twice the Doppler
        assert autocorr(FadingSpec(0.02)) == bessel_j0(4 * np.pi * 0.01)
        assert autocorr(FadingSpec(0.0)) == 1.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["I", "II", "III"])
    def test_scenario_autocorrs_are_j0_products(self, name, n):
        # the links used every n-th symbol are the links at n times the Doppler
        scn = SCENARIOS[name]

        def j0(f):
            return special.j0(2 * np.pi * f * n)

        alpha_sd, alpha = Scenario(name, n * scn.f_sd, n * scn.f_sr, n * scn.f_rd).autocorrs()
        assert alpha_sd == pytest.approx(j0(scn.f_sd), rel=1e-15)
        assert alpha == pytest.approx(j0(scn.f_sr) * j0(scn.f_rd), rel=1e-15)

    def test_doppler_domain(self):
        with pytest.raises(ValueError):
            FadingSpec(0.5)
        with pytest.raises(ValueError):
            FadingSpec(-0.001)

    def test_builtin_scenarios(self):
        assert SCENARIOS["I"] == Scenario("I", 0.001, 0.001, 0.001)
        assert SCENARIOS["II"] == Scenario("II", 0.01, 0.01, 0.001)
        assert SCENARIOS["III"] == Scenario("III", 0.05, 0.05, 0.01)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario("bad", 0.6, 0.001, 0.001)


class TestSingleLinkGenerators:
    @pytest.mark.parametrize("shape", [(32, 1001), (8, 10001), 7, (200_000, 9)])
    def test_crandn_matches_component_sum(self, shape):
        # oracle: interleaved (re, im) pairs, summed as re + 1j*im and multiplied by scale/sqrt(2)
        for scale in (1.0, 0.3, rng_for(22).uniform(1.0, 3.0, shape)):
            rng, ref_rng = rng_for(23), rng_for(23)
            z = _crandn(rng, shape, scale)
            pairs = ref_rng.standard_normal((*np.atleast_1d(shape), 2))
            ref = (pairs[..., 0] + 1j * pairs[..., 1]) * (scale / np.sqrt(2.0))
            assert z.shape == ref.shape and z.dtype == ref.dtype
            assert np.array_equal(z.view(np.uint64), ref.view(np.uint64))  # signed zeros included
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_zero_doppler_is_constant(self):
        h = gen_fading(FadingSpec(0.0), 1000, rng_for(1), 1)[0]
        assert np.all(h == h[0])

    def test_shapes(self):
        spec = FadingSpec(0.01)
        assert gen_fading(spec, 50, rng_for(2), realizations=7).shape == (7, 50)
        with pytest.raises(ValueError):
            gen_fading(spec, 0, rng_for(2), 7)

    def test_determinism(self):
        for gen in FadingGenerator:
            spec = FadingSpec(0.01, generator=gen)
            a = gen_fading(spec, 200, rng_for(3), realizations=4)
            b = gen_fading(spec, 200, rng_for(3), realizations=4)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "f, length, realizations",
        # f = 0 gives a = 1 with zero innovations; length 1 draws no innovations at all
        [(0.05, 1001, 64), (0.05, 1, 3), (0.0, 50, 4), (0.01, 30, 1)],
    )
    def test_ar1_matches_symbol_loop(self, f, length, realizations):
        # oracle: h[k] = a*h[k-1] + x[k-1] as a plain loop over the same draws: h[0], then the innovations
        # x = sqrt(1-a^2)*e, drawn at that scale
        spec = FadingSpec(f, generator=FadingGenerator.AR1)
        rng, ref_rng = rng_for(24), rng_for(24)
        h = gen_fading(spec, length, rng, realizations)
        a = autocorr(spec)
        h0 = _crandn(ref_rng, realizations)
        ref = ar1_loop(a, h0, _crandn(ref_rng, (realizations, length - 1), np.sqrt(1.0 - a * a)))
        assert_scan_matches(h, ref)
        if length == 1 or a == 1.0:  # no input to sum, or a scan that adds zeros to h0
            assert np.array_equal(h, ref)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("length", [10, 1001])  # one block of samples per row, and several
    def test_ar1_blocks_match_one_lfilter(self, length):
        # oracle: one complex lfilter over every row at once, on the generator's draws; the row count is not a
        # multiple of the row block
        rows = 3 * (_AR1_BLOCK // length) + 7
        rng, ref_rng = rng_for(25), rng_for(25)
        h = _gen_ar1(0.97, length, rng, rows)
        h0, x = _crandn(ref_rng, rows), _crandn(ref_rng, (rows, length - 1), np.sqrt(1.0 - 0.97**2))
        assert_scan_matches(h, ar1_lfilter(0.97, h0, x))
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("length", [10, 256])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_ar1_matches_loop_and_lfilter_at_the_square(self, length, extra_rows):
        # small squares
        rows = length + extra_rows
        rng = rng_for(26, length, extra_rows + 1)
        h0, x = _crandn(rng, rows), _crandn(rng, (rows, length - 1))
        h = scanned(0.97, h0, x)
        assert_scan_matches(h, ar1_loop(0.97, h0, x))
        assert_scan_matches(h, ar1_lfilter(0.97, h0, x))

    @pytest.mark.parametrize("a", [0.9998, 1.0, 0.0, -0.4, -0.9])  # a < 0 is J0(2 pi f) for f > 0.383
    @pytest.mark.parametrize(
        "rows, length",
        # one sample per row; rows shorter than _SCAN_B = 16 samples, one block each (validate-channel's blocks
        # of 6553 rows of 10); blocks of 16 samples, a partial one, and three levels of carries past
        # B^2 + 1 samples (4500 = 16 * 281 + 4); a single row
        [(3, 2), (6553, 10), (1000, 10), (1, 16), (3, 16), (3, 17), (2, 18), (3, 50), (2, 4500), (1, 4500),
         (1, 2)],
    )
    def test_ar1_scan_matches_loop(self, a, rows, length):
        rng = rng_for(30, rows, length)
        h0, x = _crandn(rng, rows), _crandn(rng, (rows, length - 1))
        h = scanned(a, h0, x)
        assert_scan_matches(h, ar1_loop(a, h0, x))
        if a == 0.0:  # one term per output: h[k] = x[k-1]
            assert np.array_equal(h[:, 1:], x)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_ar1_of_length_one_is_h0(self, rows):
        h0 = _crandn(rng_for(27), rows)
        h = scanned(0.97, h0, np.empty((rows, 0), dtype=complex))
        assert h.shape == (rows, 1) and np.array_equal(h[:, 0], h0)

    @pytest.mark.parametrize("rows, length", [(30, 10), (3, 10), (320, 10), (2, 4500)])
    def test_ar1_holds_h0_at_unit_a_without_input(self, rows, length):
        h0 = _crandn(rng_for(28), rows)
        h = scanned(1.0, h0, np.zeros((rows, length - 1), dtype=complex))
        assert np.array_equal(h, np.repeat(h0[:, None], length, axis=1))

    @pytest.mark.parametrize("gained", [False, True])
    @pytest.mark.parametrize(
        "rows, length",
        # 7 blocks of up to 3276 rows of 10; 3 blocks of one row of 70001
        [(20_000, 10), (3, 70_001)],
    )
    def test_gen_ar1_draws_each_block_as_one_draw_would(self, gained, rows, length):
        # oracle: h0, then every innovation in one draw at its scale, each times the gain, through the plain
        # loop; the generator draws each block's innovations as the block runs
        alpha = 0.97
        gain = gen_fading(FadingSpec(0.01), length, rng_for(31), rows) if gained else None
        rng, ref_rng = rng_for(32), rng_for(32)
        h = _gen_ar1(alpha, length, rng, rows, gain)
        h0 = _crandn(ref_rng, rows)
        x = _crandn(ref_rng, (rows, length - 1), np.sqrt(1.0 - alpha * alpha))
        if gained:
            h0 *= gain[:, 0]
            x *= gain[:, :-1]
        assert rows > _AR1_BLOCK // length  # several blocks
        ref = ar1_loop(alpha, h0, x)
        assert_scan_matches(h, ref)
        assert np.array_equal(h.view(np.uint64), scanned(alpha, h0, x).view(np.uint64))
        assert rng.standard_normal() == ref_rng.standard_normal()
        if gained:  # in the gain's own buffer: each block's input is formed before its rows are written
            assert np.array_equal(_gen_ar1(alpha, length, rng_for(32), rows, gain, out=gain), h)

    @pytest.mark.parametrize("gained", [False, True])
    @pytest.mark.parametrize("rows, length", [(2000, 10), (300, 1001)])
    def test_gen_ar1_bits_do_not_depend_on_the_row_block(self, monkeypatch, gained, rows, length):
        # the default row block (one block of 2000 rows of 10; 10 blocks of 32 rows of 1001, the last of 12),
        # one row per block, and blocks of 7 rows, the last one partial: the same bits
        gain = gen_fading(FadingSpec(0.01), length, rng_for(33), rows) if gained else None
        outs = []
        for block in (_AR1_BLOCK, 1, 7 * length):
            monkeypatch.setattr(channel, "_AR1_BLOCK", block)
            outs.append(_gen_ar1(0.97, length, rng_for(34), rows, gain).view(np.uint64))
        assert rows % 7 and all(np.array_equal(out, outs[0]) for out in outs[1:])

    @pytest.mark.parametrize(
        "rows, length, step",
        # the blocks of 20000 rows of 10 under the default _AR1_BLOCK, and shapes with partial last blocks
        [(20_000, 10, 3276), (20_000, 10, 1), (300, 1000, 7), (64, 1001, 1), (1000, 35, 3), (33, 1001, 32),
         (5, 100_001, 2)],
    )
    def test_ar1_scan_bits_do_not_depend_on_the_rows_scanned_together(self, rows, length, step):
        # every gemm has _SCAN_GEMM_ROWS rows, so a row's bits are those of a scan of all rows in one call
        rng = rng_for(35, rows, length)
        h0, x = _crandn(rng, rows), _crandn(rng, (rows, length - 1), 0.25)
        h = np.empty((rows, length), dtype=complex)
        h[:, 0] = h0
        for i in range(0, rows, step):
            _ar1_scan(0.97, h[i:i + step], x[i:i + step])
        assert np.array_equal(h.view(np.uint64), scanned(0.97, h0, x).view(np.uint64))

    def test_ar1_moments_and_lag1(self):
        # f = 0.01, 10^6 samples: variance 1 +/- 0.01, lag-1 within 0.01 of J0
        spec = FadingSpec(0.01, generator=FadingGenerator.AR1)
        h = gen_fading(spec, 25, rng_for(4), realizations=40_000)
        st = validate_stats(h)
        assert abs(st.mean) < 0.01
        assert st.variance == pytest.approx(1.0, abs=0.01)
        assert st.lag1_autocorr == pytest.approx(autocorr(spec), abs=0.01)

    @pytest.mark.parametrize(
        "length, realizations, f",
        # (100001, 2): its 316 block rows are split into several gemm groups.  Phasor tables of B columns and
        # nb rows, every one a coarse x fine product: 2 (B = 2, nb = 1) and 37 (7, 6) of tables of a few angles;
        # 130 (B = 12, nb = 11) splits both into 4 x 3; 300 (18, 17) and 5003 (71, 71) split both tables into a
        # product longer than the table (5 x 4 = 20, 9 x 8 = 72)
        [(10001, 8, 0.05), (1001, 64, 0.3), (1, 3, 0.05), (7, 1, 0.05), (100001, 2, 0.05), (2, 5, 0.05),
         (37, 4, 0.05), (130, 4, 0.3), (300, 4, 0.05), (5003, 3, 0.05)],
    )
    def test_sos_matches_cosine_sum(self, length, realizations, f):
        # oracle: the classical improved-Jakes form, one cos per sinusoid and sample,
        # on the same draws (theta, then phi, then psi)
        spec = FadingSpec(f, generator=FadingGenerator.SUM_OF_SINUSOIDS)
        rng = rng_for(17)
        h = gen_fading(spec, length, rng, realizations)
        ref_rng = rng_for(17)
        theta = ref_rng.uniform(-np.pi, np.pi, (realizations, 1))
        phi = ref_rng.uniform(-np.pi, np.pi, (realizations, _N_SINUSOIDS, 1))
        psi = ref_rng.uniform(-np.pi, np.pi, (realizations, _N_SINUSOIDS, 1))
        alpha_n = (2 * np.pi * np.arange(1, _N_SINUSOIDS + 1) - np.pi + theta) / (4 * _N_SINUSOIDS)
        wk = 2 * np.pi * f * np.arange(length)
        hc = np.cos(np.cos(alpha_n)[:, :, None] * wk + phi).sum(axis=1)
        hs = np.cos(np.sin(alpha_n)[:, :, None] * wk + psi).sum(axis=1)
        ref = (hc + 1j * hs) / np.sqrt(_N_SINUSOIDS)
        assert h.shape == ref.shape
        np.testing.assert_allclose(h, ref, rtol=0, atol=1e-10)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("step, count", [(317, 319), (1, 317), (317, 1), (317, 2), (317, 11)])
    def test_phasors_match_exp(self, step, count):
        # a 100001-sample frame has B = 317 and 11 gemm groups of 29 block rows: its row table (317, 319) reaches
        # pi * 317 * 318 + pi ~ 3.2e5 rad as f -> 0.5, and its column table is (1, 317); counts 1, 2 and 11 are
        # short products (1 x 1, 1 x 2, 3 x 4).  np.exp rounds its angle once (eps/2 of it), _phasors a coarse angle
        # twice, and cos, sin and the product add a few eps: the bound is 4 eps (|angle| + 1) per element (at most
        # 1.6 eps (|angle| + 1) seen, at (1, 317))
        rng = rng_for(31)
        w = 2 * np.pi * 0.4999 * np.cos(rng.uniform(-np.pi, np.pi, (3, _N_SINUSOIDS)))
        w[0, 0] = 2 * np.pi * 0.4999
        phase = rng.uniform(-np.pi, np.pi, w.shape)
        angle = w[..., None] * (step * np.arange(count)) + phase[..., None]
        t = _phasors(w, step, count, phase)
        assert t.shape == (3, 2 * _N_SINUSOIDS, count)
        err = np.abs(t[:, :_N_SINUSOIDS] + 1j * t[:, _N_SINUSOIDS:] - np.exp(1j * angle))
        assert np.all(err <= 4 * np.finfo(float).eps * (np.abs(angle) + 1))

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

    @pytest.mark.parametrize("kind", list(CascadedModelKind))
    @pytest.mark.parametrize("generator", list(FadingGenerator))
    @pytest.mark.parametrize("length, realizations", [(10, 20_000), (1001, 200), (70_001, 2)])
    def test_cascade_in_h_rd_buffer_matches_gen_cascaded(self, kind, generator, length, realizations):
        # built row block by row block into h_rd's own buffer, the cascade has gen_cascaded's bits, and leaves
        # the stream where gen_cascaded leaves it
        spec_sr, spec_rd = FadingSpec(0.05, generator), FadingSpec(0.01, generator)
        rng, ref_rng = rng_for(33), rng_for(33)
        ref, ref_rd = gen_cascaded(spec_sr, spec_rd, kind, length, ref_rng, realizations)
        h_rd = gen_fading(spec_rd, length, rng, realizations)
        assert np.array_equal(h_rd, ref_rd)
        h = _cascade(spec_sr, spec_rd, kind, h_rd, rng, out=h_rd)
        assert h is h_rd
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("generator", list(FadingGenerator))
    def test_exact_product_is_h_sr_times_h_rd(self, generator):
        # oracle: the two links drawn one after the other, multiplied in h_sr's order
        spec_sr, spec_rd = FadingSpec(0.05, generator), FadingSpec(0.01, generator)
        h, h_rd = gen_cascaded(spec_sr, spec_rd, CascadedModelKind.EXACT_PRODUCT, 10, rng_for(34), 20_000)
        rng = rng_for(34)
        ref_rd = gen_fading(spec_rd, 10, rng, 20_000)
        ref = gen_fading(spec_sr, 10, rng, 20_000) * ref_rd
        assert np.array_equal(h_rd, ref_rd)
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("length, realizations", [(1001, 64), (10, 1000), (30, 1)])
    def test_approximate_matches_symbol_loop(self, length, realizations):
        # oracle: the one-term recursion as a plain loop over the same draws
        # (h_rd, then the initial CN(0,1) factor, then the innovations sqrt(1-a^2)*e_sr, drawn at that scale)
        spec_sr = FadingSpec(0.05)
        spec_rd = FadingSpec(0.01)
        h, h_rd = gen_cascaded(
            spec_sr, spec_rd, CascadedModelKind.APPROXIMATE, length, rng_for(16), realizations
        )
        rng = rng_for(16)
        ref_rd = gen_fading(spec_rd, length, rng, realizations)
        a = autocorr(spec_sr) * autocorr(spec_rd)
        ref = np.empty((realizations, length), dtype=complex)
        ref[:, 0] = _crandn(rng, realizations) * ref_rd[:, 0]
        e_sr = _crandn(rng, (realizations, length - 1), np.sqrt(1.0 - a * a))
        for k in range(1, length):
            ref[:, k] = a * ref[:, k - 1] + e_sr[:, k - 1] * ref_rd[:, k - 1]
        assert np.array_equal(h_rd, ref_rd)
        assert_scan_matches(h, ref)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_chi_square_rejects_non_finite_samples(self, bad):
        lam = np.abs(rng_for(19).standard_normal(20_000))
        lam[:50] = bad
        with pytest.raises(ValueError, match="envelope_chi_square"):
            envelope_chi_square(lam)

    def test_pearson_chi_square_matches_scipy_chisquare(self):
        # oracle: scipy.stats.chisquare, bit for bit, on random tables whose totals agree
        from scipy import stats

        rng = rng_for(29)
        for _ in range(200):
            k = rng.integers(2, 100)
            n = rng.integers(10, 10**6)
            expected = rng.uniform(0.5, 50.0, k)
            expected *= n / expected.sum()
            observed = rng.multinomial(n, expected / expected.sum()).astype(float)
            ref = stats.chisquare(observed, expected)
            assert channel._pearson_chi_square(observed, expected) == (ref.statistic, ref.pvalue)

    def test_chi_square_with_merged_bins_matches_scipy_chisquare(self, monkeypatch):
        # 2000 samples expect fewer than 5 in the outer bins, which are merged; oracle: scipy.stats.chisquare
        # on the merged table that envelope_chi_square passes on
        from scipy import stats

        rng = rng_for(30)
        n = 2000
        lam = np.abs(
            (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ) / 2.0
        tables = []
        pearson = channel._pearson_chi_square
        monkeypatch.setattr(channel, "_pearson_chi_square", lambda o, e: tables.append((o, e)) or pearson(o, e))
        stat, p = envelope_chi_square(lam)
        (observed, expected), = tables
        assert len(observed) < len(_HIST_MASSES) and observed.sum() == n
        ref = stats.chisquare(observed, expected)
        assert (stat, p) == (ref.statistic, ref.pvalue)

    def test_chi_square_rejects_mismatched_totals(self):
        # scipy.stats.chisquare's tolerance, sqrt(eps) of the smaller total: 1e-9 apart passes, 1e-7 does not
        from scipy import stats

        observed = np.array([400.0, 350.0, 250.0])
        close, far = (np.array([390.0, 360.0, 250.0 + d]) for d in (1e-6, 1e-4))
        assert channel._pearson_chi_square(observed, close) == tuple(stats.chisquare(observed, close))
        with pytest.raises(ValueError, match="chi-square"):
            channel._pearson_chi_square(observed, far)
        with pytest.raises(ValueError):
            stats.chisquare(observed, far)

    @pytest.mark.parametrize("n", [0, 3, 6])  # no bin, a remainder without a bin, one merged bin
    def test_chi_square_rejects_fewer_than_two_bins(self, n):
        lam = np.abs(rng_for(35, n).standard_normal(n))
        with pytest.raises(ValueError, match="envelope_chi_square"):
            envelope_chi_square(lam)

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

    @pytest.mark.parametrize("shape, shift", [((200_000,), 0.0), ((20_000, 10), 10.0)])
    def test_matches_two_pass_definitions(self, shape, shift):
        # oracle: the mean, then E|h - mean|^2 and Re E[h[k] conj(h[k-1])] within rows over it, and the
        # envelope density, from full-size arrays; the shifted input has a mean about 10 sd from zero
        # a 1-D input is the one row of a one-realization draw
        h = gen_fading(FadingSpec(0.02), shape[-1], rng_for(17), 1 if len(shape) == 1 else shape[0]).reshape(shape)
        if shift:
            h = 0.1 * h + shift * 0.1 * (0.6 + 0.8j)
        st = validate_stats(h)
        h2 = np.atleast_2d(h)
        mean = h2.mean()
        variance = np.mean(np.abs(h2 - mean) ** 2)
        lag1 = np.real(np.mean(h2[:, 1:] * np.conj(h2[:, :-1]))) / variance
        dens, edges = np.histogram(np.abs(h2).ravel(), bins=100, range=(0.0, 5.0), density=True)
        assert st.mean == mean
        assert st.variance == pytest.approx(variance, rel=1e-12)
        assert st.lag1_autocorr == pytest.approx(lag1, rel=1e-12)
        assert np.array_equal(st.bin_edges, edges) and np.array_equal(st.densities, dens)

    def test_histogram_is_a_density(self):
        rng = rng_for(15)
        h = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / np.sqrt(2)
        st = validate_stats(h)
        widths = np.diff(st.bin_edges)
        assert np.sum(st.densities * widths) == pytest.approx(1.0, abs=0.01)
