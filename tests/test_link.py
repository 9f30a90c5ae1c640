"""Differential modulation, power allocation and the two-phase transmit chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import ZeroRng
from dafrelay.link import Constellation, PowerAllocation, diff_encode, psk_d_min_sq, transmit


class TestConstellation:
    def test_bpsk_points(self):
        # the bits, signed zeros included, not only the values
        c = Constellation.of(2)
        assert c.symbols.tobytes() == np.array([1.0 + 0.0j, complex(-1.0, 0.0)]).tobytes()
        assert psk_d_min_sq(2) == pytest.approx(4.0, abs=1e-15)
        assert c.bits_per_symbol == 1

    def test_qpsk_points(self):
        # the bits: -j has real part -0.0
        c = Constellation.of(4)
        expected = np.array([complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(-0.0, -1.0)])
        assert c.symbols.tobytes() == expected.tobytes()
        assert psk_d_min_sq(4) == pytest.approx(2.0, abs=1e-15)
        assert c.bits_per_symbol == 2

    def test_gray_mapping_adjacent_symbols_differ_in_one_bit(self):
        for M in (2, 4):
            c = Constellation.of(M)
            pattern = np.empty(M, dtype=int)
            pattern[c.index_of_gray] = np.arange(M)  # the pattern that each symbol index carries
            for m in range(M):
                assert bin(pattern[m] ^ pattern[(m + 1) % M]).count("1") == 1

    def test_gray_inverse(self):
        # the pattern of index m is m ^ (m >> 1), and index_of_gray inverts it
        for M in (2, 4):
            c = Constellation.of(M)
            m = np.arange(M)
            assert np.array_equal(c.index_of_gray[m ^ (m >> 1)], m)
            assert np.array_equal(c.index_of_gray, m ^ (m >> 1))
            assert c.index_of_gray.dtype == np.uint8

    def test_invalid_orders(self):
        for M in (0, 1, 3, 6, 8):
            with pytest.raises(ValueError):
                Constellation.of(M)

    def test_unit_modulus(self):
        for M in (2, 4):
            c = Constellation.of(M)
            assert np.max(np.abs(np.abs(c.symbols) - 1.0)) < 1e-15


class TestPowerAllocation:
    def test_equal_split(self):
        pa = PowerAllocation.equal_from_total_db(10.0)
        assert pa.P0 == pytest.approx(10.0 / 2)
        assert pa.A == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-15)

    def test_zero_db(self):
        pa = PowerAllocation.equal_from_total_db(0.0)
        assert pa.P0 == pytest.approx(0.5)
        assert pa.A == pytest.approx(np.sqrt(0.5 / 1.5), abs=1e-15)

    def test_amplifier_gain_normalizes_relay_power(self):
        # A^2 (P0 + 1) = P1 = P/2: the relay retransmits at exactly its half of the total power
        for p_db in (-5.0, 0.0, 13.0, 30.0):
            pa = PowerAllocation.equal_from_total_db(p_db)
            assert pa.A**2 * (pa.P0 + 1.0) == pytest.approx(10.0 ** (p_db / 10.0) / 2, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PowerAllocation(-1.0, 1.0)


class TestDiffEncode:
    def test_bpsk_example(self):
        c = Constellation.of(2)
        s = diff_encode(np.array([0, 1, 1, 0]), c)
        assert np.array_equal(s, np.array([1.0, 1.0, -1.0, 1.0, 1.0]))

    def test_qpsk_example(self):
        c = Constellation.of(4)
        # indices 1,3,1 -> phases accumulate 90, 360+? : 1, j, j*(-j)= ... check directly
        s = diff_encode(np.array([1, 3, 1]), c)
        expected = np.array([1.0, 1j, 1j * (-1j), (1j * (-1j)) * 1j])
        assert np.allclose(s, expected, atol=0)
        assert np.array_equal(s, np.array([1.0 + 0j, 1j, 1.0 + 0j, 1j]))

    def test_reference_prefix_and_length(self):
        c = Constellation.of(4)
        s = diff_encode(np.zeros(10, dtype=int), c)
        assert s.shape == (11,)
        assert s[0] == 1.0

    def test_exact_unit_modulus_long_frame(self):
        c = Constellation.of(4)
        rng = np.random.default_rng(0)
        s = diff_encode(rng.integers(0, 4, 10_000), c)
        # accumulation is in the index domain, so there is no phase drift at all
        assert np.all(np.abs(s) == 1.0)

    @pytest.mark.parametrize("M", [2, 4])
    def test_small_index_type_wraps_to_the_same_symbols(self, M):
        # 5000 indices overflow a uint8 running sum many times; 256 is a multiple of M
        c = Constellation.of(M)
        idx = np.random.default_rng(1).integers(0, M, (3, 5000))
        assert np.array_equal(diff_encode(idx.astype(np.uint8), c), diff_encode(idx, c))
        assert np.array_equal(diff_encode(idx, c)[..., 1:], c.symbols[np.cumsum(idx, axis=-1) % M])

    def test_batched(self):
        c = Constellation.of(2)
        s = diff_encode(np.array([[0, 1], [1, 1]]), c)
        assert s.shape == (2, 3)
        assert np.array_equal(s[0], np.array([1.0, 1.0, -1.0]))
        assert np.array_equal(s[1], np.array([1.0, -1.0, 1.0]))

    def test_out_of_range_index(self):
        c = Constellation.of(2)
        with pytest.raises(ValueError):
            diff_encode(np.array([0, 2]), c)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
    def test_decodable_by_phase_ratio(self, idx):
        c = Constellation.of(4)
        s = diff_encode(np.array(idx), c)
        ratios = s[1:] / s[:-1]
        decoded = [int(np.argmin(np.abs(c.symbols - r))) for r in ratios]
        assert decoded == idx


class TestTransmit:
    def test_noiseless_observations(self):
        c = Constellation.of(2)
        pa = PowerAllocation.equal_from_total_db(10.0)
        s = diff_encode(np.array([0, 1, 0]), c)
        h_sd = np.full(4, 0.3 + 0.4j)
        h_sr = np.full(4, 1.0 + 0j)
        h_rd = np.full(4, 0.5 - 0.2j)
        y_sd, y_rd = transmit(s, h_sd, h_sr * h_rd, h_rd, pa, ZeroRng())
        assert np.allclose(y_sd, np.sqrt(pa.P0) * h_sd * s, atol=0)
        assert np.allclose(y_rd, pa.A * h_rd * np.sqrt(pa.P0) * h_sr * s, atol=0)

    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("gains", ["real", "zeros", "complex"])
    def test_matches_observation_formula_bitwise(self, gains, noise):
        # oracle: the observation formulas as plain expressions on the same noise draws, the relayed noise
        # in its equivalent form sqrt(1 + A^2 |h_rd|^2) w
        c = Constellation.of(4)
        pa = PowerAllocation.equal_from_total_db(7.0)
        draw = np.random.default_rng(9)
        s = diff_encode(draw.integers(0, 4, (3, 50)), c)
        h_sd, h, h_rd = (draw.standard_normal(s.shape) for _ in range(3))
        if gains == "zeros":
            h_sd, h, h_rd = (np.zeros(s.shape) for _ in range(3))
        elif gains == "complex":
            h_sd, h, h_rd = (g + 1j * draw.standard_normal(s.shape) for g in (h_sd, h, h_rd))
        got_sd, got_rd = transmit(s, h_sd, h, h_rd, pa, np.random.default_rng(10) if noise else ZeroRng())
        ref_rng = np.random.default_rng(10)
        sd_rd = np.sqrt(1.0 + pa.A * pa.A * (h_rd.real ** 2 + h_rd.imag ** 2))
        if noise:
            w_sd, v_rd = (
                (pairs[..., 0] + 1j * pairs[..., 1]) * (sd / np.sqrt(2.0))
                for sd in (1.0, sd_rd)
                for pairs in [ref_rng.standard_normal((*s.shape, 2))]
            )
        else:
            w_sd = v_rd = 0.0
        y_sd = np.sqrt(pa.P0) * h_sd * s + w_sd
        y_rd = pa.A * np.sqrt(pa.P0) * h * s + v_rd
        for got, ref in ((got_sd, y_sd), (got_rd, y_rd)):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_noise_statistics(self):
        c = Constellation.of(2)
        pa = PowerAllocation.equal_from_total_db(0.0)
        rng = np.random.default_rng(2)
        n = 200_000
        s = np.ones(n)
        zeros = np.zeros(n)
        y_sd, y_rd = transmit(s, zeros, zeros, zeros, pa, rng)
        # direct branch noise is CN(0,1); relayed branch noise is CN(0,1)
        # because the relay path noise is scaled by h_rd = 0 here
        assert np.mean(np.abs(y_sd) ** 2) == pytest.approx(1.0, abs=0.01)
        assert np.mean(np.abs(y_rd) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_relayed_equivalent_noise_power(self):
        # with unit gains, E|noise_rd|^2 = A^2 + 1
        pa = PowerAllocation.equal_from_total_db(10.0)
        rng = np.random.default_rng(3)
        n = 200_000
        s = np.zeros(n)  # no signal: pure noise path
        ones = np.ones(n)
        _, y_rd = transmit(s, ones, ones, ones, pa, rng)
        assert np.mean(np.abs(y_rd) ** 2) == pytest.approx(pa.A**2 + 1.0, rel=0.02)

    @pytest.mark.parametrize("h_rd", [0.0, 0.6 - 0.3j, 2.0 + 1.5j])
    def test_relayed_noise_is_circular_with_the_equivalent_variance(self, h_rd):
        # given h_rd, A h_rd w_sr + w_rd is CN(0, 1 + A^2 |h_rd|^2): zero mean and pseudo-variance, that
        # variance and an exponential |noise|^2, each within about 4 standard errors
        pa = PowerAllocation.equal_from_total_db(10.0)
        draw = np.random.default_rng(5)
        n = 100_000
        s = Constellation.of(4).symbols[draw.integers(0, 4, n)]
        h = draw.standard_normal(n) + 1j * draw.standard_normal(n)
        _, y_rd = transmit(s, np.zeros(n), h, np.full(n, h_rd), pa, np.random.default_rng(6))
        v = y_rd - pa.A * np.sqrt(pa.P0) * h * s
        var = 1.0 + pa.A**2 * abs(h_rd) ** 2
        se = var / np.sqrt(n)  # of the mean of |v|^2, and of each part of the mean of v^2
        assert abs(np.mean(v)) < 4.0 * np.sqrt(var / n)
        assert abs(np.mean(np.abs(v) ** 2) - var) < 4.0 * se
        assert abs(np.mean(v**2)) < 4.0 * np.sqrt(2.0) * se
        assert stats.kstest(np.abs(v) ** 2 / var, "expon").pvalue > 1e-4

    def test_batched_shapes(self):
        c = Constellation.of(4)
        pa = PowerAllocation.equal_from_total_db(5.0)
        rng = np.random.default_rng(4)
        s = diff_encode(np.zeros((3, 10), dtype=int), c)
        h = np.ones((3, 11), dtype=complex)
        y_sd, y_rd = transmit(s, h, h, h, pa, rng)
        assert y_sd.shape == (3, 11)
        assert y_rd.shape == (3, 11)
