"""Combining weights, the differential combiner and the bit decisions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ZeroRng, argmax_decisions, argmax_errors
from dafrelay.link import Constellation, PowerAllocation, diff_encode, transmit
from dafrelay.receiver import (
    CombinerWeights,
    Scheme,
    diff_products,
    frame_errors,
    scheme_weights,
    weights_cdd,
    weights_opt_genie,
    weights_tvd,
)


class TestCddWeights:
    def test_values(self):
        w = weights_cdd(1.0)
        assert w.b0 == 0.5
        assert w.b1 == 0.25

    def test_equal_power_30db(self):
        # P = 1000, P0 = 500, A = sqrt(500/501): b1 = 1/(2(1+A^2)) = 501/2002
        pa = PowerAllocation.equal_from_total_db(30.0)
        w = weights_cdd(pa.A)
        assert w.b1 == pytest.approx(501.0 / 2002.0, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            weights_cdd(0.0)


class TestTvdWeights:
    def test_quasi_static_degenerates_to_cdd(self):
        # acceptance: weights_tvd(1, 1, ., .) equals weights_cdd to 1e-12
        for p_db in (0.0, 10.0, 25.0):
            pa = PowerAllocation.equal_from_total_db(p_db)
            tvd = weights_tvd(1.0, 1.0, pa.P0, pa.A)
            cdd = weights_cdd(pa.A)
            assert tvd.b0 == pytest.approx(cdd.b0, abs=1e-12)
            assert tvd.b1 == pytest.approx(cdd.b1, abs=1e-12)

    def test_continuity_near_quasi_static(self):
        pa = PowerAllocation.equal_from_total_db(20.0)
        a = 1.0 - 1e-12
        tvd = weights_tvd(a, a, pa.P0, pa.A)
        cdd = weights_cdd(pa.A)
        assert abs(tvd.b0 - cdd.b0) < 1e-9
        assert abs(tvd.b1 - cdd.b1) < 1e-9

    def test_fast_fading_downweights_direct_branch(self):
        # alpha_sd = J0(2 pi 0.01) at P0 = 50: noisier differential direct
        # branch gets less weight than under the quasi-static assumption
        alpha_sd = 0.9990130
        pa = PowerAllocation.equal_from_total_db(20.0)
        tvd = weights_tvd(alpha_sd, 0.999, pa.P0, pa.A)
        assert tvd.b0 < weights_cdd(pa.A).b0

    def test_closed_form(self):
        # exact: the seeded outputs depend on every bit of these weights
        cases = [(0.98, 0.95, 10.0, 0.9)]
        for p_db in (0.0, 30.0, 60.0):
            pa = PowerAllocation.equal_from_total_db(p_db)
            cases += [(a_sd, a, pa.P0, pa.A) for a_sd, a in ((0.9990130, 0.998), (0.5, 0.25))]
        for alpha_sd, alpha, P0, A in cases:
            w = weights_tvd(alpha_sd, alpha, P0, A)
            assert w.b0 == alpha_sd / (1 + alpha_sd**2 + (1 - alpha_sd**2) * P0)
            assert w.b1 == alpha / ((1 + alpha**2) * (1 + A * A) + (1 - alpha**2) * A * A * P0)


class TestGenieWeights:
    def test_scalar_gain(self):
        alpha_sd, alpha, P0, A = 0.999, 0.99, 5.0, 0.8
        eta = 1.7
        w = weights_opt_genie(alpha_sd, alpha, P0, A, np.sqrt(eta))
        sigma_sq = A**2 * eta + 1.0
        rho = A**2 * P0 * eta / sigma_sq
        expected_b1 = alpha / (sigma_sq * (1 + alpha**2 + (1 - alpha**2) * rho))
        assert w.b1 == pytest.approx(expected_b1, rel=1e-14)
        assert w.b0 == pytest.approx(
            alpha_sd / (1 + alpha_sd**2 + (1 - alpha_sd**2) * P0), rel=1e-14
        )

    def test_array_gain(self):
        h = np.array([0.1, 1.0, 2.5])
        w = weights_opt_genie(0.999, 0.99, 5.0, 0.8, h)
        assert np.shape(w.b1) == (3,)
        # stronger relay gain -> larger equivalent noise -> smaller weight
        assert w.b1[0] > w.b1[1] > w.b1[2]

    def test_noise_variance_phase_invariance(self):
        w1 = weights_opt_genie(0.999, 0.99, 5.0, 0.8, 1.3 * np.exp(0.7j))
        w2 = weights_opt_genie(0.999, 0.99, 5.0, 0.8, 1.3)
        assert w1.b1 == pytest.approx(w2.b1, rel=1e-14)

    @pytest.mark.parametrize("alpha, P0, A", [(0.99, 5.0, 0.8), (0.9, 500.0, 0.999), (0.5, 0.5, 0.5)])
    def test_tvd_is_genie_averaged_over_relay_gain(self, alpha, P0, A):
        # TVD divides by the average equivalent-noise power over eta = |h_rd|^2 ~ Exp(1). That
        # power is linear in eta, so the 2-node Gauss-Laguerre rule gives its mean exactly.
        nodes, wts = np.polynomial.laguerre.laggauss(2)
        genie_b1 = weights_opt_genie(0.999, alpha, P0, A, np.sqrt(nodes)).b1
        mean_noise = np.sum(wts * alpha / genie_b1)
        assert mean_noise == pytest.approx(alpha / weights_tvd(0.999, alpha, P0, A).b1, rel=1e-14)


class TestSchemeWeights:
    # frames of L+1 = 4 gains, whose magnitudes differ from column to column
    H_RD = np.array([[0.3 + 0.4j, 1.0, 2.0j, -1.5], [0.2, -0.7j, 1.1 + 1.1j, 0.05]])

    def test_genie_takes_the_gain_before_each_decision(self):
        # the decision on symbols (k, k+1) takes the weight at eta = |h_rd[:, k]|^2, the gain entering
        # the previous relayed observation: each branch's autocorrelation over its equivalent-noise variance
        alpha_sd, alpha, P0, A = 0.999, 0.99, 5.0, 0.8
        w = scheme_weights(Scheme.OPT_GENIE, alpha_sd, alpha, P0, A, self.H_RD)
        eta = np.abs(self.H_RD[:, :3]) ** 2
        b1 = alpha / ((1 + alpha**2) * (1 + A * A * eta) + (1 - alpha**2) * A * A * P0 * eta)
        assert np.shape(w.b1) == (2, 3)
        np.testing.assert_allclose(w.b1, b1, rtol=1e-14, atol=0)
        assert w.b0 == pytest.approx(alpha_sd / (1 + alpha_sd**2 + (1 - alpha_sd**2) * P0), rel=1e-14)

    @pytest.mark.parametrize("h_rd", [H_RD, 10.0 * H_RD, np.zeros((1, 7))])
    def test_cdd_and_tvd_ignore_the_gains(self, h_rd):
        alpha_sd, alpha, P0, A = 0.999, 0.99, 5.0, 0.8
        assert scheme_weights(Scheme.CDD, alpha_sd, alpha, P0, A, h_rd) == weights_cdd(A)
        assert scheme_weights(Scheme.TVD, alpha_sd, alpha, P0, A, h_rd) == weights_tvd(alpha_sd, alpha, P0, A)


def parts_of(d_sd, d_rd, M):
    """The parts `diff_products` gives at order M, of the complex products d_sd and d_rd."""
    return (d_sd.real, d_rd.real) + ((d_sd.imag, d_rd.imag) if M == 4 else ())


def products(*ys):
    """Oracle: conj(y[k-1]) y[k] of each y along the last axis."""
    return [np.conj(y[..., :-1]) * y[..., 1:] for y in ys]


def zeta_errors(zeta, data, c, branch=0):
    """frame_errors of the one combiner output zeta, carried by one branch at weight 1 while the other is 0."""
    zeta = np.asarray(zeta)
    zeros = np.zeros_like(zeta)
    if branch == 0:
        return frame_errors([CombinerWeights(1.0, 0.0)], parts_of(zeta, zeros, c.M), data, c)[0]
    # the genie's form: b1 an array of one weight per decision
    return frame_errors([CombinerWeights(0.0, np.ones(zeta.shape))], parts_of(zeros, zeta, c.M), data, c)[0]


class TestCombineDetect:
    @pytest.mark.parametrize("M", [2, 4])
    def test_diff_products_formula(self, M):
        # the contiguous parts of numpy's complex products, bit for bit, on small exact values and on frames
        y_sd = np.array([1.0 + 0j, 2.0j, -1.0])
        y_rd = np.array([0.5, -0.5j, 1.0 + 1.0j])
        rng = np.random.default_rng(7)
        frames = [rng.standard_normal((8, 1001)) + 1j * rng.standard_normal((8, 1001)) for _ in range(2)]
        for ys in ((y_sd, y_rd), frames):
            parts = diff_products(*ys, M)
            ref = parts_of(*products(*ys), M)
            assert len(parts) == len(ref) == M
            for p, r in zip(parts, ref):
                assert p.flags.c_contiguous and p.shape == ys[0][..., 1:].shape
                assert np.array_equal(p.view(np.uint64), np.ascontiguousarray(r).view(np.uint64))

    def test_noiseless_end_to_end_recovery(self):
        # static unit channels, no noise: any scheme recovers the data exactly
        c = Constellation.of(4)
        pa = PowerAllocation.equal_from_total_db(10.0)
        data = np.random.default_rng(5).integers(0, 4, 500)  # the sent Gray patterns
        s = diff_encode(c.index_of_gray[data], c)
        ones = np.ones(s.shape, dtype=complex)
        ys = transmit(s, ones.copy(), ones.copy(), ones.copy(), pa, ZeroRng())  # transmit writes h_sd and h
        d_sd, d_rd = products(*ys)
        weights = [weights_cdd(pa.A), weights_tvd(1.0, 1.0, pa.P0, pa.A),
                   weights_opt_genie(1.0, 1.0, pa.P0, pa.A, ones[:-1])]
        for w in weights:
            m = argmax_decisions(w.b0 * d_sd + w.b1 * d_rd, c.symbols)
            assert np.array_equal(m ^ (m >> 1), data)
        assert frame_errors(weights, diff_products(*ys, c.M), data, c) == [0, 0, 0]

    def test_single_branch_suffices_noiselessly(self):
        # kill the relayed branch: direct differential detection still works
        c = Constellation.of(2)
        pa = PowerAllocation.equal_from_total_db(0.0)
        data = np.random.default_rng(6).integers(0, 2, 200)
        s = diff_encode(data, c)  # for M = 2 each Gray pattern is its symbol index
        ones = np.ones(s.shape, dtype=complex)
        zeros = np.zeros(s.shape, dtype=complex)
        parts = diff_products(*transmit(s, ones, zeros, zeros.copy(), pa, ZeroRng()), c.M)
        assert frame_errors([weights_cdd(pa.A)], parts, data, c) == [0]

    @pytest.mark.parametrize("M", [2, 4])
    def test_batched_combine_detect(self, M):
        # one count per frame (row) for each scheme, the genie's per-decision weights included
        c = Constellation.of(M)
        y = np.ones((4, 6), dtype=complex)
        weights = [weights_cdd(1.0), CombinerWeights(0.5, np.full((4, 5), 0.3))]
        errors = frame_errors(weights, diff_products(y, y, M), np.zeros((4, 5), dtype=np.uint8), c)
        assert len(errors) == 2
        for e in errors:
            assert e.shape == (4,)
            assert np.array_equal(e, np.zeros(4))


# exact zeros of both signs and small integers, so that a == +-b ties and signed zeros come up often
_COMPONENT = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tie_heavy_zetas(draw):
    """Combiner outputs a + jb whose b is free, equal to a or equal to -a."""
    pairs = draw(
        st.lists(st.tuples(_COMPONENT, _COMPONENT, st.sampled_from(["free", "a", "-a"])), min_size=1, max_size=40)
    )
    zeta = np.empty(len(pairs), dtype=complex)
    zeta.real = [a for a, _, _ in pairs]  # assigned part by part: a + 1j*b would lose signed zeros
    zeta.imag = [b if mode == "free" else (a if mode == "a" else -a) for a, b, mode in pairs]
    return zeta


class TestFrameErrors:
    def test_bpsk_errors_are_the_decided_patterns(self):
        # one-symbol frames against the pattern 0: the errors are the decided patterns
        c = Constellation.of(2)
        zeta = np.array([[3.0 + 0.1j], [-2.0 + 5.0j], [0.5 - 1.0j]])
        assert zeta_errors(zeta, np.zeros((3, 1), dtype=np.uint8), c).tolist() == [0, 1, 0]

    def test_qpsk_errors_follow_the_gray_quadrants(self):
        # symbol indices 0, 1, 2, 3 carry the Gray patterns 0, 1, 3, 2
        c = Constellation.of(4)
        zeta = np.array([[2.0], [3.0j], [-1.5], [-0.5j]])
        assert zeta_errors(zeta, np.zeros((4, 1), dtype=np.uint8), c).tolist() == [0, 1, 2, 1]
        assert zeta_errors(zeta, np.array([[0], [1], [3], [2]]), c).tolist() == [0, 0, 0, 0]

    def test_ties_decide_the_lowest_index(self):
        # zeta = 0 gives all candidates the same score, so the decision is index 0, pattern 0
        for M in (2, 4):
            c = Constellation.of(M)
            for branch in (0, 1):
                zeta = np.zeros((1, 1), dtype=complex)
                assert zeta_errors(zeta, np.zeros((1, 1), dtype=np.uint8), c, branch)[0] == 0

    @settings(max_examples=300)
    @given(tie_heavy_zetas(), st.sampled_from([2, 4]), st.sampled_from([0, 1]))
    def test_errors_match_argmax_decisions(self, zeta, M, branch):
        # each symbol is a one-symbol frame; its errors against every possible pattern d are
        # popcount(d ^ decision), which pins the decision down
        c = Constellation.of(M)
        m = argmax_decisions(zeta, c.symbols)
        expected = m ^ (m >> 1)
        for d in range(M):
            errors = zeta_errors(zeta[:, None], np.full((zeta.size, 1), d), c, branch)
            assert errors.tolist() == [bin(d ^ int(g)).count("1") for g in expected]

    @pytest.mark.parametrize("M", [2, 4])
    def test_zero_parts_decide_as_the_complex_combiner(self, M):
        # each sign of a zero part, and parts +-1, on both branches: the parts of zeta = b0 d_sd + b1 d_rd are
        # then +-0 or +-b, and b0 Re d_sd + b1 Re d_rd (or Im) may differ from them only in the sign of a zero,
        # which decides as the complex combiner's argmax either way
        v = np.array([0.0, -0.0, 1.0, -1.0])
        re_sd, im_sd, re_rd, im_rd = (x.ravel() for x in np.meshgrid(v, v, v, v))
        d_sd, d_rd = np.empty((2, 1, re_sd.size), dtype=complex)
        d_sd.real, d_sd.imag, d_rd.real, d_rd.imag = re_sd, im_sd, re_rd, im_rd
        c = Constellation.of(M)
        weights = [CombinerWeights(0.5, 0.25), CombinerWeights(0.5, 0.5),
                   CombinerWeights(0.3, np.full(d_rd.shape, 0.3))]
        negative = np.count_nonzero(0.5 * re_sd + 0.25 * re_rd < 0)
        for d in range(M):
            data = np.full(d_sd.shape, d, dtype=np.uint8)
            errors = frame_errors(weights, parts_of(d_sd, d_rd, M), data, c)
            for w, e in zip(weights, errors):
                assert e.tolist() == argmax_errors(w.b0 * d_sd + w.b1 * d_rd, data, c).tolist()
            if M == 2:
                assert errors[0][0] == (negative if d == 0 else re_sd.size - negative)
