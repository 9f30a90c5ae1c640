"""Correlated Rayleigh fading generators and the cascaded (double-Rayleigh) channel.

Two backends are provided for each individual link: an AR(1) recursion whose
lag-1 autocorrelation is exact by construction, and an improved-Jakes
sum-of-sinusoids simulator whose autocorrelation tracks J0(2*pi*f*k), with the
draws and terms of the classical cosine form summed as a matmul over k = b*B + j.
The AR(1) link and the one-term cascade approximation share one generator (`_gen_ar1`),
the cascade's driven by h_rd.  It runs over blocks of rows (`_gen_ar1_blocks`), drawing
each block's innovations as it goes, and runs every block's recursion as one blocked
linear scan (`_ar1_scan`), one real matmul per block of samples.  Both cascade models
(`_cascade`) write block by block into a given output, which may be h_rd's own buffer.
A link used every n-th symbol (n = 2 for symbol-by-symbol transmission) is the link at n*f.

Every generator returns a batch of independent realizations, shape
(realizations, length), one per row.  Statistical validation of strongly correlated
processes needs many independent realizations: a single chain at low Doppler
has an effective sample size far too small for the tolerances used here.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from .specials import bessel_j0, bessel_k0

__all__ = [
    "FadingGenerator",
    "CascadedModelKind",
    "FadingSpec",
    "Scenario",
    "SCENARIOS",
    "ChannelStats",
    "autocorr",
    "seeded_rng",
    "gen_fading",
    "gen_cascaded",
    "envelope_pdf_theoretical",
    "rayleigh_pdf",
    "validate_stats",
    "envelope_chi_square",
]


class FadingGenerator(Enum):
    AR1 = "ar1"
    SUM_OF_SINUSOIDS = "sos"


class CascadedModelKind(Enum):
    """Exact elementwise product of the two hops, or the one-term AR recursion."""

    EXACT_PRODUCT = "exact"
    APPROXIMATE = "approx"


@dataclass(frozen=True)
class FadingSpec:
    """One fading link: normalized Doppler per channel use and backend.

    A link used every n-th symbol is FadingSpec(n*f).
    """

    f: float
    generator: FadingGenerator = FadingGenerator.AR1

    def __post_init__(self):
        if not 0.0 <= self.f < 0.5:
            raise ValueError(f"normalized Doppler must be in [0, 0.5), got {self.f}")


@dataclass(frozen=True)
class Scenario:
    """Normalized Doppler frequencies of the three links."""

    name: str
    f_sd: float
    f_sr: float
    f_rd: float

    def __post_init__(self):
        for f in (self.f_sd, self.f_sr, self.f_rd):
            FadingSpec(f)

    def autocorrs(self) -> tuple[float, float]:
        """(alpha_sd, alpha): lag-1 autocorrelations of the direct link and of the cascade."""
        a_sd, a_sr, a_rd = (autocorr(FadingSpec(f)) for f in (self.f_sd, self.f_sr, self.f_rd))
        return a_sd, a_sr * a_rd


SCENARIOS = {
    "I": Scenario("I", 0.001, 0.001, 0.001),
    "II": Scenario("II", 0.01, 0.01, 0.001),
    "III": Scenario("III", 0.05, 0.05, 0.01),
}


@dataclass
class ChannelStats:
    mean: complex
    variance: float
    lag1_autocorr: float
    bin_edges: np.ndarray
    densities: np.ndarray


def autocorr(spec: FadingSpec) -> float:
    """Lag-1 autocorrelation of the link: J0(2*pi*f)."""
    return float(bessel_j0(2.0 * np.pi * spec.f))


def seeded_rng(words):
    """The generator of a stream keyed by a sequence of non-negative integer words: SFC64 on their SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def _crandn(rng, shape, scale=1.0):
    """Independent CN(0, scale^2) samples: (re + 1j*im) * (scale / sqrt(2)) from one draw of (re, im) pairs.

    `scale` is a number or an array of `shape`.  The pairs are scaled in place as floats, which gives the
    bits of the complex product by the real factor.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    pairs = rng.standard_normal((*shape, 2))
    pairs *= np.expand_dims(np.divide(scale, np.sqrt(2.0)), -1)
    return pairs.view(complex).reshape(shape)


# samples per row block of the AR(1) generator: it bounds a block's draws and scan temporaries, and moves no bit
_AR1_BLOCK = 1 << 15
# the scan's longest block, and block rows of every gemm: a (128, 2B + 2) @ (2B + 2, 2B) call stays within
# OpenBLAS's one-thread size, so the bits do not depend on its thread count
_SCAN_B = 16
_SCAN_GEMM_ROWS = 128


@functools.lru_cache(maxsize=64)
def _scan_kernel(a, b):
    """kron([[T], [a^(1..b)]], I2) with T[i, j] = a^(j-i) for j >= i, else 0: shape (2b + 2, 2b), read-only.

    Cached per (a, b), at most 9 KB each, since every chunk of a sweep runs the same few coefficients and
    their powers.
    """
    p = np.power(float(a), np.arange(b + 1))
    lag = np.arange(b) - np.arange(b)[:, None]
    k = np.kron(np.vstack((np.where(lag >= 0, p[np.maximum(lag, 0)], 0.0), p[1:])), np.eye(2))
    k.flags.writeable = False
    return k


def _ar1_scan(a, block, x):
    """block[:, 1:] of h[:, 0] = block[:, 0], h[:, k] = a*h[:, k-1] + x[:, k-1], as a blocked linear scan.

    Each row of x's m columns is split into blocks of B = min(_SCAN_B, m) samples, the last one zero-padded.
    As a is real, the real and imaginary parts run apart, so on a block's float (re, im) pairs, with the
    carry c (the value before the block) appended, [x | c] @ `_scan_kernel(a, B)` is the block run from c.
    A row of one block carries block[:, 0].  The carries of longer rows are themselves an AR(1) with
    coefficient a^B from block[:, 0], whose input is each block run from zero to its end (the kernel's last
    two columns without the carry row): `_ar1_scan` again, in place in the carry column, on one column per
    block but the last.  The (rows x blocks) rows of [x | c] go through the gemms in groups of exactly
    _SCAN_GEMM_ROWS, the last zero-padded, so a row's bits depend on neither the rows scanned with it nor
    BLAS's thread count.  It matches the plain loop to about 1e-14 of max|h| rather than bit for bit, holds
    h0 exactly at a = 1 with zero input, and leaves block as it is when x has no columns.
    """
    n, m = x.shape
    if m == 0:
        return
    b = min(_SCAN_B, m)
    width = 2 * b  # floats per block
    full, tail = divmod(m, b)
    nb = full + (tail > 0)
    total = n * nb
    groups = -(-total // _SCAN_GEMM_ROWS)
    k = _scan_kernel(a, b)
    buf = np.empty((groups, _SCAN_GEMM_ROWS, width + 2))
    rows = buf.reshape(-1, width + 2)
    rows[total:] = 0.0
    xs = rows[:total, :width].view(complex).reshape(n, nb, b)
    xs[:, :full] = x[:, :full * b].reshape(n, full, b)
    if tail:
        xs[:, full, :tail] = x[:, full * b:]
        xs[:, full, tail:] = 0.0
    carries = rows[:total, width:].view(complex)[:, 0].reshape(n, nb)
    carries[:, 0] = block[:, 0]
    if nb > 1:
        ends = (buf[..., :width] @ k[:width, -2:]).reshape(-1, 2)[:total].view(complex).reshape(n, nb)
        _ar1_scan(a**b, carries, ends[:, :-1])
    block[:, 1:] = (buf @ k).reshape(-1, width)[:total].view(complex).reshape(n, -1)[:, :m]


def _gen_ar1_blocks(alpha, length, rng, n_real, gain=None, out=None):
    """Yield (rows, h) for each row block of h[k] = alpha*h[k-1] + sqrt(1-alpha^2)*e[k-1], h[0] = e_0, in row order.

    The CN(0,1) draws are h0 first, then each block's innovations, at their scale, as the block runs:
    SFC64 fills its draws in order, so this is the stream of drawing every innovation at once, with no
    array of them all.  A (n_real, length) `gain` drives the recursion: h[0] = e_0*gain[0] and the input
    is (sqrt(1-alpha^2)*e[k-1])*gain[k-1], both formed in the buffers of the draws, a block's before its
    rows are written, so `out` may be gain itself.  h is out[rows], or without `out` the block's rows of
    one buffer that every block reuses, so h holds until the next block is made.  Each block runs
    `_ar1_scan`.
    """
    h0 = _crandn(rng, n_real)
    if gain is not None:
        h0 *= gain[:, 0]
    scale = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    step = max(1, _AR1_BLOCK // length)
    scratch = np.empty((min(n_real, step), length), dtype=complex) if out is None else None
    for i in range(0, n_real, step):
        rows = slice(i, min(i + step, n_real))
        x = _crandn(rng, (rows.stop - i, length - 1), scale)
        if gain is not None:
            x *= gain[rows, :-1]
        h = out[rows] if scratch is None else scratch[:len(x)]
        h[:, 0] = h0[rows]
        _ar1_scan(alpha, h, x)
        del x  # the next block's input is drawn without this one
        yield rows, h


def _gen_ar1(alpha, length, rng, n_real, gain=None, out=None):
    """The rows of `_gen_ar1_blocks`, written into `out` (a new array if None), which is returned."""
    out = np.empty((n_real, length), dtype=complex) if out is None else out
    for _ in _gen_ar1_blocks(alpha, length, rng, n_real, gain, out):
        pass
    return out


_N_SINUSOIDS = 16  # sinusoid pairs; keeps autocorr error below test tolerances
# output elements of one gemm in _gen_sos: the (100, 2N) @ (2N, 101) call of a 10^4-sample frame.
# OpenBLAS runs larger calls on several threads, which stall intermittently on small VMs.
_SOS_GEMM_OUT = 100 * 101


def _phasors(w, step, count, phase=0.0):
    """[cos; sin](w*step*k + phase) for k in range(count): shape (..., 2N, count) from w of shape (..., N).

    `phase` broadcasts against w.  The table is the real and imaginary part of the product of two phasor
    tables, a coarse one at k = c*F, which takes the phase, and a fine one at k = d < F, F = ceil(sqrt(count)):
    about 2*sqrt(count) cos/sin pairs in place of count, and only the coarse table's angles are large.  Each
    angle is w*(step*k) (+ phase) with an exact integer step*k, so the product's angle differs from the
    direct one by a few roundings of the largest angle.
    """
    w = np.expand_dims(w, -1)
    phase = np.expand_dims(phase, -1)

    def table(angle):
        t = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=t.real)
        np.sin(angle, out=t.imag)
        return t

    fine = math.isqrt(count - 1) + 1
    coarse = table(w * (step * fine * np.arange(-(-count // fine))) + phase)
    p = (coarse[..., None] * table(w * (step * np.arange(fine)))[..., None, :]).reshape(*w.shape[:-1], -1)
    return np.concatenate((p.real[..., :count], p.imag[..., :count]), axis=-2)


def _gen_sos(f, length, rng, n_real):
    """Improved-Jakes sum of sinusoids (Zheng & Xiao, IEEE Trans. Commun. 51(6), 2003).

    theta, phi, psi are drawn as in the classical form sum_n cos(w_n*k + phi_n), whose terms this
    matches one by one, so the rng state after the call is the same.  With k = b*B + j, B = ceil(sqrt(length)):
    cos(w*k + phi) = Re{exp(i(w*b*B + phi)) exp(i*w*j)} = [cos, sin](w*b*B + phi) . [cos, -sin](w*j), so
    each component is one real matmul of [cos, sin] rows by [cos, -sin] = [cos, sin](-w*j) columns, both
    built by `_phasors` as coarse x fine products: a 10^4-sample frame evaluates about 4*10 angles per
    sinusoid instead of 2*100.  The rows' table is made sinusoid-major and read transposed by the gemm.  The
    nb block rows of a realization are split into groups of at most _SOS_GEMM_OUT // B rows, so that each
    (rows, 2N) @ (2N, B) gemm stays small; up to 10^4 samples there is
    one group.  Each component is scaled straight into its part of the complex output.
    """
    n = np.arange(1, _N_SINUSOIDS + 1)
    theta = rng.uniform(-np.pi, np.pi, (n_real, 1))
    phi = rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS))
    psi = rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS))
    alpha_n = (2.0 * np.pi * n - np.pi + theta) / (4.0 * _N_SINUSOIDS)
    wd = 2.0 * np.pi * f
    block = int(np.ceil(np.sqrt(length)))
    n_blocks = -(-length // block)
    groups = -(-n_blocks // max(1, _SOS_GEMM_OUT // block))
    rows = -(-n_blocks // groups)

    def component(w, phase, out):
        a = _phasors(w, block, groups * rows, phase).reshape(n_real, 2 * _N_SINUSOIDS, groups, rows)
        blocks = a.transpose(0, 2, 3, 1) @ _phasors(-w, 1, block)[:, None]
        np.divide(blocks.reshape(n_real, -1)[:, :length], np.sqrt(_N_SINUSOIDS), out=out)

    h = np.empty((n_real, length), dtype=complex)
    component(wd * np.cos(alpha_n), phi, h.real)
    component(wd * np.sin(alpha_n), psi, h.imag)
    return h


def gen_fading(spec: FadingSpec, length: int, rng, realizations: int):
    """`realizations` independent rows of a zero-mean, unit-variance correlated complex Gaussian process.

    Returns shape (realizations, length).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if spec.generator is FadingGenerator.AR1:
        return _gen_ar1(autocorr(spec), length, rng, realizations)
    return _gen_sos(spec.f, length, rng, realizations)


def gen_cascaded(spec_sr: FadingSpec, spec_rd: FadingSpec, kind: CascadedModelKind, length: int, rng,
                 realizations: int):
    """Generate the cascaded source-relay-destination channel, shape (realizations, length).

    Returns (h, h_rd), h_rd drawn first and then `_cascade` driven by it, into a new array.
    h_rd is returned for the genie combiner.
    """
    h_rd = gen_fading(spec_rd, length, rng, realizations)
    return _cascade(spec_sr, spec_rd, kind, h_rd, rng), h_rd


def _cascade(spec_sr: FadingSpec, spec_rd: FadingSpec, kind: CascadedModelKind, h_rd, rng, out=None):
    """The cascade of the drawn h_rd, written row block by row block into `out`, which may be h_rd itself.

    EXACT_PRODUCT multiplies an independently generated h_sr by h_rd elementwise, h_sr * h_rd; an AR(1)
    h_sr runs by row blocks, each multiplied into out as it is made.  APPROXIMATE is the one-term recursion
    h[k] = a*h[k-1] + (sqrt(1-a^2)*e_sr[k-1])*h_rd[k-1] with a = a_sr*a_rd from h[0] = e_0*h_rd[0]:
    `_gen_ar1` driven by h_rd.  Without `out`, the product is made in h_sr's buffer and the recursion in a
    new array.  Returns the cascade.
    """
    n_real, length = h_rd.shape
    if kind is CascadedModelKind.APPROXIMATE:
        return _gen_ar1(autocorr(spec_sr) * autocorr(spec_rd), length, rng, n_real, gain=h_rd, out=out)
    if spec_sr.generator is FadingGenerator.AR1:
        out = np.empty_like(h_rd) if out is None else out
        # h_sr's blocks go to out's rows, unless those may be h_rd's
        rows_out = None if np.may_share_memory(out, h_rd) else out
        blocks = _gen_ar1_blocks(autocorr(spec_sr), length, rng, n_real, out=rows_out)
    else:
        h_sr = _gen_sos(spec_sr.f, length, rng, n_real)
        out, blocks = h_sr if out is None else out, [(slice(None), h_sr)]
    for rows, h_sr in blocks:
        np.multiply(h_sr, h_rd[rows], out=out[rows])
    return out


def envelope_pdf_theoretical(lam):
    """Density of the cascaded-channel envelope: 4*lambda*K0(2*lambda)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("envelope is non-negative")
    out = np.zeros_like(lam)
    pos = lam > 0
    if np.any(pos):
        out[pos] = 4.0 * lam[pos] * bessel_k0(2.0 * lam[pos])
    return out[()]


def rayleigh_pdf(lam):
    """Density of a unit-power Rayleigh envelope, for contrast with the cascade."""
    lam = np.asarray(lam, dtype=float)
    return (2.0 * lam * np.exp(-lam * lam))[()]


_HIST_BINS = 100
_HIST_RANGE = (0.0, 5.0)  # captures >99.99% of the cascaded envelope mass
_HIST_EDGES = np.linspace(*_HIST_RANGE, _HIST_BINS + 1)
# mass of each bin under 4*l*K0(2*l), from its CDF F(l) = 1 - 2*l*K1(2*l) with
# F(0) = 0; the last right edge takes F = 1, which folds the tail into the last bin
_INNER_EDGES = _HIST_EDGES[1:-1]
_HIST_MASSES = np.diff(np.concatenate(([0.0], 1.0 - 2.0 * _INNER_EDGES * special.k1(2.0 * _INNER_EDGES), [1.0])))
_CHI_SQUARE_MIN_EXPECTED = 5.0  # bins expecting fewer samples are merged into their neighbours
_CHI_SQUARE_RTOL = np.sqrt(np.finfo(float).eps)  # scipy.stats.chisquare's check of the totals
_STATS_BLOCK = 1 << 16  # samples per pass of validate_stats, which makes no temporary of the samples' size


def validate_stats(samples) -> ChannelStats:
    """Empirical mean, variance, lag-1 autocorrelation and envelope histogram.

    `samples` is a 1D complex array, or a 2D array whose rows are independent
    realizations (lag-1 products never straddle row boundaries).  Requires at
    least 10^4 samples in total.  The variance is E|h - mean|^2 (two passes) and
    the lag-1 autocorrelation Re E[h[k] conj(h[k-1])] over it.
    """
    h = np.asarray(samples, dtype=complex)
    if h.ndim == 1:
        h = h[None, :]
    if h.size < 10_000:
        raise ValueError("validate_stats needs at least 10^4 samples")
    if h.shape[1] < 2:
        raise ValueError("validate_stats needs at least 2 samples per realization")
    mean = complex(h.mean())
    flat = h.ravel()
    # the real sums below are einsum dot products over float views: (re, im) pairs, so that
    # Re conj(u)*v = re_u*re_v + im_u*im_v; einsum runs on one thread, so the bits do not depend on BLAS's thread count
    sq_dev = lag_sum = 0.0
    counts = np.zeros(_HIST_BINS, dtype=np.intp)
    for i in range(0, flat.size, _STATS_BLOCK):
        block = flat[i:i + _STATS_BLOCK]
        dev = (block - mean).view(float)
        sq_dev += np.einsum("i,i->", dev, dev)
        # products of neighbours in the flat array, the last one with the first sample of the next block
        pairs = flat[i:i + _STATS_BLOCK + 1].view(float)
        lag_sum += np.einsum("i,i->", pairs[:-2], pairs[2:])
        counts += np.histogram(np.abs(block), bins=_HIST_BINS, range=_HIST_RANGE)[0]
    variance = sq_dev / flat.size
    # less the products across the ends of rows
    lag_sum -= np.einsum("ij,ij->", h[:-1, -1:].view(float), h[1:, :1].view(float))
    lag1 = float(lag_sum / (h.shape[0] * (h.shape[1] - 1)) / variance)
    edges = _HIST_EDGES.copy()
    return ChannelStats(mean, float(variance), lag1, edges, counts / np.diff(edges) / counts.sum())


def envelope_chi_square(samples):
    """Chi-square goodness-of-fit of i.i.d. envelope samples against 4*l*K0(2*l).

    `samples` must be finite, (approximately) independent draws; bins with expected
    count below _CHI_SQUARE_MIN_EXPECTED are merged into their neighbours, which must
    leave at least two bins: it takes 11 samples or more.
    Returns (statistic, p_value).
    """
    lam = np.abs(np.asarray(samples)).ravel()
    if not np.isfinite(lam).all():
        raise ValueError("envelope_chi_square: every sample must be finite")
    n = lam.size
    observed, _ = np.histogram(lam, bins=_HIST_EDGES)
    expected = n * _HIST_MASSES
    observed = observed.astype(float)
    observed[-1] += np.count_nonzero(lam > _HIST_EDGES[-1])
    # merge low-expectation bins from the right
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _CHI_SQUARE_MIN_EXPECTED:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if len(obs_m) < 2:
        raise ValueError(f"envelope_chi_square: {n} samples fill fewer than two bins expecting "
                         f"{_CHI_SQUARE_MIN_EXPECTED:g} or more")
    if acc_e > 0:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    return _pearson_chi_square(np.array(obs_m), np.array(exp_m))


def _pearson_chi_square(observed, expected):
    """Pearson's statistic sum((o - e)^2 / e) and its chi-square(k - 1) upper tail, as scipy.stats.chisquare.

    The observed and expected totals must agree to chisquare's relative tolerance sqrt(eps).
    """
    obs_sum, exp_sum = observed.sum(), expected.sum()
    if abs(obs_sum - exp_sum) > _CHI_SQUARE_RTOL * min(obs_sum, exp_sum):
        raise ValueError(f"chi-square: observed total {obs_sum} and expected total {exp_sum} differ")
    stat = np.sum((observed - expected) ** 2 / expected)
    return float(stat), float(special.chdtrc(len(observed) - 1, stat))
