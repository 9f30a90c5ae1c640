"""Correlated Rayleigh fading generators and the cascaded (double-Rayleigh) channel.

Two backends are provided for each individual link: an AR(1) recursion whose
lag-1 autocorrelation is exact by construction, and an improved-Jakes
sum-of-sinusoids simulator whose autocorrelation tracks J0(2*pi*f*k), with the
draws and terms of the classical cosine form summed as a matmul over k = b*B + j.

All generators can emit a batch of independent realizations (a 2D array with
one realization per row).  Statistical validation of strongly correlated
processes needs many independent realizations: a single chain at low Doppler
has an effective sample size far too small for the tolerances used here.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special, stats

from .specials import bessel_j0, bessel_k0

__all__ = [
    "FadingGenerator",
    "CascadedModelKind",
    "FadingSpec",
    "Scenario",
    "SCENARIOS",
    "ChannelStats",
    "autocorr",
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
    """One fading link: normalized Doppler, channel-use lag and backend.

    lag_n = 1 for block-by-block transmission, 2 for symbol-by-symbol.
    """

    f: float
    lag_n: int = 1
    generator: FadingGenerator = FadingGenerator.AR1

    def __post_init__(self):
        if not 0.0 <= self.f < 0.5:
            raise ValueError(f"normalized Doppler must be in [0, 0.5), got {self.f}")
        if self.lag_n not in (1, 2):
            raise ValueError(f"lag_n must be 1 or 2, got {self.lag_n}")


@dataclass(frozen=True)
class Scenario:
    """Normalized Doppler frequencies of the three links."""

    name: str
    f_sd: float
    f_sr: float
    f_rd: float

    def __post_init__(self):
        for f in (self.f_sd, self.f_sr, self.f_rd):
            if not 0.0 <= f < 0.5:
                raise ValueError(f"normalized Doppler must be in [0, 0.5), got {f}")

    def autocorrs(self, lag_n: int = 1) -> tuple[float, float]:
        """(alpha_sd, alpha): autocorrelations at lag_n of the direct link and of the cascade."""
        a_sd, a_sr, a_rd = (autocorr(FadingSpec(f, lag_n)) for f in (self.f_sd, self.f_sr, self.f_rd))
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
    """Lag-1 autocorrelation of the link: J0(2*pi*f*lag_n)."""
    return float(bessel_j0(2.0 * np.pi * spec.f * spec.lag_n))


def _crandn(rng, shape):
    """i.i.d. CN(0,1) samples (variance split evenly across components)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _gen_ar1(alpha, length, rng, n_real):
    innov_scale = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    h = np.empty((n_real, length), dtype=complex)
    h[:, 0] = _crandn(rng, n_real)
    if length > 1:
        e = _crandn(rng, (n_real, length - 1))
        if innov_scale == 0.0:
            h[:, 1:] = h[:, :1]
        else:
            from scipy.signal import lfilter

            x = innov_scale * e
            zi = (alpha * h[:, 0])[:, None]
            y, _ = lfilter([1.0], [1.0, -alpha], x, axis=1, zi=zi)
            h[:, 1:] = y
    return h


_N_SINUSOIDS = 16  # sinusoid pairs; keeps autocorr error below test tolerances


def _gen_sos(f_eff, length, rng, n_real):
    """Improved-Jakes sum of sinusoids (Zheng & Xiao, IEEE Trans. Commun. 51(6), 2003).

    theta, phi, psi are drawn as in the classical form sum_n cos(w_n*k + phi_n), whose terms this
    matches one by one, so the rng state after the call is the same.  With k = b*B + j, B = ceil(sqrt(length)):
    cos(w*k + phi) = Re{exp(i(w*b*B + phi)) exp(i*w*j)} = [cos, -sin](w*b*B + phi) . [cos, sin](w*j), so
    each component is one real (R, nb, 2N) @ (R, 2N, B) matmul, every angle computed directly (no recurrence).
    """
    n = np.arange(1, _N_SINUSOIDS + 1)
    theta = rng.uniform(-np.pi, np.pi, (n_real, 1))
    phi = rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS))
    psi = rng.uniform(-np.pi, np.pi, (n_real, _N_SINUSOIDS))
    alpha_n = (2.0 * np.pi * n - np.pi + theta) / (4.0 * _N_SINUSOIDS)
    wd = 2.0 * np.pi * f_eff
    block = int(np.ceil(np.sqrt(length)))
    starts = block * np.arange(-(-length // block))[:, None]

    def component(w, phase):
        a = w[:, None, :] * starts + phase[:, None, :]
        b = w[:, :, None] * np.arange(block)
        blocks = np.concatenate((np.cos(a), -np.sin(a)), axis=2) @ np.concatenate((np.cos(b), np.sin(b)), axis=1)
        return blocks.reshape(n_real, -1)[:, :length] / np.sqrt(_N_SINUSOIDS)

    return component(wd * np.cos(alpha_n), phi) + 1j * component(wd * np.sin(alpha_n), psi)


def gen_fading(spec: FadingSpec, length: int, rng, realizations: int | None = None):
    """Generate a zero-mean, unit-variance correlated complex Gaussian process.

    Returns shape (length,) or, when `realizations` is given, a 2D array of
    independent realizations with shape (realizations, length).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n_real = 1 if realizations is None else int(realizations)
    if spec.generator is FadingGenerator.AR1:
        h = _gen_ar1(autocorr(spec), length, rng, n_real)
    else:
        h = _gen_sos(spec.f * spec.lag_n, length, rng, n_real)
    return h[0] if realizations is None else h


def gen_cascaded(
    spec_sr: FadingSpec,
    spec_rd: FadingSpec,
    kind: CascadedModelKind,
    length: int,
    rng,
    realizations: int | None = None,
):
    """Generate the cascaded source-relay-destination channel.

    Returns (h, h_rd).  EXACT_PRODUCT multiplies two independently generated
    links elementwise.  APPROXIMATE runs the one-term recursion
    h[k] = a*h[k-1] + sqrt(1-a^2)*h_rd[k-1]*e_sr[k] with a = a_sr*a_rd,
    initialized from an exact product sample.  h_rd is returned for the
    genie combiner.
    """
    if spec_sr.lag_n != spec_rd.lag_n:
        raise ValueError("spec_sr and spec_rd must share lag_n")
    h_rd = gen_fading(spec_rd, length, rng, realizations)
    if kind is CascadedModelKind.EXACT_PRODUCT:
        return gen_fading(spec_sr, length, rng, realizations) * h_rd, h_rd
    from scipy.signal import lfilter

    h_rd_2d = np.atleast_2d(h_rd)
    a = autocorr(spec_sr) * autocorr(spec_rd)
    h = np.empty(h_rd_2d.shape, dtype=complex)
    h[:, 0] = _crandn(rng, len(h)) * h_rd_2d[:, 0]
    e_sr = _crandn(rng, (len(h), length - 1))
    # filter input sqrt(1-a^2)*h_rd[k-1]*e_sr[k-1]; e_sr is freed before the
    # filter output is allocated, which keeps peak memory at the loop's level
    x = np.sqrt(max(0.0, 1.0 - a * a)) * h_rd_2d[:, :-1]
    x *= e_sr
    del e_sr
    h[:, 1:], _ = lfilter([1.0], [1.0, -a], x, axis=1, zi=a * h[:, :1])
    return (h[0] if realizations is None else h), h_rd


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


def validate_stats(samples) -> ChannelStats:
    """Empirical mean, variance, lag-1 autocorrelation and envelope histogram.

    `samples` is a 1D complex array, or a 2D array whose rows are independent
    realizations (lag-1 products never straddle row boundaries).  Requires at
    least 10^4 samples in total.
    """
    h = np.asarray(samples)
    if h.ndim == 1:
        h = h[None, :]
    if h.size < 10_000:
        raise ValueError("validate_stats needs at least 10^4 samples")
    mean = complex(h.mean())
    variance = float(np.mean(np.abs(h - mean) ** 2))
    if h.shape[1] < 2:
        raise ValueError("validate_stats needs at least 2 samples per realization")
    lag1 = float(np.real(np.mean(h[:, 1:] * np.conj(h[:, :-1]))) / variance)
    dens, edges = np.histogram(np.abs(h).ravel(), bins=_HIST_BINS, range=_HIST_RANGE, density=True)
    return ChannelStats(mean, variance, lag1, edges, dens)


def envelope_chi_square(samples, min_expected=5.0):
    """Chi-square goodness-of-fit of i.i.d. envelope samples against 4*l*K0(2*l).

    `samples` must be (approximately) independent draws; bins with expected
    count below `min_expected` are merged into their neighbours.
    Returns (statistic, p_value).
    """
    lam = np.abs(np.asarray(samples)).ravel()
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
        if acc_e >= min_expected:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    obs_m = np.array(obs_m)
    exp_m = np.array(exp_m)
    exp_m *= obs_m.sum() / exp_m.sum()
    stat, p = stats.chisquare(obs_m, exp_m)
    return float(stat), float(p)
