"""Combining-weight schemes, the linear two-branch combiner and min-ED detection."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .link import Constellation

__all__ = [
    "Scheme",
    "CombinerWeights",
    "NoiseVariances",
    "weights_cdd",
    "weights_tvd",
    "weights_opt_genie",
    "noise_variances",
    "combine",
    "detect",
]


class Scheme(Enum):
    CDD = "cdd"
    TVD = "tvd"
    OPT_GENIE = "opt"


@dataclass(frozen=True)
class CombinerWeights:
    """Branch weights (b0 for the direct link, b1 for the relayed link).

    b1 may be an array for the genie scheme, which tracks |h_rd| per symbol.
    """

    b0: float
    b1: float | np.ndarray


@dataclass(frozen=True)
class NoiseVariances:
    sigma_n_sd_sq: float
    sigma_n_rd_sq: float | np.ndarray


def weights_cdd(A: float) -> CombinerWeights:
    """Classical weights, derived for quasi-static fading."""
    if A <= 0:
        raise ValueError("A must be positive")
    return CombinerWeights(0.5, 1.0 / (2.0 * (1.0 + A * A)))


def weights_tvd(alpha_sd: float, alpha: float, P0: float, A: float) -> CombinerWeights:
    """Autocorrelation-aware weights built from the average equivalent-noise powers."""
    b0 = alpha_sd / (1.0 + alpha_sd**2 + (1.0 - alpha_sd**2) * P0)
    b1 = alpha / ((1.0 + alpha**2) * (1.0 + A * A) + (1.0 - alpha**2) * A * A * P0)
    return CombinerWeights(b0, b1)


def noise_variances(alpha_sd: float, alpha: float, P0: float, A: float, h_rd_sample) -> NoiseVariances:
    """Per-branch equivalent-noise variances conditioned on the relay-destination gain."""
    eta = np.abs(np.asarray(h_rd_sample)) ** 2
    sigma_sq = A * A * eta + 1.0
    rho = A * A * P0 * eta / sigma_sq
    sd = 1.0 + alpha_sd**2 + (1.0 - alpha_sd**2) * P0
    rd = sigma_sq * (1.0 + alpha**2 + (1.0 - alpha**2) * rho)
    return NoiseVariances(float(sd), rd[()] if np.ndim(rd) == 0 else rd)


def weights_opt_genie(alpha_sd: float, alpha: float, P0: float, A: float, h_rd_sample) -> CombinerWeights:
    """Optimum (genie) weights using the instantaneous relay-destination gain.

    h_rd_sample is the gain entering the previous relayed observation (index
    k-1), matching the conditional variance of that branch; it may be an array
    to weight a whole sequence of decisions.
    """
    nv = noise_variances(alpha_sd, alpha, P0, A, h_rd_sample)
    b1 = alpha / nv.sigma_n_rd_sq
    return CombinerWeights(alpha_sd / nv.sigma_n_sd_sq, b1)


def combine(y_sd, y_rd, weights: CombinerWeights):
    """Differential two-branch combiner over consecutive observations.

    Inputs are observation sequences (last axis of length >= 2); the output has
    one fewer entry: zeta[k] = b0 conj(y_sd[k-1]) y_sd[k] + b1 conj(y_rd[k-1]) y_rd[k].
    """
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    d_sd = np.conj(y_sd[..., :-1]) * y_sd[..., 1:]
    d_rd = np.conj(y_rd[..., :-1]) * y_rd[..., 1:]
    return weights.b0 * d_sd + weights.b1 * d_rd


def detect(zeta, constellation: Constellation):
    """Minimum-Euclidean-distance detection over the PSK candidates.

    Equivalent to argmax Re{conj(v_m) zeta} for unit-modulus candidates.
    Ties break toward the smallest symbol index.
    """
    zeta = np.asarray(zeta)
    scores = np.real(zeta[..., None] * np.conj(constellation.symbols))
    return np.argmax(scores, axis=-1)
