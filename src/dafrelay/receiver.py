"""Combining-weight schemes, the linear two-branch combiner and the DBPSK/DQPSK bit decisions."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .link import Constellation

__all__ = [
    "Scheme",
    "CombinerWeights",
    "weights_cdd",
    "weights_tvd",
    "weights_opt_genie",
    "scheme_weights",
    "diff_products",
    "frame_bit_errors",
    "bit_errors",
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

    def apply(self, d_sd, d_rd):
        """zeta = b0 d_sd + b1 d_rd over the differential products of the two branches."""
        return self.b0 * d_sd + self.b1 * d_rd


def weights_cdd(A: float) -> CombinerWeights:
    """Classical weights, derived for quasi-static fading."""
    if A <= 0:
        raise ValueError("A must be positive")
    return CombinerWeights(0.5, 1.0 / (2.0 * (1.0 + A * A)))


def _mrc_weights(alpha_sd, alpha, P0, A, eta) -> CombinerWeights:
    """Each branch's autocorrelation over its equivalent-noise variance at relay-destination gain eta.

    The relayed variance is linear in eta, so eta = 1 (E|h_rd|^2) gives the average-noise weights.
    """
    b0 = alpha_sd / (1.0 + alpha_sd**2 + (1.0 - alpha_sd**2) * P0)
    b1 = alpha / ((1.0 + alpha**2) * (1.0 + A * A * eta) + (1.0 - alpha**2) * A * A * P0 * eta)
    return CombinerWeights(b0, b1)


def weights_tvd(alpha_sd: float, alpha: float, P0: float, A: float) -> CombinerWeights:
    """Autocorrelation-aware weights built from the average equivalent-noise powers."""
    return _mrc_weights(alpha_sd, alpha, P0, A, 1.0)


def weights_opt_genie(alpha_sd: float, alpha: float, P0: float, A: float, h_rd_sample) -> CombinerWeights:
    """Optimum (genie) weights using the instantaneous relay-destination gain.

    h_rd_sample is the gain entering the previous relayed observation (index
    k-1), matching the conditional variance of that branch; it may be an array
    to weight a whole sequence of decisions.
    """
    return _mrc_weights(alpha_sd, alpha, P0, A, (np.abs(np.asarray(h_rd_sample)) ** 2)[()])


def scheme_weights(scheme: Scheme, alpha_sd: float, alpha: float, P0: float, A: float, h_rd) -> CombinerWeights:
    """The weights of `scheme` for the decisions of frames whose relay-destination gains are the rows of h_rd.

    The decision on symbols (k, k+1) of a frame of L+1 gains takes the genie weight at h_rd[:, k].
    """
    if scheme is Scheme.CDD:
        return weights_cdd(A)
    if scheme is Scheme.TVD:
        return weights_tvd(alpha_sd, alpha, P0, A)
    return weights_opt_genie(alpha_sd, alpha, P0, A, h_rd[:, :-1])


def diff_products(y_sd, y_rd):
    """Differential products conj(y[k-1]) y[k] of both branches along the last axis."""
    return tuple(np.conj(y[..., :-1]) * y[..., 1:] for y in (np.asarray(y_sd), np.asarray(y_rd)))


def frame_bit_errors(zeta, data, constellation: Constellation):
    """Bit errors per frame (last axis) of the decisions on zeta against the sent Gray patterns `data`.

    The decision is the symbol index m that maximizes Re{conj(v_m) zeta}, ties to the lowest index,
    and it carries the pattern m ^ (m >> 1).  On a = Re zeta and b = Im zeta the scores of
    (1, j, -1, -j) are (a, b, -a, -b), so the decisions are exact comparisons: M = 2 decides a < 0,
    M = 4 Gray bit 1 is a < -b and bit 0 is a < b, or a == b < 0.
    """
    zeta = np.asarray(zeta)
    # contiguous copies: comparisons on the strided .real/.imag views run several times slower
    a = np.ascontiguousarray(zeta.real)
    if constellation.M == 2:
        return np.count_nonzero((a < 0) != (data == 1), axis=-1)
    b = np.ascontiguousarray(zeta.imag)
    bit1 = (a < -b) != (data >= 2)
    bit0 = ((a < b) | ((a == b) & (a < 0))) != (data & 1).astype(bool)
    return np.count_nonzero(bit1, axis=-1) + np.count_nonzero(bit0, axis=-1)


def bit_errors(weights, d_sd, d_rd, data, constellation: Constellation) -> list[int]:
    """Total bit errors of the decisions on zeta = w.apply(d_sd, d_rd) for each CombinerWeights w of `weights`.

    The counts are those of `frame_bit_errors`, summed over the frames.  At M = 2 the decision reads only
    a = Re zeta, so each w combines the contiguous real parts, b0 Re d_sd + b1 Re d_rd, against data == 1
    formed once: Re((b + 0j) d) = b Re d, so a keeps its bits up to the sign of a zero, which a < 0 does not see.
    """
    if constellation.M != 2:
        return [int(frame_bit_errors(w.apply(d_sd, d_rd), data, constellation).sum()) for w in weights]
    re_sd, re_rd = np.ascontiguousarray(d_sd.real), np.ascontiguousarray(d_rd.real)
    ones = data == 1
    return [int(np.count_nonzero((w.apply(re_sd, re_rd) < 0) != ones)) for w in weights]
