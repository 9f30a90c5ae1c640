"""Combining-weight schemes and the DBPSK/DQPSK decisions on the two-branch combiner.

The combiner is zeta = b0 d_sd + b1 d_rd over the branches' differential products; `frame_errors`
decides each Gray bit on a real combination of their parts and counts the errors of each frame.
"""

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
    "frame_errors",
]


class Scheme(Enum):
    CDD = "cdd"
    TVD = "tvd"
    OPT_GENIE = "opt"


@dataclass(frozen=True)
class CombinerWeights:
    """Branch weights of zeta = b0 d_sd + b1 d_rd: b0 for the direct link, b1 for the relayed link.

    b1 may be an array for the genie scheme, which tracks |h_rd| per symbol.
    """

    b0: float
    b1: float | np.ndarray


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


def diff_products(y_sd, y_rd, M):
    """(Re d_sd, Re d_rd), and at M = 4 also (Im d_sd, Im d_rd): contiguous parts of d = conj(y[k-1]) y[k], last axis.

    Each branch's complex d is freed before the next one's is formed."""
    re, im = [], []
    for y in (y_sd, y_rd):
        d = np.conj(y[..., :-1]) * y[..., 1:]
        re.append(np.ascontiguousarray(d.real))
        im += [np.ascontiguousarray(d.imag)] if M == 4 else []
        del d
    return (*re, *im)


def frame_errors(weights, parts, data, constellation: Constellation) -> list[np.ndarray]:
    """Bit errors per frame (last axis) against the sent Gray patterns `data`, one array for each CombinerWeights.

    `parts` are the `diff_products` at the constellation's order.  The decision on zeta = b0 d_sd + b1 d_rd is
    the symbol index m that maximizes Re{conj(v_m) zeta}, ties to the lowest index; it carries the pattern
    m ^ (m >> 1).  On a = Re zeta and b = Im zeta the scores of (1, j, -1, -j) are (a, b, -a, -b), so each Gray
    bit is the sign of one real combination Re(w zeta): M = 2 decides a < 0 (w = 1); at M = 4 bit 1 is a < -b
    (w = 1 - i) and bit 0 is a < b, or a == b < 0 (w = 1 + i).  a = b0 Re d_sd + b1 Re d_rd and b = b0 Im d_sd
    + b1 Im d_rd keep the bits of Re zeta and Im zeta up to the sign of a zero, which no comparison sees.
    """
    re_sd, re_rd, *im = parts
    if constellation.M == 2:
        sent = [data == 1]

        def decided(w):
            return [w.b0 * re_sd + w.b1 * re_rd < 0]
    else:
        im_sd, im_rd = im
        sent = [data >= 2, (data & 1).astype(bool)]

        def decided(w):
            a, b = w.b0 * re_sd + w.b1 * re_rd, w.b0 * im_sd + w.b1 * im_rd
            return [a < -b, (a < b) | ((a == b) & (a < 0))]
    # count_nonzero(axis=-1) runs as sum(dtype=intp); a uint32 sum of the bytes gives the same counts faster, as
    # no frame holds 2^32 bits
    return [sum(np.add.reduce((bit != s).view(np.uint8), axis=-1, dtype=np.uint32) for bit, s in zip(decided(w), sent))
            for w in weights]
