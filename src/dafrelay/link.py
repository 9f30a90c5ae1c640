"""Differential BPSK and QPSK, the M-PSK minimum distance and the two-phase relay transmit chain."""

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import _crandn

__all__ = [
    "Constellation",
    "PowerAllocation",
    "SIMULATED_ORDERS",
    "diff_encode",
    "psk_d_min_sq",
    "transmit",
]


def _check_order(M: int) -> None:
    try:
        M = operator.index(M)
    except TypeError:
        raise TypeError(f"M must be an integer power of 2 >= 2, got {M!r}") from None
    if M < 2 or M & (M - 1):
        raise ValueError(f"M must be a power of 2 >= 2, got {M}")


@functools.cache
def psk_d_min_sq(M: int) -> float:
    """Squared minimum distance 4 sin^2(pi/M) of unit-energy M-PSK, M a power of 2 >= 2.

    Cached, since every point of a theory grid asks for the same order.
    """
    _check_order(M)
    return float(4.0 * np.sin(np.pi / M) ** 2)


# the symbols of each simulated order, written out so that every bit is exact: -1j has real part -0.0
_SYMBOLS = {2: (1, -1), 4: (1, 1j, -1, -1j)}
SIMULATED_ORDERS = tuple(_SYMBOLS)


@dataclass(frozen=True)
class Constellation:
    """DBPSK or DQPSK symbol set with binary-reflected Gray mapping.

    Symbol index m sits at angle 2*pi*m/M and carries the bit pattern m ^ (m >> 1), so adjacent
    symbols differ in one bit.  For M <= 4 that map is its own inverse, index_of_gray.
    """

    M: int
    symbols: np.ndarray = field(repr=False)
    index_of_gray: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, M: int) -> "Constellation":
        _check_order(M)
        if M not in _SYMBOLS:
            raise ValueError(f"the simulator runs M in {SIMULATED_ORDERS}, got {M}")
        m = np.arange(M, dtype=np.uint8)
        return cls(M, np.array(_SYMBOLS[M], dtype=complex), m ^ (m >> 1))

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.M))


@dataclass(frozen=True)
class PowerAllocation:
    """Source power P0 (linear) and the relay amplification factor A."""

    P0: float
    A: float

    @classmethod
    def equal_from_total_db(cls, p_db: float) -> "PowerAllocation":
        """Equal split P0 = P1 = P/2 of the total power P, with the relay gain A = sqrt(P1/(P0+1)) = sqrt(P0/(P0+1))."""
        try:
            p = 10.0 ** (p_db / 10.0)
        except OverflowError as exc:
            raise ValueError(f"total power {p_db} dB overflows") from exc
        p0 = p / 2.0
        return cls(p0, float(np.sqrt(p0 / (p0 + 1.0))))

    def __post_init__(self):
        if not 0 < self.P0 < np.inf:
            raise ValueError(f"P0 must be positive and finite, got {self.P0}")


def diff_encode(symbols, constellation: Constellation):
    """Differentially encode data indices: s[k] = v[k] * s[k-1], s[0] = 1.

    `symbols` holds constellation indices along the last axis; the output has
    one extra entry (the reference).  Encoding accumulates indices modulo M so
    every s[k] is exactly a constellation point (|s[k]| = 1 exactly): the sum is
    taken in the indices' own integer type, whose wrap-around is a multiple of
    M, and masked with M - 1.
    """
    idx = np.asarray(symbols)
    if np.any(idx < 0) or np.any(idx >= constellation.M):
        raise ValueError("symbol index out of range")
    acc = np.zeros(idx.shape[:-1] + (idx.shape[-1] + 1,), dtype=idx.dtype)
    np.cumsum(idx, axis=-1, dtype=idx.dtype, out=acc[..., 1:])
    acc &= constellation.M - 1
    return constellation.symbols[acc]


def transmit(s, h_sd, h, h_rd, power: PowerAllocation, rng) -> tuple[np.ndarray, np.ndarray]:
    """Run the two-phase chain: source broadcast, then amplified relay forward.

    y_sd = sqrt(P0) h_sd s + w_sd
    y_rd = A h_rd (sqrt(P0) h_sr s + w_sr) + w_rd = A sqrt(P0) h s + v_rd

    `h` is the cascaded gain, h_sr*h_rd for the exact product model.  Given h_rd,
    the relayed noise v_rd = A h_rd w_sr + w_rd is CN(0, 1 + A^2 |h_rd|^2) for
    either cascade model, so it is drawn as one term, sqrt(1 + A^2 |h_rd|^2) w,
    rather than built from w_sr and w_rd.  w_sd and w are i.i.d. CN(0,1), drawn
    in that order; arrays may be 1D or (realizations, length).

    The observations are formed in the gains' own buffers: h_sd and h, complex arrays of s's shape, are
    overwritten, and the returned (y_sd, y_rd) are h_sd and h.  h_rd is only read.  So neither h_sd nor h may
    share memory with s, h_rd or the other, or ValueError is raised: each would be read after it was written.
    """
    s = np.asarray(s)
    if any(np.may_share_memory(a, b) for a, b in ((h_sd, h), (h_sd, h_rd), (h, h_rd), (s, h_sd), (s, h))):
        raise ValueError("transmit writes y_sd into h_sd and y_rd into h: neither may share memory with s, h_rd "
                         "or the other")
    # each product keeps its operand order, as numpy's complex multiply is not bitwise commutative: a real scalar
    # becomes c + 0i on either side, and (c h) s is h's in-place product by c, then by s.  s is released before the
    # first draw, so the gains, one draw and the relayed noise scale (two half-size float arrays) are the most
    # arrays of s's size live at once
    h_sd *= np.sqrt(power.P0)
    h_sd *= s
    h *= power.A * np.sqrt(power.P0)
    h *= s
    del s
    h_sd += _crandn(rng, h_sd.shape)
    h += _crandn(rng, h.shape, np.sqrt((np.square(h_rd.real) + np.square(h_rd.imag)) * (power.A * power.A) + 1.0))
    return h_sd, h
