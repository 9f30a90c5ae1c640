"""Real-valued special functions used by the channel statistics and error analysis.

All kernels operate in double precision and accept scalars or numpy arrays.
They are thin, domain-checked wrappers around scipy's cephes/AMOS routines,
which comfortably meet the accuracy targets (J0 abs err <= 1e-12 on |x| <= 100,
K0 and E1 rel err <= 1e-10 on their working ranges, Q abs err <= 1e-12).
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "bessel_j0",
    "bessel_k0",
    "exp_integral_e1",
    "gaussian_q",
    "exp_e1_scaled",
]

_SQRT2 = np.sqrt(2.0)


def _check_finite(x, name):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: input must be finite")


def bessel_j0(x):
    """Bessel function of the first kind, order zero."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "bessel_j0")
    return _sp.j0(x)[()]


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero. Requires x > 0."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "bessel_k0")
    if np.any(x <= 0.0):
        raise ValueError("bessel_k0: x must be > 0 (K0 diverges at 0)")
    return _sp.k0(x)[()]


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt. Requires x > 0."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "exp_integral_e1")
    if np.any(x <= 0.0):
        raise ValueError("exp_integral_e1: x must be > 0")
    return _sp.exp1(x)[()]


def gaussian_q(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "gaussian_q")
    return (0.5 * _sp.erfc(x / _SQRT2))[()]


# e^x E1(x) ~ (1/x) sum_k (-1)^k k!/x^k: 20 terms, whose first omitted one, 20!/50^20, is below 3e-16
_E1_ASYMPTOTIC = np.array([(-1) ** k * math.factorial(k) for k in range(20)], dtype=float)


def exp_e1_scaled(x):
    """Fused exp(x)*E1(x), safe against overflow of exp(x) for large x.

    scipy's E1 up to x = 50, on the whole array when no element exceeds 50 (every theory grid from 0 dB up);
    above, the asymptotic series in 1/x by Horner's rule.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "exp_e1_scaled")
    if np.any(x <= 0.0):
        raise ValueError("exp_e1_scaled: x must be > 0")
    small = x <= 50.0
    if small.all():
        return (np.exp(x) * _sp.exp1(x))[()]
    out = np.empty_like(x)
    out[small] = np.exp(x[small]) * _sp.exp1(x[small])
    t = 1.0 / x[~small]
    out[~small] = t * np.polynomial.polynomial.polyval(t, _E1_ASYMPTOTIC)
    return out[()]
