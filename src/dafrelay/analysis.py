"""Analytic error performance: SNR-like terms, PEP quadrature and floors.

The pairwise error probability is evaluated for the optimum-weight receiver:
a finite quadrature over theta of the closed-form inner integral I1(theta),
whose eta-integral (eta = |h_rd|^2, exponential density) collapses to an
expression in the exponential integral E1.  The closed form embodies the
high-SNR form of the relayed-branch SNR term (the 2/rho correction drops out
of the inner integral); the exposed `gamma_rd` keeps the full expression.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .link import PowerAllocation, _check_order, psk_d_min_sq
from .specials import exp_e1_scaled

__all__ = [
    "PepParams",
    "PepPoint",
    "QuadratureError",
    "gamma_sd",
    "gamma_rd",
    "gamma_rd_high_snr",
    "i1_closed_form",
    "pep",
    "error_floor",
    "ser_ber_from_pep",
    "pep_point",
    "pep_points",
]


class QuadratureError(RuntimeError):
    """Raised when the theta-quadrature fails its refinement check."""


@dataclass(frozen=True)
class PepParams:
    """Inputs of the error analysis for one power level and fading state."""

    P0: float
    A: float
    alpha_sd: float
    alpha: float
    d_min_sq: float

    def __post_init__(self):
        if self.P0 <= 0 or self.A <= 0 or self.d_min_sq <= 0:
            raise ValueError("P0, A and d_min_sq must be positive")
        if not (0.0 < self.alpha_sd <= 1.0 and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"autocorrelations must be in (0, 1]: alpha_sd={self.alpha_sd:g}, alpha={self.alpha:g}")

    @classmethod
    def for_link(cls, alpha_sd: float, alpha: float, p_db: float, M: int) -> "PepParams":
        """Equal power allocation at total power p_db (dB)."""
        pa = PowerAllocation.equal_from_total_db(p_db)
        d_min_sq = psk_d_min_sq(M)
        if pa.P0 * d_min_sq > _max_p0_d2():
            raise ValueError(f"total power {p_db} dB is beyond the analysis: P0 d_min^2 / sin^2(theta) "
                             "overflows at the smallest quadrature node")
        return cls(pa.P0, pa.A, alpha_sd, alpha, d_min_sq)


@dataclass
class PepPoint:
    P_dB: float
    pep: float
    ser: float
    ber: float
    floor: float


def gamma_sd(params: PepParams) -> float:
    """Effective SNR term of the direct branch: gamma_rd at autocorrelation alpha_sd and SNR P0."""
    return gamma_rd(params.alpha_sd, params.P0)


def gamma_rd(alpha: float, rho: float) -> float:
    """Effective SNR term of the relayed branch at conditional SNR rho."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    a2 = alpha**2
    return a2 * rho / (2.0 * rho * (1.0 - a2) + 4.0 + 2.0 / rho)


def gamma_rd_high_snr(alpha: float, rho):
    """Relayed-branch SNR term without the 2/rho correction.

    This is the form whose average over the exponential gain density yields
    the E1-based closed form of the inner integral; the correction only
    matters at very low conditional SNR.
    """
    a2 = alpha**2
    rho = np.asarray(rho, dtype=float)
    return (a2 * rho / (2.0 * rho * (1.0 - a2) + 4.0))[()]


def i1_closed_form(theta, params: PepParams):
    """Inner integral over the relay-destination gain, in closed form.

    I1(theta) = eps1 * (1 + (beta1 - beta2) * exp(beta2) * E1(beta2)), where the
    coefficients collect the quadratic denominator terms of the averaged
    relayed-branch SNR.  Vectorized over theta.
    """
    theta = np.asarray(theta, dtype=float)
    return _i1(np.sin(theta) ** 2, params.alpha**2, params.A**2, params.P0, params.d_min_sq)[()]


def _i1(s2, a2, aa, p0, d2):
    """I1 at sin^2(theta) = s2, alpha^2 = a2 and A^2 = aa.  Broadcasts, so that a column of power
    points meets a row of nodes; each element gets the bits of the one-point evaluation."""
    denom = a2 * aa * p0 * d2 / s2 + 4.0 * (1.0 - a2) * aa * p0 + 8.0 * aa
    eps1 = (4.0 * (1.0 - a2) * aa * p0 + 8.0 * aa) / denom
    beta1 = 4.0 / (2.0 * (1.0 - a2) * aa * p0 + 4.0 * aa)
    beta2 = 8.0 / denom
    return eps1 * (1.0 + (beta1 - beta2) * exp_e1_scaled(beta2))


_QUAD_ORDER = 64
_QUAD_CHECK_ORDER = 128
_QUAD_RTOL = 1e-9
_PEP_BLOCK = 256  # power points per quadrature pass: each (points x nodes) temporary stays below 0.4 MB


@functools.cache
def _theta_rule():
    """Nodes on (0, pi/2), weights and sin^2(theta) of both orders, concatenated.

    Gauss-Legendre in u on (0, 1) with theta = (pi/2)*u^3 and the Jacobian (3*pi/2)*u^2 in the weights,
    which crowds the nodes into the steep layer the integrand has near theta = 0 at low power.  The first
    _QUAD_ORDER entries are the order-64 rule, the rest the order-128 rule.  Built on first use; the
    arrays are read-only because every call shares them.
    """
    nodes, weights = zip(*(np.polynomial.legendre.leggauss(n) for n in (_QUAD_ORDER, _QUAD_CHECK_ORDER)))
    u = (np.concatenate(nodes) + 1.0) / 2.0
    theta = (np.pi / 2.0) * u**3
    rule = theta, np.concatenate(weights) * (3.0 * np.pi / 4.0) * u**2, np.sin(theta) ** 2
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.cache
def _max_p0_d2() -> float:
    """Largest P0 * d_min_sq for which the integrand's P0 d_min^2 / sin^2(theta) terms, and their sums,
    stay finite at every node, with a factor 2 to spare for rounding."""
    return float(0.5 * np.finfo(float).max * _theta_rule()[2].min())


def pep(params: PepParams) -> float:
    """Unconditioned pairwise error probability of the nearest-neighbour event.

    Gauss-Legendre quadrature over theta in (0, pi/2), placed in u with theta = (pi/2)*u^3,
    with an order-doubling refinement check at relative tolerance 1e-9.  The integrand
    is evaluated once over the nodes of both orders.
    """
    return _pep_rows([params])[0]


def _pep_rows(params: list, p_dbs=None) -> list:
    """`pep` of each row of `params`, in one pass over (rows x nodes of both orders).

    Each row's P0, A^2, alpha^2, d_min^2 and gamma_sd * d_min^2 are taken as Python scalars, as
    the one-row evaluation takes them, and stacked as columns, so every row keeps the bits of
    `pep` alone.  Rows are checked in order; the first that fails its refinement check raises
    QuadratureError, which names its power from `p_dbs` when given.
    """
    theta, wt, s2 = _theta_rule()
    p0, aa, a2, d2, g = (np.array(col)[:, None] for col in zip(
        *((p.P0, p.A**2, p.alpha**2, p.d_min_sq, gamma_sd(p) * p.d_min_sq) for p in params)))
    terms = wt * (_i1(s2, a2, aa, p0, d2) / (1.0 + g / (2.0 * s2)))
    v = np.sum(terms[:, :_QUAD_ORDER], axis=-1) / np.pi
    v_ref = np.sum(terms[:, _QUAD_ORDER:], axis=-1) / np.pi
    failed = np.abs(v - v_ref) > _QUAD_RTOL * np.maximum(np.abs(v_ref), 1e-300)
    if failed.any():
        i = int(np.argmax(failed))
        where = "" if p_dbs is None else f" at {p_dbs[i]:g} dB"
        raise QuadratureError(
            f"theta-quadrature did not converge{where}: {float(v[i])!r} vs {float(v_ref[i])!r} at refinement"
        )
    return v_ref.tolist()


_FLOOR_BRANCH_TOL = 1e-9


def error_floor(params: PepParams) -> float:
    """Limit of the PEP as the total power grows without bound.

    Zero when both links are quasi-static.  The equal-autocorrelation branch
    handles the removable singularity of the general expression.
    """
    asd2 = params.alpha_sd**2
    a2 = params.alpha**2
    d2 = params.d_min_sq
    if params.alpha_sd >= 1.0 and params.alpha >= 1.0:
        return 0.0
    if abs(params.alpha_sd - params.alpha) < _FLOOR_BRANCH_TOL:
        # removable singularity of the general branch: with u = alpha^2 and
        # g(x) = sqrt(x d^2 / (x d^2 + 4(1-x))), the limit is
        # 1/2 - [g(u) + u(1-u) g'(u)] / 2
        u = a2
        den = u * d2 + 4.0 * (1.0 - u)
        g = np.sqrt(u * d2 / den)
        gp = 4.0 * d2 / den**2 / (2.0 * g)
        return float(0.5 - 0.5 * (g + u * (1.0 - u) * gp))
    t_sd = np.sqrt(asd2 * d2 / (asd2 * d2 + 4.0 * (1.0 - asd2)))
    t_rd = np.sqrt(a2 * d2 / (a2 * d2 + 4.0 * (1.0 - a2)))
    diff = 2.0 * (asd2 - a2)
    return float(
        0.5 - asd2 * (1.0 - a2) / diff * t_sd + a2 * (1.0 - asd2) / diff * t_rd
    )


def ser_ber_from_pep(pep_value: float, M: int) -> tuple[float, float]:
    """Nearest-neighbour mapping from PEP to (SER, BER); exact for DBPSK."""
    _check_order(M)
    if M == 2:
        return pep_value, pep_value
    ser = min(1.0, 2.0 * pep_value)
    ber = min(1.0, 2.0 * pep_value / np.log2(M))
    return ser, ber


def pep_points(alpha_sd: float, alpha: float, p_dbs, M: int) -> list[PepPoint]:
    """Full analytic records (PEP, SER, BER, floor) of a sequence of total powers p_dbs (dB).

    Every point's parameters are built first, up to the first power rejected by a ValueError; that
    error is raised after the quadrature of the points before it, one pass per block of _PEP_BLOCK
    points with the bits of `pep_point`, so the first failing point in grid order decides the error.
    """
    params, rejected = [], None
    try:
        for p_db in p_dbs:
            params.append(PepParams.for_link(alpha_sd, alpha, p_db, M))
    except ValueError as exc:
        rejected = exc
    peps = [v for i in range(0, len(params), _PEP_BLOCK)
            for v in _pep_rows(params[i:i + _PEP_BLOCK], p_dbs[i:i + _PEP_BLOCK])]
    if rejected is not None:
        raise rejected
    floor = error_floor(params[0]) if params else None  # the same at every power
    return [PepPoint(p_db, p, *ser_ber_from_pep(p, M), floor) for p_db, p in zip(p_dbs, peps)]


def pep_point(alpha_sd: float, alpha: float, p_db: float, M: int) -> PepPoint:
    """Full analytic record (PEP, SER, BER, floor) at one power level."""
    return pep_points(alpha_sd, alpha, (p_db,), M)[0]
