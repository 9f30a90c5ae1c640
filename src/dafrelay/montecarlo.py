"""End-to-end Monte Carlo BER estimation across power sweeps and schemes.

Schemes evaluated at the same power level share channel and noise draws
(common random numbers): the generation stream is keyed by (seed, power, M)
only, so CDD/TVD/genie comparisons are paired and their orderings are not
clouded by independent sampling noise.
"""

from dataclasses import dataclass

import numpy as np

from . import receiver
from .channel import (
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    Scenario,
    autocorr,
    gen_cascaded,
    gen_fading,
)
from .link import Constellation, PowerAllocation, diff_encode, transmit
from .receiver import Scheme

__all__ = ["RunConfig", "BerEstimate", "run_point", "run_point_schemes", "run_sweep", "diversity_slope"]

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)])


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    M: int = 2
    scheme: Scheme = Scheme.TVD
    p_db_grid: tuple = (0.0,)
    min_bit_errors: int = 200
    max_symbols: int = 10**8
    frame_len: int = 10**4
    master_seed: int = 0
    generator: FadingGenerator = FadingGenerator.SUM_OF_SINUSOIDS
    cascaded_model: CascadedModelKind = CascadedModelKind.EXACT_PRODUCT
    lag_n: int = 1
    with_noise: bool = True
    frames_per_chunk: int = 32

    def __post_init__(self):
        if not self.p_db_grid:
            raise ValueError("p_db_grid must be non-empty")
        if self.min_bit_errors < 50:
            raise ValueError("min_bit_errors must be >= 50")
        for name in ("frame_len", "max_symbols", "frames_per_chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class BerEstimate:
    P_dB: float
    scheme: Scheme
    bit_errors: int
    bits: int
    ber: float
    ci95_halfwidth: float
    truncated: bool = False


def _chunk_rng(config: RunConfig, p_db: float, chunk_index: int):
    point_key = (int(round(p_db * 1000)) & 0xFFFFFFFF) * 16 + config.M
    ss = np.random.SeedSequence(
        [config.master_seed & 0xFFFFFFFFFFFFFFFF, point_key, chunk_index]
    )
    return np.random.default_rng(ss)


def _generate_chunk(config: RunConfig, pa: PowerAllocation, const: Constellation, rng, n_frames: int):
    """One chunk of independent frames: data and destination observations.

    Draw order is fixed for reproducibility: data, h_sd, the cascade (h_rd
    first), then noise.  Returns (data, y_sd, y_rd, h_rd) with observation
    shape (n_frames, L+1).
    """
    scn = config.scenario
    L = config.frame_len
    spec_sd = FadingSpec(scn.f_sd, config.lag_n, config.generator)
    spec_sr = FadingSpec(scn.f_sr, config.lag_n, config.generator)
    spec_rd = FadingSpec(scn.f_rd, config.lag_n, config.generator)

    data = rng.integers(0, const.M, (n_frames, L))
    tx_idx = const.index_of_gray[data]  # Gray bit patterns -> symbol indices
    s = diff_encode(tx_idx, const)

    h_sd = gen_fading(spec_sd, L + 1, rng, n_frames)
    h, h_rd = gen_cascaded(spec_sr, spec_rd, config.cascaded_model, L + 1, rng, n_frames)
    obs = transmit(s, h_sd, h, h_rd, pa, rng, config.with_noise)
    return data, obs.y_sd, obs.y_rd, h_rd


def _scheme_weights(scheme: Scheme, alpha_sd: float, alpha: float, pa: PowerAllocation, h_rd):
    if scheme is Scheme.CDD:
        return receiver.weights_cdd(pa.A)
    if scheme is Scheme.TVD:
        return receiver.weights_tvd(alpha_sd, alpha, pa.P0, pa.A)
    # genie weights track the gain entering the previous relayed observation
    return receiver.weights_opt_genie(alpha_sd, alpha, pa.P0, pa.A, h_rd[:, :-1])


def run_point_schemes(config: RunConfig, p_db: float, schemes) -> dict:
    """Simulate one power level for several schemes over shared channel draws.

    Runs until every scheme has min_bit_errors or max_symbols is reached.
    Returns {scheme: BerEstimate}.
    """
    schemes = list(schemes)
    pa = PowerAllocation.equal_from_total_db(p_db)
    const = Constellation.of(config.M)
    scn = config.scenario
    alpha_sd = autocorr(FadingSpec(scn.f_sd, config.lag_n))
    alpha = autocorr(FadingSpec(scn.f_sr, config.lag_n)) * autocorr(
        FadingSpec(scn.f_rd, config.lag_n)
    )
    errors = {s: 0 for s in schemes}
    bits = 0
    symbols = 0
    chunk_index = 0
    while min(errors.values()) < config.min_bit_errors and symbols < config.max_symbols:
        remaining = config.max_symbols - symbols
        n_frames = min(config.frames_per_chunk, max(1, remaining // config.frame_len))
        rng = _chunk_rng(config, p_db, chunk_index)
        data, y_sd, y_rd, h_rd = _generate_chunk(config, pa, const, rng, n_frames)
        for scheme in schemes:
            weights = _scheme_weights(scheme, alpha_sd, alpha, pa, h_rd)
            zeta = receiver.combine(y_sd, y_rd, weights)
            detected = receiver.detect(zeta, const)
            rx_data = const.gray_of_index[detected]
            errors[scheme] += int(_POPCOUNT[data ^ rx_data].sum())
        bits += n_frames * config.frame_len * const.bits_per_symbol
        symbols += n_frames * config.frame_len
        chunk_index += 1
    out = {}
    for scheme in schemes:
        ber = errors[scheme] / bits if bits else 0.0
        ci = 1.96 * np.sqrt(ber * (1.0 - ber) / bits) if bits else 0.0
        out[scheme] = BerEstimate(
            p_db,
            scheme,
            errors[scheme],
            bits,
            ber,
            float(ci),
            truncated=errors[scheme] < config.min_bit_errors,
        )
    return out


def run_point(config: RunConfig, p_db: float) -> BerEstimate:
    """Simulate one power level until min_bit_errors or max_symbols is reached."""
    return run_point_schemes(config, p_db, [config.scheme])[config.scheme]


def run_sweep(config: RunConfig) -> list[BerEstimate]:
    """Map run_point over the power grid; deterministic given master_seed."""
    return [run_point(config, p) for p in config.p_db_grid]


def diversity_slope(estimates: list[BerEstimate], p_low_db: float, p_high_db: float) -> float:
    """Per-decade log10-BER decay between two grid points (positive = falling)."""
    by_p = {round(e.P_dB, 6): e for e in estimates}
    try:
        lo = by_p[round(p_low_db, 6)]
        hi = by_p[round(p_high_db, 6)]
    except KeyError as exc:
        raise ValueError("both power levels must be on the estimate grid") from exc
    if lo.ber <= 0 or hi.ber <= 0:
        raise ValueError("diversity slope undefined for zero-error cells")
    return float((np.log10(lo.ber) - np.log10(hi.ber)) / ((p_high_db - p_low_db) / 10.0))
