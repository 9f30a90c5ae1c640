"""End-to-end Monte Carlo BER estimation across power sweeps and schemes.

Schemes evaluated at the same power level share channel and noise draws
(common random numbers): the generation stream is keyed by (seed, power, M)
only, so CDD/TVD/genie comparisons are paired and their orderings are not
clouded by independent sampling noise.

Each chunk of frames has its own stream, keyed by (seed, power, M, chunk index),
so the chunks of a whole sweep, across all its points, share one schedule: the
(point, chunk) pairs run in point-major order, in rounds of W, one per usable
CPU (`taskset` limits W), through `_run_rounds`: the calling thread computes
the first chunk of a round and W - 1 helper threads the rest, and a round skips
the chunks of points that have stopped.  Each point adds its counts in chunk
order, checks the stopping rule before each add and discards the chunks computed
past its stop: results do not depend on W, and a point that stops on its error
count wastes at most W - 1 chunks.  The numpy draws, the ufuncs and BLAS (the
sum-of-sinusoids and AR(1) matmuls) release the GIL, so threads give a real
speed-up.  The thread pool is made once per sweep, since threads do not survive
a `fork`; it starts no thread for a one-chunk sweep.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import receiver
from .channel import (
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    Scenario,
    gen_cascaded,
    gen_fading,
    seeded_rng,
)
from .link import SIMULATED_ORDERS, Constellation, PowerAllocation, diff_encode, transmit
from .receiver import Scheme

__all__ = ["RunConfig", "BerEstimate", "seed_word", "run_point_schemes", "run_sweep"]

# chunks computed at once by run_sweep: the CPUs this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    M: int = 2
    p_db_grid: tuple = (0.0,)
    min_bit_errors: int = 200
    max_symbols: int = 10**8
    frame_len: int = 10**4
    master_seed: int = 0
    generator: FadingGenerator = FadingGenerator.SUM_OF_SINUSOIDS
    cascaded_model: CascadedModelKind = CascadedModelKind.EXACT_PRODUCT
    frames_per_chunk: int = 32

    def __post_init__(self):
        if self.M not in SIMULATED_ORDERS:
            raise ValueError(f"M must be one of {SIMULATED_ORDERS}, got {self.M!r}")
        if not self.p_db_grid:
            raise ValueError("p_db_grid must be non-empty")
        if self.min_bit_errors < 50:
            raise ValueError("min_bit_errors must be >= 50")
        for name in ("frame_len", "max_symbols", "frames_per_chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_symbols < self.frame_len:
            raise ValueError("max_symbols must be >= frame_len (the budget is counted in whole frames)")


@dataclass
class BerEstimate:
    P_dB: float
    scheme: Scheme
    bit_errors: int
    bits: int
    ber: float
    ci95_halfwidth: float
    truncated: bool = False


def seed_word(seed: int) -> int:
    """A master seed as the one word its streams are keyed by: 64-bit two's complement, so -1 is 2^64 - 1."""
    return seed & 0xFFFFFFFFFFFFFFFF


def _power_word(p_db: float) -> int:
    """A power as the word its chunk streams are keyed by: rounded to mdB, as a 32-bit two's-complement word.

    2^31 mdB lies far beyond the powers that PowerAllocation accepts (about -3240..3080 dB).
    """
    return int(round(p_db * 1000)) & 0xFFFFFFFF


def _chunk_rng(config: RunConfig, p_db: float, chunk_index: int):
    """The stream of one chunk: the seed (a 64-bit `seed_word`), `_power_word`, M and the chunk index."""
    return seeded_rng([seed_word(config.master_seed), _power_word(p_db), config.M, chunk_index])


class _Point:
    """One power point: its chunks' bit errors, and their counts added in chunk order."""

    def __init__(self, config: RunConfig, p_db: float, schemes: list):
        self.config, self.p_db, self.schemes = config, p_db, schemes
        self.pa = PowerAllocation.equal_from_total_db(p_db)
        self.const = Constellation.of(config.M)
        scn = config.scenario
        self.specs = tuple(FadingSpec(f, generator=config.generator) for f in (scn.f_sd, scn.f_sr, scn.f_rd))
        self.alphas = scn.autocorrs()
        self.errors = dict.fromkeys(schemes, 0)
        self.frames = 0

    def chunk_frames(self, i):
        max_frames = self.config.max_symbols // self.config.frame_len
        return min(self.config.frames_per_chunk, max_frames - i * self.config.frames_per_chunk)

    def chunk(self, i):
        """Chunk i on its own stream: data of shape (n, L), y_sd, y_rd and h_rd of (n, L + 1), n = chunk_frames(i).

        Draw order is fixed for reproducibility: data, h_sd, the cascade (h_rd first), then noise.  At its peak
        the chunk holds s, h_sd, h, h_rd and the three arrays that `transmit`, or an AR(1) link's scan (its
        draws, its gemm rows and their product), has live: 7 arrays of the observations' shape, and the data.
        """
        rng, const = _chunk_rng(self.config, self.p_db, i), self.const
        n_frames, L = self.chunk_frames(i), self.config.frame_len
        data = rng.integers(0, const.M, (n_frames, L), dtype=np.uint8)  # the sent Gray patterns, one byte each
        s = diff_encode(const.index_of_gray[data], const)  # Gray bit patterns -> symbol indices
        h_sd = gen_fading(self.specs[0], L + 1, rng, n_frames)
        h, h_rd = gen_cascaded(*self.specs[1:], self.config.cascaded_model, L + 1, rng, n_frames)
        y_sd, y_rd = transmit(s, h_sd, h, h_rd, self.pa, rng)
        return data, y_sd, y_rd, h_rd

    def chunk_errors(self, i):
        """Bit errors of each frame of chunk i of the point: one (n,) array per scheme, n = chunk_frames(i)."""
        data, y_sd, y_rd, h_rd = self.chunk(i)
        parts = receiver.diff_products(y_sd, y_rd, self.const.M)
        del y_sd, y_rd
        weights = [receiver.scheme_weights(s, *self.alphas, self.pa.P0, self.pa.A, h_rd) for s in self.schemes]
        return receiver.frame_errors(weights, parts, data, self.const)

    def stopped(self):
        return min(self.errors.values()) >= self.config.min_bit_errors

    def add(self, i, counts):
        """Add chunk i's per-frame counts unless the point has stopped: a chunk computed past the stop is discarded."""
        if self.stopped():
            return
        for scheme, c in zip(self.schemes, counts):
            self.errors[scheme] += int(c.sum())
        self.frames += self.chunk_frames(i)

    def estimates(self) -> dict:
        bits = self.frames * self.config.frame_len * self.const.bits_per_symbol
        out = {}
        for scheme in self.schemes:
            errors = self.errors[scheme]
            ber = errors / bits
            ci = 1.96 * np.sqrt(ber * (1.0 - ber) / bits)
            out[scheme] = BerEstimate(self.p_db, scheme, errors, bits, ber, float(ci),
                                      truncated=errors < self.config.min_bit_errors)
        return out


def _run_rounds(fn, calls):
    """Yield (args, fn(*args)) for each args of `calls` in order, in rounds of W = _WORKERS (read per call): the
    calling thread runs a round's first call, W - 1 helper threads the rest.  A round is drawn from `calls` once
    the last one's results have all been taken, so `calls` may depend on what was done with them."""
    calls, workers = iter(calls), _WORKERS
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        while round_ := list(islice(calls, workers)):
            futures = [pool.submit(fn, *args) for args in round_[1:]]
            yield round_[0], fn(*round_[0])
            yield from zip(round_[1:], (f.result() for f in futures))


def run_sweep(config: RunConfig, schemes) -> list[BerEstimate]:
    """Every point of config.p_db_grid over the sweep's one chunk schedule; deterministic given master_seed.

    Each point runs until every scheme has min_bit_errors or its budget of max_symbols // frame_len
    whole frames is spent.  An empty or repeated scheme list raises ValueError: a point of no scheme
    has no stopping rule, and a repeated scheme's counts would be added once per repeat.  So do two
    grid points of one `_power_word`, which would draw the same chunks.  Returns a flat list in
    scheme-major order: every point of the first scheme, then every point of the next.
    """
    schemes = list(schemes)
    if not schemes:
        raise ValueError("no scheme to simulate: the scheme list is empty")
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"repeated scheme in {[scheme.value for scheme in schemes]}")
    points = [_Point(config, p_db, schemes) for p_db in config.p_db_grid]
    first = {}  # the first grid point of each power word
    for p_db in config.p_db_grid:
        word = _power_word(p_db)
        if word in first:
            raise ValueError(f"grid points {first[word]} and {p_db} dB round to the same mdB, so they would share "
                             "one random stream: simulated powers must round to distinct multiples of 0.001 dB")
        first[word] = p_db
    n_chunks = -(-(config.max_symbols // config.frame_len) // config.frames_per_chunk)

    # drawn round by round, after the last round's adds, so a stopped point's chunks are not scheduled
    pending = ((point, i) for point in points for i in range(n_chunks) if not point.stopped())
    for (point, i), counts in _run_rounds(_Point.chunk_errors, pending):
        point.add(i, counts)
    estimates = [point.estimates() for point in points]
    return [by_scheme[scheme] for scheme in schemes for by_scheme in estimates]


def run_point_schemes(config: RunConfig, p_db: float, schemes) -> dict:
    """{scheme: BerEstimate} of one power level: run_sweep over the one-point grid (p_db,)."""
    return {e.scheme: e for e in run_sweep(replace(config, p_db_grid=(p_db,)), schemes)}
