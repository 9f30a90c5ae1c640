"""Monte Carlo BER machinery: stopping rules, determinism, paired-scheme runs."""

import ctypes
import subprocess
import sys
import threading
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import argmax_errors
from dafrelay.analysis import pep_point
from dafrelay.channel import (
    SCENARIOS,
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    autocorr,
)
from dafrelay import montecarlo
from dafrelay.montecarlo import (
    RunConfig,
    run_point_schemes,
    run_sweep,
)
from dafrelay.link import PowerAllocation
from dafrelay.montecarlo import _chunk_rng, _Point
from dafrelay.receiver import Scheme, scheme_weights

FAST = dict(
    min_bit_errors=50,
    max_symbols=2 * 10**5,
    frame_len=10**3,
    generator=FadingGenerator.AR1,
)


def run_one(cfg, p_db, scheme=Scheme.TVD):
    return run_point_schemes(cfg, p_db, [scheme])[scheme]


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(scenario=SCENARIOS["I"])
        assert cfg.M == 2
        assert cfg.min_bit_errors == 200
        assert cfg.max_symbols == 10**8
        assert cfg.frame_len == 10**4

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(scenario=SCENARIOS["I"], p_db_grid=())
        with pytest.raises(ValueError):
            RunConfig(scenario=SCENARIOS["I"], min_bit_errors=10)
        for bad in (dict(frame_len=0), dict(max_symbols=0), dict(frames_per_chunk=0),
                    dict(max_symbols=999, frame_len=1000), dict(M=8)):
            with pytest.raises(ValueError):
                RunConfig(scenario=SCENARIOS["I"], **bad)


class TestStoppingRules:
    def test_error_target_reached(self):
        cfg = RunConfig(scenario=SCENARIOS["I"], p_db_grid=(5.0,), master_seed=1, **FAST)
        est = run_one(cfg, 5.0)
        assert est.bit_errors >= cfg.min_bit_errors
        assert not est.truncated
        assert est.bits > 0
        assert est.ber == est.bit_errors / est.bits

    def test_truncation_at_symbol_budget(self):
        # an error target no run of this budget can reach: must stop on the budget
        cfg = RunConfig(
            scenario=SCENARIOS["I"],
            p_db_grid=(40.0,),
            min_bit_errors=10**9,
            max_symbols=3 * 10**4,
            frame_len=10**3,
            generator=FadingGenerator.AR1,
        )
        est = run_one(cfg, 40.0)
        assert est.truncated
        assert est.bits == 3 * 10**4

    @settings(max_examples=25, deadline=None)
    @given(
        frame_len=st.integers(10, 200),
        extra=st.integers(0, 600),
        frames_per_chunk=st.integers(1, 4),
        min_bit_errors=st.integers(50, 400),
        M=st.sampled_from([2, 4]),
        p_db=st.sampled_from([0.0, 10.0, 30.0]),
    )
    def test_budget_is_a_hard_cap(self, frame_len, extra, frames_per_chunk, min_bit_errors, M, p_db):
        cfg = RunConfig(
            scenario=SCENARIOS["II"],
            M=M,
            p_db_grid=(p_db,),
            min_bit_errors=min_bit_errors,
            max_symbols=frame_len + extra,
            frame_len=frame_len,
            frames_per_chunk=frames_per_chunk,
            generator=FadingGenerator.AR1,
        )
        est = run_one(cfg, p_db)
        assert 0 < est.bits <= cfg.max_symbols * np.log2(M)
        assert est.truncated == (est.bit_errors < min_bit_errors)

    def test_ci_formula(self):
        cfg = RunConfig(scenario=SCENARIOS["I"], p_db_grid=(5.0,), master_seed=2, **FAST)
        est = run_one(cfg, 5.0)
        expected = 1.96 * np.sqrt(est.ber * (1 - est.ber) / est.bits)
        assert est.ci95_halfwidth == pytest.approx(expected, rel=1e-12)


class TestDeterminism:
    def test_identical_runs(self):
        cfg = RunConfig(scenario=SCENARIOS["II"], p_db_grid=(10.0,), master_seed=3, **FAST)
        a = run_one(cfg, 10.0)
        b = run_one(cfg, 10.0)
        assert (a.bit_errors, a.bits, a.ber) == (b.bit_errors, b.bits, b.ber)

    def test_seed_changes_outcome(self):
        # two seeds draw different data, channels and noise; their error counts may still tie
        base = dict(scenario=SCENARIOS["II"], p_db_grid=(10.0,), frames_per_chunk=2, **FAST)
        a = _Point(RunConfig(master_seed=4, **base), 10.0, ()).chunk(0)
        b = _Point(RunConfig(master_seed=5, **base), 10.0, ()).chunk(0)
        for x, y in zip(a, b):
            assert x.shape == y.shape and not np.array_equal(x, y)

    def test_sweep_is_pointwise_reproducible(self):
        grid = (5.0, 10.0)
        schemes = [Scheme.CDD, Scheme.TVD]
        cfg = RunConfig(scenario=SCENARIOS["I"], p_db_grid=grid, master_seed=6, **FAST)
        sweep = run_sweep(cfg, schemes)
        # scheme-major: every point of CDD, then every point of TVD
        assert [(e.scheme, e.P_dB) for e in sweep] == [(s, p) for s in schemes for p in grid]
        again = run_point_schemes(cfg, 10.0, schemes)
        assert sweep[1] == again[Scheme.CDD]
        assert sweep[3] == again[Scheme.TVD]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(-2**63, 2**64 - 1), p_db=st.integers(-20, 80).map(lambda i: i / 2),
           M=st.sampled_from([2, 4]))
    def test_output_is_determined_by_seed_power_and_order(self, seed, p_db, M):
        # a tiny AR(1) point of all three schemes, 3 frames of 64 symbols, one per chunk: the same
        # estimates on a repeat, on 1 and 2 threads, and at the seed's 64-bit alias seed + 2^64
        cfg = RunConfig(SCENARIOS["III"], M=M, max_symbols=3 * 64, frame_len=64, master_seed=seed,
                        generator=FadingGenerator.AR1, frames_per_chunk=1)
        usable = montecarlo._WORKERS  # set here, not by monkeypatch: hypothesis runs many examples per fixture
        runs = []
        try:
            for workers, master_seed in ((1, seed), (1, seed), (2, seed), (2, seed + 2**64)):
                montecarlo._WORKERS = workers
                runs.append(run_point_schemes(replace(cfg, master_seed=master_seed), p_db, list(Scheme)))
        finally:
            montecarlo._WORKERS = usable
        assert all(run == runs[0] for run in runs[1:])


class TestChunkStreams:
    def test_power_and_order_keys_do_not_collide(self):
        # one key round(p*1000)*2 + M would give (p + 1 mdB, M=2) the stream of (p, M=4)
        cfg = RunConfig(SCENARIOS["I"], M=2)
        a = _chunk_rng(cfg, 10.001, 0).standard_normal(4)
        b = _chunk_rng(replace(cfg, M=4), 10.0, 0).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_negative_power_has_its_own_stream(self):
        cfg = RunConfig(SCENARIOS["I"])
        draws = [_chunk_rng(cfg, p_db, 0).standard_normal(4) for p_db in (-10.0, 10.0, -0.001)]
        assert not np.array_equal(draws[0], draws[1]) and not np.array_equal(draws[0], draws[2])

    def test_words_are_non_negative_and_distinct_over_the_valid_power_range(self, monkeypatch):
        # PowerAllocation accepts about -3239..3083 dB; every key word must be a non-negative integer
        lo, hi = -3230.0, 3080.0
        PowerAllocation.equal_from_total_db(lo), PowerAllocation.equal_from_total_db(hi)
        for outside in (lo - 20.0, hi + 10.0):
            with pytest.raises(ValueError):
                PowerAllocation.equal_from_total_db(outside)
        keys = []

        def recording(words):
            keys.append(words)
            return np.random.default_rng(0)

        monkeypatch.setattr(montecarlo, "seeded_rng", recording)
        powers = (lo, -0.001, 0.0, 0.001, hi)
        for seed in (0, -1, 2**64 - 1):
            for p_db in powers:
                _chunk_rng(RunConfig(SCENARIOS["I"], M=4, master_seed=seed), p_db, 7)
        assert all(isinstance(w, int) and w >= 0 for words in keys for w in words)
        assert all(words[0] < 2**64 and max(words[1:]) < 2**32 for words in keys)
        assert len({tuple(words) for words in keys}) == 2 * len(powers)  # seeds -1 and 2**64 - 1 coincide


class TestWorkerCount:
    """Chunks computed on 1, 2 or 3 threads give the serial result in every field."""

    WORKERS = (1, 2, 3)

    def run_each(self, monkeypatch, cfg, p_db, schemes=(Scheme.CDD, Scheme.TVD)):
        out = []
        for workers in self.WORKERS:
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            out.append(run_point_schemes(cfg, p_db, schemes))
        return out

    def test_budget_bound_point_with_partial_last_chunk(self, monkeypatch):
        # 7 frames in chunks of 2, 2, 2, 1: the last round of every W holds the short chunk
        cfg = RunConfig(SCENARIOS["II"], M=4, p_db_grid=(10.0,), min_bit_errors=10**9, max_symbols=7 * 300,
                        frame_len=300, frames_per_chunk=2, generator=FadingGenerator.AR1, master_seed=11)
        serial, *threaded = self.run_each(monkeypatch, cfg, 10.0)
        assert serial[Scheme.TVD].bits == 7 * 300 * 2
        assert serial[Scheme.TVD].bit_errors > 0
        assert all(point == serial for point in threaded)

    def test_error_stopped_point_discards_chunks_past_the_stop(self, monkeypatch):
        # the serial run stops on its error count after `stop` chunks of 2 frames; a threaded run computes
        # whole rounds, so W = stop + 1 always computes a chunk past the stop, which it must discard
        cfg = RunConfig(SCENARIOS["I"], p_db_grid=(10.0,), min_bit_errors=50, max_symbols=10**5, frame_len=100,
                        frames_per_chunk=2, generator=FadingGenerator.AR1, master_seed=8)
        calls = []  # the worker count of every chunk computed
        generate = _Point.chunk

        def counting(point, i):
            calls.append(montecarlo._WORKERS)
            return generate(point, i)

        monkeypatch.setattr(_Point, "chunk", counting)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        serial = run_point_schemes(cfg, 10.0, (Scheme.CDD, Scheme.TVD))
        stop = len(calls)
        assert serial[Scheme.TVD].bits == stop * 2 * 100 < cfg.max_symbols
        assert not serial[Scheme.TVD].truncated
        for workers in (2, 3, stop + 1):
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            assert run_point_schemes(cfg, 10.0, (Scheme.CDD, Scheme.TVD)) == serial
            assert calls.count(workers) == -(-stop // workers) * workers

    def test_one_chunk_point_starts_no_thread(self, monkeypatch):
        # 2 frames in one chunk of 2: the calling thread computes it for every W
        cfg = RunConfig(SCENARIOS["II"], M=4, p_db_grid=(10.0,), min_bit_errors=10**9, max_symbols=2 * 300,
                        frame_len=300, frames_per_chunk=2, generator=FadingGenerator.AR1, master_seed=11)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        serial, *threaded = self.run_each(monkeypatch, cfg, 10.0)
        assert serial[Scheme.TVD].bits == 2 * 300 * 2
        assert all(point == serial for point in threaded)
        assert started == []
        # the counter sees the helper of a two-chunk point
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        run_point_schemes(replace(cfg, frames_per_chunk=1), 10.0, [Scheme.TVD])
        assert len(started) == 1

    def test_exception_in_helper_chunk_reaches_caller(self, monkeypatch):
        class ChunkFailed(RuntimeError):
            pass

        # 3 frames in chunks of 2 and 1: only chunk 1 has one frame, and helpers compute it when W > 1
        cfg = RunConfig(SCENARIOS["I"], p_db_grid=(10.0,), min_bit_errors=10**9, max_symbols=3 * 100,
                        frame_len=100, frames_per_chunk=2, generator=FadingGenerator.AR1)
        generate = _Point.chunk

        def failing(point, i):
            if i == 1:
                raise ChunkFailed("chunk 1")
            return generate(point, i)

        monkeypatch.setattr(_Point, "chunk", failing)
        for workers in self.WORKERS:
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            with pytest.raises(ChunkFailed):
                run_point_schemes(cfg, 10.0, [Scheme.TVD])

    def test_sweep_schedule_matches_each_point_for_every_worker_count(self, monkeypatch):
        # 13 frames in 7 chunks of 2, 2, 2, 2, 2, 2, 1: the 40 dB point is bound by the budget, and the serial
        # runs give the chunks after which the 10 dB and 5 dB points stop on their error counts
        cfg = RunConfig(SCENARIOS["I"], p_db_grid=(40.0, 10.0, 5.0), min_bit_errors=50, max_symbols=13 * 100,
                        frame_len=100, frames_per_chunk=2, generator=FadingGenerator.AR1, master_seed=8)
        schemes = [Scheme.CDD, Scheme.TVD]
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        points = [run_point_schemes(cfg, p_db, schemes) for p_db in cfg.p_db_grid]
        estimates = [point[Scheme.TVD] for point in points]
        assert estimates[0].bits == 1300 and estimates[0].truncated
        assert not any(e.truncated for e in estimates[1:])
        stops = [-(-e.bits // 200) for e in estimates]

        def scheduled(workers):
            # a point's chunks fill the round of its stopping chunk, unless it runs out of chunks first
            total = 0
            for stop in stops:
                total = min(-(-(total + stop) // workers) * workers, total + 7)
            return total

        expected = [scheduled(w) for w in self.WORKERS]
        assert expected[0] == sum(stops) and max(expected) > sum(stops)  # some W computes past a stop
        calls = []  # the worker count of every chunk computed
        generate = _Point.chunk

        def counting(point, i):
            calls.append(montecarlo._WORKERS)
            return generate(point, i)

        monkeypatch.setattr(_Point, "chunk", counting)
        sweeps = []
        for workers in self.WORKERS:
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            sweeps.append(run_sweep(cfg, schemes))
        assert all(sweep == [point[s] for s in schemes for point in points] for sweep in sweeps)
        # none of a stopped point's chunks is scheduled in a later round
        assert [calls.count(w) for w in self.WORKERS] == expected

    def test_points_of_a_sweep_run_at_once(self, monkeypatch):
        # two one-chunk points and W = 2: their chunks pass the barrier only if they are computed together
        cfg = RunConfig(SCENARIOS["II"], M=4, p_db_grid=(10.0, 20.0), min_bit_errors=10**9, max_symbols=2 * 300,
                        frame_len=300, frames_per_chunk=2, generator=FadingGenerator.AR1, master_seed=11)
        barrier = threading.Barrier(2, timeout=10)
        generate = _Point.chunk

        def waiting(point, i):
            barrier.wait()
            return generate(point, i)

        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        monkeypatch.setattr(_Point, "chunk", waiting)
        sweep = run_sweep(cfg, [Scheme.TVD])
        monkeypatch.setattr(_Point, "chunk", generate)
        assert sweep == [run_one(cfg, p_db) for p_db in cfg.p_db_grid]


class TestChunkMemory:
    def test_sos_exact_chunk_working_set(self):
        # the CLI's default chunk shape: 8 frames of 10^4 symbols, SoS fading, exact cascade; a sweep has one
        # chunk in flight per CPU, so its memory grows with the peak of one chunk
        cfg = RunConfig(SCENARIOS["III"], frame_len=10**4, max_symbols=8 * 10**4, frames_per_chunk=8)
        point = _Point(cfg, 10.0, ())
        point.chunk(0)  # one-time allocations
        tracemalloc.start()
        try:
            generated = point.chunk(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array = np.empty((8, 10**4 + 1), dtype=complex).nbytes
        assert generated[1].shape == (8, 10**4 + 1)
        assert peak <= 8.5 * array


FAULT_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from dafrelay import montecarlo
from dafrelay.cli import main

if not montecarlo._heap_policy():
    print("no mallopt")
    sys.exit()
import resource

argv = ["sweep", "--config", sys.argv[2], "--scenario", "III", "--scheme", "all", "--pdb", "10:20:30",
        "--out", os.devnull]
for seed in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv + ["--seed", str(seed)]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def no_c_library(name):
    raise TypeError("LoadLibrary() argument 1 must be str, not None")  # ctypes.CDLL(None) on Windows


class TestHeapPolicy:
    def test_third_sweep_reuses_the_freed_chunks(self, tmp_path):
        # two points of one SoS exact-cascade chunk each (8 frames of 10^4 symbols), so both run at once where
        # two CPUs are usable; with glibc's dynamic thresholds every sweep faults its chunks' pages in again,
        # about 6400 minor faults on a 2-vCPU VM
        cfg = tmp_path / "sos.cfg"
        cfg.write_text("generator = sos\ncascaded = exact\nframe_len = 10000\nmax_symbols = 80000\n"
                       "min_bit_errors = 1000000000\n")
        src = Path(montecarlo.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(src), str(cfg)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "no mallopt":
            pytest.skip("the C library has no mallopt")
        assert int(proc.stdout) < 500

    @pytest.mark.parametrize("libc", [lambda name: types.SimpleNamespace(), no_c_library],
                             ids=["no-mallopt", "no-c-library"])
    def test_nothing_is_set_without_mallopt(self, monkeypatch, libc):
        monkeypatch.setattr(ctypes, "CDLL", libc)
        assert montecarlo._heap_policy.__wrapped__() is False

    @pytest.mark.parametrize("refused, expected", [(None, [(-3, 32 << 20), (-1, 256 << 20)]),
                                                   (-3, [(-3, 32 << 20)]), (-1, [(-3, 32 << 20), (-1, 256 << 20)])])
    def test_both_thresholds_are_set_mmap_first(self, monkeypatch, refused, expected):
        # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h; mallopt returns 1 on success.  A
        # refused mmap threshold leaves the trim threshold unset: alone, it would keep mmap at 128 KiB
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(param != refused)

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert montecarlo._heap_policy.__wrapped__() is (refused is None)
        assert calls == expected


class TestPairedSchemes:
    def test_shared_draws_across_schemes(self):
        cfg = RunConfig(scenario=SCENARIOS["I"], p_db_grid=(10.0,), master_seed=7, **FAST)
        paired = run_point_schemes(cfg, 10.0, [Scheme.CDD, Scheme.TVD, Scheme.OPT_GENIE])
        assert set(paired) == {Scheme.CDD, Scheme.TVD, Scheme.OPT_GENIE}
        bits = {e.bits for e in paired.values()}
        assert len(bits) == 1  # same generated symbols for every scheme
        # separate single-scheme run sees the same channel/noise stream
        solo = run_one(RunConfig(scenario=SCENARIOS["I"], p_db_grid=(10.0,), master_seed=7, **FAST), 10.0, Scheme.CDD)
        # the paired run may stop later (waits for all schemes), so compare
        # the common prefix through equal bit counts only when they match
        if solo.bits == paired[Scheme.CDD].bits:
            assert solo.bit_errors == paired[Scheme.CDD].bit_errors

    def test_repeated_scheme_is_rejected(self):
        # each scheme's errors are counted once per chunk, so a repeat would count them twice
        cfg = RunConfig(scenario=SCENARIOS["III"], p_db_grid=(10.0,), master_seed=7, **FAST)
        with pytest.raises(ValueError, match="repeated scheme"):
            run_sweep(cfg, [Scheme.TVD, Scheme.TVD])

    def test_empty_scheme_list_is_rejected(self):
        # a point of no scheme would have no error count to stop on
        cfg = RunConfig(scenario=SCENARIOS["III"], p_db_grid=(10.0,), master_seed=7, **FAST)
        with pytest.raises(ValueError, match="scheme list is empty"):
            run_sweep(cfg, [])

    def test_quasi_static_schemes_coincide(self):
        # Scenario I fading is so slow that CDD and TVD weights nearly agree;
        # with shared draws their error counts are very close
        cfg = RunConfig(scenario=SCENARIOS["I"], p_db_grid=(8.0,), master_seed=8, **FAST)
        paired = run_point_schemes(cfg, 8.0, [Scheme.CDD, Scheme.TVD])
        a, b = paired[Scheme.CDD], paired[Scheme.TVD]
        assert a.bit_errors == pytest.approx(b.bit_errors, rel=0.05)


class TestAgainstTheory:
    def test_dbpsk_tvd_tracks_theory_mid_snr(self):
        # moderate SNR, slow fading: simulation within a factor 1.5 of theory
        scn = SCENARIOS["I"]
        # short frames spread the budget over many independent fades; a few
        # long frames would leave the estimate hostage to a handful of draws
        cfg = RunConfig(
            scenario=scn,
            p_db_grid=(15.0,),
            master_seed=9,
            min_bit_errors=5000,
            max_symbols=4 * 10**6,
            frame_len=500,
            generator=FadingGenerator.AR1,
        )
        est = run_one(cfg, 15.0)
        alpha_sd = autocorr(FadingSpec(scn.f_sd))
        alpha = autocorr(FadingSpec(scn.f_sr)) * autocorr(FadingSpec(scn.f_rd))
        theory = pep_point(alpha_sd, alpha, 15.0, 2).ber
        assert est.ber == pytest.approx(theory, rel=0.5)

    def test_dqpsk_higher_ber_than_dbpsk(self):
        # TVD at 12 dB reads about 0.025 for M=2 and 0.054 for M=4.  Scenario I fades so slowly that one chunk
        # of 32 frames (FAST stops after it) spreads about 0.014 either way, so every order runs 256 frames:
        # over 64 seeds, the BERs then spread 0.004-0.005 and M=4 read higher at each seed
        base = dict(FAST, scenario=SCENARIOS["I"], p_db_grid=(12.0,), master_seed=10,
                    min_bit_errors=10**9, max_symbols=256 * 10**3)
        b2 = run_one(RunConfig(M=2, **base), 12.0)
        b4 = run_one(RunConfig(M=4, **base), 12.0)
        assert b2.bits == 256 * 10**3 and b4.bits == 2 * 256 * 10**3
        assert b4.ber > b2.ber


@pytest.mark.parametrize("M", [2, 4])
@pytest.mark.parametrize("cascade", list(CascadedModelKind))
@pytest.mark.parametrize("generator", list(FadingGenerator))
def test_chunk_errors_match_argmax_decisions_per_frame(M, cascade, generator):
    # reference: the combiner written out -> argmax decision -> Gray pattern -> popcount of the xor,
    # per frame (row), for every scheme on seeded chunks; the reference does not call receiver.frame_errors
    scn = SCENARIOS["III"]
    cfg = RunConfig(scn, M=M, frame_len=500, generator=generator, cascaded_model=cascade, frames_per_chunk=16)
    point = _Point(cfg, 12.0, list(Scheme))
    pa, const = point.pa, point.const
    alpha_sd, alpha = scn.autocorrs()
    for chunk_index in range(2):
        data, y_sd, y_rd, h_rd = point.chunk(chunk_index)
        errors = point.chunk_errors(chunk_index)
        assert len(errors) == len(Scheme)
        for scheme, e in zip(Scheme, errors):
            w = scheme_weights(scheme, alpha_sd, alpha, pa.P0, pa.A, h_rd)
            zeta = w.b0 * (np.conj(y_sd[:, :-1]) * y_sd[:, 1:]) + w.b1 * (np.conj(y_rd[:, :-1]) * y_rd[:, 1:])
            ref = argmax_errors(zeta, data, const)
            assert e.shape == (16,)
            assert np.array_equal(e, ref)
            assert ref.sum() > 0
