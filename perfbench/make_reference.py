"""Write perfbench/reference.json, the data the benchmark's output checks use.

    python3 perfbench/make_reference.py

- `theory`: `pep_point` BER and floor BER for scenarios I-III, M = 2, 4, on the
  0.5 dB lattice 0..59.5 dB, at full precision.
- `sweeps`: for each simulation workload, power point and scheme, the mean and
  standard deviation of the BER of single frames (FRAMES of them), simulated
  with seeds far from any the benchmark uses.  The benchmark's band for a rep
  of n frames is mean +- z * sd * sqrt(1/n + 1/frames).

Run it again only when a change is meant to alter the analysis or the
simulated error statistics, and say so in the change.
"""

import json
import statistics
import sys

from run import load_package

load_package()  # workloads imports dafrelay, which must come from this checkout's src/
from workloads import HERE, WORKLOADS, p_key  # noqa: E402

SEED_BASE = 2**40
FRAMES = {"sweep_sos_exact": 600, "sweep_ar1_approx": 4000}


def theory_table() -> dict:
    from dafrelay.analysis import pep_point, ser_ber_from_pep
    from dafrelay.channel import SCENARIOS, FadingSpec, autocorr

    table = {}
    for scn, s in SCENARIOS.items():
        alpha_sd = autocorr(FadingSpec(s.f_sd))
        alpha = autocorr(FadingSpec(s.f_sr)) * autocorr(FadingSpec(s.f_rd))
        for m in (2, 4):
            rows = table[f"{scn}/{m}"] = {}
            for i in range(120):
                point = pep_point(alpha_sd, alpha, 0.5 * i, m)
                rows[p_key(0.5 * i)] = [point.ber, ser_ber_from_pep(point.floor, m)[1]]
    return table


def frame_stats(workload, frames: int) -> dict:
    from dafrelay.channel import SCENARIOS, CascadedModelKind, FadingGenerator
    from dafrelay.cli import read_config_file
    from dafrelay.montecarlo import RunConfig, run_point_schemes
    from dafrelay.receiver import Scheme

    cfg = read_config_file(HERE / "configs" / f"{workload.config}.cfg")
    schemes = [Scheme(s) for s in ("cdd", "tvd", "opt")]
    out = {}
    for p_db in (10.0, 30.0):
        bers = {s: [] for s in schemes}
        for k in range(frames):
            config = RunConfig(
                scenario=SCENARIOS["III"],
                M=workload.m,
                p_db_grid=(p_db,),
                min_bit_errors=10**9,
                max_symbols=workload.frame_len,
                frame_len=workload.frame_len,
                master_seed=SEED_BASE + k,
                generator=FadingGenerator(cfg["generator"]),
                cascaded_model=CascadedModelKind(cfg["cascaded"]),
            )
            for scheme, est in run_point_schemes(config, p_db, schemes).items():
                bers[scheme].append(est.ber)
        out[p_key(p_db)] = {
            s.value: {"mean": statistics.fmean(v), "sd": statistics.stdev(v), "frames": frames}
            for s, v in bers.items()
        }
        print(f"{workload.name} {p_db:g} dB: {out[p_key(p_db)]}", file=sys.stderr)
    return out


def main() -> int:
    reference = {
        "theory": theory_table(),
        "sweeps": {name: frame_stats(WORKLOADS[name], n) for name, n in FRAMES.items()},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
