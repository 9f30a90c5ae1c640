"""Write the seeded outputs that a behaviour-preserving change must leave byte-identical.

Usage (from any directory):

    python3 tools/seeded_outputs.py OUTDIR

Runs the `dafrelay` command line of the checkout this file belongs to (its
`src/` goes first on the import path) in-process and writes into OUTDIR:

- `sweep_<gen>_<cascade>_<scenario>_m<M>_<scheme>.csv` for ar1/sos x
  exact/approx x scenarios I-III x M=2,4 x `--scheme all|tvd`, seed 1,
  `--pdb 0:10:50`, frame_len 1000, max_symbols 1e5, min_bit_errors 300;
- `validate_<scenario>.txt`: `validate-channel` for I-III, 10^6 samples, seed 3;
- `validate_raw_<scenario>.txt`: the `repr` of each model's mean, variance and lag-1
  autocorrelation that run computed, of its chi-square (statistic, p-value) and of its
  envelope densities, recorded by model (the two models run on two threads where two CPUs
  are usable) and written in model order, two lines per model, so that a change of one
  last bit or of one count in a bin shows, which the printed five decimals hide;
- `theory_<scenario>_m<M>.csv`: `sweep --no-sim --scheme all` on 0:0.5:60;
- `theory_wide_<scenario>_m4.csv`: `sweep --no-sim --scheme tvd --m 4` on -30:0.125:80, 881 points,
  more than one block of the analysis' quadrature pass, down to the lowest power the theory covers;
- `chunk_<gen>_<cascade>.bin`: the raw bytes of one seeded simulation chunk (8 frames of
  1000 symbols, scenario III, M=4, 20 dB) for ar1/sos x exact/approx: the data, both
  observations and h_rd that the simulator's one chunk recipe, `montecarlo._Point.chunk`,
  returns on its own chunk stream, so that a change of one last bit shows, which the
  printed BERs hide; h_sd and the cascade show through the observations;
- `theory_raw_<scenario>_m<M>.txt` for I-III x M=2,4: the `repr` of the floor once and of each
  point's PEP and BER that `analysis.pep_points` gives on -30:0.125:80 (`cli.parse_grid`), so
  that a change of one last bit of the theory column shows, which the CSVs' six digits hide;
- `SHA256SUMS`, one `sha256sum`-format line per output, sorted by name.

To check a change, run this file from the parent checkout and from the change
(copy it into the parent if it predates it, and the parent has `_Point.chunk` and
`cli._validate_model`; otherwise run the parent's own copy) and compare the two SHA256SUMS.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dafrelay import analysis, channel, cli, montecarlo  # noqa: E402
from dafrelay.cli import main as dafrelay_main  # noqa: E402

SCENARIOS = ("I", "II", "III")
ORDERS = (2, 4)
SWEEP_CONFIG = "generator = {gen}\ncascaded = {cascade}\nframe_len = 1000\nmax_symbols = 100000\nmin_bit_errors = 300\n"


def commands(cfgdir: Path):
    """(output name, CLI argv) for every seeded output."""
    for gen in ("ar1", "sos"):
        for cascade in ("exact", "approx"):
            cfg = cfgdir / f"{gen}_{cascade}.cfg"
            cfg.write_text(SWEEP_CONFIG.format(gen=gen, cascade=cascade))
            for scn in SCENARIOS:
                for m in ORDERS:
                    for scheme in ("all", "tvd"):
                        name = f"sweep_{gen}_{cascade}_{scn}_m{m}_{scheme}.csv"
                        yield name, ["sweep", "--config", str(cfg), "--scenario", scn, "--m", str(m),
                                     "--scheme", scheme, "--pdb", "0:10:50", "--seed", "1"]
    for scn in SCENARIOS:
        yield f"validate_{scn}.txt", ["validate-channel", "--scenario", scn, "--samples", "1000000",
                                      "--seed", "3"]
    for scn in SCENARIOS:
        for m in ORDERS:
            yield f"theory_{scn}_m{m}.csv", ["sweep", "--no-sim", "--scheme", "all", "--scenario", scn,
                                             "--m", str(m), "--pdb", "0:0.5:60"]
    for scn in SCENARIOS:
        yield f"theory_wide_{scn}_m4.csv", ["sweep", "--no-sim", "--scheme", "tvd", "--scenario", scn, "--m", "4",
                                            "--pdb", "-30:0.125:80"]


def recorded(fn, results: dict):
    """`fn`, recording each of its results under its first argument, whichever thread calls it."""

    def wrapper(key, *args, **kwargs):
        results[key] = fn(key, *args, **kwargs)
        return results[key]

    return wrapper


def validate_raw(results: dict) -> bytes:
    """The repr of each model's ChannelStats and chi-square (statistic, p-value), in validate-channel's model order.

    Per model: `model= mean= variance= lag1= chi_square=(stat, p)`, then `densities=[...]`, the 100 bins' floats.
    """
    lines = []
    for kind in channel.CascadedModelKind:
        st, chi_square = results[kind]
        lines.append(f"model={kind.value} mean={st.mean!r} variance={st.variance!r} lag1={st.lag1_autocorr!r} "
                     f"chi_square={chi_square!r}\n")
        lines.append(f"densities={st.densities.tolist()!r}\n")
    return "".join(lines).encode()


def chunks():
    """(output name, raw bytes) of one seeded simulation chunk per generator and cascade model."""
    for i, gen in enumerate(channel.FadingGenerator):
        for j, cascade in enumerate(channel.CascadedModelKind):
            config = montecarlo.RunConfig(channel.SCENARIOS["III"], M=4, frame_len=1000, master_seed=5, generator=gen,
                                          cascaded_model=cascade, frames_per_chunk=8)
            arrays = montecarlo._Point(config, 20.0, ()).chunk(2 * i + j)
            yield f"chunk_{gen.value}_{cascade.value}.bin", b"".join(a.tobytes() for a in arrays)


def theory_raw():
    """(output name, raw bytes) of the analysis' floor and each point's PEP and BER, per scenario and order."""
    grid = cli.parse_grid("-30:0.125:80")
    for scn in SCENARIOS:
        for m in ORDERS:
            points = analysis.pep_points(*channel.SCENARIOS[scn].autocorrs(), grid, m)
            lines = [f"floor={points[0].floor!r}\n"] + [f"{pt.P_dB!r} pep={pt.pep!r} ber={pt.ber!r}\n" for pt in points]
            yield f"theory_raw_{scn}_m{m}.txt", "".join(lines).encode()


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: seeded_outputs.py OUTDIR\n")
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    raws = []  # (name, bytes) of the outputs written from in-process results
    stats = {}  # the results of the running validate-channel command's models, by model
    cli._validate_model = recorded(cli._validate_model, stats)
    sums = []
    with tempfile.TemporaryDirectory() as cfgdir:
        for name, args in commands(Path(cfgdir)):
            path = outdir / name
            stats.clear()
            rc = dafrelay_main(args + ["--out", str(path)])
            if rc != 0:
                sys.stderr.write(f"{name}: dafrelay {' '.join(args)} exited {rc}\n")
                return 1
            sums.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n")
            if stats:
                raws.append((name.replace("validate_", "validate_raw_"), validate_raw(stats)))
    for name, raw in [*raws, *chunks(), *theory_raw()]:
        (outdir / name).write_bytes(raw)
        sums.append(f"{hashlib.sha256(raw).hexdigest()}  {name}\n")
    (outdir / "SHA256SUMS").write_text("".join(sorted(sums, key=lambda line: line.split()[1])))
    print(f"{len(sums)} outputs written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
