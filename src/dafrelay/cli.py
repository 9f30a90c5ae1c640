"""Command-line front end: BER sweeps, channel-statistics validation, Doppler helper."""

import argparse
import sys

import numpy as np

from . import analysis
from .channel import (
    SCENARIOS,
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    Scenario,
    envelope_chi_square,
    envelope_pdf_theoretical,
    gen_cascaded,
    rayleigh_pdf,
    validate_stats,
)
from .montecarlo import RunConfig, run_sweep
from .receiver import Scheme

CSV_HEADER = "p_db,scenario,scheme,m,ber_sim,ci95,ber_theory,ber_floor,truncated"

EXIT_USAGE = 2
EXIT_NUMERIC = 3

_SPEED_OF_LIGHT = 3e8


def _fmt(x) -> str:
    """Fixed 6-significant-digit formatting; empty string for missing values."""
    if x is None:
        return ""
    return f"{x:.6g}"


def doppler_normalized(f_c_hz: float, t_s_seconds: float, v_kmh: float) -> float:
    """Normalized Doppler frequency (cycles/symbol) from carrier, symbol time and speed."""
    if f_c_hz <= 0 or t_s_seconds <= 0 or v_kmh < 0:
        raise ValueError("carrier frequency and symbol time must be positive, speed non-negative")
    return (v_kmh / 3.6) * f_c_hz / _SPEED_OF_LIGHT * t_s_seconds


def parse_grid(spec: str) -> tuple:
    """Parse a start:step:stop grid (inclusive stop) into a tuple of floats."""
    parts = spec.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STEP:STOP, got {spec!r}")
    start, step, stop = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"malformed grid {spec!r}")
    n = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 9) for i in range(n))


def read_config_file(path: str) -> dict:
    """Flat key = value format; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.lower()] = value
    return out


def _lookup(table: dict, key: str, value: str):
    if value not in table:
        raise ValueError(f"unknown {key} {value!r} (choose from {sorted(table)})")
    return table[value]


def _resolve_scenario(args_scenario, cfg: dict) -> Scenario:
    name = args_scenario or cfg.get("scenario")
    if name:
        if any(key in cfg for key in ("f_sd", "f_sr", "f_rd")):
            raise ValueError(f"scenario {name!r} excludes explicit f_sd/f_sr/f_rd")
        return _lookup(SCENARIOS, "scenario", name)
    try:
        return Scenario(
            "custom", float(cfg["f_sd"]), float(cfg["f_sr"]), float(cfg["f_rd"])
        )
    except KeyError as exc:
        raise ValueError("scenario name or explicit f_sd/f_sr/f_rd required") from exc


_SCHEME_NAMES = {"cdd": Scheme.CDD, "tvd": Scheme.TVD, "opt": Scheme.OPT_GENIE}
_GENERATORS = {"ar1": FadingGenerator.AR1, "sos": FadingGenerator.SUM_OF_SINUSOIDS}
_CASCADED = {"exact": CascadedModelKind.EXACT_PRODUCT, "approx": CascadedModelKind.APPROXIMATE}


def _resolve_schemes(value: str) -> list[Scheme]:
    if value == "all":
        return [Scheme.CDD, Scheme.TVD, Scheme.OPT_GENIE]
    return [_lookup(_SCHEME_NAMES, "scheme", token.strip()) for token in value.split(",")]


_SWEEP_KEYS = {
    "scenario", "f_sd", "f_sr", "f_rd", "m", "schemes", "p_db", "seed",
    "generator", "cascaded", "min_bit_errors", "max_symbols", "frame_len",
}


def cmd_sweep(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(cfg) - _SWEEP_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} (choose from {sorted(_SWEEP_KEYS)})")
    scenario = _resolve_scenario(args.scenario, cfg)
    m = int(args.m if args.m is not None else cfg.get("m", 2))
    schemes = _resolve_schemes(args.scheme or cfg.get("schemes", "tvd"))
    grid = parse_grid(args.pdb or cfg.get("p_db", "0:5:30"))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    base = RunConfig(
        scenario=scenario,
        M=m,
        p_db_grid=grid,
        min_bit_errors=int(cfg.get("min_bit_errors", 200)),
        max_symbols=int(float(cfg.get("max_symbols", 10**8))),
        frame_len=int(cfg.get("frame_len", 10**4)),
        master_seed=seed,
        generator=_lookup(_GENERATORS, "generator", cfg.get("generator", "sos")),
        cascaded_model=_lookup(_CASCADED, "cascaded", cfg.get("cascaded", "exact")),
    )

    alpha_sd, alpha = scenario.autocorrs(base.lag_n)
    # theory and floor depend on the point only; rows are scheme-major, as run_sweep returns them
    points = [analysis.pep_point(alpha_sd, alpha, p_db, m) for p_db in grid]
    cells = [(scheme, p_db, point) for scheme in schemes for p_db, point in zip(grid, points)]
    estimates = [None] * len(cells) if args.no_sim else run_sweep(base, schemes)
    rows = []
    for (scheme, p_db, point), est in zip(cells, estimates):
        _, floor_ber = analysis.ser_ber_from_pep(point.floor, m)
        rows.append(
            ",".join(
                [
                    _fmt(p_db),
                    scenario.name,
                    scheme.value,
                    str(m),
                    _fmt(est.ber if est else None),
                    _fmt(est.ci95_halfwidth if est else None),
                    _fmt(point.ber),
                    _fmt(floor_ber),
                    ("1" if est.truncated else "0") if est else "",
                ]
            )
        )

    out = "\n".join([CSV_HEADER] + rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_validate_channel(args) -> int:
    scenario = _resolve_scenario(args.scenario, {})
    n_samples = int(args.samples)
    if n_samples < 10**4:
        raise ValueError("validate-channel needs at least 10^4 samples")
    frame_len = 10
    n_frames = max(2, n_samples // frame_len)
    spec_sr = FadingSpec(scenario.f_sr, 1, FadingGenerator.AR1)
    spec_rd = FadingSpec(scenario.f_rd, 1, FadingGenerator.AR1)
    _, alpha = scenario.autocorrs()

    lines = [f"channel validation: scenario {scenario.name}"]
    lines.append(
        f"links: f_sd={scenario.f_sd} f_sr={scenario.f_sr} f_rd={scenario.f_rd} "
        f"expected lag-1 autocorr (cascaded) = {alpha:.6f}"
    )
    results = {}
    for label, kind in (("exact", CascadedModelKind.EXACT_PRODUCT), ("approx", CascadedModelKind.APPROXIMATE)):
        stream = 1 if label == "exact" else 2
        rng = np.random.default_rng(np.random.SeedSequence([int(args.seed), stream]))
        h = gen_cascaded(spec_sr, spec_rd, kind, frame_len, rng, realizations=n_frames)[0]
        st = results[label] = validate_stats(h)
        stat, p = envelope_chi_square(h[:, -1])
        del h  # only the statistics are kept; the next model is generated without this array alive
        lines.append(
            f"model={label} mean=({st.mean.real:+.5f},{st.mean.imag:+.5f}) "
            f"variance={st.variance:.5f} lag1_autocorr={st.lag1_autocorr:.5f} "
            f"chi2={stat:.2f} p_value={p:.4f}"
        )
    lines.append("histogram: bin_center empirical_exact empirical_approx theory_cascaded theory_rayleigh")
    st_e, st_a = results["exact"], results["approx"]
    centers = 0.5 * (st_e.bin_edges[:-1] + st_e.bin_edges[1:])
    theory = envelope_pdf_theoretical(centers)
    rayl = rayleigh_pdf(centers)
    for c, de, da, t, r in zip(centers, st_e.densities, st_a.densities, theory, rayl):
        lines.append(f"{c:.4f} {de:.5f} {da:.5f} {t:.5f} {r:.5f}")
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0


def cmd_doppler(args) -> int:
    f = doppler_normalized(args.fc, args.ts, args.v)
    sys.stdout.write(f"{f:.6g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dafrelay",
        description="Differential amplify-and-forward relaying simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a BER power sweep (simulation + theory + floors)")
    p_sweep.add_argument("--config", help="flat key=value configuration file")
    p_sweep.add_argument("--scenario", choices=sorted(SCENARIOS), help="built-in scenario")
    p_sweep.add_argument("--m", type=int, choices=(2, 4), help="constellation order")
    p_sweep.add_argument("--scheme", help="cdd, tvd, opt, a comma list, or 'all'")
    p_sweep.add_argument("--pdb", help="power grid START:STEP:STOP in dB")
    p_sweep.add_argument("--seed", type=int, help="master seed")
    p_sweep.add_argument("--no-sim", action="store_true", help="emit theory-only rows")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate-channel", help="channel statistics report (exact vs approximate cascade)")
    p_val.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    p_val.add_argument("--samples", type=int, default=10**6)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", help="write report here instead of stdout")
    p_val.set_defaults(func=cmd_validate_channel)

    p_dop = sub.add_parser("doppler", help="convert carrier/symbol-time/speed to normalized Doppler")
    p_dop.add_argument("--fc", type=float, required=True, help="carrier frequency in Hz")
    p_dop.add_argument("--ts", type=float, required=True, help="symbol time in seconds")
    p_dop.add_argument("--v", type=float, required=True, help="speed in km/h")
    p_dop.set_defaults(func=cmd_doppler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except analysis.QuadratureError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
