"""Command-line front end: BER sweeps, channel-statistics validation, Doppler helper."""

import argparse
import math
import re
import sys

from . import analysis, montecarlo
from .channel import (
    SCENARIOS,
    CascadedModelKind,
    FadingGenerator,
    FadingSpec,
    Scenario,
    _cascade,
    envelope_chi_square,
    envelope_pdf_theoretical,
    gen_fading,
    rayleigh_pdf,
    seeded_rng,
    validate_stats,
)
from .link import SIMULATED_ORDERS
from .montecarlo import RunConfig, _heap_policy, run_sweep, seed_word
from .receiver import Scheme

CSV_HEADER = "p_db,scenario,scheme,m,ber_sim,ci95,ber_theory,ber_floor,truncated"

EXIT_USAGE = 2
EXIT_NUMERIC = 3

_SPEED_OF_LIGHT = 3e8
_MAX_GRID_POINTS = 10_001  # e.g. 0:0.01:100


def _write(path, text: str) -> None:
    """Write a command's output to `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def doppler_normalized(f_c_hz: float, t_s_seconds: float, v_kmh: float) -> float:
    """Normalized Doppler frequency (cycles/symbol) from carrier, symbol time and speed."""
    if not (0 < f_c_hz < math.inf and 0 < t_s_seconds < math.inf and 0 <= v_kmh < math.inf):
        raise ValueError("carrier frequency and symbol time must be positive, speed non-negative, all finite")
    return (v_kmh / 3.6) * f_c_hz / _SPEED_OF_LIGHT * t_s_seconds


def parse_grid(spec: str) -> tuple:
    """Parse a start:step:stop grid (inclusive stop) of at most _MAX_GRID_POINTS points, or one value,
    into a tuple of finite floats."""
    values = [float(p) for p in spec.split(":")]
    if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
        raise ValueError(f"grid must be START:STEP:STOP or one value, all finite, got {spec!r}")
    if len(values) == 1:
        return (values[0],)
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ValueError(f"malformed grid {spec!r}")
    # every start + i * step <= stop, allowing 1e-9 step for rounding; min: the span may overflow to inf
    n = math.floor(min((stop - start) / step + 1e-9, _MAX_GRID_POINTS)) + 1
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
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


def _lookup(choices, key: str, value: str):
    table = choices if isinstance(choices, dict) else {member.value: member for member in choices}
    if value not in table:
        raise ValueError(f"unknown {key} {value!r} (choose from {sorted(table)})")
    return table[value]


_SCENARIO_KEYS = ("f_sd", "f_sr", "f_rd")


def _resolve_scenario(args_scenario, cfg: dict) -> Scenario:
    name = args_scenario or cfg.get("scenario")
    if name:
        if any(key in cfg for key in _SCENARIO_KEYS):
            raise ValueError(f"scenario {name!r} excludes explicit f_sd/f_sr/f_rd")
        return _lookup(SCENARIOS, "scenario", name)
    try:
        return Scenario("custom", *(float(cfg[key]) for key in _SCENARIO_KEYS))
    except KeyError as exc:
        raise ValueError("scenario name or explicit f_sd/f_sr/f_rd required") from exc


def _resolve_schemes(value: str) -> list[Scheme]:
    if value == "all":
        return list(Scheme)
    schemes = [_lookup(Scheme, "scheme", token.strip()) for token in value.split(",")]
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"scheme list {value!r} names a scheme twice")
    return schemes


def _parse_max_symbols(value: str) -> int:
    """A symbol budget such as 1e6; int() of an infinite float would raise OverflowError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"max_symbols must be finite, got {value!r}")
    return int(number)


# sweep config key -> (RunConfig field, parser of its value); an absent key keeps RunConfig's default.
# The other keys a sweep config accepts are "scenario", "schemes" and _SCENARIO_KEYS.
_RUN_KEYS = {
    "m": ("M", lambda value: _lookup({m: m for m in SIMULATED_ORDERS}, "m", int(value))),
    "p_db": ("p_db_grid", parse_grid),
    "seed": ("master_seed", int),
    "min_bit_errors": ("min_bit_errors", int),
    "max_symbols": ("max_symbols", _parse_max_symbols),
    "frame_len": ("frame_len", int),
    "generator": ("generator", lambda value: _lookup(FadingGenerator, "generator", value)),
    "cascaded": ("cascaded_model", lambda value: _lookup(CascadedModelKind, "cascaded", value)),
}
_SWEEP_KEYS = {*_RUN_KEYS, *_SCENARIO_KEYS, "scenario", "schemes"}


def cmd_sweep(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(cfg) - _SWEEP_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} (choose from {sorted(_SWEEP_KEYS)})")
    scenario = _resolve_scenario(args.scenario, cfg)
    schemes = _resolve_schemes(args.scheme or cfg.get("schemes", "tvd"))
    # the command line overrides the config file; the CLI's default grid differs from RunConfig's
    given = {"m": args.m, "p_db": args.pdb, "seed": args.seed}
    values = {"p_db": "0:5:30", **cfg, **{key: v for key, v in given.items() if v is not None}}
    fields = {}
    for key, (field, parse) in _RUN_KEYS.items():
        if key in values:
            try:
                fields[field] = parse(values[key])
            except ValueError as exc:
                raise ValueError(f"{key} = {values[key]}: {exc}") from exc
    base = RunConfig(scenario=scenario, **fields)
    m, grid = base.M, base.p_db_grid

    alpha_sd, alpha = scenario.autocorrs()
    # theory depends on the point only, the floor on neither point nor scheme; rows are
    # scheme-major, as run_sweep returns them.  The analysis takes alpha_sd, alpha > 0 only
    # (J0(2 pi f) <= 0 for f >= 0.3828): a simulated sweep of a faster link leaves its theory
    # cells empty, and a theory-only one exits with the analysis' error.
    theory_bers, floor_ber = [""] * len(grid), ""
    if args.no_sim or min(alpha_sd, alpha) > 0:
        points = analysis.pep_points(alpha_sd, alpha, grid, m)
        theory_bers = [f"{point.ber:.6g}" for point in points]
        floor_ber = f"{analysis.ser_ber_from_pep(points[0].floor, m)[1]:.6g}"
    cells = [(scheme, p_db, ber) for scheme in schemes for p_db, ber in zip(grid, theory_bers)]
    estimates = [None] * len(cells) if args.no_sim else run_sweep(base, schemes)
    rows = []
    for (scheme, p_db, theory_ber), est in zip(cells, estimates):
        # values to 6 significant digits; the simulation columns are empty without an estimate
        ber_sim = ci95 = truncated = ""
        if est:
            ber_sim, ci95, truncated = f"{est.ber:.6g}", f"{est.ci95_halfwidth:.6g}", str(int(est.truncated))
        rows.append(",".join([f"{p_db:.6g}", scenario.name, scheme.value, str(m), ber_sim, ci95,
                              theory_ber, floor_ber, truncated]))
    _write(args.out, "\n".join([CSV_HEADER] + rows) + "\n")
    return 0


def _validate_model(kind: CascadedModelKind, spec_sr: FadingSpec, spec_rd: FadingSpec, frame_len: int,
                    n_frames: int, rng):
    """(ChannelStats, chi-square fit of each row's last sample) of one cascade model drawn from `rng`.

    The cascade is built in h_rd's buffer, so the model holds about one array of its samples.
    """
    h = gen_fading(spec_rd, frame_len, rng, n_frames)
    _cascade(spec_sr, spec_rd, kind, h, rng, out=h)
    return validate_stats(h), envelope_chi_square(h[:, -1])


def cmd_validate_channel(args) -> int:
    """Both cascade models' statistics and envelope fit, each model on its own stream.

    `montecarlo._run_rounds` runs the exact product on the calling thread and the one-term recursion on a
    helper thread where two CPUs are usable, else after it; the report lists them in model order.
    """
    scenario = _resolve_scenario(args.scenario, {})
    n_samples = int(args.samples)
    if n_samples < 10**4:
        raise ValueError("validate-channel needs at least 10^4 samples")
    frame_len = 10
    n_frames = n_samples // frame_len
    spec_sr, spec_rd = FadingSpec(scenario.f_sr), FadingSpec(scenario.f_rd)
    _, alpha = scenario.autocorrs()
    _heap_policy()

    lines = [f"channel validation: scenario {scenario.name}",
             f"links: f_sd={scenario.f_sd} f_sr={scenario.f_sr} f_rd={scenario.f_rd} "
             f"expected lag-1 autocorr (cascaded) = {alpha:.6f}"]
    models = ((kind, spec_sr, spec_rd, frame_len, n_frames, seeded_rng([seed_word(args.seed), stream]))
              for stream, kind in enumerate(CascadedModelKind, 1))
    results = [result for _, result in montecarlo._run_rounds(_validate_model, models)]
    for kind, (st, (stat, p)) in zip(CascadedModelKind, results):
        lines.append(
            f"model={kind.value} mean=({st.mean.real:+.5f},{st.mean.imag:+.5f}) "
            f"variance={st.variance:.5f} lag1_autocorr={st.lag1_autocorr:.5f} "
            f"chi2={stat:.2f} p_value={p:.4f}"
        )
    lines.append("histogram: bin_center empirical_exact empirical_approx theory_cascaded theory_rayleigh")
    (st_e, _), (st_a, _) = results
    centers = 0.5 * (st_e.bin_edges[:-1] + st_e.bin_edges[1:])
    for c, de, da, t, r in zip(centers, st_e.densities, st_a.densities, envelope_pdf_theoretical(centers),
                               rayleigh_pdf(centers)):
        lines.append(f"{c:.4f} {de:.5f} {da:.5f} {t:.5f} {r:.5f}")
    _write(args.out, "\n".join(lines) + "\n")
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
    p_sweep.add_argument("--m", type=int, choices=SIMULATED_ORDERS, help="constellation order")
    p_sweep.add_argument("--scheme", help="cdd, tvd, opt, a comma list, or 'all'")
    p_sweep.add_argument("--pdb", help="power grid START:STEP:STOP in dB")
    p_sweep.add_argument("--seed", type=int, help="master seed, one 64-bit two's-complement word")
    p_sweep.add_argument("--no-sim", action="store_true", help="emit theory-only rows")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    # read a grid such as -20:5:30 as a value, not as an option, as argparse does from Python 3.13 on
    p_sweep._negative_number_matcher = re.compile(r"-\.?\d")

    p_val = sub.add_parser("validate-channel", help="channel statistics report (exact vs approximate cascade)")
    p_val.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    p_val.add_argument("--samples", type=int, default=10**6)
    p_val.add_argument("--seed", type=int, default=0, help="seed, one 64-bit two's-complement word")
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
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except analysis.QuadratureError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
