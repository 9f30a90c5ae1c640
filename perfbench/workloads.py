"""The benchmark's workloads: the dafrelay commands one repetition runs, and the
checks on what each command prints.

Every workload goes through `dafrelay.cli.main`, the entry point users run.
One repetition ("rep") is a fixed amount of work whose inputs come from the
rep's number in the run and a random stream that run.py seeds from `--seed`.
An operation is one CSV row or one validate-channel report.  It fails if its
command raises or exits non-zero, or if it fails its output check.

The checks compare against `reference.json`, which `make_reference.py` writes:
- a simulated BER must lie in a band around a reference mean.  The band is set
  from the spread of single-frame BERs (batch means over frames, which are
  independent, while errors inside a frame come in bursts), so it holds for
  any correct random stream;
- theory columns must equal a stored `pep_point` table to rtol 1e-9, allowing
  for the 6 significant digits the CSV prints;
- channel statistics must meet acceptance-2-style tolerances, widened as
  1/sqrt(samples) below 10^6 samples.

Each workload also names the hostspeed.py kernel that run.py times between its
reps, and `calibration_s`, that kernel's median time when run back to back on
the reference machine (2-vCPU Intel Xeon VM at 2.0 GHz, numpy 2.4.6, scipy
1.17.1).  Between reps it runs with cold caches and reads about 1.4 times that.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from scipy.special import j0

from dafrelay.channel import SCENARIOS
from dafrelay.cli import read_config_file

HERE = Path(__file__).resolve().parent
SCHEMES = ("cdd", "tvd", "opt")
BAND_Z = 5.0  # band half-width, in standard errors of the rep's mean over frames
SWEEP_COLUMNS = ("p_db", "scenario", "scheme", "m", "ber_sim", "ber_theory", "ber_floor", "truncated")
# tolerances at 10^6 samples on |mean|, |variance - 1| and |lag-1 - expected|: those of
# acceptance 2, except variance.  Its estimate for the exact product has sd ~0.0045 at
# 2x10^6 samples and a heavy right tail, so acceptance 2's 0.02 (about 4 sd) would fail
# correct code now and then over the hundreds of reps that repeated runs make.
STAT_TOLERANCES = (0.01, 0.04, 0.01)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def p_key(p_db: float) -> str:
    return f"{p_db:g}"


def close_to_printed(printed: str, ref: float) -> bool:
    """True if `printed` (6 significant digits) is a value within rtol 1e-9 of `ref`, rounded."""
    value = float(printed)
    if ref == 0.0:
        return value == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(value - ref) <= half_digit + 1e-9 * abs(ref)


@dataclass
class Call:
    """One dafrelay command of a rep, what it should cover, and what it returned."""

    argv: list
    scenario: str = ""
    m: int = 0
    grid: tuple = ()
    rc: int | None = None
    out: str = ""
    err: str = ""
    wall: float = 0.0
    estimates: list = field(default_factory=list)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    work: float = 0.0  # symbols, rows or samples that passed their checks
    problems: list = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.work += other.work
        self.problems += other.problems


def check_sweep_csv(call: Call, ref: dict, row_check) -> Verdict:
    """Check the rows of one `sweep --scheme all` CSV; one operation per row.

    `row_check(key, row)` returns (problems, work) for the simulation columns.
    """
    keys = [(round(p, 6), s) for s in SCHEMES for p in call.grid]
    if call.rc != 0:
        return Verdict(len(keys), len(keys), 0.0, [f"{call.argv}: exit {call.rc}: {call.err.strip()}"])
    reader = csv.DictReader(io.StringIO(call.out))
    absent = [c for c in SWEEP_COLUMNS if c not in (reader.fieldnames or ())]
    if absent:
        return Verdict(len(keys), len(keys), 0.0, [f"{call.argv}: CSV lacks columns {absent}"])
    rows, verdict = {}, Verdict()
    for row in reader:
        try:
            key = (round(float(row["p_db"]), 6), row["scheme"])
        except (TypeError, ValueError):
            key = None
        if key in rows or key not in keys:
            verdict.add(Verdict(1, 1, 0.0, [f"unexpected row {dict(row)}"]))
        else:
            rows[key] = row
    theory = ref["theory"][f"{call.scenario}/{call.m}"]
    for key in keys:
        row = rows.get(key)
        try:
            problems, work = (["row missing"], 0.0) if row is None else row_check(key, row)
            if row is not None:
                if (row["scenario"], row["m"]) != (call.scenario, str(call.m)):
                    problems.append(f"labelled {row['scenario']}/{row['m']}")
                for column, expected in zip(("ber_theory", "ber_floor"), theory[p_key(key[0])]):
                    if not close_to_printed(row[column], expected):
                        problems.append(f"{column}={row[column]} but the reference is {expected!r}")
        except (TypeError, ValueError, ArithmeticError) as exc:
            problems, work = [f"unparsable row {dict(row)}: {exc}"], 0.0
        failed = bool(problems)
        verdict.add(Verdict(1, int(failed), 0.0 if failed else work,
                            [f"{call.scenario}/{call.m} {key}: {p}" for p in problems]))
    return verdict


class SimSweep:
    """`sweep --scheme all`, scenario III at 10 and 30 dB, with a binding symbol budget."""

    work_unit = "symbols simulated"
    captures_estimates = True

    def __init__(self, name: str, m: int, config: str, kernel: str, calibration_s: float):
        self.name, self.m, self.config = name, m, config
        self.kernel, self.calibration_s = kernel, calibration_s
        # the same in the full-size config and its _small variant
        self.frame_len = int(read_config_file(HERE / "configs" / f"{config}.cfg")["frame_len"])

    def calls(self, rng, small: bool, index: int) -> list:
        cfg = f"perfbench/configs/{self.config}{'_small' if small else ''}.cfg"
        argv = ["sweep", "--config", cfg, "--scenario", "III", "--m", str(self.m),
                "--scheme", "all", "--pdb", "10:20:30", "--seed", str(rng.randrange(2**31))]
        return [Call(argv, "III", self.m, (10.0, 30.0))]

    def band(self, est, ref: dict) -> tuple:
        """Reference mean and half-width of the band the BER of `est` must fall in."""
        band = ref["sweeps"][self.name][p_key(est.P_dB)][est.scheme.value]
        symbols = est.bits / math.log2(self.m)
        return band["mean"], BAND_Z * band["sd"] * math.sqrt(self.frame_len / symbols + 1.0 / band["frames"])

    def check(self, calls: list, ref: dict) -> Verdict:
        verdict = Verdict()
        for call in calls:
            found = {}
            for est in call.estimates:
                found.setdefault((round(est.P_dB, 6), est.scheme.value), []).append(est)

            def row_check(key, row):
                ests = found.get(key, [])
                if len(ests) != 1:
                    return [f"{len(ests)} simulation results observed for this row"], 0.0
                est = ests[0]
                mean, half = self.band(est, ref)
                problems = []
                if not close_to_printed(row["ber_sim"], est.ber):
                    problems.append(f"ber_sim={row['ber_sim']} but the simulation returned {est.ber!r}")
                elif abs(float(row["ber_sim"]) - mean) > half:
                    problems.append(f"ber_sim={row['ber_sim']} outside {mean:.6g} +- {half:.3g}")
                if row["truncated"] != "1":
                    problems.append("row stopped by the symbol budget is not marked truncated")
                return problems, est.bits / math.log2(self.m)

            verdict.add(check_sweep_csv(call, ref, row_check))
        return verdict


class TheoryGrid:
    """`sweep --no-sim --scheme all` for scenarios I-III and M = 2, 4 on a 5 dB grid.

    Rep `index` takes grid offset index % 10 on the reference's 0.5 dB lattice,
    so every run covers 0..59.5 dB evenly with the same number of rows (12 per
    scenario and M) in every rep.  The offsets' costs differ by up to 10%, and an
    uneven draw of them would add that to the spread between runs.  The output
    is deterministic, so `--seed` changes nothing here.
    """

    name = "theory_grid"
    work_unit = "theory rows"
    captures_estimates = False
    kernel, calibration_s = "theory", 0.035

    def calls(self, rng, small: bool, index: int) -> list:
        start = 0.5 * (index % 10)
        n = 1 if small else 12
        pdb = f"{start:g}" if small else f"{start:g}:5:{start + 5 * (n - 1):g}"
        grid = tuple(start + 5.0 * i for i in range(n))
        return [
            Call(["sweep", "--no-sim", "--scheme", "all", "--scenario", scn, "--m", str(m), "--pdb", pdb],
                 scn, m, grid)
            for scn in ("I", "II", "III") for m in (2, 4)
        ]

    def check(self, calls: list, ref: dict) -> Verdict:
        def row_check(key, row):
            filled = [c for c in ("ber_sim", "truncated") if row[c] != ""]
            return ([f"theory-only row fills {filled}"] if filled else []), 1.0

        verdict = Verdict()
        for call in calls:
            verdict.add(check_sweep_csv(call, ref, row_check))
        return verdict


_MODEL_LINE = re.compile(
    r"model=(?P<model>\w+) mean=\((?P<re>\S+),(?P<im>\S+)\) variance=(?P<var>\S+) "
    r"lag1_autocorr=(?P<lag1>\S+) chi2=(?P<chi2>\S+) p_value=(?P<p>\S+)"
)


class ValidateChannel:
    """`validate-channel --scenario III` on 2x10^6 samples: both cascade models."""

    name = "validate_channel"
    work_unit = "channel samples"
    captures_estimates = False
    kernel, calibration_s = "validate", 0.042
    samples = 2 * 10**6

    def calls(self, rng, small: bool, index: int) -> list:
        n = 10**4 if small else self.samples
        argv = ["validate-channel", "--scenario", "III", "--samples", str(n),
                "--seed", str(rng.randrange(2**31))]
        return [Call(argv, "III")]

    def check(self, calls: list, ref: dict) -> Verdict:
        verdict = Verdict()
        for call in calls:
            n = int(call.argv[call.argv.index("--samples") + 1])
            problems = self.report_problems(call, n)
            verdict.add(Verdict(1, int(bool(problems)), 0.0 if problems else n, problems))
        return verdict

    @staticmethod
    def report_problems(call: Call, n: int) -> list:
        if call.rc != 0:
            return [f"{call.argv}: exit {call.rc}: {call.err.strip()}"]
        scenario = SCENARIOS[call.scenario]
        alpha = float(j0(2 * math.pi * scenario.f_sr) * j0(2 * math.pi * scenario.f_rd))
        widen = max(1.0, math.sqrt(10**6 / n))
        tol_mean, tol_var, tol_lag = (t * widen for t in STAT_TOLERANCES)
        models = {m["model"]: m for m in _MODEL_LINE.finditer(call.out)}
        problems = [f"no report line for model {k}" for k in ("exact", "approx") if k not in models]
        for name, m in models.items():
            try:
                mean = abs(complex(float(m["re"]), float(m["im"])))
                var, lag1, chi2, p = (float(m[k]) for k in ("var", "lag1", "chi2", "p"))
            except ValueError as exc:
                problems.append(f"{name}: unparsable report line: {exc}")
                continue
            if not mean < tol_mean:
                problems.append(f"{name}: |mean|={mean:.5f} >= {tol_mean:.4f}")
            if not abs(var - 1.0) < tol_var:
                problems.append(f"{name}: variance={var:.5f} off 1 by >= {tol_var:.4f}")
            if not abs(lag1 - alpha) < tol_lag:
                problems.append(f"{name}: lag-1={lag1:.5f} off {alpha:.5f} by >= {tol_lag:.4f}")
            if not (chi2 >= 0.0 and 0.0 <= p <= 1.0):
                problems.append(f"{name}: chi2={chi2} p_value={p} out of range")
        histogram = call.out.split("histogram:", 1)[-1].strip().splitlines()[1:]
        if len(histogram) != 100:
            problems.append(f"histogram has {len(histogram)} bins, expected 100")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SimSweep("sweep_sos_exact", 2, "sos_exact", "sos", 0.043),
        SimSweep("sweep_ar1_approx", 4, "ar1_approx", "ar1", 0.041),
        TheoryGrid(),
        ValidateChannel(),
    )
}
