"""dafrelay benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a dafrelay checkout; the package is imported from its
`src/`, nothing is installed.  Each workload (see workloads.py) runs in this
process through `dafrelay.cli.main`, repeating a fixed amount of work ("rep")
until `--seconds` have passed.  BLAS/OpenMP thread pools are capped at the
number of usable CPUs.

`--trace 0` prints the end-to-end metrics, medians over reps:
  work_per_s     the workload's work items that passed their checks, per second:
                 symbols simulated (sweeps), theory rows (theory_grid) or channel
                 samples (validate_channel)
  wall_s         wall time of one rep's dafrelay commands
                 (both corrected for host speed: each rep's wall is divided by the
                 host-speed factor, the time hostspeed.py, a separate process, takes
                 for its kernel around the rep over the workload's calibration_s;
                 the raw medians and the factor are on the info line)
  setup_s        median over fresh interpreters of: start, import dafrelay.cli, run
                 one small operation of the workload (which does the lazy imports), exit;
                 corrected for host speed by the wall of a fresh interpreter that imports
                 only numpy and scipy (setup_seconds)
  peak_rss_mb    peak resident memory of this process, which runs only this workload
  ok_op_share    operations that passed / operations attempted
`--trace 1` alternates plain and traced reps and prints the per-layer metrics
(tracing.py) and `trace.overhead_share`, the traced rep wall over the plain
one, minus 1.  Every workload prints every metric; a layer metric whose layer
the workload never calls reads 0, and the report names those metrics.

Every run checks every operation's output.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it report the checks and the trace, and an `info` line holds the environment,
CSV SHA-256 digests and the medians before the host-speed correction.
`--smoke` runs every workload at a tiny size in both modes and exits non-zero
unless each run emits exactly the metrics BENCHMARK.json names for its mode,
each with its unit, and the checks both run and catch corrupted output: theory
columns and channel statistics scaled, and simulated BERs moved just outside
their reference band.
"""

import argparse
import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
# host-speed reference for set-up: a fresh interpreter that imports only numpy and
# scipy, which is most of what dafrelay's set-up does, and its median wall on the
# reference machine
SETUP_REFERENCE = "import numpy, scipy.special, scipy.signal, scipy.integrate"
SETUP_REFERENCE_S = 1.77
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no package source, or a set-up probe failed)."""


def cap_threads() -> dict:
    """Cap every BLAS/OpenMP pool at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def load_package():
    """Import dafrelay from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dafrelay" / "__init__.py").is_file():
        raise SetupError(f"no dafrelay package under {src}; run from a dafrelay checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import dafrelay

    if Path(dafrelay.__file__).resolve().parent != src / "dafrelay":
        raise SetupError(f"imported dafrelay from {dafrelay.__file__}, not from {src}")
    return dafrelay


def environment(thread_caps: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": thread_caps,
    }


def run_call(call, tracer=None, capture=None):
    """Run one dafrelay command in-process, recording exit code, output and wall time."""
    from dafrelay import cli
    from tracing import SIM_ENTRY_POINTS, TRACED, patched

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if capture is not None:
            stack.enter_context(patched(SIM_ENTRY_POINTS, capture.wrapper))
        if tracer is not None:
            stack.enter_context(patched(TRACED, tracer.wrapper))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        start = time.perf_counter()
        try:
            if tracer is None:
                call.rc = cli.main(call.argv)
            else:
                call.rc = tracer.call("cli.main", cli.main, (call.argv,), {})
        except Exception:  # a crash fails this command's operations, not the run
            call.rc = None
            err.write(traceback.format_exc())
        call.wall = time.perf_counter() - start
    call.out, call.err = out.getvalue(), err.getvalue()
    if capture is not None:
        call.estimates = capture.estimates


def run_rep(workload, rng, small, tracer=None, index=0):
    from tracing import EstimateCapture

    calls = workload.calls(rng, small, index)
    for call in calls:
        run_call(call, tracer, EstimateCapture() if workload.captures_estimates else None)
    return calls


@contextlib.contextmanager
def host_speed(workload):
    """Start hostspeed.py for the workload's kernel; yields a function that returns
    the host-speed factor now (kernel time / its time on the reference machine)."""
    cmd = [sys.executable, "-B", str(Path(__file__).resolve().parent / "hostspeed.py"), workload.kernel]
    # one thread, so that BLAS threads still spinning in this process cannot slow the kernel
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def factor() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SetupError(f"host-speed probe exited with {proc.wait()}")
        return float(line) / workload.calibration_s

    try:
        yield factor
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def setup_seconds(workload_name: str, probes: int) -> tuple:
    """Median over probes of the wall of a fresh interpreter that imports dafrelay.cli and
    runs one small operation, each divided by the host-speed factor of a fresh interpreter
    that runs SETUP_REFERENCE just before it; and the median uncorrected wall."""

    def wall(cmd) -> float:
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe {cmd} failed with exit {proc.returncode}: {proc.stderr.strip()}")
        return time.perf_counter() - start

    probe = [sys.executable, "-B", str(Path(__file__).resolve()), "--setup-probe", "--workload", workload_name]
    walls, corrected = [], []
    for _ in range(probes):
        factor = wall([sys.executable, "-B", "-c", SETUP_REFERENCE]) / SETUP_REFERENCE_S
        walls.append(wall(probe))
        corrected.append(walls[-1] / factor)
    return statistics.median(corrected), statistics.median(walls)


def setup_probe(workload_name: str) -> int:
    from workloads import WORKLOADS

    calls = run_rep(WORKLOADS[workload_name], random.Random(0), small=True)
    return 0 if all(c.rc == 0 for c in calls) else 1


def bench(workload, seed: int, seconds: float, trace: bool, small: bool = False):
    """Run one workload; returns (metrics, verdict, report lines, info: CSV SHA-256 by
    command line and, untraced, the medians before the host-speed correction)."""
    from tracing import Tracer, layer_metrics, merge, self_time_report
    from workloads import Verdict, load_reference

    ref = load_reference()
    rng = random.Random(f"{workload.name}:{seed}")
    lines = []
    setup, raw_setup = (None, None) if trace else setup_seconds(workload.name, 1 if small else SETUP_PROBES)
    run_rep(workload, random.Random(-1), small=True)  # warm-up: lazy imports, allocator

    verdict, plain, traced, tracers, digests = Verdict(), [], [], [], {}
    info = {"csv_sha256": digests}
    with contextlib.ExitStack() as stack:
        factor = (lambda: 1.0) if trace else stack.enter_context(host_speed(workload))
        before = factor()
        deadline = time.perf_counter() + seconds
        while True:
            tracer = Tracer() if trace and len(plain) > len(traced) else None
            calls = run_rep(workload, rng, small, tracer, len(traced) if tracer else len(plain))
            after = factor()
            rep = workload.check(calls, ref)
            verdict.add(rep)
            wall = sum(c.wall for c in calls)
            (traced if tracer else plain).append((wall, rep.work, (before + after) / 2))
            before = after
            if tracer:
                tracers.append(tracer)
            for c in calls:
                if c.argv[0] == "sweep" and c.rc == 0:
                    digests[" ".join(c.argv)] = hashlib.sha256(c.out.encode()).hexdigest()
            if time.perf_counter() >= deadline and (traced or not trace):
                break

    metrics = {}
    if trace:
        spans = merge(tracers)
        traced_wall = sum(w for w, _, _ in traced)
        overhead = statistics.median(w for w, _, _ in traced) / statistics.median(w for w, _, _ in plain) - 1.0
        metrics = layer_metrics(spans, len(traced), traced_wall, overhead)
        lines += self_time_report(spans, len(traced), traced_wall)
        lines.append(f"trace.overhead_share = {overhead:+.4f} (median traced rep wall / median plain rep wall - 1)")
        idle = sorted(name for name, v in metrics.items() if v["value"] == 0)
        if idle:
            lines.append(f"read 0, as their spans never ran or counted nothing on this workload: {', '.join(idle)}")
    else:
        metrics["work_per_s"] = {
            "value": statistics.median(work * k / wall for wall, work, k in plain), "unit": "1/s"}
        metrics["wall_s"] = {"value": statistics.median(wall / k for wall, _, k in plain), "unit": "s"}
        info["raw_medians"] = {
            "work_per_s": statistics.median(work / wall for wall, work, _ in plain),
            "wall_s": statistics.median(wall for wall, _, _ in plain),
            "host_speed_factor": statistics.median(k for _, _, k in plain),
            "setup_s": raw_setup,
        }
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"}
        metrics["ok_op_share"] = {"value": 1.0 - verdict.failed / verdict.attempted, "unit": "ratio"}
    reps = len(plain) + len(traced)
    lines.insert(0, f"{workload.name}: {reps} reps ({len(traced)} traced), {verdict.attempted} operations "
                    f"checked, {verdict.failed} failed, {verdict.work:.6g} {workload.work_unit} passed")
    lines[1:1] = [f"check failed: {p}" for p in verdict.problems[:20]]
    return metrics, verdict, lines, info


def result_line(metrics, verdict) -> str:
    return json.dumps({
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    })


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks metric coverage and that checks bite."""
    from workloads import WORKLOADS, load_reference

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = load_reference()
    failures = []
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            metrics, verdict, lines, _ = bench(workload, 1, 0.0, trace, small=True)
            print(f"smoke {name} trace={int(trace)}: {result_line(metrics, verdict)}")
            if verdict.attempted == 0 or verdict.failed:
                failures.append(f"{name}: {verdict.failed}/{verdict.attempted} operations failed: "
                                f"{verdict.problems[:3]}")
            units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            for metric, unit in units.items():
                if metrics.get(metric, {}).get("unit") != unit:
                    failures.append(f"{name} trace={int(trace)}: {metric} emitted as {metrics.get(metric)!r}, "
                                    f"BENCHMARK.json says unit {unit!r}")
            for metric, v in metrics.items():
                if metric not in units:
                    failures.append(f"{name} trace={int(trace)}: {metric} emitted but not named in BENCHMARK.json")
                elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    failures.append(f"{name} trace={int(trace)}: {metric} has no finite numeric value")
        clean = run_rep(workload, random.Random(1), small=True)
        for corruption in (scale_theory, shift_ber_sim):
            calls = copy.deepcopy(clean)
            if not corruption(workload, calls, ref):
                continue
            verdict = workload.check(calls, ref)
            if verdict.failed < verdict.attempted:
                failures.append(f"{name}: {corruption.__name__}: the checks accepted "
                                f"{verdict.attempted - verdict.failed} of {verdict.attempted} corrupted operations")
    for f in failures:
        print(f"SMOKE FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


def edit_rows(text: str, edit) -> str:
    """Apply `edit(row)` to every row of a sweep CSV."""
    reader = csv.DictReader(io.StringIO(text))
    out = io.StringIO()
    writer = csv.DictWriter(out, reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in reader:
        edit(row)
        writer.writerow(row)
    return out.getvalue()


def scale_theory(workload, calls, ref) -> bool:
    """Scale every printed ber_theory by 1.5, and put a 1 before every validate variance."""
    for call in calls:
        if call.argv[0] == "validate-channel":
            call.out = call.out.replace("variance=", "variance=1")
        else:
            call.out = edit_rows(call.out, lambda row: row.update(ber_theory=f"{float(row['ber_theory']) * 1.5:.6g}"))
    return True


def shift_ber_sim(workload, calls, ref) -> bool:
    """Move every simulated BER, as returned and as printed, to 1.5 band half-widths above
    its reference mean; theory columns stay as they are.  False if nothing is simulated."""
    if not workload.captures_estimates:
        return False
    for call in calls:
        printed = {}
        for i, est in enumerate(call.estimates):
            mean, half = workload.band(est, ref)
            call.estimates[i] = dataclasses.replace(est, ber=mean + 1.5 * half)
            printed[(round(est.P_dB, 6), est.scheme.value)] = f"{mean + 1.5 * half:.6g}"
        call.out = edit_rows(call.out, lambda row: row.update(
            ber_sim=printed[(round(float(row["p_db"]), 6), row["scheme"])]))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dafrelay benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, self-checking")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    caps = cap_threads()
    try:
        load_package()
        os.chdir(ROOT)
        from workloads import WORKLOADS

        if args.setup_probe:
            return setup_probe(args.workload)
        if args.smoke:
            return smoke()
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        if args.seconds is None:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        metrics, verdict, lines, info = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (SetupError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print("info " + json.dumps({"environment": environment(caps), **info}))
    print(result_line(metrics, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
