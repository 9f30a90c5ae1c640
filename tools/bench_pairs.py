"""Run the benchmark on two checkouts in alternating pairs and summarise every end-to-end metric.

Usage (from any directory):

    python3 tools/bench_pairs.py PARENT_DIR HEAD_DIR --workloads sweep_ar1_approx theory_grid \\
        --pairs 10 --out BENCH_6.json [--seed-base N]

For each workload and pair i, `perfbench/run.py --workload W --seed SEED_i --trace 0` runs
once in each checkout (the first one as the parent, the second as the change), with
the same seed on both sides; even pairs run the parent first, odd pairs the change, so
drift of the host's speed over a pair falls on each side equally often.  The
seeds are `seed_base + i`.  Each checkout's `perfbench/run.py` runs for its own
`run_seconds`; the parent's BENCHMARK.json names the metrics and their direction
(`end_to_end`), and its `run_seconds` is recorded in the output.

The output JSON holds the environment block of the first run, the seeds and for
every workload and metric: the values of each side, their median and quartiles,
the median ratio change/parent, and `change_wins`, the number of pairs in which the
change is strictly better.  Beside the metrics of each workload, `steal_share` lists for
each side the share of the host's CPU time that the hypervisor stole during each paired
run, in the order of the metrics' values: the steal jiffies over all jiffies of the `cpu`
line of /proc/stat, read before and after the run, or null where /proc/stat cannot be
read.  A run that fails, prints no result line, prints a last line that is not a JSON
object, reports `correct: false` or lacks a numeric value of an `end_to_end` metric is
listed under `failures`, and its pair is left out of the statistics of both sides, so
every summary is taken over the same seeds.  The output is rewritten after every pair, so an
interrupted run keeps the pairs it finished.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PROC_STAT = Path("/proc/stat")


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot, or None where /proc/stat cannot be read.

    The total sums user, nice, system, idle, iowait, irq, softirq and steal; guest time is
    already counted in user and nice.
    """
    try:
        with PROC_STAT.open() as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Steal jiffies over all jiffies between two `cpu_jiffies` readings, or None without both or a jiffy between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_once(checkout: Path, workload: str, seed: int, names=()):
    """One `perfbench/run.py` run: (metrics, environment), or (None, reason) on failure.

    A result line that is not a JSON object, or whose metrics are not a mapping of
    {"value": number} objects that holds every one of `names`, is malformed.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return None, "malformed result line"
    if not result.get("correct"):
        return None, f"correct=false, {result.get('failed')} of {result.get('attempted')} failed"
    try:
        values = {name: m["value"] for name, m in result["metrics"].items()}
    except (AttributeError, KeyError, TypeError):
        return None, "malformed result line"
    if not all(type(values.get(name)) in (int, float) for name in (*names, *values)):
        return None, "malformed result line"
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return values, info.get("environment")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def report(metrics: dict, paired: list) -> dict:
    """Each metric's summary on both sides, median ratio and win count over the `paired` runs."""
    entries = {}
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "higher" else -1
        entry = {"unit": spec["unit"], "better": spec["better"]}
        if paired:
            for side, runs in zip(SIDES, zip(*paired)):
                entry[side] = summary([run[name] for run in runs])
            if entry["parent"]["median"]:
                entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_wins"] = sum(sign * (c[name] - p[name]) > 0 for p, c in paired)
        entry["pairs"] = len(paired)
        entries[name] = entry
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = [args.seed_base + i for i in range(args.pairs)]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))

    out = {
        "environment": None,
        "run_seconds": bench["run_seconds"],
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "parent first in even pairs (0, 2, ...), change first in odd pairs",
        "workloads": {},
        "failures": [],
    }
    first = next(iter(metrics))  # the metric the progress line shows
    for workload in args.workloads:
        paired = []  # (parent metrics, change metrics) of the pairs where both sides ran
        steal = []  # (parent steal share, change steal share) of the same pairs
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            got, shares = {}, {}
            for side in order:
                before = cpu_jiffies()
                result, detail = run_once(checkouts[side], workload, seed, metrics)
                shares[side] = steal_share(before, cpu_jiffies())
                if result is None:
                    out["failures"].append({"workload": workload, "seed": seed, "side": side, "reason": detail})
                    continue
                out["environment"] = out["environment"] or detail
                got[side] = result
            if len(got) == 2:
                paired.append((got["parent"], got["change"]))
                steal.append((shares["parent"], shares["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  + ", ".join(f"{s} {first}={got[s][first]:.4g}" for s in SIDES if s in got),
                  file=sys.stderr)
            # written after every pair, so that an interrupted run keeps the pairs it finished
            out["workloads"][workload] = {**report(metrics, paired),
                                          "steal_share": {side: [pair[k] for pair in steal]
                                                          for k, side in enumerate(SIDES)}}
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if out["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
