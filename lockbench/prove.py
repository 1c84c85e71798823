#!/usr/bin/env python3
"""Steadiness check for the lock-service benchmark.

Runs lockbench/run.py on each workload with several seeds, in one or more
sets, and reports for every end-to-end metric (setup_s included) the
median and the quartile spread (Q3 - Q1) / median of
statistics.quantiles(values, n=4) against the bound in BENCHMARK.json.
With --sets 2 or more it also compares each later set's medians with the
first set's: a set may not be worse than the first by more than the bound.
Sets run one after the other, every workload of a set before the next set.

Every run's host diagnostics (env.steal_frac, env.calib_ns) and a few
per-layer counts are recorded next to the metrics, so a shift between
sets can be told apart: host drift moves env.calib_ns and
proc.cpu_us_per_entry with the metrics while the per-entry counts stay
put; a change of scheduling mode moves the counts.

    python3 lockbench/prove.py --runs 10 --sets 2      # every workload
    python3 lockbench/prove.py --runs 5 --workloads threaded-hot
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIAGNOSTICS = ["env.calib_ns", "env.steal_frac", "proc.cpu_us_per_entry",
               "exec.tasks_per_entry", "exec.parks_per_entry",
               "service.chained_frac"]
# Each slice note: its entries/s, acquire p50 and p99.
SLICE = re.compile(r"slice \d+[^:]*: (\S+) entries/s, p50 (\S+) us, "
                   r"p99 (\S+) us")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "lockbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in DIAGNOSTICS:
            values[parts[0]] = float(parts[1])
    values["slices"] = [[float(x) for x in SLICE.match(line).groups()]
                        for line in lines if line.startswith("slice ")]
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, later, better):
    """How much later is worse than first, as a share of first."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return -change if better == "higher" else change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="set k uses seeds first-seed + 100k onwards")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", help="write every run's values as JSON")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = [{} for _ in range(args.sets)]
    for k in range(args.sets):
        for workload in args.workloads:
            runs = record[k].setdefault(workload, [])
            for i in range(args.runs):
                seed = args.first_seed + 100 * k + i
                runs.append(run_once(workload, seed, args.seconds))
                print(f"set {k + 1} {workload} seed {seed}: " + ", ".join(
                    f"{n}={v:.6g}" for n, v in runs[-1].items()
                    if n != "slices"), flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(record, indent=1))

    steady = True
    for workload in args.workloads:
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs")
        for name in list(metrics) + DIAGNOSTICS:
            bound = metrics[name]["bound"] if name in metrics else None
            cells = []
            first = None
            for k in range(args.sets):
                values = [r[name] for r in record[k][workload] if name in r]
                if len(values) < 2:
                    continue
                median, rel = spread(values)
                cell = f"{median:11.5g} ±{rel:6.2%}"
                if bound is not None:
                    ok = rel < bound / 3
                    if first is None:
                        first = median
                    else:
                        shift = worse_by(first, median,
                                         metrics[name]["better"])
                        ok &= shift <= bound
                        cell += f" worse {shift:+7.2%}"
                    steady &= ok
                    cell += "" if ok else " !"
                cells.append(cell)
            label = f"(bound {bound})" if bound is not None else "(diag)"
            print(f"  {name:30s} {label:13s} " + "  |  ".join(cells))
    print("\nspread is (Q3-Q1)/median; '!' marks a set whose spread is "
          "above bound/3 or that is worse than the first by more than the "
          "bound")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
