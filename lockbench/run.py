#!/usr/bin/env python3
"""Lock-service benchmark entry point.

Builds the lockbench binary from this checkout (CMake + Ninja, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). A failed build or correctness check prints no result
and exits non-zero.

    python3 lockbench/run.py --workload threaded-hot --seed 1 --seconds 10 --trace 0
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# BENCHMARK.json names the benchmark's workloads; tcp-mesh runs by hand
# only (see README) and is the transport probe of every traced run.
WORKLOADS = ["threaded-spread", "threaded-hot", "tcp-mesh"]
# A run must end within 180 s; the binary itself stops after
# --seconds plus set-up, so this only fires on a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lockbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return ROOT / target / "lockbench"


def build():
    """Configures on first use, then brings the binary up to date."""
    if not (ROOT / "src" / "service" / "lock_space.hpp").is_file():
        fail(f"no lock-service sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "build.ninja").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-G",
                      "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "lockbench"


def selected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args):
    """Runs the binary in its own process group so a hang (or this
    script's own interruption) takes every node process with it."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["witness", "count"],
                        help="deliberately break one run (gate self-test)")
    args = parser.parse_args()

    binary = build()
    wanted = selected_metrics(args.trace)
    spans = build_dir() / "spans" / f"{args.workload}-{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    if args.inject:
        cmd += ["--inject", args.inject]
    code, stdout = run_binary(binary, cmd)
    if code != 0:
        # The binary prints no result line when a check fails.
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with code {code}")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("no result line from the benchmark binary")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing or not result["correct"] or result["attempted"] < 1:
        fail(f"incomplete result (missing {missing})")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
