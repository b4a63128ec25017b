#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library sources under src/ plus soibench) with
CMake into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. soibench's stdout is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. The metric
names and units are checked against BENCHMARK.json before that line is
printed. Exits non-zero, without a result, when the build, the run or the
check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0
RANKS = 4  # rank count of every workload (perfbench/src/workloads.hpp)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, env):
    # Build output goes to stderr: stdout is reserved for the result.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", "soibench",
                 "-j", jobs], env)
    return os.path.join(build_dir, "soibench")


def check_result(line, trace, spec):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    # The benchmark pins its own configuration: environment overrides of
    # the library (transport, engine, faults, timeouts) are dropped, and
    # OpenMP gets one thread per rank for the 4-rank workloads. Left at its
    # default, each rank starts a thread per core (16 threads on 4 cores),
    # which cost about 40% of the serve capacity and made run-to-run
    # spreads exceed the bounds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOI_")}
    env["OMP_NUM_THREADS"] = str(max(1, (os.cpu_count() or 1) // RANKS))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    exe = build(build_dir, env)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    # Own process group, so a hung rank process can be killed with its parent.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    start = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_LIMIT_S:.0f} s and was killed")
    finally:
        # Reap any rank process left in the group (normally none).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {proc.returncode} after "
             f"{time.monotonic() - start:.1f} s")
    check_result(lines[-1], args.trace == "1", spec)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
