#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|heavy|table2 \
        --seed N --seconds S --trace 0|1 [--tiny]

Builds the perfbench harness and the mwr_served daemon from the sources in
this checkout (CMake, Release, into .bench_build/), then runs the harness in
its own process group with a private work directory under .bench_out/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when the
build succeeded and every output was correct.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("fleet", "heavy", "table2")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Configures once, then lets the build tool decide what is stale."""
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "mwr_served"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                # A failed configure must not leave a cache behind that
                # makes the next run skip it.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    harness = os.path.join(BUILD_DIR, "perfbench")
    daemon = os.path.join(BUILD_DIR, "mwr", "tools", "mwr_served")
    for binary in (harness, daemon):
        if not os.access(binary, os.X_OK):
            fail(f"build produced no {binary}")
    return harness, daemon


def check_result(line, trace):
    """The result line must be one JSON object of the agreed shape."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as spec_file:
            spec = json.load(spec_file)
        wanted = spec["per_layer" if trace else "end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                print(f"perfbench: metric {metric['name']} missing or in the "
                      "wrong unit", file=sys.stderr)
                return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurements)")
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    harness, daemon = build(env)

    # Relative paths keep the daemon's socket path short.
    run_dir = os.path.join(
        OUT_DIR, f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", daemon, "--out", run_dir]
    if args.tiny:
        command.append("--tiny")

    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        # The harness and its daemons live in their own process group;
        # take them down with this process.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        # Nothing the harness started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    trace_file = os.path.join(run_dir, "trace.json")
    if os.path.exists(trace_file):
        kept = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        shutil.move(trace_file, kept)
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], args.trace) if lines else None
    if result is None:
        fail(f"the harness printed no valid result (exit code {proc.returncode})")
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
