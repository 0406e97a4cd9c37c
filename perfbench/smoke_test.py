#!/usr/bin/env python3
"""Smoke test for the perfbench benchmark.

Runs every workload at a tiny size (--tiny, 1 s), untraced and traced.
Checks that each run exits 0 with a correct result whose metrics are
exactly the ones BENCHMARK.json names, each with its unit.  Takes about a
minute after the build.  Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("fleet", "heavy", "table2")


def main():
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        print(f"BENCHMARK.json names unknown workloads {names}")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            wanted = {m["name"]: m["unit"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"FAIL {label}: no result line\n{proc.stderr[-2000:]}")
                failures += 1
                continue
            got = {name: metric.get("unit")
                   for name, metric in result["metrics"].items()}
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("result not correct")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                wrong = sorted(n for n in wanted
                               if n in got and got[n] != wanted[n])
                problems.append(f"metrics missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{name} has no numeric value")
            if problems:
                failures += 1
                print(f"FAIL {label}: {'; '.join(problems)}\n"
                      f"{proc.stderr[-2000:]}")
            else:
                print(f"ok   {label}: {len(got)} metrics")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
