#!/usr/bin/env python3
"""Self-test of the FTL benchmark, at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric with its unit, each a
    finite number above 0, with correct=true and no failed operation;
  * a traced run prints every per-layer metric with its unit;
  * a run with one checked result deliberately corrupted reports
    correct=false.
Also checks BENCHMARK.json against the limits the benchmark promises,
and that run.py fails without printing a result where the FTL sources
are missing. Exits 0 iff every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, corrupt=0, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--scale", "tiny", "--corrupt", str(corrupt)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def verdict(proc):
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spec():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    check(set(SPEC) == keys, "BENCHMARK.json has exactly the contract's keys")
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    check(all(0 < m["bound"] <= 0.25 for m in e2e.values()), "bounds in (0, 0.25]")
    setup = e2e.get("setup_s", {})
    check(setup.get("unit") == "s" and setup.get("better") == "lower" and
          setup.get("bound") == max(m["bound"] for m in e2e.values()),
          "setup_s is lower-is-better seconds with the largest bound")
    names = list(e2e) + [m["name"] for m in SPEC["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")


def check_workload(name):
    want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    v = verdict(run(name, 0))
    check(v is not None, f"{name}: untraced run completes")
    if v:
        got = {k: m["unit"] for k, m in v["metrics"].items()}
        check(got == want_e2e, f"{name}: every end-to-end metric with its unit")
        check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  and m["value"] > 0 for m in v["metrics"].values()),
              f"{name}: end-to-end values finite and above 0")
        check(v["correct"] is True and v["failed"] == 0 and v["attempted"] >= 1,
              f"{name}: correct, attempted >= 1, none failed")

    v = verdict(run(name, 1))
    check(v is not None, f"{name}: traced run completes")
    if v:
        got = {k: m["unit"] for k, m in v["metrics"].items()}
        check(got == want_layer, f"{name}: every per-layer metric with its unit")
        check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  for m in v["metrics"].values()), f"{name}: per-layer values finite")
        check(v["correct"] is True, f"{name}: traced run correct")

    v = verdict(run(name, 0, corrupt=1))
    check(v is not None and v["correct"] is False,
          f"{name}: a corrupted result flips correct to false")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "without FTL sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_spec()
    for w in SPEC["workloads"]:
        check_workload(w["name"])
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
