#!/usr/bin/env python3
"""FTL benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the ftlbench binary and the FTL libraries from this checkout's
sources (Release, into .bench_build/), generates the workload's inputs
from the seed in a separate process (cached under .bench_data/, keyed by
the seed and by a hash of the binary that writes them),
then runs the measured process. The last line of standard output is the
verdict: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end-to-end metrics, with --trace 1 its
per-layer metrics. The host block and the inputs' sizes go to the line
before it and to .bench_results/.

Extra flags, for the self-test only: --scale tiny (small inputs) and
--corrupt 1 (flip one byte of one checked result).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / ".bench_data"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("link_paper", "link_fleet", "serve_ingest")
CACHED_SEEDS = 3  # per workload and scale; a 100k fleet is ~180 MB
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no FTL sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ftlbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail), 1)
    return BUILD / "ftlbench"


def binary_key(binary):
    """Short hash of the binary. The generator, the FTB writer and the
    store it fills are compiled into it, so inputs cached by another
    build are never used."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def inputs(binary, workload, seed, scale):
    """The seed's inputs directory, generated on first use."""
    base = DATA / scale / workload
    target = base / f"seed-{seed}-{binary_key(binary)}"
    base.mkdir(parents=True, exist_ok=True)
    for stale in base.glob("work-*"):
        shutil.rmtree(stale, ignore_errors=True)
    if not (target / "inputs.txt").is_file():
        tmp = base / f"tmp-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        gen = subprocess.run([str(binary), "gen", "--workload", workload,
                              "--seed", str(seed), "--scale", scale,
                              "--out", str(tmp)])
        if gen.returncode:
            shutil.rmtree(tmp, ignore_errors=True)
            die(f"input generation failed for {workload} seed {seed}", 1)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    os.utime(target)
    seeds = sorted(base.glob("seed-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in seeds[CACHED_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    want = expected_metrics(a.trace)

    binary = build()
    data = inputs(binary, a.workload, a.seed, a.scale)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{a.workload}-{a.scale}-seed{a.seed}-trace{a.trace}"
    cmd = [str(binary), "run", "--workload", a.workload, "--data", str(data),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--detail", f"{stem}.json", "--corrupt", str(a.corrupt)]
    if a.trace:
        cmd += ["--trace-out", f"{stem}.spans.json"]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"measured run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.strip().splitlines()
    if run.returncode or len(lines) < 2:
        die(f"measured run failed (exit {run.returncode})", 1)
    verdict = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in verdict["metrics"].items()}
    if got != want:
        die(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}", 1)
    print(lines[-2])
    print(f"# {a.workload} seed={a.seed} scale={a.scale} trace={a.trace} "
          f"measured process {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(verdict))


if __name__ == "__main__":
    main()
