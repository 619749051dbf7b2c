#!/usr/bin/env python3
"""Build and run the CacheMind end-to-end benchmark.

    python3 perfbench/run.py --workload hot-ask --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which pulls in the
library through the repository's own CMakeLists.txt) into .bench_build/,
runs the measuring program, and prints its metric lines followed by one
JSON result line: {"correct", "attempted", "failed", "metrics"}.

An untraced run (--trace 0) reports the end-to-end metrics. It is made
of PROCESSES separate processes, each of which sets up from scratch and
then measures for a PROCESSES-th of --seconds; every metric is the
median over the processes. This measures set-up several times and
spreads the measurement over a longer stretch of wall clock, which
matters on shared hosts whose speed drifts over tens of seconds. The
accuracy metrics must agree exactly between the processes.

A traced run (--trace 1) is one process reporting the per-layer metrics;
it writes Chrome trace files under .bench_build/perfbench/traces/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "cachemind_perfbench")
WORKLOADS = ("hot-ask", "hot-batch", "cold-batch", "serve-zipf")
# Processes per untraced run; each metric is their median.
PROCESSES = 3
# Deterministic for a seed: every process must report the same value.
EXACT_METRICS = ("tg_accuracy_pct", "ara_score_pct")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_id():
    """The commit when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "commit:" + out.stdout.strip()
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", BUILD, "--target",
                         "cachemind_perfbench", "-j", str(cpu_count())]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic())
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s): %s" % (code, " ".join(cmd)))


def run_program(args, deadline):
    """Run the measuring program; return (metric lines, result dict)."""
    try:
        out = subprocess.run([PROGRAM] + args, stdout=subprocess.PIPE,
                             text=True,
                             timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("exit code %d: %s" % (out.returncode, " ".join(args)))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line: " + " ".join(args))
    return lines[:-1], result


def untraced(common, seconds, deadline):
    """PROCESSES untraced processes folded into one result of medians."""
    runs = [run_program(common + ["--seconds", str(seconds / PROCESSES),
                                  "--trace", "0"], deadline)
            for _ in range(PROCESSES)]
    lines, samples = [], {}
    for k, (out, _) in enumerate(runs):
        for line in out:
            m = re.match(r"metric (\S+) .*\(n=(\d+)\)", line)
            if m:
                samples.setdefault(m.group(1), []).append(m.group(2))
            elif not line.startswith("metric "):
                lines.append("[%d/%d] %s" % (k + 1, PROCESSES, line))
    results = [r for _, r in runs]
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in EXACT_METRICS and len(set(values)) != 1:
            print("perfbench: %s differs between processes: %s" %
                  (name, values), file=sys.stderr)
            merged["correct"] = False
        merged["metrics"][name] = {"value": statistics.median(values),
                                   "unit": metric["unit"]}
        counts = samples.get(name)
        lines.append("metric %-28s %16.6f %-6s (runs: %s%s)" % (
            name, statistics.median(values), metric["unit"],
            " ".join("%.6g" % v for v in values),
            "; n=" + "+".join(counts) if counts else ""))
    return lines, merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0:
        fail("--seed must be a non-negative integer")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--source", source_id()]

    if opts.trace:
        trace_dir = os.path.join(BUILD, "traces",
                                 "%s-seed%d" % (opts.workload, opts.seed))
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        lines, result = run_program(
            common + ["--seconds", str(opts.seconds), "--trace", "1",
                      "--trace-out", trace_dir], deadline)
        lines.append("traces: " + os.path.relpath(trace_dir, ROOT))
    else:
        lines, result = untraced(common, opts.seconds, deadline)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
