#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 rstbench/run.py --workload <paper_trials|campaign_mix|all> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds rstbench/ (the library sources plus the benchmark
program) in Release mode under .bench_build/rstbench, runs the workload in
its own process with every RST_* environment variable removed, and prints
the program's report. The last stdout line is the JSON result; the exit
status is non-zero when an output check failed or the benchmark could not
run. `--workload all` runs every workload in turn, each in its own process,
and exits non-zero if any of them failed. Traced runs (--trace 1) also write a Chrome trace JSON (open it in
Perfetto) under .bench_build/rstbench/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rstbench")
# A workload run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("rstbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_commit():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "include", "rstbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the Release benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "include")):
        fail("no library sources (src/, include/) next to rstbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "rstbench")


def expected_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


WORKLOADS = ["paper_trials", "campaign_mix"]


def run_workload(binary, env, removed, workload, args):
    """Runs one workload; prints its report and returns its exit status."""
    trace = args.trace == "1"
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch-dir", os.path.join(BUILD, "scratch"),
           "--expected-dir", HERE]
    if trace:
        cmd += ["--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (workload, args.seed))]
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("rstbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3
    sys.stderr.write(run.stderr)

    lines = run.stdout.rstrip("\n").split("\n")
    print("runner: commit %s, RST_* removed from the environment: %s, wall %.1f s" %
          (env["RSTBENCH_COMMIT"], removed or "none were set", time.monotonic() - started))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("\n".join(lines))
        print("rstbench: %s exited %d without a result line" % (workload, run.returncode),
              file=sys.stderr)
        return run.returncode or 3
    names = expected_metric_names(trace)
    missing = [n for n in names if n not in result["metrics"]]
    extra = [n for n in result["metrics"] if n not in names]
    if missing or extra:
        print("\n".join(lines[:-1]))
        print("rstbench: result metrics disagree with BENCHMARK.json: missing %s, extra %s" %
              (missing, extra), file=sys.stderr)
        return 4
    print("\n".join(lines))
    return run.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    # A terminated runner raises SystemExit, so subprocess.run kills and
    # reaps the child it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("RST_")}
    removed = sorted(k for k in os.environ if k.startswith("RST_"))
    env["RSTBENCH_COMMIT"] = source_commit()

    check = subprocess.run([binary, "--self-check"], capture_output=True, text=True, env=env,
                           check=False)
    if check.returncode != 0:
        sys.stderr.write(check.stdout + check.stderr)
        fail("self-check of the benchmark's own arithmetic failed")

    statuses = [run_workload(binary, env, removed, w, args)
                for w in (WORKLOADS if args.workload == "all" else [args.workload])]
    sys.exit(max(statuses))


if __name__ == "__main__":
    main()
