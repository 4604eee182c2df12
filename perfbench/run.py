#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <edit_session|history_reads|server_mix> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first run configures and builds ODE and the load generator from source
into .bench_build/perfbench (RelWithDebInfo, the repository's default build
type); later runs only rebuild what changed.  The load generator's output is
passed through: one line per metric, then one JSON result object as the last
line.  A record of each run (provenance, every value, sample counts, and for
a traced run the layer figures) is written to .bench_build/perfbench-results.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
BINARY = os.path.join(BUILD, "ode_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ODE sources at %s/src; run from a repository checkout"
             % ROOT, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "ode_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over ODE's sources, so a record names the code it measured
    even when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def check_benchmark_json():
    """The metric names BENCHMARK.json declares must be exactly the ones the
    load generator prints."""
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {}
    for line in listed:
        if line:
            kind, name, unit = line.split()
            printed[(kind, name)] = unit
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = {(kind, m["name"]): m["unit"] for m in spec[kind]}
        mine = {k: u for k, u in printed.items() if k[0] == kind}
        if declared != mine:
            print("FAIL BENCHMARK.json %s differs from the load generator: "
                  "%s" % (kind, sorted(set(declared.items()) ^
                                       set(mine.items()))))
            ok = False
        for _, name in declared:
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
                print("FAIL metric name %r" % name)
                ok = False
    print(("ok  " if ok else "FAIL") + " BENCHMARK.json metric names")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    if args.selftest:
        ok = check_benchmark_json()
        code = subprocess.run([BINARY, "--selftest"], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
        sys.exit(0 if ok and code == 0 else 1)

    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS]
    try:
        code = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
