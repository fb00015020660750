#!/usr/bin/env python3
"""Builds and runs the dbscore benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paged_mix --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the dbscore sources
it includes) in Release mode under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check the build. Each run first
executes the benchmark's arithmetic self-tests, then the workload. The
last line printed is the result object; the line before it is the full
run record (provenance, per-phase accounting, every metric).

Exit status: 0 on a correct run, 1 when an output was wrong, 2 when the
build, the self-tests or the run failed (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paged_mix", "serve_ladder")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Runs cmd, sending its stdout to our stderr unless captured."""
    kwargs.setdefault("stdout", sys.stderr)
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as err:
        fail("cannot run %s: %s" % (cmd[0], err))
    return None


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = run(["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)
    if built.returncode != 0:
        fail("build failed")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    out = run(["git", "-C", root, "rev-parse", "HEAD"], 30,
              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    sha = out.stdout.decode().strip() if out.returncode == 0 else ""
    return sha or "unknown"


def source_sha(root):
    """sha256 over the program and benchmark sources, path by path."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def check_result(root, line, trace):
    """The result line must match BENCHMARK.json's metric names and units."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(expected.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        fail("--seconds must be 1..60 and --seed non-negative")

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "dbscore")):
        fail("run from the repository root (no src/dbscore here)")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    build(root, build_dir)

    selftest = run([os.path.join(build_dir, "perfbench_selftest")], 60)
    if selftest.returncode != 0:
        fail("self-tests failed")

    scratch = os.path.join(build_root, "scratch-%d" % os.getpid())
    bench = run([os.path.join(build_dir, "perfbench"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", args.trace,
                 "--scratch", scratch, "--git-sha", git_sha(root),
                 "--source-sha", source_sha(root)],
                RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = bench.stdout.decode().splitlines()
    if bench.returncode not in (0, 1) or len(lines) < 2:
        fail("benchmark run failed (exit %d)" % bench.returncode)
    check_result(root, lines[-1], args.trace == "1")
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
