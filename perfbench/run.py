#!/usr/bin/env python3
"""closer's end-to-end benchmark: builds closer_bench from source, runs one
workload and passes its result through.

    python3 perfbench/run.py --workload close_corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/ there
(configured once, then incremental); its output goes to stderr, so the last
line of stdout is always the result line. Exits non-zero without a result
when the build, the workload set-up or the result's metric names fail.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "closer_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "closer_bench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def git_provenance():
    """(sha, dirty) of the checkout, or "unknown" outside a git work tree."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir) or not shutil.which("git"):
        return "unknown", "unknown"
    git = ["git", "--git-dir", git_dir, "--work-tree", ROOT]
    try:
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain",
                                       "--untracked-files=no"],
                                capture_output=True, text=True,
                                check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha, "1" if status.strip() else "0"


def tree_sha256():
    """Content hash of everything the benchmark builds from; identifies the
    code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "BENCHMARK.json"),
             os.path.join(ROOT, "bench", "BenchUtil.h")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_error(line, trace):
    """Why \\p line is not a valid result line, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not %s" % sorted(RESULT_KEYS)
    if result["attempted"] < 1:
        return "no reference check was attempted"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return "metrics differ from BENCHMARK.json: got %s, want %s" % (
            sorted(got.items()), sorted(want.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("error: building closer_bench failed", file=sys.stderr)
        return 1
    sha, dirty = git_provenance()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", dirty,
           "--tree-sha", tree_sha256()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("error: closer_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("error: closer_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    err = result_error(lines[-1], args.trace == 1)
    if err:
        print("error: " + err, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
