#!/usr/bin/env python3
"""Builds and runs the hvbench benchmark.

    python3 hvbench/run.py --workload explore|dashboard|heal --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds
hvbench/ (an optimised build of the Hillview libraries plus the benchmark)
under .bench_build/hvbench, runs one workload and passes its output through;
the last line of standard output is the run's JSON result.

It refuses a build directory configured with sanitizers, as
bench/run_benches.sh does. It also keeps each (workload, seed) run's
fingerprint, the digest of its action sequence (and, for heal, of its fault
verdicts), in .bench_build/hvbench/fingerprints.json, and fails a run whose
fingerprint differs from an earlier run of the same seed on the same source
tree: a change in the action mix must not pass as a change in speed. The
fingerprints are keyed by a digest of the sources the benchmark builds, so a
change to the program starts a fresh record instead of failing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "hvbench")
BUILD = os.path.join(ROOT, ".bench_build", "hvbench")
BINARY = os.path.join(BUILD, "hvbench")
FINGERPRINTS = os.path.join(BUILD, "fingerprints.json")
# What the benchmark binary is built from.
TREE = ["CMakeLists.txt", "cmake", "src", "hvbench"]


def tree_digest():
    """SHA-256 over the paths and contents of the files the build reads."""
    digest = hashlib.sha256()
    for entry in TREE:
        top = os.path.join(ROOT, entry)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if "__pycache__" not in d)
        for path in sorted(paths):
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read() + b"\0")
    return digest.hexdigest()[:16]


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    marker = os.path.join(BUILD, ".hillview_sanitize")
    if os.path.exists(marker):
        with open(marker) as f:
            raise SystemExit("error: %s was configured with HILLVIEW_SANITIZE=%s;"
                             " sanitizer timings are not benchmarks"
                             % (BUILD, f.read().strip()))


def check_fingerprint(workload, seed, lines):
    """Returns an error message when this seed's fingerprint changed."""
    found = [l.split(":", 1)[1].strip() for l in lines
             if l.startswith("fingerprint:")]
    if len(found) != 1:
        return "the run printed no fingerprint"
    known = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as f:
            known = json.load(f)
    key = "%s/%s/%d" % (tree_digest(), workload, seed)
    if key in known and known[key] != found[0]:
        return "fingerprint of %s changed: %s, earlier %s" % (
            key, found[0], known[key])
    known[key] = found[0]
    tmp = FINGERPRINTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, FINGERPRINTS)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["explore", "dashboard", "heal"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as e:
        print("error: building hvbench failed: %s" % e, file=sys.stderr)
        return 1
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    result = json.loads(lines[-1])
    error = check_fingerprint(args.workload, args.seed, lines)
    if error is not None:
        print("FAILED " + error)
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
