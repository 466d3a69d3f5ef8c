#!/usr/bin/env python3
"""Build and run the LaFP end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload paper_csv_s --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (a CMake package over the
tree's src/ and bench/) into $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr. The benchmark's own stdout is passed
through: its last line is the JSON result. Inputs are generated under
.bench_build/perfbench-work/ and removed when the run ends.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_csv_s", "paper_lfc_l", "serve_mix", "shard_scan")
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def source_digest():
    """Hash of the sources the binary is built from (no git in a checkout)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def private_env():
    """The environment for the build and the run: temporary files stay
    under the build root, inside the checkout."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no LaFP sources under %s/src\n" % ROOT)
        return None
    out = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=private_env()) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return out


def run(cmd):
    proc = subprocess.Popen(cmd, env=private_env())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_stats_test"])
        return 2 if out is None else run([os.path.join(out, "perfbench_stats_test")])
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["perfbench"])
    if out is None:
        return 2
    work = os.path.join(build_root(), "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    try:
        return run([os.path.join(out, "perfbench"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--work-dir", work, "--source-digest", source_digest()])
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
