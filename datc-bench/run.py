#!/usr/bin/env python3
"""Build and run the datc benchmark for one workload.

    python3 datc-bench/run.py --workload batch-dataset --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary (Release) under .bench_build/; later
calls only rebuild what changed. The binary's output is passed through;
its last line is the JSON result. Exits non-zero, without a result, when
the build fails or the run fails a correctness gate.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch-dataset", "aer-shared", "serve-persist")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # A half-configured tree would make the next call skip this step.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "datc_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_root, "datc-bench")
    if not build(bench_dir, build_dir):
        log("build failed")
        return 1

    work_dir = os.path.join(out_root, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "datc_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Keep the latest traced run's trace JSON per workload; drop the rest.
        if args.trace:
            keep = os.path.join(out_root, "traces")
            os.makedirs(keep, exist_ok=True)
            src = os.path.join(work_dir, f"trace-{args.workload}.json")
            if os.path.exists(src):
                shutil.move(src, os.path.join(keep, f"{args.workload}.json"))
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
