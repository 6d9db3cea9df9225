#!/usr/bin/env python3
"""Build knlmem in Release and run one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the knlmem
library, knl-serve, knl-repro and the knl-perfbench program) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
re-run the incremental build. knl-perfbench's standard output is passed
through; its last line is the run's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-cold", "repro-matrix", "replay")
RUN_TIMEOUT_S = 170


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    bin_dir = build(build_root, env)
    if bin_dir is None:
        return 1

    work_dir = os.path.join(build_root, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(bin_dir, "knl-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(bin_dir, "tools"), "--work-dir", work_dir]
    # Own process group, so a run that overstays its time is stopped with
    # every process it started (the knl-serve daemon, knl-repro runs).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
