#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
program's libraries and the `perfbench` binary (CMake, RelWithDebInfo) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only re-check the build. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.

The workload then runs in this process (exec), with the program's own
telemetry off (SEL_OBS=off), SEL_CHECK at its default, and the global thread
pool capped at the CPUs this process may use, as `nproc` counts them
(SELECT_THREADS). Other SEL_* and
SELECT_* variables are cleared so they cannot change what is measured.
Traced runs write their spans under <build dir>/traces/.
"""
import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")

    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    build = ["cmake", "--build", build_dir, "--target", "perfbench",
             "--parallel", jobs]
    for step in ([configure] if not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")) else []) + [build]:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SEL_", "SELECT_"))}
    env["SEL_OBS"] = "off"
    env["SELECT_THREADS"] = jobs
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    os.execve(binary, [binary, *sys.argv[1:], "--trace-dir", trace_dir], env)


if __name__ == "__main__":
    sys.exit(main())
