#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload amg_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Every call configures and builds the `perfbench` binary (and the library
layers under src/) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; after the first call both steps are incremental.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result.  Every other argument is forwarded to the binary unchanged
(see README.md for the list).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Thread widths are pinned per workload by the binary; nothing is
# inherited from the caller's environment.
WIDTH_ENV = ("COLLOM_SIM_THREADS", "COLLOM_BUILD_THREADS")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_build_step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def build(bdir):
    # Configuring an existing build directory is a quick no-op, and it
    # repairs one whose first configure was interrupted.
    run_build_step(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs])
    return os.path.join(bdir, "perfbench")


def main(argv):
    bdir = build_dir()
    exe = build(bdir)
    args = list(argv)
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(bdir, "traces")]
    env = {k: v for k, v in os.environ.items() if k not in WIDTH_ENV}
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
