#!/usr/bin/env python3
"""Build and run the SymCeX end-to-end benchmark.

Run from the root of a checkout:

    python3 symcex-bench/run.py --workload verdict-deep --seed 1 \
        --seconds 30 --trace 0
    python3 symcex-bench/run.py --self-test

The first call configures and builds symcex-bench and symcex-verify from
source into .bench_build/symcex-bench (CARGO_TARGET_DIR, when set, names
the build root instead of .bench_build).  Build output goes to stderr; the
benchmark's own output, whose last line is the JSON result, goes to stdout.
Run files land in .bench_build/out/.  The benchmark binary removes every
SYMCEX_* variable from its own environment and names the ones it removed in
the run manifest, so no engine knob set outside can change what is measured.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("symcex-bench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "symcex-bench", "symcex-verify"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from a SymCeX checkout: no library sources at "
             + os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    # Relative paths keep the served-mix socket path short.
    build_root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build_dir = os.path.join(build_root, "symcex-bench")
    build(build_dir)
    command = [os.path.join(build_dir, "symcex-bench"), *sys.argv[1:],
               "--verify", os.path.join(build_dir, "symcex-verify"),
               "--models", os.path.relpath(os.path.join(HERE, "models")),
               "--out", os.path.join(build_root, "out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
