#!/usr/bin/env python3
"""E13: the stages of an evidence bundle on philosophers-6 and counter_bank-32.

Builds bench/e13_evidence.cpp against each tree's Release build (its static
libraries, its src/ headers and its symcex-bench/families.cpp), runs the
driver --reps times per model in a fresh process, and records per build and
model the median of every stage the driver prints (see e13_evidence.cpp):
BundleBuilder construction (the conjunct covers), from_explanation,
to_json, the symcex-verify child, the peak RSS of the job process and the
minor page faults of the verify child.  The bundle bytes must agree across
builds.

Usage (from the repository root, after building each tree in Release with
`cmake --build BUILD --target symcex-verify` and the libraries):

  python3 bench/e13_evidence.py --build parent=PATH/build \\
      --build change=build --reps 7 --out bench/BENCH_e13_evidence.json

A build directory must sit directly inside its source tree.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = [("philosophers", 6), ("counter_bank", 32)]
STAGES = ["builder_ms", "bundle_ms", "to_json_ms", "verify_ms",
          "job_rss_mb", "verify_minflt"]


def build_driver(build_dir, out):
    root = os.path.dirname(os.path.abspath(build_dir))
    libs = sorted(glob.glob(os.path.join(build_dir, "src", "*",
                                         "libsymcex_*.a")))
    if not libs:
        raise RuntimeError(f"no libsymcex_*.a under {build_dir}/src")
    cmd = ["g++", "-std=c++20", "-O2", "-DNDEBUG",
           "-I", os.path.join(root, "src"),
           "-I", os.path.join(root, "symcex-bench"),
           os.path.join(HERE, "e13_evidence.cpp"),
           os.path.join(root, "symcex-bench", "families.cpp"),
           "-Wl,--start-group", *libs, "-Wl,--end-group", "-lpthread",
           "-o", out]
    subprocess.run(cmd, check=True)
    return os.path.join(build_dir, "tools", "symcex-verify")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", action="append", required=True,
                    help="LABEL=BUILD_DIR (repeatable)")
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        drivers = []
        for spec in args.build:
            label, _, path = spec.partition("=")
            exe = os.path.join(tmp, f"e13_{label}")
            drivers.append((label, exe, build_driver(path, exe)))
        for family, n in MODELS:
            sizes = set()
            for label, exe, verify in drivers:
                runs = []
                for _ in range(args.reps):
                    proc = subprocess.run([exe, family, str(n), verify, tmp],
                                          capture_output=True, text=True,
                                          check=True)
                    runs.append(json.loads(proc.stdout))
                sizes.add(runs[0]["bundle_bytes"])
                row = {"build": label, "model": runs[0]["model"],
                       "bundle_bytes": runs[0]["bundle_bytes"]}
                for stage in STAGES:
                    values = [r[stage] for r in runs]
                    row[stage] = round(statistics.median(values), 3)
                rows.append(row)
            if len(sizes) != 1:
                raise RuntimeError(f"bundle sizes differ on {family}-{n}")

    doc = {"experiment": "E13 evidence bundle stages",
           "command": "e13_evidence FAMILY N symcex-verify DIR",
           "reps": args.reps,
           "machine": f"{platform.machine()}, {os.cpu_count()} cores",
           "rows": rows}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
