#!/usr/bin/env python3
"""E10: certified `EX b0` on n-bit counters, wall time and apply.not.

Writes one n-bit counter model per width into a temporary directory (the
same shape as examples/models/counter14.smv, with the one spec `SPEC EX b0`,
whose witness is a lasso around all 2^n states), runs each build's
smv_check on it with SYMCEX_CERTIFY=1 SYMCEX_STATS=1, and records per build
and width the median and minimum wall time of --reps runs and the
`apply.not` counter from the stats JSON on stderr (deterministic, so one
value per cell).  Each `implies` on the ring chain issues one NOT, which
makes apply.not the count of chain links the witness walk checked.

Usage (from the repository root, after building each tree in Release):

  python3 bench/e10_certified_ex.py --build parent=PATH/build \\
      --build change=build --widths 8 9 10 11 12 --reps 5 \\
      --out bench/BENCH_e10_certified_ex.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time


def counter_smv(width):
    bits = [f"b{i}" for i in range(width)]
    lines = ["MODULE main", "VAR"]
    lines += [f"  {b} : boolean;" for b in bits]
    lines.append("ASSIGN")
    lines += [f"  init({b}) := FALSE;" for b in bits]
    lines.append("  next(b0) := !b0;")
    for i in range(1, width):
        carry = " & ".join(bits[:i])
        lines.append(f"  next(b{i}) := b{i} xor ({carry});")
    lines.append("SPEC EX b0")
    return "\n".join(lines) + "\n"


def run_once(smv_check, model):
    env = dict(os.environ, SYMCEX_CERTIFY="1", SYMCEX_STATS="1")
    start = time.perf_counter()
    proc = subprocess.run([smv_check, model], env=env, capture_output=True,
                          text=True, check=False)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{smv_check} {model} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    stats = None
    for line in proc.stderr.splitlines():
        if line.startswith('{"symcex_stats_version"'):
            stats = json.loads(line)
    if stats is None:
        raise RuntimeError(f"{smv_check} printed no stats JSON")
    nots = stats["phases"]["bdd"]["counters"].get("apply.not", 0)
    return elapsed_ms, nots, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", action="append", required=True,
                    help="LABEL=BUILD_DIR (repeatable)")
    ap.add_argument("--widths", type=int, nargs="+", default=[8, 9, 10, 11, 12])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    builds = []
    for spec in args.build:
        label, _, path = spec.partition("=")
        builds.append((label, os.path.join(path, "examples", "smv_check")))

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for width in args.widths:
            model = os.path.join(tmp, f"counter{width}.smv")
            with open(model, "w") as f:
                f.write(counter_smv(width))
            stdouts = {}
            for label, smv_check in builds:
                times = []
                nots = set()
                for _ in range(args.reps):
                    ms, n, out = run_once(smv_check, model)
                    times.append(ms)
                    nots.add(n)
                    stdouts[label] = out
                if len(nots) != 1:
                    raise RuntimeError(f"apply.not varied across runs: {nots}")
                rows.append({"build": label, "width": width,
                             "states": 2 ** width,
                             "wall_ms_median": round(statistics.median(times), 2),
                             "wall_ms_min": round(min(times), 2),
                             "apply_not": nots.pop()})
            outs = set(stdouts.values())
            if len(outs) != 1:
                raise RuntimeError(f"stdout differs between builds at n={width}")

    doc = {"experiment": "E10 certified EX b0 on n-bit counters",
           "command": "SYMCEX_CERTIFY=1 SYMCEX_STATS=1 smv_check counterN.smv",
           "reps": args.reps,
           "machine": f"{platform.machine()}, {os.cpu_count()} cores",
           "stdout_identical_across_builds": True,
           "rows": rows}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
