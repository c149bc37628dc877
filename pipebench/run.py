#!/usr/bin/env python3
"""Entry point of the pipeline benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds pipebench/main.exe with dune,
runs the workload's set-up three times in separate processes (their
median is setup_s), then runs the measurement in one more process and
passes its output through. The last line of standard output is the
result object. Work files live in .pipebench_work/ and are removed at
the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper-train", "stream-long", "serve-fleet"]
SETUP_REPEATS = 3
# Seconds a run may take once the program is built (a run must end within
# 180 s; the build may take minutes in a fresh checkout).
RUN_LIMIT = 170
EXE = os.path.join("_build", "default", "pipebench", "main.exe")


def run(cmd, deadline):
    """Run cmd to completion, killing it at the deadline; return (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"pipebench: {' '.join(cmd)} timed out")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("pipebench: run from the root of the repository")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./pipebench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("pipebench: build failed")
    deadline = time.monotonic() + RUN_LIMIT

    work = os.path.join(".pipebench_work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", work]
        setups = []
        for _ in range(SETUP_REPEATS):
            code, out = run([EXE, "setup"] + common, deadline)
            lines = out.strip().splitlines()
            if code != 0 or not lines or not json.loads(lines[-1])["correct"]:
                sys.exit("pipebench: set-up failed")
            setups.append(json.loads(lines[-1]))
        med = {k: statistics.median(s[k] for s in setups)
               for k in ("setup_s", "ips.capture_s", "ips.vcd_write_s")}
        print(f"setup_s {med['setup_s']:.4f} s (median of {SETUP_REPEATS}: "
              + ", ".join(f"{s['setup_s']:.4f}" for s in setups) + ")")
        code, out = run(
            [EXE, "run"] + common
            + ["--seconds", str(a.seconds), "--trace", str(a.trace),
               "--setup-s", repr(med["setup_s"]),
               "--capture-s", repr(med["ips.capture_s"]),
               "--vcd-write-s", repr(med["ips.vcd_write_s"])],
            deadline)
        sys.stdout.write(out)
        sys.stdout.flush()
        return code
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
