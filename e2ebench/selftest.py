#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [workload ...]

Runs every workload (or the named ones) at its full size for one epoch
(--seconds 1), three times: twice with seed 1 and once with seed 2. Each
run must pass its correctness checks; the two seed-1 runs must print the
same checksum, and the seed-2 run a different one, which proves the seed
argument reaches the generated inputs. An epoch is short at full size
(about a second, fleet1k's 1000 tenants included), so the harness has no
separate small size. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testbed50", "plant220", "scale1k", "scale10k", "fleet1k")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    checksum = next((l.split()[1] for l in lines if l.startswith("checksum ")),
                    None)
    return out.returncode, result, checksum


def main():
    failures = 0
    for workload in sys.argv[1:] or WORKLOADS:
        runs = [run(workload, seed) for seed in (1, 1, 2)]
        problems = []
        for seed, (rc, result, _) in zip((1, 1, 2), runs):
            if rc != 0 or not result.get("correct"):
                problems.append("seed %d run failed (exit %d)" % (seed, rc))
        sums = [checksum for _, _, checksum in runs]
        if sums[0] is None or sums[0] != sums[1]:
            problems.append("seed 1 checksums differ: %s vs %s"
                            % tuple(sums[:2]))
        if sums[2] is None or sums[2] == sums[0]:
            problems.append("seed 2 did not change the checksum")
        print("%-10s %s  %s" % (workload, "FAIL" if problems else "ok",
                                "; ".join(problems) or " ".join(sums)))
        failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
