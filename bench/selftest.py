"""Self-test of the benchmark's answer checks.

    python3 bench/selftest.py

A tiny traced run of each workload must have no failed queries (the known
whole-bound defect runs outside the measured mix and is reported on its
own), and the same run with one expected answer made wrong must have at
least one.  Exits 1 if either does not hold.
"""

from __future__ import annotations

import sys

from run import measure
from workloads import WORKLOADS

SEED = 1
SECONDS = 1.0
MIN_QUERIES = 20


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            _, attempted, found, metrics = measure(workload, SEED, SECONDS, trace=1,
                                                   corrupt=corrupt, min_queries=MIN_QUERIES)
            ratio = len(found) / attempted
            good = ratio > 0 if corrupt else ratio == 0
            ok &= good
            label = "corrupted" if corrupt else "clean"
            print(f"{'ok  ' if good else 'FAIL'} {workload:<15} {label:<9} failed_ratio "
                  f"{ratio:.4f} ({len(found)} of {attempted}); known defect failed: "
                  f"{metrics['cli.known_defect_failed']}")
            for reason in found[:3]:
                print("     ", reason[:160])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
