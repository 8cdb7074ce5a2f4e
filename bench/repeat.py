"""Repeat the benchmark over several seeds and report each metric's median
and spread (interquartile distance over median).

    python3 bench/repeat.py --workload tables --seeds 1-10 [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  Each run is a
separate ``run.py`` process, exactly as a single measurement would be.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {}
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "spread": spread, "values": series}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:<32} median {median:>14.6f}  spread {spread:.4f}{flag}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "trace": args.trace, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
