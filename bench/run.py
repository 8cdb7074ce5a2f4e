"""bettibounds benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload tables|exact-bounds|digit-brackets \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, in fresh child interpreters.

--trace 0 measures set-up (import + argument parser, in fresh children) and
then one closed-loop client for S seconds of query time, and reports the
``end_to_end`` metrics of BENCHMARK.json.  --trace 1 runs one untraced and
one traced client for S/2 seconds each and reports the ``per_layer``
metrics.  Every answer is checked against the benchmark's own reference
after the timed loop.  Human-readable lines come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Tail percentile per workload, and the least number of queries a run makes
#: so that at least ten lie beyond it.
TAIL = {"tables": (95, 200), "exact-bounds": (95, 200), "digit-brackets": (99, 1000)}
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170

_SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import bettibounds.cli
bettibounds.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from client import CALIBRATIONS, calibrate
reference = CALIBRATIONS["interpreter"][1]
print(elapsed, reference / statistics.median(calibrate("interpreter") for _ in range(5)))
"""


def setup_seconds() -> float:
    """Import ``bettibounds.cli`` and build its parser in a fresh interpreter,
    at the reference speed; interpreter start-up and ``site`` are outside
    the measured interval."""
    proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(BENCH)],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed, scale = map(float, proc.stdout.split())
    return elapsed * scale


def run_client(workload, seed, seconds, traced, known_defect, workdir, min_queries) -> dict:
    """Summary of one client run, with its ``records`` read back."""
    records = os.path.join(workdir, f"records-{int(traced)}.jsonl")
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
            "known_defect": known_defect, "min_queries": min_queries, "src": str(SRC),
            "workdir": workdir, "records": records}
    proc = subprocess.run([sys.executable, "-I", str(BENCH / "client.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout)
    with open(records, encoding="utf-8") as handle:
        result["records"] = [json.loads(line) for line in handle]
    return result


def scaled_ms(result, role: str) -> list[float]:
    """Latencies at the reference speed; ``role`` is "median" or "bulk"."""
    return [r["lat"] * r["scale"][role] * 1e3 for r in result["records"]]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def failures(records, corrupt=False) -> list[str]:
    """Reasons for every wrong answer; with ``corrupt`` one expected answer
    is made wrong first, to show that the checks catch it."""
    found = []
    for record in records:
        query = record["q"]
        if corrupt:
            corrupt = not checks.corrupt(query)
        reason = checks.check(query, record)
        if reason:
            found.append(f"{' '.join(query['argv'])[:120]}: {reason}")
    return found


def known_defect_failed(result) -> int:
    """1 while ``bounds pure -N 10 -r 2100000 -i 3`` gives neither a correct
    exact answer nor a sound bracket."""
    reason = checks.check_bounds("pure", {"N": 10, "r": 2100000, "i": 3}, None,
                                 result["known_defect"])
    if reason:
        print(f"known defect: {reason[:160]}")
    return int(reason is not None)


def latency_metrics(workload, result) -> dict:
    lat_ms = scaled_ms(result, "bulk")
    raw_ms = [r["lat"] * 1e3 for r in result["records"]]
    print(f"unscaled: query_p50_ms {statistics.median(raw_ms):.6f} "
          f"query_tail_ms {percentile(raw_ms, TAIL[workload][0]):.6f} "
          f"queries_per_s {len(raw_ms) / result['busy_s']:.6f}")
    return {
        "query_p50_ms": statistics.median(scaled_ms(result, "median")),
        "query_tail_ms": percentile(lat_ms, TAIL[workload][0]),
        "queries_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def traced_metrics(plain, traced) -> dict:
    records = traced["records"] + traced["probes"]
    metrics = tracing.layer_metrics(traced["spans"], [r["scale"]["bulk"] for r in records],
                                    sum(len(r["out"]) for r in records))
    metrics["trace.overhead_ratio"] = statistics.median(
        scaled_ms(traced, "median")) / statistics.median(scaled_ms(plain, "median")) - 1
    lat_ms = scaled_ms(traced, "bulk")
    metrics["cli.known_defect_failed"] = known_defect_failed(traced) if traced["known_defect"] else 0
    mean_ms = sum(lat_ms) / len(lat_ms)
    for layer in ("cli", "tablefile", "diagrams", "decompose", "bounds", "estimation"):
        busy = sum(v for k, v in metrics.items()
                   if k.startswith(layer + ".") and "_ms" in k and k != "bounds.wasted_ms")
        print(f"share {layer:<10} {busy / mean_ms:.3f} of {mean_ms:.3f} ms/query")
    return metrics


def environment(workload, seed, seconds, trace, result) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "int_info": list(sys.int_info),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "start_int_max_str_digits": result["start_int_max_str_digits"],
        "calibration_median_s": result["calibration_median_s"],
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
    }


def measure(workload: str, seed: int, seconds: float, trace: int, corrupt=False,
            min_queries=None):
    """Run one benchmark run; returns (env, attempted, failures, metrics).

    ``corrupt`` and a ``min_queries`` below the tail's are for the self-test.
    """
    if min_queries is None:
        min_queries = TAIL[workload][1]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        if trace:
            plain = run_client(workload, seed, seconds / 2, False, False, workdir, min_queries)
            traced = run_client(workload, seed, seconds / 2, True,
                                workload == "exact-bounds", workdir, min_queries)
            results = [plain, traced]
            metrics = traced_metrics(plain, traced)
        else:
            setups = [setup_seconds() for _ in range(SETUP_RUNS + 1)][1:]  # first one warms .pyc
            plain = run_client(workload, seed, seconds, False, False, workdir, min_queries)
            results = [plain]
            metrics = latency_metrics(workload, plain)
            metrics["setup_s"] = statistics.median(setups)
    records = [result["records"] + result["probes"] for result in results]
    found = [f for batch in records for f in failures(batch, corrupt)]
    attempted = sum(map(len, records))
    return environment(workload, seed, seconds, trace, plain), attempted, found, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bettibounds" / "cli.py").is_file():
        print(f"bench: no bettibounds sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    env, attempted, found, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env}))
    for reason in found[:20]:
        print("FAILED", reason)
    print(f"failed_ratio {len(found) / attempted:.6f} ({len(found)} of {attempted} queries)")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>14.6f} {unit}")
    print(json.dumps({
        "correct": not found,
        "attempted": attempted,
        "failed": len(found),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
