"""One closed-loop client: runs a workload through ``bettibounds.cli.main``
in this process.

``run.py`` starts a fresh interpreter with this script for every measured
run, because ``cli.main`` raises ``sys.set_int_max_str_digits`` for the
whole process.  Usage: ``client.py '<json spec>'``.  Each query's record
(answer, exit code, latency) is appended to ``spec["records"]`` as a JSON
line right after the query, so stored answers never add to the peak RSS;
the run summary goes to stdout as JSON.  A traced client ends with the
fixed layer probes of :func:`workloads.layer_probes`.

Only query calls are timed: generating a block's inputs and writing its
table files happen before the block runs.  The host's CPU speed drifts by
tens of percent over seconds, so a short fixed calibration task runs
between queries (at least every CALIBRATE_EVERY_S of query time) and each
query carries ``scale``: per role in WORKLOAD_CALIBRATION, the task's
reference time over the median of its last few times.  ``run.py`` reports
times multiplied by it, i.e. at the reference machine's speed.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW = 5


def _interpreter_work() -> None:
    """Passes over lists, a tuple-keyed dict of about a megabyte (so cache
    pressure from other tenants shows, yet below the program's own peak
    memory), Fraction sums and int->str."""
    rows = [list(range(k, k + 150)) for k in range(100)]
    for _ in range(8):
        rows = [[x + 1 for x in row] for row in rows]
    table = {(i, j): i * j for i in range(100) for j in range(100)}
    acc = 0
    for _ in range(3):
        for (i, j), value in table.items():
            acc += value if i > j else -value
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, k * k + 1)
    for _ in range(4):
        str(7**3500)


def _int_str_work() -> None:
    """int->str of integers of thousands of digits, CPython's quadratic
    conversion that dominates exact-bounds rendering."""
    for _ in range(16):
        str(7**5000)


def _decimal_work() -> None:
    """Correctly rounded ``decimal`` logarithms at high precision."""
    context = Context(prec=600)
    for m in (987654321, 10**12 + 39):
        context.ln(Decimal(m))


#: Calibration tasks with their median times on the reference machine
#: (2-vCPU Xeon at 2.0 GHz, CPython 3.11.7).  The host's slowdowns hit
#: interpreter-bound code far harder than tight C loops: in 90-second trials
#: alternating fixed queries with the tasks, small argparse-bound queries
#: swung by 17 % and 170 ms int->str or precision-1000 bracket queries by
#: 6 %.  The interpreter task cut the first to 6 %, the int->str and decimal
#: tasks cut the others to 2 %, and each made the other kind worse.
CALIBRATIONS = {"interpreter": (_interpreter_work, 0.0078), "int-str": (_int_str_work, 0.0060),
                "decimal": (_decimal_work, 0.0054)}
#: Per workload, the task that scales the median query and the one that
#: scales the bulk of the time (tail, throughput, per-layer times).  The
#: median exact-bounds or digit-brackets query is small and spends its time
#: in argparse; their large queries spend it in int->str or decimal.
WORKLOAD_CALIBRATION = {
    "tables": {"median": "interpreter", "bulk": "interpreter"},
    "exact-bounds": {"median": "interpreter", "bulk": "int-str"},
    "digit-brackets": {"median": "interpreter", "bulk": "decimal"},
}


def calibrate(kind: str) -> float:
    """Seconds one run of the ``kind`` calibration task takes."""
    start = time.perf_counter()
    CALIBRATIONS[kind][0]()
    return time.perf_counter() - start


def call(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as error:  # a crash is a measured outcome, not a benchmark error
        exc = f"{type(error).__name__}: {str(error)[:200]}"
    return {"lat": time.perf_counter() - start, "rc": rc, "exc": exc, "out": out.getvalue()}


def _write_files(block, workdir) -> None:
    for query in block:
        if "text" in query:
            path = os.path.join(workdir, query.pop("file"))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(query.pop("text"))
            query["argv"][1] = path


def run(spec: dict) -> dict:
    start_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    sys.path.insert(0, spec["src"])
    from bettibounds import bounds, cli, estimation, tablefile

    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        tracer.install({"cli": cli, "bounds": bounds, "estimation": estimation,
                        "tablefile": tablefile})
    roles = WORKLOAD_CALIBRATION[spec["workload"]]
    calibrations = {kind: [] for kind in roles.values()}

    def recalibrate() -> None:
        for kind, times in calibrations.items():
            times.append(calibrate(kind))

    def timed(query, query_id) -> dict:
        with tracer.query(query_id) if tracer else contextlib.nullcontext():
            record = call(cli, query["argv"])
        record["q"] = query
        record["scale"] = {
            role: CALIBRATIONS[kind][1] / statistics.median(calibrations[kind][-CALIBRATION_WINDOW:])
            for role, kind in roles.items()
        }
        return record

    recalibrate()
    count, busy, since_calibration = 0, 0.0, 0.0
    with open(spec["records"], "w", encoding="utf-8") as sink:
        for block in workloads.blocks(spec["workload"], spec["seed"]):
            _write_files(block, spec["workdir"])
            for query in block:
                if busy >= spec["seconds"] and count >= spec["min_queries"]:
                    break
                if since_calibration >= CALIBRATE_EVERY_S:
                    recalibrate()
                    since_calibration = 0.0
                record = timed(query, count)
                sink.write(json.dumps(record) + "\n")
                count += 1
                busy += record["lat"]
                since_calibration += record["lat"]
            else:
                continue
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = []
    if tracer:
        block = workloads.layer_probes()
        _write_files(block, spec["workdir"])
        probes = [timed(query, count + k) for k, query in enumerate(block)]
        tracer.uninstall()
    known_defect = call(cli, workloads.KNOWN_DEFECT_ARGV) if spec["known_defect"] else None
    return {
        "busy_s": busy,
        "peak_rss_kb": rss_kb,
        "spans": tracer.spans if tracer else [],
        "probes": probes,
        "known_defect": known_defect,
        "calibration_median_s": {kind: statistics.median(times)
                                 for kind, times in calibrations.items()},
        "start_int_max_str_digits": start_limit,
    }


if __name__ == "__main__":
    json.dump(run(json.loads(sys.argv[1])), sys.stdout)
