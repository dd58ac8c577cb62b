"""pointcutmix benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cls-k1024-src2048 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py ... --results runs.jsonl      # also append the full record
    python3 perfbench/run.py --compare old.jsonl new.jsonl  # medians, quartiles, verdicts

Workloads and metrics are listed in BENCHMARK.json and defined in
workloads.py. Inputs are generated from --seed (gen.py) under
.perfbench_work/ in the checkout, which is removed on exit. --trace 0 measures
the end-to-end metrics with tracing off; --trace 1 is a separate run that
times every layer at --jobs 1 (spans.py).

Every run checks every output of a timed operation (gate.py). The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics of the chosen trace mode. The lines before it report the host,
the generator parameters and further figures. Only this process's own
timers (time.perf_counter, getrusage) are used: no system-wide tracing and
no cache dropping.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS/OpenMP thread per process, set before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Terminated(BaseException):
    """SIGTERM, raised where the run is; a BaseException so that no handler
    for the program's errors catches it."""


def _terminate(signum, frame):
    raise Terminated()


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_per_process": {var: os.environ[var] for var in THREAD_VARS},
        "timers": "process-local perf_counter and getrusage only; "
                  "no system-wide tracing, no cache dropping",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="append the full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two result files written with --results")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "pointcutmix" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: worker pools are joined and the work directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if workload.kind == "augment":
            outcome = workloads.run_augment_workload(workload, args.seed, args.seconds,
                                                     args.trace, work)
        else:
            outcome = workloads.run_oneshot_workload(workload, args.seed, args.seconds,
                                                     args.trace, work, SRC)
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(), "generator": workload.generator,
        "flags": list(workload.flags), **result,
        "failed_ratio": outcome.failed / max(outcome.attempted, 1),
        "failures": outcome.failures, "missing": outcome.missing, "report": outcome.report,
    }
    print_report(record)
    if args.results:
        with args.results.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def print_report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seconds={record['seconds']}")
    print(f"# host {json.dumps(record['host'])}")
    print(f"# generator {json.dumps(record['generator'])} flags {' '.join(record['flags'])}")
    for name, metric in record["metrics"].items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"#   {name:<45} {value:>14} {metric['unit']}")
    print(f"#   {'failed_ratio':<45} {record['failed_ratio']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for key, value in record["report"].items():
        print(f"#   {key:<45} {json.dumps(value)}")
    for reason in record["failures"]:
        print(f"# FAILED {reason}")
    if record["missing"]:
        print(f"# probes missing: {', '.join(record['missing'])}")


if __name__ == "__main__":
    sys.exit(main())
