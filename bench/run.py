"""qcorr benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload sweep-n8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

A run measures set-up time in fresh interpreters (``probe.py``), generates
the workload's inputs from ``--seed``, then repeats the workload's fixed
pass for about ``--seconds`` (at least two passes), checks every output
against independent oracles, and prints a human-readable table, one
``{"report": ...}`` JSON line with the environment and diagnostics, and as
its last line the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate untraced and traced, and the metrics are the per-layer ones
from the traced passes plus the tracing overhead.  BLAS runs single-threaded:
the thousands of small eigensolves in the crossing scan and the search are
slower and far noisier with more threads, and one thread makes runs on
machines with different core counts comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-n8", "chain-ed", "states")
RUN_SECONDS = 30
SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes-computed"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    for pct in TAIL_LADDER:
        if samples * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 50.0


@dataclass
class Pass:
    traced: bool
    wall: float
    out: object
    warnings: Counter


def measure_setup(name: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": nproc(),
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "seed": seed,
    }


def run_passes(wl, seconds: float, tracer) -> list[Pass]:
    """Repeat the fixed pass while the next one fits in ``seconds``."""
    passes: list[Pass] = []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                tracer.install()
            try:
                t0 = perf_counter()
                out = wl.run_pass()
                wall = perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
        passes.append(Pass(traced, wall, out, Counter(w.category.__name__ for w in caught)))
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - began + typical > seconds:
            return passes


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def same_within(a: str, b: str, tol: float) -> bool:
    """Equal text apart from numbers, and every number equal within ``tol``."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return False
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))


def score(wl, passes: list[Pass]) -> tuple[int, int, list[str], list[str], bool]:
    """Attempted and failed operations, failure messages, inexact repeats, self-check verdict.

    Pass 1 is checked against the oracles; every later pass must repeat it,
    byte for byte where the workload promises that, else within the check
    tolerance (such repeats are listed, not failed).
    """
    import workloads

    first = passes[0].out
    check_failures = wl.check(first)
    attempted = failed = 0
    messages, inexact = [], []
    for index, p in enumerate(passes, start=1):
        for op in p.out.ops:
            attempted += 1
            why = p.out.errors.get(op)
            if why is None and op in check_failures:
                why = "; ".join(check_failures[op])
            mine, ref = p.out.fingerprints.get(op, ""), first.fingerprints.get(op, "")
            if why is None and mine != ref:
                if wl.exact_repeat or not same_within(mine, ref, workloads.TOL_AT):
                    why = "output differs from pass 1"
                else:
                    inexact.append(f"pass {index} {op}")
            if why is not None:
                failed += 1
                messages.append(f"pass {index} {op}: {why}")
    caught = wl.selfcheck(first) if not first.errors else True
    return attempted, failed, messages, inexact, caught


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup = measure_setup(name)
    import numpy as np

    import probe
    import workloads
    from tracing import Tracer

    probe.FIRST_CALLS[name]()  # finish lazy set-up before anything is timed
    wl = workloads.WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    passes = run_passes(wl, seconds, tracer)
    attempted, failed, messages, inexact, caught = score(wl, passes)
    if not caught:
        messages.append("self-check: a deliberately perturbed result was not caught")

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    setup_s = [s["import_s"] + s["first_call_s"] for s in setup]
    if trace:
        warned = sum((p.warnings for p in traced), Counter())
        metrics = tracer.metrics(len(traced), wl.direct_pairs * len(traced), warned)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0
        )
        metrics["setup.import_ms"] = 1e3 * statistics.median(s["import_s"] for s in setup)
        metrics["setup.first_call_ms"] = 1e3 * statistics.median(s["first_call_s"] for s in setup)
        units = {key: layer_unit(key) for key in metrics}
        extra = tracer.detail(len(traced))
    else:
        latencies = [x for p in plain for x in p.out.latencies if math.isfinite(x)]
        pct = tail_percentile(len(latencies))
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(p.wall for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ms": 1e3 * float(np.percentile(latencies, 50.0)),
            "op_tail_ms": 1e3 * float(np.percentile(latencies, pct)),
        }
        units = END_TO_END_UNITS
        extra = {"op_tail_percentile": pct, "op_samples": len(latencies)}
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "ops": len(p.out.ops)} for p in passes],
        "setup_samples_s": setup_s,
        "warnings": dict(sum((p.warnings for p in passes), Counter())),
        "fail_frac": failed / attempted,
        "selfcheck_caught": caught,
        "inexact_repeats": inexact,
        "failures": messages[:20],
        **extra,
    }
    result = {
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    return result, report


def print_table(title: str, result: dict, report: dict) -> None:
    print(title)
    for key, metric in result["metrics"].items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {key:48s} {value:>14s} {metric['unit']}")
    if "op_tail_percentile" in report:
        print(f"  op_tail_ms is p{report['op_tail_percentile']:g} of {report['op_samples']} operations")
    print(f"  {'fail_frac':48s} {report['fail_frac']:14.6g} ratio")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for line in report["failures"]:
        print(f"  FAIL {line}")


def run_all(args) -> int:
    reports = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        print_table(f"{name} (seed {args.seed}, trace {args.trace})", result, report)
        reports.append(report)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps({"reports": reports}))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print("bench: qcorr sources not found in src/ next to bench/", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(f"{args.workload} (seed {args.seed}, trace {args.trace})", result, report)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
