"""One workload in one fresh process; prints one JSON document.

run.py starts this with BLAS threads pinned to 1 and src/ on PYTHONPATH.
With --setup-only it times importing the program and building the inputs,
and stops there.  Otherwise it answers every question of the workload once
with tracing off; with --trace 1 it then answers them all again with the
spans of spans.py installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from run import PINNED
from summary import digest, tail


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "pin": {var: os.environ.get(var) for var in PINNED},
    }


def answer_all(workload) -> tuple[float, float, list]:
    """Answer every question; returns (wall seconds, host factor, answers).
    The wall time sums the questions and leaves out the reference slices."""
    from hostspeed import HostMeter

    meter, wall, answers = HostMeter(), 0.0, []
    for q in workload.questions:
        start = time.perf_counter()
        answers.append(workload.answer(q))
        elapsed = time.perf_counter() - start
        wall += elapsed
        meter.sample_after(elapsed)
    return wall, meter.factor, answers


def end_to_end(workload, wall: float, host: float, answers: list) -> dict[str, list]:
    seconds = [a.seconds for a in answers]
    tail_value, tail_pct, count = tail(seconds)
    p50 = statistics.median(seconds)
    verified = sum(a.verified for a in answers)
    attempted = sum(a.checks for a in answers)
    failed = sum(a.failed for a in answers)
    out = {
        "wall_s": [wall, "s"],
        "host_factor": [host, "ratio"],
        "wall_norm_s": [wall / host, "s"],
        "answer_norm_s.p50": [p50 / host, "s"],
        "answer_norm_s.tail": [tail_value / host, "s"],
        "answer_s.p50": [p50, "s"],
        "answer_s.tail": [tail_value, "s"],
        "answer_s.tail_percentile": [tail_pct, "%"],
        "answer_s.samples": [count, "count"],
        "verified": [verified, "count"],
        "unverified": [len(answers) - verified, "count"],
        "verified_per_s": [verified / wall, "1/s"],
        "ops_failed_ratio": [failed / attempted, "ratio"],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"],
    }
    # The same samples under the name the workload's questions go by.
    prefix = "solve_s" if workload.kind == "solve" else "verify_s"
    for key in ("p50", "tail", "tail_percentile", "samples"):
        out[f"{prefix}.{key}"] = out[f"answer_s.{key}"]
    if workload.kind == "solve":
        out["starts_per_s"] = [sum(a.starts for a in answers) / wall, "1/s"]
        out["converged_unverified"] = [
            sum(a.status == "converged_unverified" for a in answers), "count"]
        out["false_positives"] = [sum(a.false_positive for a in answers), "count"]
    else:
        out["layouts_per_s"] = [len(answers) / wall, "1/s"]
    return out


def per_layer(tracer, answers: list, wall: float, overhead: float) -> dict:
    out = tracer.metrics()
    calls = out.get("solver.verify_layout.calls", 0)
    out["solver.starts"] = sum(a.starts for a in answers)
    out["solver.verify_yield"] = out.get("solver.verify_layout.passed", 0) / calls if calls else 0.0
    out["solver.verify_yield.base"] = calls
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = overhead
    out["trace.unattributed_s"] = wall - sum(tracer.self_s.values())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from workloads import WORKLOADS  # imports the program: part of set-up

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.answer(workload.questions[0])  # warm-up: first calls, lazy imports
    wall, host, answers = answer_all(workload)
    checks = {f"pass.{k}": v for k, v in workload.pass_checks(answers).items()}
    doc = {
        "env": environment(),
        "questions": len(answers),
        "digest": digest([a.record for a in answers]),
        "end_to_end": end_to_end(workload, wall, host, answers),
        "attempted": sum(a.checks for a in answers) + len(checks),
        "failed": sum(a.failed for a in answers) + list(checks.values()).count(False),
    }
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        with install(tracer):
            traced_wall, traced_host, traced_answers = answer_all(workload)
        checks["trace.digest_matches_untraced"] = digest(
            [a.record for a in traced_answers]) == doc["digest"]
        # Self times partition the time inside outermost spans, which lie
        # inside the traced wall time; the remainder is unattributed.
        attributed = sum(tracer.self_s.values())
        checks["trace.self_times_add_up"] = (
            abs(attributed - tracer.outermost_s) <= 1e-9 * max(1.0, traced_wall)
            and tracer.outermost_s <= traced_wall
        )
        overhead = traced_wall / traced_host - wall / host  # at nominal host speed
        doc["per_layer"] = per_layer(tracer, traced_answers, traced_wall, overhead)
    doc["checks"] = checks
    doc["correct"] = doc["failed"] == 0 and all(checks.values())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
