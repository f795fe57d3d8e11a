"""momentpack benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload family_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh child
process (worker.py) with BLAS threads pinned to 1 and src/ on PYTHONPATH.
Set-up (importing the program and building the inputs) is timed in
SETUP_REPEATS further fresh processes; setup_s is their median divided by
the run's host factor (see hostspeed.py), setup_raw_s the median itself.

Standard output: the environment, the determinism digest and every metric
by name with its unit, then, as the last line, the JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer list
with --trace 1.  Exit code 0 when every check passed, 1 when a check failed
(a false positive, a wrong verdict, a digest mismatch), 2 when the run could
not be made; no result line is printed in the last case.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("family_sweep", "guillotine_ladder", "verify_large")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("PACK_SEED", None)  # the CLI would let it override --seed
    return env


def run_worker(args: argparse.Namespace, workdir: Path, *extra: str) -> dict:
    workdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def select(spec: list[dict], found: dict[str, list]) -> dict[str, dict]:
    """The metrics BENCHMARK.json names, with its units.  A layer that was
    never called made zero calls; any other missing metric is an error."""
    out = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        if name in found:
            value = found[name][0]
        elif unit == "count":
            value = 0
        else:
            raise KeyError(f"the workload did not measure {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "momentpack" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a momentpack checkout: src/momentpack and BENCHMARK.json are "
              "needed", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            setup = []
            if not args.trace:
                for i in range(SETUP_REPEATS):
                    probe = run_worker(args, Path(tmp) / f"setup-{i}", "--setup-only")
                    setup.append(probe["setup_s"])
            doc = run_worker(args, Path(tmp) / "run")
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    measured = dict(doc["end_to_end"])
    if args.trace:
        layers = {k: [v, ""] for k, v in doc["per_layer"].items()}
        wanted, found = spec["per_layer"], layers
    else:
        # Divided by the host factor of the run that follows the probes,
        # like wall_norm_s: raw set-up times moved 20-30% between two sets
        # of runs when the host factor moved 10%.
        setup_raw = statistics.median(setup)
        measured["setup_raw_s"] = [setup_raw, "s"]
        measured["setup_s"] = [setup_raw / measured["host_factor"][0], "s"]
        layers, wanted, found = {}, spec["end_to_end"], measured
    try:
        metrics = select(wanted, found)
    except KeyError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {doc['questions']} questions")
    print("env " + json.dumps(doc["env"], sort_keys=True))
    print(f"digest {doc['digest']}")
    for name, check in sorted(doc["checks"].items()):
        print(f"check {name} {'ok' if check else 'FAILED'}")
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name} {value} {unit}")
    for name, (value, _) in sorted(layers.items()):
        print(f"trace {name} {value}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
