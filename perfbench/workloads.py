"""The benchmark's workloads: inputs made from a seed, answers checked.

Each workload is a list of questions ("does this tile?") and an answer
method that asks the program, times the part a user waits for, and checks
the outcome against ground truth the benchmark knows independently.  A run
answers every question once; the number of questions is fixed by the
workload and --seconds, never by how fast the program is, so two commits do
the same work.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from momentpack import cli, instances, moments, oracle, solver, verify
from momentpack.instances import BoxSpec, Instance, Layout, Placement

VERIFIED = "converged_verified"


@dataclass
class Answer:
    seconds: float  # time to the answer, as a user waits for it
    verified: bool  # the program answered with a layout it verified
    checks: int  # ground-truth checks made on this answer
    failed: int  # ground-truth checks that failed
    record: dict  # the outcome, hashed into the determinism digest
    status: str = ""  # solve status, on the solving workloads
    starts: int = 0  # LM starts run: start_index + 1, 0 on area reject, else restarts
    false_positive: bool = False


def starts_run(doc: dict, restarts: int) -> int:
    if doc["status"] == VERIFIED:
        return doc["start_index"] + 1
    if doc["reason"] == "area":
        return 0
    return restarts


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """momentpack in-process; returns the exit code and the stdout document."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


class FamilySweep:
    """Every instance of enumerate_small_family(4, 4) at the settings of
    acceptance criterion 7.  Many tiny systems, so call overhead dominates."""

    kind = "solve"
    TOTAL = 366
    FEASIBLE = 333
    RESTARTS = 6
    MAX_ITERS = 80

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.questions = list(oracle.enumerate_small_family(4, 4))
        self.cfg = solver.SolveConfig(
            restarts=self.RESTARTS, max_iters=self.MAX_ITERS, seed=seed
        )

    def answer(self, inst: Instance) -> Answer:
        feasible, witness = oracle.oracle_feasible(inst)
        witness_exact = verify.verify_exact(inst, witness) if feasible else None
        start = time.perf_counter()
        report = solver.solve_multistart(inst, self.cfg, mode=moments.ROTATABLE)
        seconds = time.perf_counter() - start
        doc = report.to_dict()
        del doc["wall_time_s"]
        verified = report.status == VERIFIED
        false_positive = verified and not feasible
        return Answer(
            seconds=seconds,
            verified=verified,
            checks=2 if feasible else 1,
            failed=int(false_positive) + int(witness_exact is False),
            record={"feasible": feasible, "witness_exact": witness_exact, "report": doc},
            status=report.status,
            starts=starts_run(doc, self.RESTARTS),
            false_positive=false_positive,
        )

    def pass_checks(self, answers: list[Answer]) -> dict[str, bool]:
        feasible = sum(a.record["feasible"] for a in answers)
        return {"total": len(answers) == self.TOTAL, "feasible": feasible == self.FEASIBLE}


@dataclass
class LadderQuestion:
    seed: int
    inst: Instance
    path: Path
    layout_path: Path


class GuillotineLadder:
    """`momentpack solve` in fixed mode on guillotine dissections of a 10x8
    box at N = 6, 10, 15, 20.  Larger systems that run every start to
    max_iters, so Jacobian arithmetic and the LM solve dominate."""

    kind = "solve"
    RUNGS = (6, 10, 15, 20)
    BOX = BoxSpec(10, 8)
    RESTARTS = 2
    # Seconds one dissection per rung takes on a 2-core x86-64 sandbox; the
    # run solves round(--seconds / SET_S) dissections per rung, at least 3
    # so the tail percentile has enough samples.
    SET_S = 1.0

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.questions = []
        for k in range(max(3, round(seconds / self.SET_S))):
            for n in self.RUNGS:
                # One seed per question picks both the dissection and the
                # solver's start vectors, so questions do not share a stream.
                qseed = rng.randrange(2**31)
                inst, _ = instances.gen_guillotine(qseed, n - 1, self.BOX)
                path = workdir / f"ladder-{k}-n{n}.json"
                path.write_text(instances.serialize_instance(inst) + "\n")
                self.questions.append(
                    LadderQuestion(qseed, inst, path, workdir / f"ladder-{k}-n{n}.layout.json")
                )

    def answer(self, q: LadderQuestion) -> Answer:
        q.layout_path.unlink(missing_ok=True)
        argv = ["solve", str(q.path), "--mode", "fixed", "--restarts", str(self.RESTARTS),
                "--seed", str(q.seed), "--out", str(q.layout_path)]
        start = time.perf_counter()
        code, doc = run_cli(argv)
        seconds = time.perf_counter() - start
        verified = doc["status"] == VERIFIED
        recheck = []
        if verified:
            layout = instances.parse_layout(q.layout_path.read_text())
            recheck = [
                verify.verify_layout(q.inst, layout).passed,
                verify.corner_cancellation(layout, q.inst.box),
            ]
        return Answer(
            seconds=seconds,
            verified=verified,
            checks=1 + len(recheck),
            failed=int(code != (0 if verified else 1)) + recheck.count(False),
            record={"code": code, "report": doc, "recheck": recheck},
            status=doc["status"],
            starts=starts_run(doc, self.RESTARTS),
        )

    def pass_checks(self, answers: list[Answer]) -> dict[str, bool]:
        return {}


@dataclass
class VerifyQuestion:
    should_pass: bool
    instance_path: Path
    layout_path: Path


class VerifyLarge:
    """`momentpack verify` and `verify --exact` on integer guillotine
    dissections at N = 10, 100, 1000, each as generated (must pass) and with
    one coordinate per rectangle pushed outward by 1e-3 * scale (must fail).
    No solving; the O(n^2) pair loops of the verifiers dominate."""

    kind = "verify"
    BOX = BoxSpec(40000, 30000)
    SHIFT = 40  # 1e-3 * scale, far above the verifier's tolerance
    # (rectangles, layouts) in one set: many small layouts give the tail
    # percentile its samples, the one large layout gives the run its weight.
    SET = ((10, 10), (100, 5), (1000, 1))
    # Seconds one set takes on a 2-core x86-64 sandbox; the run verifies
    # round(--seconds / SET_S) sets, at least one.
    SET_S = 11.0

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.questions = []
        for _ in range(max(1, round(seconds / self.SET_S))):
            for n, count in self.SET:
                for _ in range(count):
                    k = len(self.questions) // 2
                    inst, layout = self.integer_dissection(rng.randrange(2**31), n)
                    inst_path = workdir / f"verify-{k}.json"
                    inst_path.write_text(instances.serialize_instance(inst) + "\n")
                    for should_pass, lay in ((True, layout), (False, self.shifted(layout, rng))):
                        path = workdir / f"verify-{k}-{'pass' if should_pass else 'fail'}.layout.json"
                        path.write_text(instances.serialize_layout(lay) + "\n")
                        self.questions.append(VerifyQuestion(should_pass, inst_path, path))

    @classmethod
    def integer_dissection(cls, seed: int, n: int) -> tuple[Instance, Layout]:
        """gen_guillotine with every coordinate rounded to an integer; cuts
        shared by neighbours round alike, so the result still tiles."""
        _, float_layout = instances.gen_guillotine(seed, n - 1, cls.BOX)
        placements = tuple(
            Placement(*(round(v) for v in p.as_tuple())) for p in float_layout.placements
        )
        sides = [(p.x_hi - p.x_lo, p.y_hi - p.y_lo) for p in placements]
        return Instance.from_sides(sides, cls.BOX), Layout(placements)

    @classmethod
    def shifted(cls, layout: Layout, rng: random.Random) -> Layout:
        placements = []
        for p in layout.placements:
            corners = list(p.as_tuple())
            which = rng.randrange(4)
            corners[which] += cls.SHIFT if which >= 2 else -cls.SHIFT
            placements.append(Placement(*corners))
        return Layout(tuple(placements))

    def answer(self, q: VerifyQuestion) -> Answer:
        paths = [str(q.instance_path), str(q.layout_path)]
        start = time.perf_counter()
        code, doc = run_cli(["verify", *paths])
        exact_code, exact_doc = run_cli(["verify", "--exact", *paths])
        seconds = time.perf_counter() - start
        want = q.should_pass
        residual = doc["max_moment_residual"]
        verdicts = [
            code == exact_code == (0 if want else 1),
            doc["pass"] is want,
            doc["corner_cancellation"] is want,
            exact_doc["pass"] is want,
            residual <= 1e-9 if want else residual > 1e-6,
        ]
        return Answer(
            seconds=seconds,
            verified=doc["pass"] and exact_doc["pass"],
            checks=len(verdicts),
            failed=verdicts.count(False),
            record={"codes": [code, exact_code], "float": doc, "exact": exact_doc},
        )

    def pass_checks(self, answers: list[Answer]) -> dict[str, bool]:
        return {}


WORKLOADS = {
    "family_sweep": FamilySweep,
    "guillotine_ladder": GuillotineLadder,
    "verify_large": VerifyLarge,
}
