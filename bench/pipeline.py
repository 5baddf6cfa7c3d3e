"""One pass of the user pipeline through ``moirl.cli.main``, and the
checks on its outputs.

A pass runs ``generate``, ``train``, ``verify`` and ``wasserstein`` in
this process, each timed from argument list to exit code.  The
``wasserstein`` stage compares the pass's expert file with a reference
expert file: one generated under other weights on the same instances
(audit-wide), or the first pass's own file (the other workloads, where
two ``generate`` runs of one seed must give W1 = 0 exactly).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moirl import cli

from workloads import EPS

STAGES = ("generate", "train", "verify", "wasserstein")
EXPERT = "expert_trajectories.json"
# A stage call shorter than this is repeated until the calls add up to
# it, and the stage time is their median.  At about the length of the
# longest stage, every stage gets a like share of a pass's measured time,
# so a short stage's median rests on as many seconds as a long one's.
MIN_STAGE_S = 1.0
MAX_REPEATS = 1000


@dataclass
class StageRun:
    """Exit code, wall time, output and failed checks of one stage call."""

    name: str
    code: int | None  # None when the call raised instead of returning
    seconds: float
    stdout: str
    stderr: str
    facts: dict = field(default_factory=dict)  # digests and printed values
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def run_cli(name: str, argv: list) -> StageRun:
    """Run one CLI command in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(a) for a in argv]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed stage, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    run = StageRun(name, code, seconds, out.getvalue(), err.getvalue())
    if code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or ["no error line"]
        run.problems.append(f"exit {code}: {tail[0]}")
    return run


def run_stage(name: str, argv: list, min_s: float) -> StageRun:
    """``run_cli``, repeated while the calls add up to less than ``min_s``.

    Every repeat must exit 0 and print what the first call printed.
    """
    first = run_cli(name, argv)
    times = [first.seconds]
    while first.code == 0 and sum(times) < min_s and len(times) < MAX_REPEATS:
        again = run_cli(name, argv)
        times.append(again.seconds)
        if again.code != 0 or again.stdout != first.stdout:
            first.problems.append(f"repeat {len(times)} differs: {again.problems}")
            break
    first.seconds = statistics.median(times)
    return first


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(inputs, rep_dir: Path, reference: Path | None, min_stage_s: float,
             span=lambda name: contextlib.nullcontext(), after=None) -> dict:
    """Run the four stages once into ``rep_dir``; returns name -> StageRun.

    ``reference`` is the expert file the ``wasserstein`` stage compares
    against (None: this pass's own file); ``min_stage_s`` is passed on to
    ``run_stage``.  ``span(name)`` wraps each
    stage; ``after(stage_run, data_dir, run_dir, reference)`` runs after a
    stage that passed, outside its span, and returns problems to attach
    to the stage.
    """
    data, run = rep_dir / "data", rep_dir / "run"
    reference = reference or data / EXPERT
    argvs = {
        "generate": ["generate", inputs.spec, inputs.phi0, "--out", data,
                     "--seed", inputs.seed],
        "train": ["train", data, inputs.feasible, inputs.config, "--out", run],
        "verify": ["verify", data, run, "--eps", repr(EPS)],
        "wasserstein": ["wasserstein", data / EXPERT, reference],
    }
    stages = {}
    for name in STAGES:
        with span(f"cli.{name}"):
            st = stages[name] = run_stage(name, argvs[name], min_stage_s)
        if not st.failed:
            _collect(st, inputs, data, run, reference)
        if after is not None and not st.failed:
            st.problems += after(st, data, run, reference)
    return stages


def _collect(st: StageRun, inputs, data: Path, run: Path, reference: Path) -> None:
    """Record the stage's output digests and check what can be checked alone."""
    try:
        if st.name == "generate":
            for f in ("instances.json", EXPERT, "manifest.json"):
                st.facts[f] = sha256(data / f)
        elif st.name == "train":
            for f in ("run.csv", "summary.json", "gap_report.json"):
                st.facts[f] = sha256(run / f)
            st.problems += _check_run(run, inputs.iters)
        elif st.name == "verify":
            st.facts["verify_report.json"] = sha256(run / "verify_report.json")
        else:
            st.facts.update(_printed_values(st.stdout))
            st.problems += _check_w1(st.facts, data / EXPERT, reference)
    except (OSError, ValueError, KeyError) as exc:
        st.problems.append(f"unreadable output: {exc!r}")


def _check_run(run: Path, iters: int) -> list[str]:
    with open(run / "run.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
    problems = []
    if len(rows) != iters or summary["iters_run"] != iters:
        problems.append(f"expected {iters} iterations, run.csv has {len(rows)}, "
                        f"summary says {summary['iters_run']}")
    if rows and summary["best_F"] != min(float(r[1]) for r in rows):
        problems.append("summary best_F is not the minimum F of run.csv")
    return problems


def _printed_values(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("w1", "linear_dual_lower_bound"):
            values[key] = value.strip()
    if set(values) != {"w1", "linear_dual_lower_bound"}:
        raise ValueError(f"wasserstein printed {stdout!r}")
    return values


def _actions(path: Path) -> np.ndarray:
    return np.array([t["action"] for t in json.loads(path.read_text(encoding="utf-8"))])


def _check_w1(values: dict, path_a: Path, path_b: Path) -> list[str]:
    w1, bound = float(values["w1"]), float(values["linear_dual_lower_bound"])
    a, b = _actions(path_a), _actions(path_b)
    expected = float(np.linalg.norm((a - b).mean(axis=0)))
    problems = []
    if not math.isclose(bound, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"dual bound {bound!r}, recomputed {expected!r}")
    if not w1 >= bound - 1e-9:
        problems.append(f"W1 {w1!r} below its lower bound {bound!r}")
    if np.array_equal(a, b) and w1 != 0.0:
        problems.append(f"W1 {w1!r} between identical expert files")
    return problems


def compare_facts(stages: dict, expected: dict, what: str) -> None:
    """Attach a problem to each stage whose facts differ from ``expected``."""
    for name, st in stages.items():
        want = expected.get(name)
        if st.code != 0:
            continue
        if want is None:
            st.problems.append(f"no {what} facts for this stage")
            continue
        for key, value in want.items():
            if st.facts.get(key) != value:
                st.problems.append(
                    f"{key} {st.facts.get(key)!r} differs from {what} {value!r}")


def pipeline_seconds(stages: dict) -> float:
    return sum(st.seconds for st in stages.values())


class Passes:
    """Passes over one set of inputs, each checked against the first.

    The wasserstein stage's second file is generated once, untimed,
    under the alternative weights when the inputs have them; otherwise
    it is the first pass's expert file.  Every stage run is appended to
    ``log``; the first pass is also compared with ``golden`` when given.
    Stage calls are repeated up to ``min_stage_s`` (see ``run_stage``).
    """

    def __init__(self, inputs, root: Path, golden: dict | None, log: list,
                 min_stage_s: float):
        self.inputs, self.root, self.golden, self.log = inputs, root, golden, log
        self.min_stage_s = min_stage_s
        self.first: dict | None = None  # facts of the first pass, by stage
        self.reference: Path | None = None
        self.extra: dict = {}
        if inputs.phi0_alt:
            ref = root / "reference"
            st = run_cli("generate", ["generate", inputs.spec, inputs.phi0_alt,
                                      "--out", ref, "--seed", inputs.seed])
            if st.code == 0:
                st.facts[EXPERT] = sha256(ref / EXPERT)
            log.append(st)
            self.extra["generate-alt"] = st
            self.reference = ref / EXPERT

    def run(self, **hooks) -> dict:
        """One pass; ``hooks`` are passed on to ``run_pass``."""
        rep = self.root / f"pass{len(self.log)}"
        stages = run_pass(self.inputs, rep, self.reference, self.min_stage_s, **hooks)
        if self.first is None:
            every = {**self.extra, **stages}
            self.first = {name: dict(st.facts) for name, st in every.items()}
            if self.golden is not None:
                compare_facts(every, self.golden, "recorded golden")
            if self.reference is None and (rep / "data" / EXPERT).exists():
                self.reference = self.root / "reference" / EXPERT
                self.reference.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(rep / "data" / EXPERT, self.reference)
        else:
            compare_facts(stages, self.first, "first pass")
        self.log.extend(stages.values())
        shutil.rmtree(rep, ignore_errors=True)
        return stages
