"""Per-layer measurements of the traced run.

After each CLI stage of a traced pass, the replay calls the public
functions of the layers that stage went through, on the same input
files, each inside a span, and checks that it reproduced the stage's
output, so that the layer times describe the work the stage did.
Layers reached only through another one (``solve`` inside ``train``,
``project`` between iterates, ``validate`` on loaded data) are called
directly on the inputs that layer saw, taken from the stage's files:
``solve`` and ``project`` are replayed on every iterate in ``run.csv``.
No attribute of a ``moirl`` module is patched.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from moirl import io as mio
from moirl.domain import validate
from moirl.guarantees import corollary_check, equivalence_check, reward_gap_report
from moirl.learner import train
from moirl.projection import project
from moirl.solvers import KnapsackSpec, knapsack_instance, solve
from moirl.synth import expert_trajectories, instances_from_spec
from moirl.wasserstein import linear_dual_lower_bound, w1_exact

from pipeline import EXPERT
from workloads import EPS

MIB = 2.0**20


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class LayerReplay:
    """Stage hook for ``pipeline.run_pass``: replays the stage's layers.

    ``samples`` holds, per metric, one value per traced pass
    (``domain.validate_s`` gets one from train and one from verify).
    """

    def __init__(self, tracer, inputs, out_dir: Path):
        self.tracer = tracer
        self.inputs = inputs
        self.out_dir = out_dir
        self.samples: dict[str, list[float]] = defaultdict(list)

    def __call__(self, stage, data: Path, run: Path, reference: Path) -> list[str]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with self.tracer.span(f"replay.{stage.name}"):
            if stage.name == "wasserstein":
                return self._wasserstein(stage, data / EXPERT, reference)
            return getattr(self, "_" + stage.name)(stage, data, run)

    def _add(self, values: dict) -> None:
        for key, value in values.items():
            self.samples[key].append(float(value))

    def _generate(self, stage, data: Path, run: Path) -> list[str]:
        span, problems = self.tracer.span, []
        spec = _json(self.inputs.spec)
        phi0 = _json(self.inputs.phi0)["phi0"]
        with span("synth.instances_from_spec") as sp:
            instances = instances_from_spec(spec, seed=self.inputs.seed)
        with span("synth.expert_trajectories") as sx:
            expert = expert_trajectories(phi0, instances)

        enum_s, candidates, rows, peak = 0.0, 0, 0, 0
        for entry in spec["instances"]:
            ks = KnapsackSpec(weights=np.array(entry["weights"]),
                              capacity=entry["capacity"],
                              item_features=np.array(entry["item_features"]))
            with span("solvers.knapsack_instance") as sk:
                inst = knapsack_instance(ks, entry["id"])
            enum_s += sk.seconds
            candidates += 2 ** ks.weights.size
            rows += inst.actions.shape[0]
            if not np.array_equal(inst.actions, instances[entry["id"]].actions):
                problems.append(f"replayed knapsack {entry['id']} differs")
            # Peak allocation in a second, untimed call: tracing slows allocation.
            tracemalloc.start()
            try:
                knapsack_instance(ks, entry["id"])
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        path = self.out_dir / "instances.json"
        with span("io.save_instances") as ss:
            mio.save_instances(instances, path)
        mio.save_trajectories(expert, self.out_dir / EXPERT)
        for name in ("instances.json", EXPERT):
            if (self.out_dir / name).read_bytes() != (data / name).read_bytes():
                problems.append(f"replayed {name} differs from the stage's")
        self._add({"synth.instances_from_spec_s": sp.seconds,
                   "synth.expert_trajectories_s": sx.seconds,
                   "solvers.knapsack_instance_s": enum_s,
                   "solvers.knapsack_candidates": candidates,
                   "solvers.knapsack_feasible_ratio": rows / max(candidates, 1),
                   "solvers.knapsack_peak_mib": peak / MIB,
                   "io.save_instances_s": ss.seconds,
                   "io.instances_bytes": path.stat().st_size})
        return problems

    def _train(self, stage, data: Path, run: Path) -> list[str]:
        span, problems = self.tracer.span, []
        size = (data / "instances.json").stat().st_size
        with span("io.load_instances") as sl:
            instances = mio.load_instances(data / "instances.json")
        with span("io.load_trajectories") as st:
            trajs = mio.load_trajectories(data / EXPERT)
        with span("domain.validate") as sv:
            problems += validate(trajs, instances)
        feasible = mio.load_feasible_set(self.inputs.feasible)
        cfg = mio.load_run_config(self.inputs.config)
        phi1 = _json(self.inputs.config)["phi1"]
        with span("learner.train") as sr:
            log = train(trajs, instances, feasible, phi1=phi1, cfg=cfg)
        with span("io.write_runlog_csv") as sw:
            mio.write_runlog_csv(log, self.out_dir / "run.csv")
        if (self.out_dir / "run.csv").read_bytes() != (run / "run.csv").read_bytes():
            problems.append("replayed train differs from the stage's run.csv")

        insts = [instances[t.instance_id] for t in trajs]
        expert = np.stack([t.action for t in trajs])
        chosen, tie_rows = [], 0
        with span("solvers.solve") as ss:
            for phi in log.weights:
                for inst in insts:
                    res = solve(phi, inst, cfg.tie_tol)
                    chosen.append(res.chosen)
                    tie_rows += res.optimal_set.shape[0]
        n_iter, n, d = log.iters_run, len(insts), log.weights.shape[1]
        chosen = np.stack(chosen).reshape(n_iter, n, d)
        steps = []
        for k in range(n_iter):
            g = (chosen[k] - expert).mean(axis=0)
            if float(g @ log.weights[k]) != log.objectives[k]:
                problems.append(f"replayed objective differs at iteration {k + 1}")
                break
            if k + 1 < n_iter:
                steps.append(log.weights[k] - cfg.schedule.step(k + 1) * g)
        with span("projection.project") as sp:
            projected = [project(feasible, v) for v in steps]
        if projected and not np.array_equal(np.stack(projected), log.weights[1:]):
            problems.append("replayed projections differ from the logged iterates")

        calls = n_iter * n
        scored = n_iter * sum(inst.actions.shape[0] for inst in insts)
        self._add({"io.load_instances_s": sl.seconds,
                   "io.load_instances_mib_per_s": size / MIB / sl.seconds,
                   "io.load_trajectories_s": st.seconds,
                   "domain.validate_s": sv.seconds,
                   "learner.train_call_s": sr.seconds,
                   "learner.iters_run": n_iter,
                   "learner.iter_ms": sr.seconds / n_iter * 1e3,
                   "learner.decisions_per_s": calls / sr.seconds,
                   "learner.solve_share": ss.seconds / sr.seconds,
                   "learner.other_s": sr.seconds - ss.seconds - sp.seconds,
                   "io.write_runlog_csv_s": sw.seconds,
                   "solvers.solve_us": ss.seconds / calls * 1e6,
                   "solvers.solve_calls": calls,
                   "solvers.actions_scored_per_s": scored / ss.seconds,
                   "solvers.flops": 2 * scored * d,
                   "solvers.tie_rows_mean": tie_rows / calls,
                   "projection.project_us": sp.seconds / max(len(steps), 1) * 1e6,
                   "projection.calls": len(steps)})
        return problems

    def _verify(self, stage, data: Path, run: Path) -> list[str]:
        span, problems = self.tracer.span, []
        instances = mio.load_instances(data / "instances.json")
        trajs = mio.load_trajectories(data / EXPERT)
        phi0 = mio.load_manifest(data / "manifest.json")["phi0"]
        phi_best = mio.read_summary(run / "summary.json")["best_phi"]
        with span("io.read_runlog_csv") as sr:
            log = mio.read_runlog_csv(run / "run.csv")
        with span("domain.validate") as sv:
            problems += validate(trajs, instances)
        with span("guarantees.reward_gap_report") as sg:
            report = reward_gap_report(phi_best, phi0, trajs, instances, tie_tol=0.0)
        with span("guarantees.corollary_check") as sc:
            corollary_check(log, phi0, trajs, instances, EPS)
        with span("guarantees.equivalence_check") as se:
            equivalence_check(phi_best, phi0, trajs, instances)
        # The least solving the three checks need: one solve per decision
        # under the learned weights and one under the ground truth.
        insts = [instances[t.instance_id] for t in trajs]
        with span("solvers.solve.verify_minimum") as s2:
            for inst in insts:
                solve(phi_best, inst, tie_tol=0.0)
                solve(phi0, inst, tie_tol=0.0)
        if report.gaps.tolist() != _json(run / "verify_report.json")["gaps"]:
            problems.append("replayed reward gaps differ from verify_report.json")
        self._add({"io.read_runlog_csv_s": sr.seconds,
                   "domain.validate_s": sv.seconds,
                   "guarantees.reward_gap_report_s": sg.seconds,
                   "guarantees.corollary_check_s": sc.seconds,
                   "guarantees.equivalence_check_s": se.seconds,
                   "guarantees.solve_overhead_ratio": (
                       sg.seconds + sc.seconds + se.seconds) / s2.seconds})
        return problems

    def _wasserstein(self, stage, path_a: Path, path_b: Path) -> list[str]:
        span, problems = self.tracer.span, []
        pts_a = np.stack([t.action for t in mio.load_trajectories(path_a)])
        pts_b = np.stack([t.action for t in mio.load_trajectories(path_b)])
        with span("wasserstein.w1_exact") as sw:
            w1 = w1_exact(pts_a, pts_b)
        with span("wasserstein.linear_dual_lower_bound") as sb:
            bound = linear_dual_lower_bound(pts_a, pts_b)
        if (repr(w1), repr(bound)) != (stage.facts["w1"],
                                       stage.facts["linear_dual_lower_bound"]):
            problems.append("replayed W1 or dual bound differs from the printed one")
        self._add({"wasserstein.w1_exact_s": sw.seconds,
                   "wasserstein.linear_dual_lower_bound_s": sb.seconds,
                   "wasserstein.distinct_points": max(len(np.unique(pts_a, axis=0)),
                                                    len(np.unique(pts_b, axis=0)))})
        return problems
