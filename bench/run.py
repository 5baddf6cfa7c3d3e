"""Benchmark of the moirl pipeline: generate -> train -> verify -> wasserstein.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload explicit-many --seed 1 --seconds 20 --trace 0

The run writes seeded inputs for the workload, then repeats the whole
CLI pipeline in this process, through ``moirl.cli.main``, for
``--seconds`` seconds, and reports the median of each stage over the
passes.  Every output is checked: exit codes, digests identical across
passes and equal to the ones in golden.json for the default seed, and
the printed W1 and dual bound.  ``--trace 1`` alternates untraced
passes with traced ones that replay each layer (see layers.py) and
reports the per-layer metrics instead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
``--smoke`` runs the tiny variant of the workload; ``--record-golden``
rewrites golden.json from this run's outputs at the default seed.
"""

from __future__ import annotations

import os

# One BLAS thread: all load comes from this process's single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, write_inputs

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
MIN_PASSES = 3  # timed passes per run, even when --seconds is shorter
MIN_PAIRS = 2  # untraced + traced pass pairs per traced run
TIME_LIMIT = 150.0  # start no new pass after this many seconds

# Metric name -> unit, in print order, as BENCHMARK.json defines them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_program():
    """Import moirl from ./src, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import moirl
    except ImportError as exc:
        sys.exit(f"error: cannot import moirl from {src}: {exc}")
    if Path(moirl.__file__).resolve().parent != (src / "moirl").resolve():
        sys.exit(f"error: moirl imported from {moirl.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def run(args, work: Path) -> int:
    # These import moirl, so only after _import_program put ./src first.
    from layers import LayerReplay
    from pipeline import MIN_STAGE_S, Passes, pipeline_seconds

    wl = WORKLOADS[args.workload]
    golden_all = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    recorded = golden_all.setdefault(wl.name, {})
    size = "smoke" if args.smoke else "full"
    stages: list = []
    start = time.perf_counter()

    # Golden probe: the smoke variant at the default seed, checked against
    # its recorded digests on every run; it also warms every code path.
    probe_inputs = write_inputs(wl, DEFAULT_SEED, True, work / "probe-in")
    probe = Passes(probe_inputs, work / "probe",
                   None if args.record_golden else recorded.get("smoke", {}), stages,
                   min_stage_s=0.0)
    probe.run()

    inputs = write_inputs(wl, args.seed, args.smoke, work / "in")
    check_golden = args.seed == DEFAULT_SEED and not args.record_golden
    # Repeats steady the end-to-end stage times; smoke times only show
    # that the metrics print, and a traced stage's span is one call.
    series = Passes(inputs, work / "main",
                    recorded.get(size, {}) if check_golden else None, stages,
                    min_stage_s=0.0 if args.smoke or args.trace else MIN_STAGE_S)
    deadline = time.perf_counter() + args.seconds

    walls: list[float] = []  # wall time of each loop round so far

    def more(least: int) -> bool:
        """Another round: until ``least`` are done, then while a typical
        round still ends before the deadline."""
        if len(walls) < least:
            return True
        now = time.perf_counter()
        return now + statistics.median(walls) <= deadline and now - start < TIME_LIMIT

    metrics: dict[str, tuple[float, str, str]] = {}
    if not args.trace:
        passes = []
        while more(MIN_PASSES):
            t0 = time.perf_counter()
            passes.append(series.run())
            walls.append(time.perf_counter() - t0)
        for key, stage in (("setup_s", "generate"), ("train_s", "train"),
                           ("verify_s", "verify"), ("wasserstein_s", "wasserstein")):
            values = [p[stage].seconds for p in passes]
            metrics[key] = (statistics.median(values), E2E[key], _spread(values))
        values = [pipeline_seconds(p) for p in passes]
        metrics["pipeline_s"] = (statistics.median(values), E2E["pipeline_s"],
                                 _spread(values))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = (rss, E2E["peak_rss_mib"],
                                   "getrusage ru_maxrss, this process")
    else:
        tracer = Tracer(run_id=f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
        replay = LayerReplay(tracer, inputs, work / "replay")
        plain, traced = [], []
        while more(MIN_PAIRS):
            t0 = time.perf_counter()
            # Alternate which side goes first, so drift hits both alike.
            for is_traced in (len(traced) % 2 == 1, len(traced) % 2 == 0):
                if is_traced:
                    with tracer.span("pass"):
                        traced.append(series.run(span=tracer.span, after=replay))
                else:
                    plain.append(series.run())
            walls.append(time.perf_counter() - t0)
        for name, unit in PER_LAYER.items():
            values = replay.samples.get(name)
            if values:
                metrics[name] = (statistics.median(values), unit, _spread(values))
        ratio = (statistics.median(map(pipeline_seconds, traced))
                 / statistics.median(map(pipeline_seconds, plain)))
        metrics["trace.overhead_ratio"] = (
            ratio, PER_LAYER["trace.overhead_ratio"],
            f"traced / untraced pipeline_s over {len(traced)} pairs")
        trace_path = ROOT / ".bench_trace" / f"{wl.name}-{size}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"  {'span':<40}{'count':>7}{'total_s':>12}{'self_s':>12}")
        for name, (count, total, own) in tracer.self_times().items():
            print(f"  {name:<40}{count:>7}{total:>12.4f}{own:>12.4f}")

    if args.record_golden:
        recorded["smoke"] = probe.first
        if args.seed == DEFAULT_SEED:
            recorded[size] = series.first
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")

    expected = set(PER_LAYER) if args.trace else set(E2E)
    failed = [st for st in stages if st.failed]
    if set(metrics) != expected:
        print(f"FAIL metrics: missing {sorted(expected - set(metrics))}")
    correct = not failed and set(metrics) == expected

    env = environment()
    print(f"moirl benchmark: workload {wl.name} ({size}), seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print("why: " + next(w["why"] for w in SPEC["workloads"] if w["name"] == wl.name))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:<40}{value:>16.6g} {unit:<6} {detail}")
    print(f"  {'ops_failed_ratio':<40}{len(failed) / max(len(stages), 1):>16.6g} "
          f"ratio  {len(failed)} failed of {len(stages)} CLI stage runs")
    for st in failed:
        for problem in st.problems:
            print(f"FAIL {st.name}: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(stages),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny variant of the workload")
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite golden.json from this run's outputs")
    args = p.parse_args(argv)

    _import_program()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
