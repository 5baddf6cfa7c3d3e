"""Command-line front end.

Subcommands: ``generate`` synthetic expert data from ground-truth
weights, ``train`` weights from expert data, ``wasserstein`` distances
between trajectory files, ``verify`` the imitation guarantees on a
finished run.  Exit codes: 0 ok, 2 validation error (malformed JSON
included), 3 guarantee violation, 4 I/O error (a missing or unreadable
file).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .domain import checked_decisions
from .guarantees import GuaranteeViolation, reward_gap_report_packed, verify_run
from .learner import train_packed
from .projection import contains
from .synth import expert_trajectories, instances_from_spec
from .wasserstein import linear_dual_lower_bound, w1_exact

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARANTEE = 3
EXIT_IO = 4


def _fail(code: int, tag: str, message: str) -> int:
    print(f"error:{tag}: {message}", file=sys.stderr)
    return code


def cmd_generate(args) -> int:
    spec_obj = mio.load_json(args.spec)
    phi0, feasible = mio.load_ground_truth(args.phi0)
    if feasible is not None and not contains(feasible, phi0):
        raise ValueError("ground-truth weights lie outside the feasible set")

    instances = instances_from_spec(spec_obj, seed=args.seed)
    data = expert_trajectories(phi0, instances)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mio.save_instances(instances, out / "instances.json")
    mio.save_trajectories(data, out / "expert_trajectories.json")
    mio.save_manifest(phi0, args.seed, feasible, out / "manifest.json")
    print(f"wrote {len(instances)} instances, {len(data)} trajectories to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    data_dir = Path(args.data_dir)
    instances = mio.load_instances(data_dir / "instances.json")
    data = mio.load_trajectories(data_dir / "expert_trajectories.json")
    feasible = mio.load_feasible_set(args.feasible)
    cfg, phi1 = mio.load_train_config(args.config)
    if args.tie_tol is not None:
        cfg = dataclasses.replace(cfg, tie_tol=args.tie_tol)
    store, expert = checked_decisions(data, instances)
    log = train_packed(store, expert, feasible, phi1=phi1, cfg=cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mio.write_runlog_csv(log, out / "run.csv")
    mio.write_summary(log, out / "summary.json")

    manifest_path = data_dir / "manifest.json"
    if manifest_path.exists():
        manifest = mio.load_manifest(manifest_path)
        report = reward_gap_report_packed(
            log.best_weights, manifest["phi0"], store, expert, tie_tol=cfg.tie_tol
        )
        mio.save_json({"gaps": report.gaps.tolist(), "F": report.objective},
                      out / "gap_report.json")
    print(
        f"trained {log.iters_run} iterations; best F = {log.best_objective!r} "
        f"at iteration {log.best_iteration}"
    )
    return EXIT_OK


def cmd_wasserstein(args) -> int:
    a = mio.load_trajectories(args.traj_a)
    b = mio.load_trajectories(args.traj_b)
    pts_a = np.stack([t.action for t in a])
    pts_b = np.stack([t.action for t in b])
    dist = w1_exact(pts_a, pts_b)
    bound = linear_dual_lower_bound(pts_a, pts_b)
    print(f"w1 {dist!r}")
    print(f"linear_dual_lower_bound {bound!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0 < args.eps < np.inf:
        raise ValueError(f"--eps must be finite and positive, got {args.eps!r}")
    data_dir = Path(args.data_dir)
    run_dir = Path(args.run_dir)
    instances = mio.load_instances(data_dir / "instances.json")
    data = mio.load_trajectories(data_dir / "expert_trajectories.json")
    manifest = mio.load_manifest(args.manifest or data_dir / "manifest.json")
    phi0 = manifest["phi0"]
    log = mio.read_runlog_csv(run_dir / "run.csv")
    eps = args.eps
    n = len(data)

    report, k_eps, equiv = verify_run(log, log.best_weights, phi0, data, instances, eps)

    print(f"{'check':<28}{'result':<14}detail")
    print(f"{'reward gaps >= 0':<28}{'pass':<14}min gap {float(report.gaps.min())!r}")
    budget = "pass" if report.within_budget(eps) else "FAIL"
    print(f"{'gaps < eps*N':<28}{budget:<14}max gap {float(report.gaps.max())!r}, "
          f"budget {eps * n!r}")
    k_str = "absent" if k_eps is None else str(k_eps)
    print(f"{'best F < eps reached':<28}"
          f"{('pass' if k_eps is not None else 'FAIL'):<14}iteration {k_str}")
    unanim = "pass" if equiv.unanimous else "FAIL"
    print(f"{'equivalence unanimous':<28}{unanim:<14}"
          f"subgrad_zero={equiv.subgrad_zero} actions_equal={equiv.actions_equal} "
          f"w1_zero={equiv.w1_zero}")

    out_obj = {
        "gaps": report.gaps.tolist(),
        "F": report.objective,
        "eps": eps,
        "bound_eN": eps * n,
        "equivalence": {
            "subgrad_zero": equiv.subgrad_zero,
            "actions_equal": equiv.actions_equal,
            "w1_zero": equiv.w1_zero,
        },
    }
    mio.save_json(out_obj, run_dir / "verify_report.json")

    if k_eps is None:
        raise GuaranteeViolation("eps not reached")
    if not report.within_budget(eps):
        raise GuaranteeViolation("reward gap exceeds eps*N at best iterate")
    if not equiv.unanimous:
        raise GuaranteeViolation("equivalence criteria disagree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="moirl",
        description="Recover scalarization weights from expert decisions "
        "and verify the imitation guarantees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate synthetic expert data")
    g.add_argument("spec", help="problem spec JSON (instances and/or random block)")
    g.add_argument("phi0", help="JSON with ground-truth weights and feasible set")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train weights from expert data")
    t.add_argument("data_dir", help="directory with instances.json and "
                   "expert_trajectories.json")
    t.add_argument("feasible", help="feasible set JSON file")
    t.add_argument("config", help="run config JSON file")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--tie-tol", type=float, default=None, dest="tie_tol",
                   help="override the config's solver tie tolerance")
    t.set_defaults(func=cmd_train)

    w = sub.add_parser("wasserstein", help="W1 distance between trajectory files")
    w.add_argument("traj_a")
    w.add_argument("traj_b")
    w.set_defaults(func=cmd_wasserstein)

    v = sub.add_parser("verify", help="check imitation guarantees on a run")
    v.add_argument("data_dir")
    v.add_argument("run_dir")
    v.add_argument("--eps", type=float, required=True)
    v.add_argument("--manifest", default=None,
                   help="ground-truth manifest (default: data_dir/manifest.json)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A non-finite value is reported as one error line, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except GuaranteeViolation as exc:
        return _fail(EXIT_GUARANTEE, "GUARANTEE", str(exc))
    except ValueError as exc:  # SchemaError, and json's JSONDecodeError, too
        return _fail(EXIT_VALIDATION, "VALIDATION", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IO", str(exc))


if __name__ == "__main__":
    sys.exit(main())
