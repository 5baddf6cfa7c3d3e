"""Seeded workload definitions: each one writes the CLI input files.

The program under test only ever sees the files written here.  Sizes
are chosen so that the cost of a workload barely depends on the seed:
iteration counts are fixed (no early stop), action-set sizes are fixed,
and knapsack capacities are set at the median subset weight so that
about half of the 2^m packings are feasible on every seed.  The
instance keeps only distinct packing feature sums, so item features
are drawn in quarter steps: then nearly every feasible packing's sum is
distinct.  With whole-number features in [-5, 5], the distinct count of
knapsack-large, and with it its instance file, varied by 15 % between
seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA0 = 0.5  # inverse_sqrt step-size scale of every train config
EPS = 0.05  # verify --eps on every workload
FEATURE_STEP = 0.25  # knapsack item features are multiples of this


@dataclass(frozen=True)
class Size:
    """Problem size of one workload variant (full or smoke)."""

    count: int  # random explicit instances
    n_actions: int
    knapsacks: int  # knapsack instances in the spec
    items: int  # items per knapsack (2^items packings enumerated)
    iters: int  # fixed train iteration count


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists: its entry in BENCHMARK.json
    dim: int
    coord: int  # explicit action coordinates are integers in [-coord, coord]
    feature: int  # knapsack item features lie in [-feature, feature]
    feasible: str  # "ball" | "box" | "simplex"
    phi0: tuple  # ground-truth weights, dyadic so expert scores stay exact
    phi0_alt: tuple | None  # weights of a second expert file for wasserstein
    full: Size
    smoke: Size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="explicit-many",
            dim=3, coord=10, feature=3, feasible="ball",
            phi0=(0.5, -0.25, 0.75), phi0_alt=None,
            full=Size(count=1000, n_actions=20, knapsacks=2, items=8, iters=40),
            smoke=Size(count=20, n_actions=5, knapsacks=1, items=4, iters=20),
        ),
        Workload(
            name="knapsack-large",
            dim=4, coord=5, feature=5, feasible="box",
            phi0=(0.5, -0.25, 0.75, 0.125), phi0_alt=None,
            full=Size(count=0, n_actions=0, knapsacks=1, items=18, iters=300),
            smoke=Size(count=0, n_actions=0, knapsacks=2, items=6, iters=60),
        ),
        Workload(
            name="audit-wide",
            dim=3, coord=5, feature=2, feasible="simplex",
            phi0=(0.5, 0.25, 0.25), phi0_alt=(0.125, 0.375, 0.5),
            full=Size(count=1000, n_actions=6, knapsacks=2, items=6, iters=40),
            smoke=Size(count=20, n_actions=4, knapsacks=1, items=4, iters=40),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of the CLI input files of one workload run."""

    spec: Path
    phi0: Path
    phi0_alt: Path | None  # ground truth of the second expert file, if any
    feasible: Path
    config: Path
    seed: int
    iters: int


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _knapsack_entry(rng, iid: str, items: int, dim: int, feature: int) -> dict:
    weights = rng.integers(1, 21, size=items)
    subsets = (np.arange(2**items)[:, None] >> np.arange(items)) & 1
    capacity = float(np.median(subsets @ weights))
    q = round(feature / FEATURE_STEP)
    steps = rng.integers(-q, q + 1, size=(items, dim))
    return {
        "type": "knapsack",
        "id": iid,
        "weights": weights.astype(float).tolist(),
        "capacity": capacity,
        "item_features": (steps * FEATURE_STEP).tolist(),
    }


def _feasible_obj(wl: Workload) -> dict:
    d = wl.dim
    if wl.feasible == "ball":
        return {"kind": "ball", "center": [0.0] * d, "radius": 1.0}
    if wl.feasible == "box":
        return {"kind": "box", "lo": [-1.0] * d, "hi": [1.0] * d}
    return {"kind": "simplex", "dim": d}


def _start_weights(rng, wl: Workload) -> list[float]:
    d = wl.dim
    if wl.feasible == "simplex":
        return np.eye(d)[rng.integers(d)].tolist()
    v = rng.normal(size=d)
    return (0.5 * v / np.linalg.norm(v)).tolist()


def write_inputs(wl: Workload, seed: int, smoke: bool, out: Path) -> Inputs:
    """Write the spec, weights, feasible set and config for ``seed``."""
    size = wl.smoke if smoke else wl.full
    rng = np.random.default_rng([seed, len(wl.name)])
    out.mkdir(parents=True, exist_ok=True)
    feasible = _feasible_obj(wl)

    spec: dict = {
        "instances": [
            _knapsack_entry(rng, f"knap-{i}", size.items, wl.dim, wl.feature)
            for i in range(size.knapsacks)
        ]
    }
    if size.count:
        spec["random"] = {
            "count": size.count, "dim": wl.dim, "n_actions": size.n_actions,
            "low": -wl.coord, "high": wl.coord,
        }
    paths = Inputs(
        spec=out / "problem.json", phi0=out / "phi0.json",
        phi0_alt=out / "phi0_alt.json" if wl.phi0_alt else None,
        feasible=out / "feasible.json",
        config=out / "config.json", seed=seed, iters=size.iters,
    )
    _write(paths.spec, spec)
    _write(paths.phi0, {"phi0": list(wl.phi0), "feasible": feasible})
    if paths.phi0_alt:
        _write(paths.phi0_alt, {"phi0": list(wl.phi0_alt), "feasible": feasible})
    _write(paths.feasible, feasible)
    _write(paths.config, {
        "schedule": {"kind": "inverse_sqrt", "alpha0": ALPHA0},
        "max_iters": size.iters,
        "tie_tol": 0.0,
        "seed": seed,
        "phi1": _start_weights(rng, wl),
    })
    return paths
