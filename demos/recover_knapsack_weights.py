# %% [markdown]
# Recovering scalarization weights from knapsack decisions.
#
# A planner packs 0/1 knapsacks while balancing three objectives (say
# value, fairness, and training benefit).  We only observe which packing
# they picked for each knapsack.  This script recovers the weights they
# were implicitly using, then checks that the recovered weights
# reproduce their decisions.

# %%
import numpy as np

from moirl import (
    Ball,
    KnapsackSpec,
    RunConfig,
    StepSchedule,
    equivalence_check,
    knapsack_instance,
    reward_gap_report,
    solve,
    train,
)
from moirl.synth import expert_trajectories

rng = np.random.default_rng(0)

# %% Build a handful of knapsack instances with 3-dimensional item features.
instances = {}
for i in range(6):
    m = int(rng.integers(4, 9))
    spec = KnapsackSpec(
        weights=rng.integers(1, 6, size=m).astype(float),
        capacity=float(rng.integers(5, 12)),
        item_features=rng.integers(0, 6, size=(m, 3)).astype(float),
    )
    inst = knapsack_instance(spec, f"knap-{i}")
    instances[inst.id] = inst
    print(f"{inst.id}: {len(inst.actions)} distinct feasible packings")

# %% The planner's true (hidden) weights, and their decisions.
true_weights = np.array([0.5, 0.25, 0.25])
data = expert_trajectories(true_weights, instances)
for t in data:
    print(f"{t.instance_id}: expert packed features {t.action.tolist()}")

# %% Recover the weights by projected subgradient descent over the unit ball.
feasible = Ball(center=np.zeros(3), radius=1.0)
cfg = RunConfig(
    schedule=StepSchedule("inverse_sqrt", 0.5),
    max_iters=5000,
    target_eps=1e-6,
)
log = train(data, instances, feasible, phi1=np.array([-1.0, 0.0, 0.0]), cfg=cfg)
print(f"stopped after {log.iters_run} iterations")
print(f"best objective {log.best_objective}")
print(f"recovered weights {log.best_weights}")

# %% [markdown]
# The recovered weights need not equal the true ones (many weight
# vectors induce the same decisions), but they must assign the expert's
# packing the top reward on every instance.

# %%
report = reward_gap_report(log.best_weights, true_weights, data, instances)
print("per-instance reward gaps:", report.gaps)

equiv = equivalence_check(log.best_weights, true_weights, data, instances)
print(
    f"subgradient zero: {equiv.subgrad_zero}, "
    f"actions match: {equiv.actions_equal}, W1 zero: {equiv.w1_zero}"
)

# %% Spot check: both weight vectors pick the same packing everywhere.
for iid, inst in instances.items():
    ours = solve(log.best_weights, inst).chosen
    theirs = solve(true_weights, inst).chosen
    print(f"{iid}: recovered -> {ours.tolist()}, true -> {theirs.tolist()}")
