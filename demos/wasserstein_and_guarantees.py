# %% [markdown]
# How the Wasserstein distance, the subgradient, and action agreement
# move together during weight recovery.
#
# Three completion criteria are equivalent on expert data produced by
# the exact tie-breaking solver: the subgradient vanishes, the learner's
# actions all match the expert's, and the W1 distance between the two
# action distributions is zero.  This script watches all three along a
# training run.

# %%
import numpy as np

from moirl import (
    Ball,
    RunConfig,
    StepSchedule,
    TrajectorySet,
    equivalence_check,
    linear_dual_lower_bound,
    reward_gap_report,
    solve,
    train,
    w1_exact,
)
from moirl.synth import expert_trajectories, random_instances

rng = np.random.default_rng(7)
dim = 2
instances = random_instances(rng, count=5, dim=dim, n_actions=15)
true_weights = np.array([0.75, -0.5])
data = expert_trajectories(true_weights, instances)
expert_actions = np.stack([t.action for t in data])

# %% Train, logging every iterate.
feasible = Ball(center=np.zeros(dim), radius=1.0)
cfg = RunConfig(schedule=StepSchedule("inverse_sqrt", 0.5), max_iters=200,
                tie_tol=0.0)
log = train(data, instances, feasible, phi1=np.array([0.0, 1.0]), cfg=cfg)

# %% W1 between learner and expert action distributions along the run.
insts = [instances[t.instance_id] for t in data]
print(f"{'iter':>5} {'F':>12} {'W1':>12} {'dual bound':>12}")
for i in range(0, log.iters_run, 20):
    phi = log.weights[i]
    learner_actions = np.stack(
        [solve(phi, inst, tie_tol=0.0).chosen for inst in insts]
    )
    dist = w1_exact(learner_actions, expert_actions)
    bound = linear_dual_lower_bound(learner_actions, expert_actions)
    print(f"{log.iterations[i]:>5} {log.objectives[i]:>12.6f} "
          f"{dist:>12.6f} {bound:>12.6f}")

# %% [markdown]
# The dual bound uses only the mean displacement, so it can sit below
# the true W1; it reaches zero exactly when the summed action
# differences cancel, which (for lexicographic experts) forces the
# actions themselves to coincide.

# %%
equiv = equivalence_check(log.best_weights, true_weights, data, instances)
print(f"at the best iterate (iteration {log.best_iteration}):")
print(f"  subgradient zero : {equiv.subgrad_zero}")
print(f"  actions equal    : {equiv.actions_equal}")
print(f"  W1 zero          : {equiv.w1_zero}")
print(f"  unanimous        : {equiv.unanimous}")

# %% [markdown]
# The checks compare the learner with the expert's decisions; the ground
# truth is optional.  Swap one expert decision for another feasible action,
# so that no weights reproduce the data, and check the trained weights
# without a ground truth: the objective stays positive and all three
# criteria agree that the actions differ.

# %%
noisy_actions = expert_actions.copy()
first = instances[data.instance_ids[0]]
noisy_actions[0] = next(a for a in first.actions if np.any(a != noisy_actions[0]))
noisy = TrajectorySet(data.instance_ids, noisy_actions)
noisy_log = train(noisy, instances, feasible, phi1=np.array([0.0, 1.0]), cfg=cfg)
gaps = reward_gap_report(noisy_log.best_weights, None, noisy, instances)
equiv = equivalence_check(noisy_log.best_weights, None, noisy, instances)
print("with decision 0 swapped (no ground truth):")
print(f"  F at the best iterate : {gaps.objective:.6f}")
print(f"  subgradient zero      : {equiv.subgrad_zero}")
print(f"  actions equal         : {equiv.actions_equal}")
print(f"  W1 zero               : {equiv.w1_zero}")
