import numpy as np
from hypothesis import given, strategies as st

from moirl.domain import make_instance
from moirl.synth import random_instances


def loop_random_instances(rng, count, dim, n_actions, low, high, prefix="rand"):
    """One draw and one ``make_instance`` per instance, the reference for
    ``random_instances``."""
    out = {}
    for i in range(count):
        actions = rng.integers(low, high + 1, size=(n_actions, dim)).astype(float)
        out[f"{prefix}-{i}"] = make_instance(f"{prefix}-{i}", actions)
    return out


class TestRandomInstances:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 4),
           st.integers(1, 12), st.integers(-3, 0), st.integers(0, 3))
    def test_matches_per_instance_make_instance(self, seed, count, dim, n_actions,
                                                 low, high):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_instances(rng, count, dim, n_actions, low, high)
        want = loop_random_instances(ref, count, dim, n_actions, low, high)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert list(got) == list(want)
        for iid, inst in want.items():
            assert got[iid].id == iid and got[iid].state is None
            assert got[iid].actions.shape == inst.actions.shape
            assert got[iid].actions.tobytes() == inst.actions.tobytes()

    def test_makes_no_per_instance_calls(self, per_instance_calls):
        instances = random_instances(np.random.default_rng(0), 50, 3, 20)
        assert len(instances) == 50
        assert per_instance_calls == []
