import numpy as np
from hypothesis import example, given, settings, strategies as st

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


# Spans (high - low) where numpy's bounded-integer draws take different
# paths: 0 draws nothing, below 2^32 takes buffered 32-bit draws, 2^32 - 1
# takes raw 32-bit draws, and from 2^32 on it takes 64-bit draws.
SPANS = st.one_of(
    st.integers(0, 6),
    st.sampled_from([0, 1, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
                     2**62]),
    st.integers(0, 2**62),
)


class TestRandomInstances:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 5),
           st.integers(1, 9), st.integers(-(2**62), 3), SPANS)
    @example(seed=0, count=0, dim=2, n_actions=3, low=-3, span=6)
    @example(seed=1, count=5, dim=3, n_actions=4, low=7, span=0)
    @example(seed=2, count=3, dim=1, n_actions=3, low=-4, span=5)
    @example(seed=3, count=7, dim=3, n_actions=5, low=-(2**40), span=2**32)
    @example(seed=4, count=1, dim=5, n_actions=1, low=0, span=2**32 - 1)
    @example(seed=5, count=9, dim=1, n_actions=1, low=-(2**62), span=2**62)
    @settings(max_examples=300)
    def test_matches_per_instance_make_instance(self, seed, count, dim, n_actions,
                                                 low, span):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_instances(rng, count, dim, n_actions, low, low + span)
        want = loop_random_instances(ref, count, dim, n_actions, low, low + span)
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
