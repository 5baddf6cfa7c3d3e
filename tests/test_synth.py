import numpy as np
from hypothesis import example, given, settings, strategies as st

from moirl import io as mio
from moirl.domain import make_instance
from moirl.solvers import KnapsackSpec, knapsack_instance, polytope_vertex_instance
from moirl.synth import instances_from_spec, random_instances


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


def loop_instances_from_spec(obj, seed=0):
    """The per-kind parser of ``problem.json`` that ``synth`` held before
    ``io`` took the format over, the reference for ``instances_from_spec``
    on valid specs.  It checks no width across entries."""
    if not isinstance(obj, dict):
        raise mio.SchemaError("", "expected an object")
    out = {}
    entries = obj.get("instances", [])
    if not isinstance(entries, list):
        raise mio.SchemaError("/instances", "expected an array")
    for i, entry in enumerate(entries):
        ptr = f"/instances/{i}"
        kind = mio._field(entry, "type", ptr)
        iid = mio._field(entry, "id", ptr)
        if not isinstance(iid, str):
            raise mio.SchemaError(f"{ptr}/id", "expected a string")
        if iid in out:
            raise mio.SchemaError(f"{ptr}/id", f"duplicate instance id {iid!r}")
        if kind == "explicit":
            actions = mio._matrix(mio._field(entry, "actions", ptr), f"{ptr}/actions")
            out[iid] = make_instance(iid, actions, state=entry.get("state"))
        elif kind == "knapsack":
            spec = KnapsackSpec(
                weights=mio._vector(mio._field(entry, "weights", ptr),
                                    f"{ptr}/weights"),
                capacity=mio._number(mio._field(entry, "capacity", ptr),
                                     f"{ptr}/capacity"),
                item_features=mio._matrix(mio._field(entry, "item_features", ptr),
                                          f"{ptr}/item_features"),
            )
            out[iid] = knapsack_instance(spec, iid)
        elif kind == "polytope":
            vertices = mio._matrix(mio._field(entry, "vertices", ptr),
                                   f"{ptr}/vertices")
            out[iid] = polytope_vertex_instance(vertices, iid)
        else:
            raise mio.SchemaError(f"{ptr}/type", f"unknown instance type {kind!r}")
    if "random" in obj:
        rnd, ptr = obj["random"], "/random"
        generated = random_instances(
            np.random.default_rng(seed),
            count=mio._integer(mio._field(rnd, "count", ptr), f"{ptr}/count"),
            dim=mio._integer(mio._field(rnd, "dim", ptr), f"{ptr}/dim"),
            n_actions=mio._integer(mio._field(rnd, "n_actions", ptr),
                                   f"{ptr}/n_actions"),
            low=mio._integer(rnd.get("low", -10), f"{ptr}/low"),
            high=mio._integer(rnd.get("high", 10), f"{ptr}/high"),
        )
        for iid, inst in generated.items():
            if iid in out:
                raise mio.SchemaError(ptr, f"generated id {iid!r} collides")
            out[iid] = inst
    if not out:
        raise mio.SchemaError("", "problem spec produced no instances")
    return out


@st.composite
def problem_specs(draw):
    """Valid ``problem.json`` objects of one width: explicit, polytope and
    knapsack entries in any order, any of them with a ``state``, and an
    optional ``random`` block with or without its bounds."""
    d = draw(st.integers(1, 3))
    number = st.one_of(st.integers(-4, 4), st.sampled_from([0.5, -0.25, -0.0, 1e-300]))

    def rows(lo, hi):
        return st.lists(st.lists(number, min_size=d, max_size=d),
                        min_size=lo, max_size=hi)

    entries = []
    for i, kind in enumerate(draw(st.lists(
            st.sampled_from(["explicit", "polytope", "knapsack"]), max_size=5))):
        entry = {"type": kind, "id": f"{kind}-{i}"}
        if kind == "knapsack":
            m = draw(st.integers(1, 6))
            entry.update(
                weights=draw(st.lists(st.sampled_from([0, 0.5, 1, 2]),
                                      min_size=m, max_size=m)),
                capacity=draw(st.sampled_from([0, 1, 2.5, 100])),
                item_features=draw(rows(m, m)))
        else:
            entry["actions" if kind == "explicit" else "vertices"] = draw(rows(1, 6))
        if draw(st.booleans()):
            entry["state"] = draw(st.sampled_from([None, 3, "s", {"t": [1, 2]}]))
        entries.append(entry)
    spec = {"instances": entries}
    if not entries or draw(st.booleans()):
        block = {"count": draw(st.integers(0 if entries else 1, 4)), "dim": d,
                 "n_actions": draw(st.integers(1, 4))}
        if draw(st.booleans()):
            block["low"] = draw(st.integers(-(2**63), 5))
            block["high"] = draw(st.integers(block["low"], 2**63 - 1))
        spec["random"] = block
    return spec


class TestInstancesFromSpec:
    @given(problem_specs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_matches_the_per_kind_parser(self, spec, seed):
        got = instances_from_spec(spec, seed=seed)
        want = loop_instances_from_spec(spec, seed=seed)
        assert list(got) == list(want)
        for iid, inst in want.items():
            assert got[iid].id == iid and got[iid].state == inst.state
            assert got[iid].actions.shape == inst.actions.shape
            assert got[iid].actions.tobytes() == inst.actions.tobytes()
