import hashlib
import io
import json
import shutil
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import mutated_entries, random_problem
from hypothesis import given, settings, strategies as st

from moirl import cli, io as mio
from moirl.domain import Ball, Box, Simplex, TrajectorySet, make_instance
from moirl.learner import RunConfig, RunLog, StepSchedule
from moirl.synth import random_instances


def make_log(k=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    objs = rng.random(k)
    phis = rng.normal(size=(k, d))
    return RunLog(weights=phis, objectives=objs, grad_norms=rng.random(k))


class TestInstanceRoundTrip:
    def test_save_load_identity(self, tmp_path):
        instances = {
            "a": make_instance("a", [[0.5, -1.25], [3.0, 2.0]], state={"note": 1}),
            "b": make_instance("b", [[0.1, 0.2]]),
        }
        p = tmp_path / "instances.json"
        mio.save_instances(instances, p)
        loaded = mio.load_instances(p)
        assert set(loaded) == {"a", "b"}
        for iid in instances:
            assert np.array_equal(loaded[iid].actions, instances[iid].actions)
        assert loaded["a"].state == {"note": 1}

    def test_repeated_saves_byte_identical(self, tmp_path):
        instances = {"a": make_instance("a", [[1 / 3, 0.1], [2.0, -7.0]])}
        p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
        mio.save_instances(instances, p1)
        mio.save_instances(mio.load_instances(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ragged_actions_named_by_index(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([{"id": "a", "actions": [[1, 2], [3]]}]))
        with pytest.raises(mio.SchemaError) as exc:
            mio.load_instances(p)
        assert "/0/actions/1" in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text(json.dumps([
            {"id": "a", "actions": [[1.0]]},
            {"id": "a", "actions": [[2.0]]},
        ]))
        with pytest.raises(mio.SchemaError, match="duplicate"):
            mio.load_instances(p)


def json_dump_bytes(instances):
    """The reference layout: json.dump(indent=2) of the instance objects."""
    fh = io.StringIO()
    json.dump(
        [{"id": inst.id, "state": inst.state, "actions": inst.actions.tolist()}
         for inst in instances.values()],
        fh, indent=2,
    )
    return (fh.getvalue() + "\n").encode("utf-8")


NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e22, 5e-324, 1.0, -3.0, 2.0**53, 1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
STATES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def instance_maps(draw):
    out, d = {}, draw(st.integers(1, 3))
    for iid in draw(st.lists(st.text(max_size=6), unique=True, max_size=4)):
        rows = draw(st.lists(st.lists(NUMBERS, min_size=d, max_size=d),
                             min_size=1, max_size=5))
        out[iid] = make_instance(iid, rows, state=draw(STATES))
    return out


@st.composite
def shared_value_maps(draw):
    """Many instances of one dimension over a small pool of numbers, so
    that most values, ``0.0`` and ``-0.0`` among them, recur across the
    file."""
    pool = draw(st.lists(NUMBERS, min_size=1, max_size=6)) + [0.0, -0.0]
    out, d = {}, draw(st.integers(1, 4))
    for i in range(draw(st.integers(1, 30))):
        rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=d, max_size=d),
                             min_size=1, max_size=8))
        state = draw(st.sampled_from([None, f"s{i}", 1.5, [i, {"k": None}]]))
        out[f"i{i}"] = make_instance(f"i{i}", rows, state=state)
    return out


class TestSaveInstancesLayout:
    @given(instance_maps())
    @settings(max_examples=150)
    def test_bytes_equal_json_dump(self, tmp_path_factory, instances):
        p = tmp_path_factory.mktemp("layout") / "instances.json"
        mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)

    @given(shared_value_maps())
    @settings(max_examples=100)
    def test_shared_values_bytes_equal_json_dump(self, tmp_path_factory, instances):
        p = tmp_path_factory.mktemp("shared") / "instances.json"
        mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)

    @pytest.mark.parametrize("instances", [
        {},
        {"a": make_instance("a", [[1e22], [-0.0], [5e-324], [3.0]])},
        {"é\n": make_instance("é\n", [[0.1, -2.0, 7.0]],
                               state={"k": ["ü", None, {"x": "a\nb"}], "n": 1.5})},
        {"a": make_instance("a", [[1.0, 2.0]], state=[{"k": [1, {}]}, [], (2, "x")]),
         "b": make_instance("b", [[0.5, -0.0]], state=[])},
        {"a": make_instance("a", [[1.0]], state="line\n\"q\"\tü"),
         "b": make_instance("b", [[2.0]], state={}),
         "c": make_instance("c", [[3.0]], state=-0.0)},
    ], ids=["empty", "d1", "one-row-nested-state", "nested-state-in-a-list",
            "scalar-string-state"])
    def test_edge_cases(self, tmp_path, instances):
        p = tmp_path / "instances.json"
        mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)
        if not instances:
            assert p.read_bytes() == b"[]\n"


SLICE_EDGE_INSTANCES = {
    "a": make_instance("a", [[1.0, -0.0], [0.1, 2.0], [0.0, -3.5]],
                       state={"k": ["ü", None, {"x": "a\nb"}], "n": -0.0}),
    "b\n\"": make_instance("b\n\"", [[-0.0, 0.0]], state=None),
    "c": make_instance("c", [[5e-324, 1e22], [7.0, -0.0], [0.0, 0.0]],
                       state=[1, [2, {}], "s"]),
    "d": make_instance("d", [[1e16, 0.5]], state="line\n\"q\""),
    "e": make_instance("e", [[0.5, 0.25], [-0.0, 1.0]], state=[]),
}


class TestSaveInstancesSlices:
    """``save_instances`` joins, encodes, hashes and writes the text of a
    fixed number of numbers at a time; instance heads, row ends and
    instance ends fall anywhere in a slice."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_bytes_equal_json_dump_at_any_slice_size(self, tmp_path, size):
        p = tmp_path / "instances.json"
        with mock.patch.object(mio, "_SLICE", size):
            mio.save_instances(SLICE_EDGE_INSTANCES, p)
        assert p.read_bytes() == json_dump_bytes(SLICE_EDGE_INSTANCES)

    @given(shared_value_maps(), st.sampled_from([1, 2, 7]))
    @settings(max_examples=60)
    def test_shared_values_at_any_slice_size(self, tmp_path_factory, instances, size):
        p = tmp_path_factory.mktemp("slices") / "instances.json"
        with mock.patch.object(mio, "_SLICE", size):
            mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)

    def test_written_and_hashed_once_per_slice(self, tmp_path, monkeypatch):
        instances = random_instances(np.random.default_rng(0), 1000, 3, 5)
        p = tmp_path / "instances.json"
        writes, updates = [], []
        real_open, real_sha256 = open, hashlib.sha256

        class CountingFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(len(data))
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        class CountingSha:
            def __init__(self):
                self.sha = real_sha256()

            def update(self, data):
                updates.append(len(data))
                self.sha.update(data)

            def digest(self):
                return self.sha.digest()

        def counting_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return CountingFile(fh) if str(file) == str(p) and "w" in mode else fh

        monkeypatch.setattr(mio, "open", counting_open, raising=False)
        monkeypatch.setattr(mio, "hashlib", SimpleNamespace(sha256=CountingSha))
        mio.save_instances(instances, p)
        cells = sum(inst.actions.size for inst in instances.values())
        most = -(-cells // mio._SLICE) + 1
        assert 0 < len(writes) == len(updates) <= most < len(instances)
        assert sum(writes) == sum(updates) == p.stat().st_size
        assert p.read_bytes() == json_dump_bytes(instances)


def loop_vector(obj, ptr):
    """The element-by-element schema check, the reference for the fast path."""
    if not isinstance(obj, list) or not obj:
        raise mio.SchemaError(ptr, "expected a nonempty array of numbers")
    out = []
    for i, x in enumerate(obj):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise mio.SchemaError(f"{ptr}/{i}", "expected a number")
        out.append(float(x))
    return out


def loop_matrix(obj, ptr):
    if not isinstance(obj, list) or not obj:
        raise mio.SchemaError(ptr, "expected a nonempty array of vectors")
    rows = [loop_vector(row, f"{ptr}/{i}") for i, row in enumerate(obj)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise mio.SchemaError(
                f"{ptr}/{i}", f"ragged row: length {len(row)}, expected {width}"
            )
    return rows


ELEMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 2**53 + 1, 2**63 + 1, -(2**64) - 1, 10**300]),
)
BAD_ELEMENTS = st.sampled_from([True, False, "1", None, [1.0], {}, [[2]]])


@st.composite
def mutated_matrices(draw):
    """A rectangular matrix of numbers, with up to two mutations."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    obj = [[draw(ELEMENTS) for _ in range(d)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(obj) - 1))
        row = obj[i]
        kind = draw(st.sampled_from(
            ["element", "empty", "shorter", "longer", "row", "whole"]))
        if kind == "element" and isinstance(row, list) and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ELEMENTS)
        elif kind == "empty":
            obj[i] = []
        elif kind == "shorter" and isinstance(row, list) and row:
            row.pop()
        elif kind == "longer" and isinstance(row, list):
            row.append(draw(ELEMENTS))
        elif kind == "row":
            obj[i] = draw(st.sampled_from([1.0, "row", None, {"a": 1}]))
        elif kind == "whole":
            return draw(st.sampled_from([[], {}, 3.0, "m", None]))
    return obj


def outcome(fn, obj):
    try:
        return np.array(fn(obj, "/m"), dtype=float)
    except mio.SchemaError as exc:
        return str(exc)


class TestSchemaFastPath:
    @given(mutated_matrices())
    @settings(max_examples=300)
    def test_matrix_agrees_with_loop(self, obj):
        want, got = outcome(loop_matrix, obj), outcome(mio._matrix, obj)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(mutated_matrices())
    def test_vector_agrees_with_loop(self, obj):
        row = obj[0] if isinstance(obj, list) and obj else obj
        want, got = outcome(loop_vector, row), outcome(mio._vector, row)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("obj, ptr", [
        ([[1.0, 10**400]], "/m/0/1"),
        ([[1.0], [float("inf")]], "/m/1/0"),
    ])
    def test_nonfinite_number_named(self, obj, ptr):
        with pytest.raises(mio.SchemaError, match="expected a finite number") as exc:
            mio._matrix(obj, "/m")
        assert exc.value.pointer == ptr

    @pytest.mark.parametrize("text", ["NaN", "-Infinity", "1e400", "1" + "0" * 400])
    def test_nonfinite_number_in_file_rejected(self, tmp_path, text):
        p = tmp_path / "instances.json"
        p.write_text('[{"id": "a", "actions": [[0.5, %s]]}]' % text)
        with pytest.raises(mio.SchemaError):
            mio.load_instances(p)


@st.composite
def trajectory_sets(draw):
    """Decisions with repeated ids, ids that JSON must escape, and
    ``-0.0``, subnormal and large-magnitude numbers."""
    d = draw(st.integers(1, 4))
    ids = st.text(max_size=6) | st.sampled_from(['"', "\\", 'q"\\"', "é\n", "日本"])
    numbers = NUMBERS | st.sampled_from([-5e-324, 2.2250738585072014e-308,
                                         1e-310, -1.7976931348623157e308, 1e300])
    rows = draw(st.lists(st.tuples(ids, st.lists(numbers, min_size=d, max_size=d)),
                         min_size=1, max_size=12))
    return TrajectorySet([iid for iid, _ in rows], [row for _, row in rows])


class TestSaveTrajectoriesLayout:
    @given(trajectory_sets())
    @settings(max_examples=150)
    def test_bytes_equal_save_json(self, tmp_path_factory, ts):
        p = tmp_path_factory.mktemp("traj")
        mio.save_trajectories(ts, p / "direct.json")
        mio.save_json([{"instance_id": iid, "action": row}
                       for iid, row in zip(ts.instance_ids, ts.actions.tolist())],
                      p / "json.json")
        assert (p / "direct.json").read_bytes() == (p / "json.json").read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected_and_nothing_written(self, tmp_path, bad):
        p, ts = tmp_path / "expert_trajectories.json", TrajectorySet(
            ["a", "b"], [[0.5, 1.0], [bad, 2.0]])
        with pytest.raises(ValueError, match="not JSON compliant"):
            mio.save_trajectories(ts, p)
        assert not p.exists()


FINITE_FLOATS = NUMBERS | st.sampled_from([-5e-324, 1e-310, 1e300, -1.7976931348623157e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE_FLOATS
    | st.text() | st.sampled_from(['"', "\\", "\n", "é", "日本", "\x00"]),
    lambda inner: st.lists(FINITE_FLOATS, max_size=4) | st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def json_dump_text(obj):
    """The reference layout: json.dump(indent=2) plus a newline."""
    fh = io.StringIO()
    json.dump(obj, fh, indent=2)
    return fh.getvalue() + "\n"


class TestProblemOutOfMemory:
    """A ``problem.json`` block too large for memory is a SchemaError that
    names it, with numpy's message if it gave one."""

    KNAPSACK = {"type": "knapsack", "id": "k", "weights": [1.0, 1.0],
                "capacity": 2.0, "item_features": [[1, 0], [0, 1]]}

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "/random: out of memory"),
        (MemoryError("Unable to allocate 59.6 GiB"),
         "/random: Unable to allocate 59.6 GiB"),
    ], ids=["bare", "numpy-message"])
    def test_random_draw(self, error, message):
        def random(*block):
            raise error

        spec = {"random": {"count": 3, "dim": 2, "n_actions": 4}}
        with pytest.raises(mio.SchemaError) as exc:
            mio.problem_instances(spec, random)
        assert str(exc.value) == message
        assert exc.value.pointer == "/random"

    def test_knapsack_build(self, monkeypatch):
        def knapsack_instance(spec, iid):
            raise MemoryError

        monkeypatch.setattr(mio, "knapsack_instance", knapsack_instance)
        spec = {"instances": [
            {"type": "explicit", "id": "a", "actions": [[0, 1]]}, self.KNAPSACK]}
        with pytest.raises(mio.SchemaError) as exc:
            mio.problem_instances(spec, None)
        assert str(exc.value) == "/instances/1: out of memory"


class TestSaveJsonLayout:
    @given(JSON_VALUES)
    @settings(max_examples=300)
    def test_bytes_equal_json_dump(self, tmp_path_factory, obj):
        p = tmp_path_factory.mktemp("json") / "out.json"
        mio.save_json(obj, p)
        assert p.read_bytes() == json_dump_text(obj).encode("utf-8")

    @pytest.mark.parametrize("obj", [
        {"gaps": [0.0, -0.0, 1e16, 5e-324, 0.1], "F": 0.02, "eps": 1e-2,
         "bound_eN": 10.02, "equivalence": {"subgrad_zero": True,
                                            "actions_equal": False,
                                            "w1_zero": False}},
        {"best_phi": [0.6, -0.8], "best_F": -0.0, "best_iteration": 3,
         "iters_run": 10**20},
        {"phi0": [1.0], "seed": 0, "feasible": {"kind": "simplex", "dim": 3}},
        {"a": {"b": {"c": [[1.0, 2.0], []], "d": {}}}, "e": [], "f": None},
        {"é\n": "ü\t\"q\"\\", "": [True, 1, 1.5, None, "x"]},
        {"gaps": [1.5]}, [], {}, [1.0, 2], [0.5, True], "s", -0.0, None,
    ], ids=["verify-report", "summary", "manifest", "nested", "escapes",
            "one-gap", "empty-list", "empty-dict", "int-among-floats",
            "bool-among-floats", "string", "negative-zero", "null"])
    def test_edge_cases(self, tmp_path, obj):
        p = tmp_path / "out.json"
        mio.save_json(obj, p)
        assert p.read_bytes() == json_dump_text(obj).encode("utf-8")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("wrap", [
        lambda x: x, lambda x: [0.5, x], lambda x: {"gaps": [x]},
        lambda x: {"a": {"bound_eN": x}}, lambda x: [[x]],
    ], ids=["scalar", "float-list", "report", "nested", "list-of-lists"])
    def test_non_finite_rejected_and_nothing_written(self, tmp_path, bad, wrap):
        p = tmp_path / "out.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            mio.save_json(wrap(bad), p)
        assert not p.exists()


class TestTrajectoryRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ts = TrajectorySet(["a", "b"], [[0.1, -2.5], [1e-17, 3.0]])
        p = tmp_path / "traj.json"
        mio.save_trajectories(ts, p)
        loaded = mio.load_trajectories(p)
        assert len(loaded) == 2
        for orig, back in zip(ts, loaded):
            assert orig.instance_id == back.instance_id
            assert np.array_equal(orig.action, back.action)

    def test_nonnumeric_action_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([{"instance_id": "a", "action": [1, "x"]}]))
        with pytest.raises(mio.SchemaError) as exc:
            mio.load_trajectories(p)
        assert "/0/action/1" in str(exc.value)

    def test_ragged_actions_named(self, tmp_path):
        p = tmp_path / "ragged.json"
        p.write_text(json.dumps([{"instance_id": "x", "action": [1, 2]},
                                 {"instance_id": "y", "action": [1]}]))
        with pytest.raises(mio.SchemaError, match="^/1/action: length 1, expected 2$"):
            mio.load_trajectories(p)


def loop_load_instances(path):
    """The per-entry loader, the reference for ``load_instances``."""
    data = mio.load_json(path)
    if not isinstance(data, list):
        raise mio.SchemaError("", "expected an array of instance objects")
    out = {}
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = mio._field(entry, "id", ptr)
        if not isinstance(iid, str):
            raise mio.SchemaError(f"{ptr}/id", "expected a string")
        if iid in out:
            raise mio.SchemaError(f"{ptr}/id", f"duplicate instance id {iid!r}")
        actions = mio._matrix(mio._field(entry, "actions", ptr), f"{ptr}/actions")
        first = next(iter(out.values()), None)
        if first is not None and actions.shape[1] != first.dim:
            raise mio.SchemaError(f"{ptr}/actions/0",
                                  f"length {actions.shape[1]}, expected {first.dim}")
        out[iid] = make_instance(iid, actions, state=entry.get("state"))
    return out


def loop_load_trajectories(path):
    """The per-entry loader, the reference for ``load_trajectories``."""
    data = mio.load_json(path)
    if not isinstance(data, list):
        raise mio.SchemaError("", "expected an array of trajectory objects")
    ids, actions = [], []
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = mio._field(entry, "instance_id", ptr)
        if not isinstance(iid, str):
            raise mio.SchemaError(f"{ptr}/instance_id", "expected a string")
        action = mio._vector(mio._field(entry, "action", ptr), f"{ptr}/action")
        if actions and len(action) != len(actions[0]):
            raise mio.SchemaError(f"{ptr}/action",
                                  f"length {len(action)}, expected {len(actions[0])}")
        ids.append(iid)
        actions.append(action)
    if not ids:
        raise mio.SchemaError("", "trajectory file must contain at least one entry")
    return TrajectorySet(ids, np.array(actions))


FILE_NUMBERS = st.one_of(
    st.sampled_from([-2, 0, 3, -0.0, 0.0, 0.5, 1.0, 2**53 + 1, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def instance_files(draw):
    """Instance files of one action width, or now and then of two."""
    widths = st.sampled_from([draw(st.integers(1, 3))] * 5 + [draw(st.integers(1, 3))])
    states = st.sampled_from([None, "s", [1, None], {"k": 2.5}])
    entries = []
    for i in range(draw(st.integers(1, 5))):
        d = draw(widths)
        rows = draw(st.lists(st.lists(FILE_NUMBERS, min_size=d, max_size=d),
                             min_size=1, max_size=5))
        entries.append({"id": f"i{i}", "state": draw(states), "actions": rows})
    return draw(mutated_entries(entries, "id"))


@st.composite
def trajectory_files(draw):
    d = draw(st.integers(1, 3))
    action = st.lists(FILE_NUMBERS, min_size=d, max_size=d)
    entries = [{"instance_id": f"i{i % 3}", "action": draw(action)}
               for i in range(draw(st.integers(1, 5)))]
    return draw(mutated_entries(entries, "instance_id"))


def loaded(load, path):
    """What ``load`` returns, in comparable bytes, or its error."""
    try:
        out = load(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, TrajectorySet):
        return [(t.instance_id, t.action.shape, t.action.tobytes()) for t in out]
    return [(iid, inst.id, inst.actions.shape, inst.actions.tobytes(), inst.state)
            for iid, inst in out.items()]


class TestWholeFileLoad:
    """The whole-file array pass against the per-entry loop, on files
    that hold every kind of fault the loop can name."""

    @given(instance_files())
    @settings(max_examples=150)
    def test_instances_agree_with_per_entry_loop(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("inst") / "instances.json"
        p.write_text(json.dumps(data))
        assert loaded(mio.load_instances, p) == loaded(loop_load_instances, p)

    @given(trajectory_files())
    @settings(max_examples=100)
    def test_trajectories_agree_with_per_entry_loop(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("traj") / "expert_trajectories.json"
        p.write_text(json.dumps(data))
        assert loaded(mio.load_trajectories, p) == loaded(loop_load_trajectories, p)

    @pytest.mark.parametrize("data", [
        [],
        [{"id": "a", "actions": [[1.0]]}, {"id": "b", "actions": []}],
        [{"id": "a", "actions": [[1.0]]}, {"id": "b", "actions": [[2.0]]},
         {"id": "c", "actions": [[2.0, 3.0], [4.0, 5.0]]}],
        [{"id": "a", "actions": [[1.0]]}, {"id": "a", "actions": [[2.0]]}],
        [{"id": "a", "actions": [[2**70, 0.0], [2**53 + 1, -0.0], [1, 2]]}],
        [{"id": "a", "actions": [[0.0, 1.0], [-0.0, 1.0], [-1.0, 2.0]]}],
        [{"id": "a", "actions": [[1.5e308], [1.5e308]], "state": {"s": [1]}}],
        [{"id": "a", "actions": [[1.0], [10**400]]}],
    ], ids=["empty-file", "empty-actions", "mixed-widths", "duplicate-id",
            "huge-integers", "zero-signs", "sum-overflows", "integer-overflows"])
    def test_edge_files_agree_with_per_entry_loop(self, tmp_path, data):
        p = tmp_path / "instances.json"
        p.write_text(json.dumps(data))
        got = loaded(mio.load_instances, p)
        assert got == loaded(loop_load_instances, p)
        if len(data) == 3:  # mixed widths: the first row of another width
            assert got == ("SchemaError", "/2/actions/0: length 2, expected 1")

    def test_saved_file_loads_without_per_instance_calls(self, tmp_path,
                                                         per_instance_calls):
        instances, *_ = random_problem(0, dim=3, count=30, n_actions=6)
        instances["z"] = make_instance("z", [[-0.0, 1.0, 2.0], [0.0, -0.0, 5.0]])
        p = tmp_path / "instances.json"
        mio.save_instances(instances, p)
        per_instance_calls.clear()
        back = mio.load_instances(p)
        assert per_instance_calls == []
        assert list(back) == list(instances)
        for iid, inst in instances.items():
            assert back[iid].actions.tobytes() == inst.actions.tobytes()

    def test_call_counter_sees_a_per_instance_constructor(self, per_instance_calls):
        make_instance("a", [[1.0]])
        assert per_instance_calls == ["__post_init__", "canonical_actions"]


class TestFeasibleSetRoundTrip:
    @pytest.mark.parametrize("obj, fs", [
        ({"kind": "box", "lo": [-1.0, 0.0], "hi": [1.0, 2.5]},
         Box(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.5]))),
        ({"kind": "ball", "center": [0.0, 0.5], "radius": 1.25},
         Ball(center=np.array([0.0, 0.5]), radius=1.25)),
        ({"kind": "simplex", "dim": 3}, Simplex(dimension=3)),
    ], ids=["box", "ball", "simplex"])
    def test_round_trip(self, tmp_path, obj, fs):
        p = tmp_path / "fs.json"
        p.write_text(json.dumps(obj))
        assert mio.load_feasible_set(p) == fs
        assert mio.feasible_set_to_obj(fs) == obj

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "fs.json"
        p.write_text(json.dumps({"kind": "polyhedron"}))
        with pytest.raises(mio.SchemaError, match="unknown feasible set kind"):
            mio.load_feasible_set(p)


class TestRunConfigRoundTrip:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(
            schedule=StepSchedule("harmonic", 0.75),
            max_iters=123,
            target_eps=1e-3,
            tie_tol=0.0,
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "schedule": {"kind": "harmonic", "alpha0": 0.75},
            "max_iters": 123,
            "target_eps": 1e-3,
            "tie_tol": 0.0,
        }))
        assert mio.load_run_config(p) == cfg

    def test_absent_target_eps(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "schedule": {"kind": "inverse_sqrt", "alpha0": 1.0},
            "max_iters": 10,
        }))
        assert mio.load_run_config(p).target_eps is None


class TestRunLog:
    def test_csv_has_header_plus_k_rows(self, tmp_path):
        log = make_log(k=7)
        p = tmp_path / "run.csv"
        mio.write_runlog_csv(log, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 8
        assert lines[0] == "k,F,grad_norm,phi_0,phi_1"

    def test_round_trip_bit_identical_doubles(self, tmp_path):
        log = make_log(k=9, d=3, seed=4)
        p = tmp_path / "run.csv"
        mio.write_runlog_csv(log, p)
        back = mio.read_runlog_csv(p)
        assert np.array_equal(back.objectives, log.objectives)
        assert np.array_equal(back.weights, log.weights)
        assert np.array_equal(back.grad_norms, log.grad_norms)
        assert back.best_iteration == log.best_iteration

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=100)
    def test_bytes_round_trip(self, tmp_path_factory, k, d, data):
        floats = st.lists(FINITE_FLOATS, min_size=k, max_size=k).map(np.array)
        log = RunLog(
            weights=np.array(data.draw(st.lists(
                st.lists(FINITE_FLOATS, min_size=d, max_size=d),
                min_size=k, max_size=k))),
            objectives=data.draw(floats), grad_norms=data.draw(floats))
        p = tmp_path_factory.mktemp("runlog")
        mio.write_runlog_csv(log, p / "a.csv")
        mio.write_runlog_csv(mio.read_runlog_csv(p / "a.csv"), p / "b.csv")
        # The reference: one repr per cell.
        want = [mio._runlog_header(d)] + [
            ",".join([str(i + 1), repr(float(log.objectives[i])),
                      repr(float(log.grad_norms[i]))]
                     + [repr(float(x)) for x in log.weights[i]])
            for i in range(k)]
        assert (p / "a.csv").read_text() == "\n".join(want) + "\n"
        assert (p / "b.csv").read_bytes() == (p / "a.csv").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 2)[0]], "fields, header has"),
        (lambda lines: lines[:2] + lines[3:], "k is 3, expected 2"),
        (lambda lines: lines[:2] + [lines[2].replace(lines[2].split(",")[1], "nan", 1)]
         + lines[3:], "row 2: non-finite value"),
        (lambda lines: lines[:3] + [lines[3].replace(lines[3].split(",")[2], "inf", 1)]
         + lines[4:], "row 3: non-finite value"),
        (lambda lines: lines[:2] + ["2,x" + lines[2][lines[2].index(",", 2):]]
         + lines[3:], "row 2: expected numbers"),
        (lambda lines: ["k,F,phi_0,phi_1,phi_2"] + lines[1:], "header"),
    ], ids=["truncated-row", "k-gap", "nan", "inf", "not-a-number", "header"])
    def test_malformed_csv_rejected(self, tmp_path, edit, message):
        p = tmp_path / "run.csv"
        mio.write_runlog_csv(make_log(k=5, d=2), p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(mio.SchemaError, match=message):
            mio.read_runlog_csv(p)

    def test_summary_round_trip(self, tmp_path):
        log = make_log()
        p = tmp_path / "summary.json"
        mio.write_summary(log, p)
        back = mio.read_summary(p)
        assert np.array_equal(back["best_phi"], log.best_weights)
        assert back["best_F"] == log.best_objective
        assert back["iters_run"] == log.iters_run

    @pytest.mark.parametrize("key, value", [
        ("best_F", "0.5"), ("best_F", None), ("best_iteration", 2.0),
        ("iters_run", None), ("iters_run", False),
    ])
    def test_summary_bad_field_named(self, tmp_path, key, value):
        p = tmp_path / "summary.json"
        mio.write_summary(make_log(), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), key: value}))
        with pytest.raises(mio.SchemaError, match=f"/{key}"):
            mio.read_summary(p)


class TestTrainConfig:
    def test_phi1_read_with_the_run_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "schedule": {"kind": "harmonic", "alpha0": 1},
            "max_iters": 3,
            "phi1": [0.5, -1],
        }))
        cfg, phi1 = mio.load_train_config(p)
        assert cfg == mio.load_run_config(p)
        assert phi1.tolist() == [0.5, -1.0]

    @pytest.mark.parametrize("key, value", [
        ("tie_tol", None), ("target_eps", "x"), ("phi1", [1.0, True]),
        ("seed", None), ("seed", 1.5), ("seed", True), ("max_iters", "3"),
    ])
    def test_bad_field_named(self, tmp_path, key, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "schedule": {"kind": "harmonic", "alpha0": 1},
            "max_iters": 3,
            key: value,
        }))
        with pytest.raises(mio.SchemaError, match=f"/{key}"):
            mio.load_train_config(p)


class TestManifest:
    def test_round_trip(self, tmp_path):
        fs = Ball(center=np.zeros(2), radius=1.0)
        p = tmp_path / "manifest.json"
        mio.save_manifest(np.array([0.6, -0.8]), 42, fs, p)
        back = mio.load_manifest(p)
        assert np.array_equal(back["phi0"], np.array([0.6, -0.8]))
        assert back["seed"] == 42
        assert back["feasible"] == fs

    @pytest.mark.parametrize("seed", [None, "42", 4.2])
    def test_bad_seed_named(self, tmp_path, seed):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"phi0": [1.0], "seed": seed}))
        with pytest.raises(mio.SchemaError, match="/seed"):
            mio.load_manifest(p)


def sidecar_of(path):
    return path.with_suffix(".npz")


def write_sidecar(path, **arrays):
    """Rewrite ``path``'s sidecar with ``arrays`` in place of its own, under
    the SHA-256 of ``path``'s current bytes."""
    with np.load(sidecar_of(path)) as npz:
        fields = {name: npz[name] for name in npz.files}
    fields["sha256"] = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(),
                                     np.uint8)
    fields.update(arrays)
    with open(sidecar_of(path), "wb") as fh:
        np.savez(fh, **fields)


def load_result(path):
    """``loaded``, plus each action array's write flag."""
    out = loaded(mio.load_instances, path)
    if isinstance(out, list):
        flags = [inst.actions.flags.writeable
                 for inst in mio.load_instances(path).values()]
        out = [(*entry[:4], repr(entry[4]), flag) for entry, flag in zip(out, flags)]
    return out


def json_load_result(path):
    """``load_result`` of the instance file alone, without its sidecar."""
    alone = path.parent / "alone"
    alone.mkdir(exist_ok=True)
    shutil.copyfile(path, alone / path.name)
    return load_result(alone / path.name)


class TestSidecar:
    """The binary copy that ``save_instances`` writes next to the file
    gives what the JSON gives, and is used only while it is valid."""

    @staticmethod
    def check_against_json(path, instances):
        sidecar = sidecar_of(path)
        assert sidecar.exists() == bool(instances)
        text = path.read_text(encoding="utf-8")
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            with_sidecar = load_result(path)
        decoded = [call.args[0] == text for call in loads.call_args_list]
        assert any(decoded) != sidecar.exists()
        sidecar.unlink(missing_ok=True)
        assert with_sidecar == load_result(path)
        assert [entry[0] for entry in with_sidecar] == list(instances)
        assert all(entry[-1] is False for entry in with_sidecar)

    @given(instance_maps())
    @settings(max_examples=150)
    def test_agrees_with_json(self, tmp_path_factory, instances):
        p = tmp_path_factory.mktemp("sidecar") / "instances.json"
        mio.save_instances(instances, p)
        self.check_against_json(p, instances)

    @given(shared_value_maps())
    @settings(max_examples=100)
    def test_shared_values_agree_with_json(self, tmp_path_factory, instances):
        p = tmp_path_factory.mktemp("sidecar") / "instances.json"
        mio.save_instances(instances, p)
        self.check_against_json(p, instances)

    @pytest.fixture
    def saved(self, tmp_path):
        instances = {
            "a": make_instance("a", [[0.5, -1.25], [3.0, 2.0], [-0.0, 1.0]],
                               state={"k": [1, None]}),
            "b": make_instance("b", [[0.1, 0.2]], state="s"),
        }
        p = tmp_path / "data" / "instances.json"
        p.parent.mkdir()
        mio.save_instances(instances, p)
        assert sidecar_of(p).exists()
        return p

    def assert_json_result(self, path):
        want = json_load_result(path)
        assert load_result(path) == want
        return want

    def test_edited_instance_file(self, saved):
        text = saved.read_text()
        saved.write_text(text.replace("0.5", "0.7", 1))
        threads = threading.active_count()
        self.assert_json_result(saved)
        assert mio.load_instances(saved)["a"].actions[1].tolist() == [0.7, -1.25]
        assert threading.active_count() == threads

    def test_stored_digest_is_the_file_hash(self, saved):
        with np.load(sidecar_of(saved)) as npz:
            stored = npz["sha256"].tobytes()
        assert stored == hashlib.sha256(saved.read_bytes()).digest()

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_file_hashed_in_chunks(self, saved, chunk):
        with mock.patch.object(mio, "_HASH_CHUNK", chunk):
            self.check_against_json(saved, mio.load_instances(saved))

    def test_missing_instance_file_exits_4(self, saved, capsys):
        saved.unlink()
        threads = threading.active_count()
        assert cli.main(["train", str(saved.parent), "feasible.json", "config.json",
                         "--out", str(saved.parent / "run")]) == 4
        assert capsys.readouterr().err.startswith("error:IO:")
        with pytest.raises(FileNotFoundError):
            mio.load_instances(saved)
        assert threading.active_count() == threads

    def test_hash_worker_joined_when_the_copy_fails_its_checks(self, saved):
        with np.load(sidecar_of(saved)) as npz:
            actions = npz["actions"].copy()
        actions[0, 0] = np.nan
        write_sidecar(saved, actions=actions)
        threads = threading.active_count()
        with mock.patch.object(mio, "make_instances", wraps=mio.make_instances) as make:
            self.assert_json_result(saved)
        assert isinstance(make.call_args_list[0].args[1], np.ndarray)
        assert threading.active_count() == threads

    def test_sidecar_of_other_instances(self, saved, tmp_path):
        stale = tmp_path / "stale.npz"
        shutil.copyfile(sidecar_of(saved), stale)
        mio.save_instances({"c": make_instance("c", [[9.0, 9.0]])}, saved)
        shutil.copyfile(stale, sidecar_of(saved))
        assert [entry[0] for entry in self.assert_json_result(saved)] == ["c"]

    def test_truncated_sidecar(self, saved):
        data = sidecar_of(saved).read_bytes()
        threads = threading.active_count()
        for size in (0, 10, len(data) // 2, len(data) - 1):
            sidecar_of(saved).write_bytes(data[:size])
            self.assert_json_result(saved)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind", ["npy", "pickle", "text", "directory"])
    def test_not_an_archive(self, saved, kind):
        sidecar = sidecar_of(saved)
        sidecar.unlink()
        if kind in ("npy", "pickle"):
            with sidecar.open("wb") as fh:
                np.save(fh, np.arange(3.0) if kind == "npy"
                        else np.array([{}], dtype=object))
        elif kind == "text":
            sidecar.write_text("[]\n")
        else:
            sidecar.mkdir()
        self.assert_json_result(saved)

    def test_object_array(self, saved):
        actions = np.empty((4, 2), dtype=object)
        actions[:] = 1.0
        write_sidecar(saved, actions=actions)
        self.assert_json_result(saved)

    @pytest.mark.parametrize("edit", ["nan", "inf", "unsorted"])
    def test_bad_actions_behind_matching_digest(self, saved, edit):
        with np.load(sidecar_of(saved)) as npz:
            actions = npz["actions"].copy()
        if edit == "nan":
            actions[1, 0] = np.nan
        elif edit == "inf":
            actions[3, 1] = -np.inf
        else:
            actions[:3] = actions[2::-1]
        write_sidecar(saved, actions=actions)
        self.assert_json_result(saved)

    @pytest.mark.parametrize("sizes", [[3, 2], [2, 1], [4], [3, 1, 0], [[3, 1]]])
    def test_sizes_not_matching_rows(self, saved, sizes):
        write_sidecar(saved, sizes=np.array(sizes))
        self.assert_json_result(saved)

    @pytest.mark.parametrize("ids", [["a", "a"], ["a", 2], "xy", ["a"]])
    def test_bad_ids(self, saved, ids):
        text = json.dumps([ids, [{"k": [1, None]}, "s"]])
        write_sidecar(saved, header=np.frombuffer(text.encode(), np.uint8))
        self.assert_json_result(saved)

    def test_header_nested_too_deeply(self, saved):
        text = "[" * 100_000 + "]" * 100_000
        write_sidecar(saved, header=np.frombuffer(text.encode(), np.uint8))
        self.assert_json_result(saved)

    def test_missing_array(self, saved):
        with np.load(sidecar_of(saved)) as npz:
            fields = {name: npz[name] for name in npz.files if name != "sizes"}
        with open(sidecar_of(saved), "wb") as fh:
            np.savez(fh, **fields)
        self.assert_json_result(saved)

    def test_nan_state_rejected_as_by_json(self, tmp_path):
        p = tmp_path / "instances.json"
        mio.save_instances({"a": make_instance("a", [[1.0]], state=[float("nan")])}, p)
        assert sidecar_of(p).exists()
        with pytest.raises(mio.SchemaError) as exc:
            mio.load_instances(p)
        assert str(exc.value) == json_load_result(p)[1]
        assert str(exc.value) == ": non-finite number NaN is not allowed"

    def test_file_named_like_its_sidecar(self, tmp_path):
        p = tmp_path / "instances.npz"
        instances = {"a": make_instance("a", [[1.0, 2.0]])}
        mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)
        assert [entry[0] for entry in load_result(p)] == ["a"]

    @pytest.mark.parametrize("instances, message", [
        ({}, None),
        ({"a": make_instance("a", [[1.0]]), "b": make_instance("b", [[1.0, 2.0]])},
         r"mixed dimensions \[1, 2\]"),
        ({"a": make_instance("a", [[1.0]]), "b": make_instance("a", [[2.0]])},
         "ids must be distinct strings"),
        ({"a": make_instance("a", [[1.0]]), "b": make_instance(5, [[2.0]])},
         "ids must be distinct strings"),
    ], ids=["empty", "mixed-widths", "duplicate-ids", "non-string-id"])
    def test_no_sidecar_and_no_stale_one(self, saved, instances, message):
        if message is not None:
            # Refused before anything is written: the old file and its copy
            # stay as they were, and a new path gets neither.
            before = {p.name: p.read_bytes() for p in saved.parent.iterdir()}
            for path in (saved, saved.parent / "new.json"):
                with pytest.raises(ValueError, match=message):
                    mio.save_instances(instances, path)
            assert {p.name: p.read_bytes() for p in saved.parent.iterdir()} == before
            assert [entry[0] for entry in self.assert_json_result(saved)] == ["a", "b"]
            return
        mio.save_instances(instances, saved)
        assert not sidecar_of(saved).exists()
        assert sorted(p.name for p in saved.parent.iterdir()) == ["instances.json"]
        self.assert_json_result(saved)
