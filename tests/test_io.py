import io
import json

import numpy as np
import pytest
from conftest import mutated_entries, random_problem
from hypothesis import given, settings, strategies as st

from moirl import io as mio
from moirl.domain import Ball, Box, Simplex, Trajectory, TrajectorySet, make_instance
from moirl.learner import RunConfig, RunLog, StepSchedule


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
    out = {}
    for iid in draw(st.lists(st.text(max_size=6), unique=True, max_size=4)):
        d = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(NUMBERS, min_size=d, max_size=d),
                             min_size=1, max_size=5))
        out[iid] = make_instance(iid, rows, state=draw(STATES))
    return out


@st.composite
def shared_value_maps(draw):
    """Many instances of mixed dimension over a small pool of numbers, so
    that most values, ``0.0`` and ``-0.0`` among them, recur across the
    file."""
    pool = draw(st.lists(NUMBERS, min_size=1, max_size=6)) + [0.0, -0.0]
    out = {}
    for i in range(draw(st.integers(1, 30))):
        d = draw(st.integers(1, 4))
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
    ], ids=["empty", "d1", "one-row-nested-state"])
    def test_edge_cases(self, tmp_path, instances):
        p = tmp_path / "instances.json"
        mio.save_instances(instances, p)
        assert p.read_bytes() == json_dump_bytes(instances)
        if not instances:
            assert p.read_bytes() == b"[]\n"


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


class TestTrajectoryRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ts = TrajectorySet((
            Trajectory("a", np.array([0.1, -2.5])),
            Trajectory("b", np.array([1e-17, 3.0])),
        ))
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
        out[iid] = make_instance(iid, actions, state=entry.get("state"))
    return out


def loop_load_trajectories(path):
    """The per-entry loader, the reference for ``load_trajectories``."""
    data = mio.load_json(path)
    if not isinstance(data, list):
        raise mio.SchemaError("", "expected an array of trajectory objects")
    trajs = []
    for i, entry in enumerate(data):
        ptr = f"/{i}"
        iid = mio._field(entry, "instance_id", ptr)
        if not isinstance(iid, str):
            raise mio.SchemaError(f"{ptr}/instance_id", "expected a string")
        action = mio._vector(mio._field(entry, "action", ptr), f"{ptr}/action")
        trajs.append(Trajectory(instance_id=iid, action=action))
    if not trajs:
        raise mio.SchemaError("", "trajectory file must contain at least one entry")
    return TrajectorySet(trajectories=tuple(trajs))


FILE_NUMBERS = st.one_of(
    st.sampled_from([-2, 0, 3, -0.0, 0.0, 0.5, 1.0, 2**53 + 1, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def instance_files(draw):
    d = draw(st.integers(1, 3))
    rows = st.lists(st.lists(FILE_NUMBERS, min_size=d, max_size=d),
                    min_size=1, max_size=5)
    states = st.sampled_from([None, "s", [1, None], {"k": 2.5}])
    entries = [{"id": f"i{i}", "state": draw(states), "actions": draw(rows)}
               for i in range(draw(st.integers(1, 5)))]
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
        [{"id": "a", "actions": [[1.0]]}, {"id": "b", "actions": [[2.0, 3.0]]}],
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
        assert loaded(mio.load_instances, p) == loaded(loop_load_instances, p)

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
    @pytest.mark.parametrize("fs", [
        Box(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.5])),
        Ball(center=np.array([0.0, 0.5]), radius=1.25),
        Simplex(dimension=3),
    ], ids=["box", "ball", "simplex"])
    def test_round_trip(self, tmp_path, fs):
        p = tmp_path / "fs.json"
        mio.save_feasible_set(fs, p)
        assert mio.load_feasible_set(p) == fs

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
            tie_tol=1e-9,
        )
        p = tmp_path / "cfg.json"
        mio.save_run_config(cfg, p)
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
