"""JSON/CSV loading and saving for all on-disk formats.

All JSON and CSV files are UTF-8 with LF newlines; floats serialize in
shortest round-trip decimal form (Python's float repr), so save -> load
is bit-identical and repeated saves of the same data are byte-identical.
All actions in an instance or trajectory file have one width.
``instances.json`` may have a binary copy next to it, ``instances.npz``,
which ``load_instances`` reads instead while it matches the file.
``problem_instances`` parses ``problem.json``, whose entries ``_walk`` checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import zipfile
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .domain import (
    Ball,
    Box,
    FeasibleSet,
    Instance,
    Simplex,
    TrajectorySet,
    make_instance,
    make_instances,
    pack,
)
from .learner import RunConfig, RunLog, StepSchedule
from .solvers import KnapsackSpec, knapsack_instance, polytope_vertex_instance

__all__ = [
    "SchemaError",
    "problem_instances",
    "load_instances",
    "save_instances",
    "load_trajectories",
    "save_trajectories",
    "load_feasible_set",
    "load_run_config",
    "load_train_config",
    "load_ground_truth",
    "load_json",
    "save_json",
    "json_text",
    "load_manifest",
    "save_manifest",
    "write_runlog_csv",
    "read_runlog_csv",
    "write_summary",
    "read_summary",
]


class SchemaError(ValueError):
    """A file parsed as JSON but violated the expected schema."""

    def __init__(self, path: str, message: str):
        self.pointer = path
        super().__init__(f"{path}: {message}")


def _reject_constant(name: str):
    raise SchemaError("", f"non-finite number {name} is not allowed")


def load_json(path) -> Any:
    """Parse a JSON file; ``NaN``, ``Infinity`` and ``-Infinity`` raise
    SchemaError, and so does nesting deeper than the decoder's recursion
    limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise SchemaError("", "JSON nested too deeply") from None


def save_json(obj, path) -> None:
    """Write ``obj`` in ``json.dump(..., indent=2)``'s layout, plus a newline.
    A ``NaN`` or infinite float raises ValueError, and no file is written."""
    text = json_text(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def json_text(obj) -> str:
    """The text ``save_json`` writes for ``obj``; ValueError on a ``NaN`` or
    infinite float."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` with ``pad`` opening each
    new line; string-keyed dicts and finite-float lists skip its Python encoder."""
    inner = pad + "  "
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (type(obj) is list and obj and set(map(type, obj)) == {float}
            and all(map(math.isfinite, obj))):
        return "[" + inner + ("," + inner).join(map(float.__repr__, obj)) + pad + "]"
    # json escapes newlines inside strings, so every "\n" starts a line.
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", pad)


_NUMBER_TYPES = {int, float}


def _number(x, ptr: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SchemaError(ptr, "expected a number")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(ptr, "expected a finite number")
    return v


def _integer(x, ptr: str, low: float = -math.inf, high: float = math.inf) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError(ptr, "expected an integer")
    if x < low:
        raise SchemaError(ptr, f"expected an integer >= {low}")
    if x > high:
        raise SchemaError(ptr, f"expected an integer <= {high}")
    return x


def _rows(blocks: list) -> np.ndarray | None:
    """The rows of ``blocks``, a list of lists of rows, end to end as a
    (rows, d) float array if every block is a nonempty list and every row
    a list of length d >= 1 whose elements are all finite ints or floats.

    Returns None otherwise, also for an int too large for a float; the
    caller's element-wise checks then name the culprit.  json reads a
    literal such as ``1e400`` as inf.  The rows are chained afresh for
    each pass, not gathered into one list.
    """
    if set(map(type, blocks)) != {list} or not all(blocks):
        return None
    rows = partial(chain.from_iterable, blocks)
    if set(map(type, rows())) != {list}:
        return None
    widths = set(map(len, rows()))
    if len(widths) != 1 or 0 in widths:
        return None
    if not set(map(type, chain.from_iterable(rows()))) <= _NUMBER_TYPES:
        return None
    n = sum(map(len, blocks))
    try:
        out = np.fromiter(chain.from_iterable(rows()), float, n * widths.pop())
    except OverflowError:
        return None
    return out.reshape(n, -1) if np.isfinite(out).all() else None


def _vector(obj, ptr: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of numbers")
    return np.array([_number(x, f"{ptr}/{i}") for i, x in enumerate(obj)])


def _matrix(obj, ptr: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(ptr, "expected a nonempty array of vectors")
    rows = [_vector(row, f"{ptr}/{i}") for i, row in enumerate(obj)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(
                f"{ptr}/{i}", f"ragged row: length {len(row)}, expected {width}"
            )
    return np.array(rows)


def _field(obj, key: str, ptr: str):
    if not isinstance(obj, dict):
        raise SchemaError(ptr, "expected an object")
    if key not in obj:
        raise SchemaError(f"{ptr}/{key}", "missing required field")
    return obj[key]


# -- instances and trajectories ------------------------------------------------

def _entries(data, key: str, value: str):
    """The ``key`` strings and the ``value`` fields of a list of entry
    objects, or None if some entry is not an object holding both or
    some ``key`` is not a string."""
    if set(map(type, data)) != {dict}:
        return None
    try:
        keys = [entry[key] for entry in data]
        values = [entry[value] for entry in data]
    except KeyError:
        return None
    return (keys, values) if set(map(type, keys)) == {str} else None


def _walk(data: list, key: str, field, instances: bool, prefix: str = ""):
    """Yield each entry of the list ``data``, its JSON pointer, its ``key``
    string and its ``field``: a matrix if ``instances``, else a vector, of
    one width.  ``field`` is a name, or maps an entry's ``type`` to one.
    Raises the first fault, with its pointer.  Builds no instance."""
    seen, width = set(), None
    for i, entry in enumerate(data):
        ptr = f"{prefix}/{i}"
        name = field
        if not isinstance(field, str):
            kind = _field(entry, "type", ptr)
            if not isinstance(kind, str) or kind not in field:
                raise SchemaError(f"{ptr}/type", f"unknown instance type {kind!r}")
            name = field[kind]
        iid = _field(entry, key, ptr)
        if not isinstance(iid, str):
            raise SchemaError(f"{ptr}/{key}", "expected a string")
        if instances and iid in seen:
            raise SchemaError(f"{ptr}/{key}", f"duplicate instance id {iid!r}")
        seen.add(iid)
        value = _field(entry, name, ptr)
        if instances:
            value = _matrix(value, f"{ptr}/{name}")
            width = _width(value.shape[1], width, f"{ptr}/{name}/0")
        else:
            value = _vector(value, f"{ptr}/{name}")
            width = _width(len(value), width, f"{ptr}/{name}")
        yield entry, ptr, iid, value


def _width(d: int, width: int | None, ptr: str) -> int:
    """``d``, the width at ``ptr``, checked against ``width`` unless None."""
    if width is not None and d != width:
        raise SchemaError(ptr, f"length {d}, expected {width}")
    return d


# The matrix field of each type of ``problem.json`` entry.
_MATRICES = {"explicit": "actions", "polytope": "vertices", "knapsack": "item_features"}
_INT64 = (-(2**63), 2**63 - 1)


def problem_instances(obj, random) -> dict[str, Instance]:
    """The instances of ``problem.json``, decoded as ``obj``, in file order:
    one per entry of the ``instances`` array, which ``_walk`` checks as it
    does an instance file's, then ``random(count, dim, n_actions, low,
    high)``'s for a ``random`` block.  Every action, vertex and item, and
    the block's ``dim``, have one width.  SchemaError names the first fault.
    """
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    entries = obj.get("instances", [])
    if not isinstance(entries, list):
        raise SchemaError("/instances", "expected an array")
    out: dict[str, Instance] = {}
    for entry, ptr, iid, value in _walk(entries, "id", _MATRICES, True, "/instances"):
        if entry["type"] == "explicit":
            out[iid] = make_instance(iid, value, entry.get("state"))
        elif entry["type"] == "polytope":
            out[iid] = polytope_vertex_instance(value, iid)
        else:
            spec = (_vector(_field(entry, "weights", ptr), f"{ptr}/weights"),
                    _number(_field(entry, "capacity", ptr), f"{ptr}/capacity"), value)
            try:  # not around the parse: a SchemaError is a ValueError too
                out[iid] = knapsack_instance(KnapsackSpec(*spec), iid)
            except (ValueError, MemoryError) as exc:
                raise SchemaError(ptr, str(exc) or "out of memory") from None
    if "random" in obj:
        rnd, ptr = obj["random"], "/random"
        count = _integer(_field(rnd, "count", ptr), f"{ptr}/count", 0)
        dim = _integer(_field(rnd, "dim", ptr), f"{ptr}/dim", 1)
        n_actions = _integer(_field(rnd, "n_actions", ptr), f"{ptr}/n_actions", 1)
        low = _integer(rnd.get("low", -10), f"{ptr}/low", *_INT64)
        high = _integer(rnd.get("high", 10), f"{ptr}/high", low, _INT64[1])
        _width(dim, next((inst.dim for inst in out.values()), None), f"{ptr}/dim")
        try:
            generated = random(count, dim, n_actions, low, high)
        except (ValueError, MemoryError) as exc:  # too large to shape or to hold
            raise SchemaError(ptr, str(exc) or "out of memory") from None
        for iid, inst in generated.items():
            if iid in out:
                raise SchemaError(ptr, f"generated id {iid!r} collides")
            out[iid] = inst
    if not out:
        raise SchemaError("", "problem spec produced no instances")
    return out


_HASH_CHUNK = 1 << 20  # bytes read into the hash at a time


def _sha256(path, buf: np.ndarray, out: list) -> None:
    """Append the SHA-256 of the file at ``path`` to ``out``, or nothing if
    it cannot be read.  The file is read piece by piece into ``buf``, a
    uint8 array; ``hashlib`` and the reads release the GIL, so this runs
    beside the main thread's work on another core."""
    sha = hashlib.sha256()
    try:
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(buf):
                sha.update(buf[:n])
    except OSError:
        return
    out.append(sha.digest())


def _sidecar_path(path) -> Path:
    """Where ``save_instances`` keeps the binary copy of ``path``:
    ``instances.json`` -> ``instances.npz``."""
    return Path(path).with_suffix(".npz")


# What reading a missing, truncated or foreign sidecar can raise.  It is
# only a copy, so the JSON is read instead.
_UNREADABLE = (OSError, EOFError, KeyError, TypeError, ValueError,
               RecursionError, zipfile.BadZipFile)


def _distinct_strings(ids: list) -> bool:
    """Whether ``ids`` are distinct strings, as instance ids must be."""
    return set(map(type, ids)) <= {str} and len(set(ids)) == len(ids)


def _load_sidecar(path) -> dict[str, Instance] | None:
    """The instances in ``path``'s binary copy, or None unless that copy
    exists, reads without pickles and holds the SHA-256 of ``path``'s
    current bytes, and its ids, states and arrays pass the checks that
    the JSON path makes (``make_instances``'s included).

    Once the copy's stored digest is read, a worker thread hashes
    ``path`` while this thread reads the arrays and builds the
    instances; the worker is joined on every path out.
    """
    try:
        with open(_sidecar_path(path), "rb") as fh, \
                np.load(fh, allow_pickle=False) as npz:
            stored, digest = npz["sha256"].tobytes(), []
            # Allocated here: a buffer the worker allocates stays resident
            # in its own malloc arena after it exits (about 1 MiB more RSS).
            worker = threading.Thread(target=_sha256, args=(
                path, np.empty(_HASH_CHUNK, np.uint8), digest))
            worker.start()
            try:
                ids, states = json.loads(npz["header"].tobytes().decode("utf-8"),
                                         parse_constant=_reject_constant)
                if not (type(ids) is list and type(states) is list
                        and _distinct_strings(ids)):
                    return None
                insts = make_instances(ids, npz["actions"], npz["sizes"], states)
            finally:
                worker.join()
    except _UNREADABLE:
        return None
    return dict(zip(ids, insts)) if digest == [stored] else None


def load_instances(path) -> dict[str, Instance]:
    """Read ``instances.json``: an array of objects with unique string
    ids and nonempty ``actions``, every action of one length.

    If ``save_instances`` left a binary copy next to it (``instances.npz``)
    that holds the SHA-256 of the file's current bytes, the instances are
    built from that copy's arrays through the same ``make_instances``
    checks, and the JSON text is not decoded.

    Otherwise the file is converted and canonicalised in whole-file array
    passes.  A file that fails the whole-file pass is walked only to name
    its first fault.
    """
    cached = _load_sidecar(path)
    if cached is not None:
        return cached
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of instance objects")
    if not data:
        return {}
    entries = _entries(data, "id", "actions")
    actions = None if entries is None else _rows(entries[1])
    if actions is None or len(set(entries[0])) < len(data):
        for _ in _walk(data, "id", "actions", instances=True):
            pass
    ids, sizes = entries[0], list(map(len, entries[1]))
    states = [entry.get("state") for entry in data]
    # Free the parsed file before the instances are built: objects that
    # outlive this call, made among its many small objects, keep that
    # memory from being returned, and repeated loads grew peak RSS.
    del data, entries
    return dict(zip(ids, make_instances(ids, actions, sizes, states)))


def save_instances(instances: Mapping[str, Instance], path) -> None:
    """Write instances in ``json.dump(..., indent=2)``'s layout, plus a newline.

    Only each instance's ``id`` and ``state`` go through ``json``: all ids
    in one call, and all states in one more but for containers.  The
    text is built in array passes over ``domain.pack``'s store: one cell
    per number, its ``repr`` (as ``json`` writes a float, once per
    distinct bit pattern from one ``np.unique``) and the separator after
    it, with each instance's head put before its first cell.  The cells
    are joined, encoded, hashed and written ``_SLICE`` at a time, never as
    one string of the whole file, which would raise the peak memory.
    Then ``_save_sidecar`` puts that store, with the SHA-256, next to the
    file for ``load_instances``, or removes an old copy.  Mixed action
    widths, and ids that are not distinct strings, raise ValueError first.
    """
    insts, sha = list(instances.values()), hashlib.sha256()
    ids, states = [inst.id for inst in insts], [inst.state for inst in insts]
    if not _distinct_strings(ids):
        raise ValueError("instance ids must be distinct strings")
    store = pack(insts) if insts else None
    with open(path, "wb") as fh:
        def write(text: str) -> None:
            data = text.encode("utf-8")
            sha.update(data)
            fh.write(data)

        _write_instances(ids, states, store, write)
    _save_sidecar(ids, states, store, path, sha.digest())


_SLICE = 1 << 13  # numbers joined, encoded, hashed and written at a time
_NESTED = (dict, list, tuple)  # the JSON values json.dumps writes over lines


def _state_text(state) -> str:
    """``state`` as ``json.dump(..., indent=2)`` writes it in an instance."""
    # json escapes newlines inside strings, so every "\n" here starts a
    # line, and indenting it nests the value.  Only a container needs the
    # indent, which makes json use its pure-Python encoder.
    if isinstance(state, _NESTED):
        return json.dumps(state, indent=2).replace("\n", "\n    ")
    return json.dumps(state)


def _texts(values, text=json.dumps) -> list[str]:
    """``[text(v) for v in values]`` for nonempty ``values``, where
    ``text(v)`` is ``json.dumps(v)`` unless ``v`` is a dict, list or tuple.
    Only those get their own call: the others are encoded in one
    ``json.dumps`` split where its item separator, a newline, falls (json
    escapes every newline in a string)."""
    nested = []
    if any(issubclass(t, _NESTED) for t in set(map(type, values))):
        nested = [i for i, v in enumerate(values) if isinstance(v, _NESTED)]
    flat = list(values)
    for i in nested:
        flat[i] = None
    out = json.dumps(flat, separators=("\n", ":"))[1:-1].split("\n")
    for i in nested:
        out[i] = text(values[i])
    return out


def _write_instances(ids: list[str], states: list, store, write) -> None:
    """The text of ``save_instances``, passed slice by slice to ``write``."""
    if store is None:
        write("[]\n")
        return
    bits = store.actions.ravel().view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    del bits, distinct
    # One cell per number: its text followed by what comes next, within a
    # row, after a row's last number, or after an instance's last number.
    cells = (texts + ",\n        ")[index]
    d = store.dim
    cells[d - 1 :: d] = (texts + "\n      ],\n      [\n        ")[index[d - 1 :: d]]
    counts = store.sizes * d
    ends = np.cumsum(counts)
    cells[ends - 1] = texts[index[ends - 1]] + "\n      ]\n    ]\n  }"
    del index
    head = (',\n  {\n    "id": %s,\n    "state": %s,\n'
            '    "actions": [\n      [\n        %s')
    firsts = ends - counts
    cells[firsts] = [head % parts for parts in zip(
        _texts(ids), _texts(states, _state_text), cells[firsts].tolist())]
    cells[0] = "[" + cells[0][1:]
    cells[-1] += "\n]\n"
    for lo in range(0, cells.size, _SLICE):
        write("".join(cells[lo : lo + _SLICE].tolist()))


def _save_sidecar(ids: list[str], states: list, store, path, sha256: bytes) -> None:
    """Write ``path``'s binary copy (``instances.npz``) of ``store``, or
    remove any old copy if ``store`` is None (there are no instances).

    The copy holds ``sha256``, the SHA-256 of ``path``'s bytes, the
    packed (rows, d) actions, the rows per instance, and the ids and
    states as JSON text.  It is written to a temporary file that then
    replaces the old copy.
    """
    sidecar = _sidecar_path(path)
    if sidecar == Path(path):
        return
    if store is None:
        sidecar.unlink(missing_ok=True)
        return
    header = json.dumps([ids, states]).encode("utf-8")
    tmp = sidecar.with_suffix(f".{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, sha256=np.frombuffer(sha256, np.uint8),
                     actions=store.actions, sizes=store.sizes,
                     header=np.frombuffer(header, np.uint8))
        os.replace(tmp, sidecar)
    finally:
        tmp.unlink(missing_ok=True)


def load_trajectories(path) -> TrajectorySet:
    """Read ``expert_trajectories.json``: one ``instance_id`` and one
    ``action`` per entry, every action of one length.  A file that fails
    the whole-file pass is walked only to name its first fault."""
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError("", "expected an array of trajectory objects")
    if not data:
        raise SchemaError("", "trajectory file must contain at least one entry")
    entries = _entries(data, "instance_id", "action")
    actions = None if entries is None else _rows([entries[1]])
    if actions is None:
        for _ in _walk(data, "instance_id", "action", instances=False):
            pass
    ids = entries[0]
    del data, entries  # as in load_instances
    return TrajectorySet(ids, actions)


def save_trajectories(ts: TrajectorySet, path) -> None:
    """Write trajectories in ``json.dump(..., indent=2)``'s layout, plus a
    newline, with one ``%`` format: only the ids go through ``json``, in
    one call, and each action number is written as its ``repr``.  A ``NaN``
    or infinite number raises ValueError, and no file is written, as in
    ``save_json``."""
    if not np.isfinite(ts.actions).all():
        raise ValueError("Out of range float values are not JSON compliant")
    d = ts.actions.shape[1]
    entry = ('  {\n    "instance_id": %s,\n    "action": [\n'
             + ",\n".join(["      %r"] * d) + "\n    ]\n  }")
    values = [v for iid, row in zip(_texts(ts.instance_ids), ts.actions.tolist())
              for v in (iid, *row)]
    text = "[\n" + ",\n".join([entry] * len(ts)) % tuple(values) + "\n]\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- feasible sets, run configs, manifests ------------------------------------

def feasible_set_to_obj(fs: FeasibleSet) -> dict:
    if isinstance(fs, Box):
        return {"kind": "box", "lo": fs.lo.tolist(), "hi": fs.hi.tolist()}
    if isinstance(fs, Ball):
        return {"kind": "ball", "center": fs.center.tolist(), "radius": fs.radius}
    if isinstance(fs, Simplex):
        return {"kind": "simplex", "dim": fs.dimension}
    raise TypeError(f"unknown feasible set {type(fs).__name__}")


def feasible_set_from_obj(obj, ptr: str = "") -> FeasibleSet:
    kind = _field(obj, "kind", ptr)
    if kind == "box":
        return Box(
            lo=_vector(_field(obj, "lo", ptr), f"{ptr}/lo"),
            hi=_vector(_field(obj, "hi", ptr), f"{ptr}/hi"),
        )
    if kind == "ball":
        return Ball(
            center=_vector(_field(obj, "center", ptr), f"{ptr}/center"),
            radius=_number(_field(obj, "radius", ptr), f"{ptr}/radius"),
        )
    if kind == "simplex":
        return Simplex(dimension=_integer(_field(obj, "dim", ptr), f"{ptr}/dim"))
    raise SchemaError(f"{ptr}/kind", f"unknown feasible set kind {kind!r}")


def load_feasible_set(path) -> FeasibleSet:
    return feasible_set_from_obj(load_json(path))


def load_run_config(path) -> RunConfig:
    return load_train_config(path)[0]


def load_train_config(path) -> tuple[RunConfig, np.ndarray | None]:
    """``config.json``'s run config and its optional initial weights ``phi1``."""
    obj = load_json(path)
    sched = _field(obj, "schedule", "")
    kind = _field(sched, "kind", "/schedule")
    alpha0 = _number(_field(sched, "alpha0", "/schedule"), "/schedule/alpha0")
    max_iters = _integer(_field(obj, "max_iters", ""), "/max_iters")
    target_eps = obj.get("target_eps")
    phi1 = obj.get("phi1")
    # "seed" is checked, but training draws nothing at random.  Other
    # keys, such as the retired "n_jobs", are ignored.
    _integer(obj.get("seed", 0), "/seed")
    cfg = RunConfig(
        schedule=StepSchedule(kind=kind, alpha0=alpha0),
        max_iters=max_iters,
        target_eps=None if target_eps is None else _number(target_eps, "/target_eps"),
        tie_tol=_number(obj.get("tie_tol", 0.0), "/tie_tol"),
    )
    return cfg, None if phi1 is None else _vector(phi1, "/phi1")


def _ground_truth(obj) -> tuple[np.ndarray, FeasibleSet | None]:
    phi0 = _vector(_field(obj, "phi0", ""), "/phi0")
    if "feasible" not in obj:
        return phi0, None
    return phi0, feasible_set_from_obj(obj["feasible"], "/feasible")


def load_ground_truth(path) -> tuple[np.ndarray, FeasibleSet | None]:
    """``phi0.json``: the ground-truth weights and the optional feasible set."""
    return _ground_truth(load_json(path))


def load_manifest(path) -> dict:
    obj = load_json(path)
    phi0, feasible = _ground_truth(obj)
    out = {"phi0": phi0, "seed": _integer(_field(obj, "seed", ""), "/seed")}
    if feasible is not None:
        out["feasible"] = feasible
    return out


def save_manifest(phi0, seed: int, feasible: FeasibleSet | None, path) -> None:
    obj: dict[str, Any] = {"phi0": np.asarray(phi0, dtype=float).tolist(), "seed": seed}
    if feasible is not None:
        obj["feasible"] = feasible_set_to_obj(feasible)
    save_json(obj, path)


# -- run logs and summaries ----------------------------------------------------

def _runlog_header(d: int) -> str:
    return "k,F,grad_norm," + ",".join(f"phi_{j}" for j in range(d))


def write_runlog_csv(log: RunLog, path) -> None:
    """Write ``run.csv`` with one ``%`` format: ``k``, then each value's ``repr``."""
    d = log.weights.shape[1]
    table = np.column_stack([log.objectives, log.grad_norms, log.weights]).tolist()
    values = [v for k, row in enumerate(table, 1) for v in (k, *row)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_runlog_header(d) + "\n"
                 + ("%d" + ",%r" * (2 + d) + "\n") * log.iters_run % tuple(values))


def read_runlog_csv(path) -> RunLog:
    """Read ``run.csv``: the header ``write_runlog_csv`` writes, then rows
    as wide as it, with ``k`` counting 1, 2, ... and finite values."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if len(lines) < 2:
        raise SchemaError("", "run log must have a header and at least one row")
    width = len(lines[0].split(","))
    if width < 4 or lines[0] != _runlog_header(width - 3):
        raise SchemaError("header", "expected k,F,grad_norm,phi_0,...,phi_{d-1}")
    objs, gnorms, phis = [], [], []
    for k, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != width:
            raise SchemaError(f"row {k}", f"{len(parts)} fields, header has {width}")
        try:
            k_read = int(parts[0])
            objs.append(float(parts[1]))
            gnorms.append(float(parts[2]))
            phis.append([float(x) for x in parts[3:]])
        except ValueError:
            raise SchemaError(f"row {k}", "expected numbers") from None
        if k_read != k:
            raise SchemaError(f"row {k}", f"k is {k_read}, expected {k}")
    objs_arr, gnorms_arr, phis_arr = np.array(objs), np.array(gnorms), np.array(phis)
    finite = np.isfinite(np.column_stack([objs_arr, gnorms_arr, phis_arr])).all(axis=1)
    if not finite.all():
        raise SchemaError(f"row {int(np.argmin(finite)) + 1}", "non-finite value")
    return RunLog(weights=phis_arr, objectives=objs_arr, grad_norms=gnorms_arr)


def write_summary(log: RunLog, path) -> None:
    save_json(
        {
            "best_phi": log.best_weights.tolist(),
            "best_F": log.best_objective,
            "best_iteration": log.best_iteration,
            "iters_run": log.iters_run,
        },
        path,
    )


def read_summary(path) -> dict:
    obj = load_json(path)
    return {
        "best_phi": _vector(_field(obj, "best_phi", ""), "/best_phi"),
        "best_F": _number(_field(obj, "best_F", ""), "/best_F"),
        "best_iteration": _integer(
            _field(obj, "best_iteration", ""), "/best_iteration"
        ),
        "iters_run": _integer(_field(obj, "iters_run", ""), "/iters_run"),
    }
