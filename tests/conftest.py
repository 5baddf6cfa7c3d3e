import copy

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from moirl import domain
from moirl.domain import Ball
from moirl.synth import expert_trajectories, random_instances

# Fixed example sequences and no per-example time limit: tier-1 runs on
# small, noisy machines, where a deadline or a fresh draw can flake.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_problem(seed, dim=2, count=4, n_actions=8, low=-10, high=10,
                   phi0_grid=False):
    """Seeded instances plus expert data from planted ground-truth weights.

    With ``phi0_grid`` the ground truth is drawn from a dyadic grid
    (multiples of 0.25) so solver scores are exact floats.
    """
    rng = np.random.default_rng(seed)
    instances = random_instances(rng, count, dim, n_actions, low, high)
    if phi0_grid:
        phi0 = grid_weights(rng, dim)
    else:
        u = rng.normal(size=dim)
        phi0 = 0.8 * u / np.linalg.norm(u)
    data = expert_trajectories(phi0, instances)
    return instances, data, phi0, rng


def grid_weights(rng, dim):
    """Nonzero dyadic-rational weights: exact dot products on integer actions."""
    while True:
        w = rng.integers(-8, 9, size=dim) * 0.25
        if np.any(w != 0):
            return w


@pytest.fixture
def unit_ball2():
    return Ball(center=np.zeros(2), radius=1.0)


FUZZ_VALUES = [None, True, False, "1", {}, [], [[]], 2**70, 10**400, -0.0, 0.0,
               1.5e308, 0.5]


def _lists(obj):
    """Every list nested in ``obj``, outermost first."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, list):
        return
    for item in obj:
        if isinstance(item, list):
            yield item
        yield from _lists(item)


def objective_runs():
    """Logged objectives with ties, plateaus and a ``0.0``/``-0.0`` tie."""
    return st.lists(st.sampled_from([2.0, 0.5, 0.25, 0.0, -0.0]),
                    min_size=1, max_size=20)


@st.composite
def mutated_entries(draw, entries, id_key):
    """A deep copy of ``entries``, a list of JSON objects, after up to three
    mutations: wrong types, ``null`` and bools in place of numbers or
    entries, ragged, empty, reversed and duplicated rows, ``-0.0``, numbers
    too large for a double, repeated, unknown and missing ids, missing
    keys, or a file that is not an array."""
    data = copy.deepcopy(entries)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["value", "value", "field", "append", "pop", "reverse", "id", "drop",
             "entry", "whole"]))
        if kind == "whole":
            return copy.deepcopy(draw(st.sampled_from([{}, [], None, "x", 3])))
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        entry = data[i]
        if kind == "entry":
            data[i] = copy.deepcopy(draw(st.sampled_from([None, 1, "e", [], [entry]])))
            continue
        if not isinstance(entry, dict):
            continue
        if kind == "drop" and entry:
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif kind == "field" and entry:
            key = draw(st.sampled_from(sorted(entry)))
            entry[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        elif kind == "id":
            ids = [e.get(id_key) for e in data if isinstance(e, dict)]
            entry[id_key] = draw(st.sampled_from([None, 7, True, "unknown", *ids]))
        else:
            lists = list(_lists(entry))
            if not lists:
                continue
            lst = lists[draw(st.integers(0, len(lists) - 1))]
            if kind == "value" and lst:
                lst[draw(st.integers(0, len(lst) - 1))] = copy.deepcopy(
                    draw(st.sampled_from(FUZZ_VALUES)))
            elif kind == "append":
                lst.append(copy.deepcopy(draw(st.sampled_from(lst or FUZZ_VALUES))))
            elif kind == "pop" and lst:
                lst.pop()
            elif kind == "reverse":
                lst.reverse()
    return data


def _count_calls(monkeypatch, targets):
    """Wrap each ``(owner, name)`` attribute so that a call to it appends
    ``name`` to the returned list."""
    calls = []
    for owner, name in targets:
        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def per_instance_calls(monkeypatch):
    """Names of the per-instance canonicalisation calls made while the
    test runs: ``canonical_actions`` and ``Instance.__post_init__``."""
    return _count_calls(monkeypatch, [(domain, "canonical_actions"),
                                      (domain.Instance, "__post_init__")])


@pytest.fixture
def sort_calls(monkeypatch):
    """Names of the ``np.lexsort`` and ``np.unique`` calls made while the
    test runs."""
    return _count_calls(monkeypatch, [(np, "lexsort"), (np, "unique")])
