import itertools
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moirl import solvers
from moirl.domain import (
    Instance,
    PackedInstances,
    canonical_actions,
    make_instance,
    pack,
)
from moirl.learner import RunConfig
from moirl.solvers import (
    KnapsackSpec,
    knapsack_instance,
    polytope_vertex_instance,
    solve,
    solve_packed,
)
from moirl.synth import expert_trajectories


def brute_solve(phi, actions):
    """Direct-scan oracle: exact max, then lexicographic min via tuple order."""
    phi = np.asarray(phi, dtype=float)
    scores = [float(phi @ a) for a in actions]
    best = max(scores)
    tied = [tuple(a) for a, s in zip(actions, scores) if s == best]
    return best, np.array(min(tied))


class TestLexMin:
    """The tie-break: at zero weights every action ties, so ``solve``
    chooses the lexicographic minimum of the whole action set."""

    @staticmethod
    def chosen_at_zero(rows):
        inst = make_instance("a", rows)
        return solve(np.zeros(inst.dim), inst, tie_tol=0.0).chosen

    def test_three_vector_tie_set(self):
        # {(0,0), (1,-1), (-1,1)}: the first component decides.
        assert np.array_equal(
            self.chosen_at_zero([[0, 0], [1, -1], [-1, 1]]), np.array([-1.0, 1.0])
        )

    def test_singleton(self):
        assert np.array_equal(self.chosen_at_zero([[5.0]]), np.array([5.0]))

    def test_later_components_break_ties(self):
        out = self.chosen_at_zero([[1, 2, 3], [1, 2, 2], [1, 1, 9]])
        assert np.array_equal(out, np.array([1.0, 1.0, 9.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            self.chosen_at_zero(np.empty((0, 2)))


class TestSolve:
    ACTIONS = [[0, 0], [1, -1], [-1, 1]]

    def test_unique_argmax(self):
        inst = make_instance("a", self.ACTIONS)
        r = solve(np.array([1.0, 0.0]), inst, tie_tol=0.0)
        assert r.optimal_value == 1.0
        assert np.array_equal(r.chosen, np.array([1.0, -1.0]))

    def test_zero_weights_tie_everything(self):
        inst = make_instance("a", self.ACTIONS)
        r = solve(np.array([0.0, 0.0]), inst, tie_tol=0.0)
        assert r.optimal_value == 0.0
        assert len(r.optimal_set) == 3
        assert np.array_equal(r.chosen, np.array([-1.0, 1.0]))

    def test_full_tie_at_positive_value(self):
        inst = make_instance("a", [[2, 0], [0, 2], [1, 1]])
        r = solve(np.array([1.0, 1.0]), inst, tie_tol=0.0)
        value, chosen = brute_solve([1.0, 1.0], inst.actions)
        assert r.optimal_value == value == 2.0
        assert len(r.optimal_set) == 3
        assert np.array_equal(r.chosen, chosen)
        assert np.array_equal(r.chosen, np.array([0.0, 2.0]))

    def test_dimension_mismatch(self):
        inst = make_instance("a", self.ACTIONS)
        with pytest.raises(ValueError):
            solve(np.array([1.0]), inst)

    def test_nan_weights_rejected(self):
        inst = make_instance("a", self.ACTIONS)
        with pytest.raises(ValueError):
            solve(np.array([np.nan, 0.0]), inst)

    def test_negative_tie_tol_rejected(self):
        inst = make_instance("a", self.ACTIONS)
        with pytest.raises(ValueError):
            solve(np.array([1.0, 0.0]), inst, tie_tol=-1.0)

    @given(
        st.lists(
            st.lists(st.integers(-10, 10), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        ),
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_matches_brute_force(self, rows, phi):
        inst = make_instance("a", rows)
        phi = np.array(phi, dtype=float)
        r = solve(phi, inst, tie_tol=0.0)
        value, chosen = brute_solve(phi, inst.actions)
        assert r.optimal_value == value
        assert np.array_equal(r.chosen, chosen)

    @given(
        st.lists(
            st.lists(st.integers(-10, 10), min_size=2, max_size=2),
            min_size=1,
            max_size=20,
        ),
        st.lists(st.integers(-8, 8), min_size=2, max_size=2),
        st.sampled_from([2.0, 0.5, 7.0]),
    )
    @settings(max_examples=100)
    def test_scale_invariance_of_chosen(self, rows, phi, c):
        inst = make_instance("a", rows)
        phi = np.array(phi, dtype=float)
        r1 = solve(phi, inst, tie_tol=0.0)
        r2 = solve(c * phi, inst, tie_tol=0.0)
        assert np.array_equal(r1.chosen, r2.chosen)
        assert np.array_equal(r1.optimal_set, r2.optimal_set)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        inst = make_instance("a", rng.integers(-10, 10, size=(40, 3)))
        phi = rng.normal(size=3)
        first = solve(phi, inst)
        for _ in range(5):
            again = solve(phi, inst)
            assert again.optimal_value == first.optimal_value
            assert np.array_equal(again.chosen, first.chosen)

    def test_near_optimal_action_not_tied(self):
        inst = make_instance("a", [[1.0, 0.0], [1.0 - 1e-12, 1.0]])
        r = solve(np.array([1.0, 0.0]), inst)
        assert r.optimal_set.tolist() == [[1.0, 0.0]]
        assert r.chosen.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("tie_tol", [1e-9, 0.3, np.nan, np.inf])
    def test_tie_tol_must_be_zero(self, tie_tol):
        inst = make_instance("a", self.ACTIONS)
        with pytest.raises(ValueError, match="tie_tol must be 0"):
            solve(np.array([1.0, 0.0]), inst, tie_tol)
        for zero in (0, 0.0, -0.0):
            assert solve(np.array([1.0, 0.0]), inst, zero).chosen.tolist() == [1.0, -1.0]


# Tie-heavy coordinates, signed zeros included.
COORDS = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
DYADIC = st.integers(-8, 8).map(lambda k: k * 0.25)
NON_DYADIC = st.sampled_from([0.1, -0.3, 1 / 3, 0.7]) | st.floats(-3, 3)


@st.composite
def packed_problems(draw, dims, weights):
    """Instances of mixed sizes (1-row segments and one-instance lists
    included) and weights."""
    d = draw(dims)
    row = st.lists(COORDS, min_size=d, max_size=d)
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    insts = [
        Instance(f"i{n}", draw(st.lists(row, min_size=size, max_size=size)))
        for n, size in enumerate(sizes)
    ]
    phi = np.array(draw(st.lists(weights, min_size=d, max_size=d)))
    return insts, phi


def solve_one_packed(phi, inst):
    """``solve_packed`` on a store of ``inst`` alone, as one row."""
    return solve_packed(phi, pack([inst]))[0]


OVERFLOWING = st.sampled_from([1e308, -1e308, 5e307, -5e307, 0.0, 1.0])


def segment_choices(phi, store):
    """Each segment's first row whose score in ``store.actions @ phi``
    equals its segment's maximum, as bytes, or None if no row does (a NaN
    score), one segment at a time."""
    scores = store.actions @ phi
    out = []
    for start, size in zip(store.starts, store.sizes):
        seg = scores[start : start + size]
        tied = np.flatnonzero(seg == seg.max())  # max is NaN if any score is
        out.append(store.actions[start + tied[0]].tobytes() if tied.size else None)
    return out


def assert_packed_matches_solve(insts, phi):
    got = solve_packed(phi, pack(insts))
    want = np.stack([solve(phi, inst).chosen for inst in insts])
    assert got.tobytes() == want.tobytes()


class TestSolvePacked:
    # Few coordinates keep exact ties frequent under both kinds of weights.
    @given(packed_problems(st.integers(1, 4), DYADIC | NON_DYADIC))
    @settings(max_examples=300)
    def test_matches_solve_bit_for_bit(self, problem):
        assert_packed_matches_solve(*problem)

    # Exact scores at any dimension.  With inexact scores at d >= 8,
    # OpenBLAS rounds a row's dot product by its position in the matrix,
    # so near-ties may break differently (see ``solve_packed``).
    @given(packed_problems(st.integers(5, 10), DYADIC))
    @settings(max_examples=100)
    def test_matches_solve_on_exact_scores(self, problem):
        assert_packed_matches_solve(*problem)

    # ``solve`` is the kernel on a store holding the instance's own array,
    # so it agrees with ``solve_packed`` and with the direct formula (one
    # product, its maximum, and every row that scores it) bit for bit at
    # any dimension, inexact scores included.
    @given(packed_problems(st.integers(5, 12), NON_DYADIC))
    @settings(max_examples=100)
    def test_solve_is_the_one_instance_case(self, problem):
        insts, phi = problem
        for inst in insts:
            r = solve(phi, inst)
            assert r.chosen.tobytes() == solve_one_packed(phi, inst).tobytes()
            scores = inst.actions @ phi
            best = float(scores.max())
            tied = inst.actions[scores == best]
            assert repr(r.optimal_value) == repr(best)
            assert r.optimal_set.tobytes() == tied.tobytes()
            assert r.chosen.tobytes() == np.array(min(tied.tolist())).tobytes()

    @pytest.mark.parametrize("tie_tol", [-1.0, np.nan])
    def test_bad_tie_tol_rejected(self, tie_tol):
        # solve_packed takes no tolerance at all; a caller that keeps one
        # rejects a nonzero one before any packed solve.
        store = pack([make_instance("a", [[0.0], [1.0]])])
        with pytest.raises(TypeError):
            solve_packed(np.array([1.0]), store, tie_tol)
        with pytest.raises(ValueError, match="tie_tol must be 0"):
            RunConfig(tie_tol=tie_tol)

    def test_nan_tie_tol_rejected_as_by_solve_packed(self):
        # solve rejects a NaN tolerance; solve_packed rejects any.
        inst = make_instance("a", [[0.0], [1.0]])
        with pytest.raises(ValueError, match="tie_tol must be 0"):
            solve(np.array([1.0]), inst, np.nan)
        with pytest.raises(TypeError):
            solve_packed(np.array([1.0]), pack([inst]), np.nan)

    @np.errstate(over="ignore", invalid="ignore")
    def test_overflowing_score(self):
        # The top score overflows to inf, which ties with itself: the
        # overflowing row is chosen.
        inst = make_instance("a", [[1.0], [1e308]])
        phi = np.array([10.0])
        r = solve(phi, inst)
        assert r.optimal_value == np.inf
        assert r.optimal_set.tolist() == [[1e308]]
        assert r.chosen.tolist() == [1e308]
        assert solve_one_packed(phi, inst).tolist() == [1e308]

    def test_directly_built_instance_is_canonical(self):
        rows = [[1, 0], [0, 1], [1, 0], [-1, 1], [0, 1]]
        inst = Instance("x", rows)
        assert np.array_equal(inst.actions, canonical_actions(rows))
        store = pack([inst, inst])
        for phi in ([1.0, 1.0], [0.0, 0.0], [-1.0, 0.5]):
            want = solve(phi, inst, tie_tol=0.0).chosen
            for got in solve_packed(phi, store):
                assert got.tobytes() == want.tobytes()

    def test_single_instance_store_shares_the_array(self):
        inst = make_instance("a", [[0.0, 1.0], [1.0, 0.0]])
        assert pack([inst]).actions is inst.actions

    def test_mixed_dimensions_rejected(self):
        insts = [make_instance("a", [[0.0]]), make_instance("b", [[0.0, 1.0]])]
        with pytest.raises(ValueError, match="mixed dimensions"):
            pack(insts)

    def test_no_instances_rejected(self):
        with pytest.raises(ValueError, match="no instances"):
            pack([])
        with pytest.raises(ValueError, match="no instances"):
            expert_trajectories(np.array([1.0]), {})

    def test_segment_without_candidates_rejected(self):
        # A NaN score ties with nothing; its segment must not borrow the
        # next segment's row.
        store = PackedInstances(
            actions=np.array([[np.nan], [1.0], [2.0]]),
            starts=np.array([0, 1]),
            sizes=np.array([1, 2]),
        )
        with pytest.raises(ValueError, match="empty candidate set"):
            solve_packed(np.array([1.0]), store)

    # Under weights (2, 2), a row of +-1e308 scores inf, -inf or
    # inf - inf = NaN.  A segment holding a NaN score ties nothing.  The
    # oracle reads the kernel's own product: a BLAS may fuse a row's
    # multiply and add, so a row's score can differ between stores.
    @given(st.lists(st.lists(st.lists(OVERFLOWING, min_size=2, max_size=2),
                             min_size=1, max_size=4), min_size=1, max_size=4))
    @example([[[1e308, -1e308], [0.0, 1.0]], [[1.0, 0.0]]])
    @example([[[1.0, 0.0]], [[1e308, 1e308], [1.0, 0.0]]])
    @example([[[1e308, 1e308], [1.0, 0.0]]])
    @example([[[-1e308, -1e308]], [[-1e308, -1e308], [-1e308, -5e307]]])
    @settings(max_examples=200)
    def test_overflowing_scores_rejected_exactly_where_no_row_ties(self, sets):
        insts = [make_instance(f"i{n}", rows) for n, rows in enumerate(sets)]
        phi = np.array([2.0, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            for inst in insts:
                choice = segment_choices(phi, pack([inst]))[0]
                if choice is None:
                    with pytest.raises(ValueError, match="empty candidate set"):
                        solve(phi, inst)
                else:
                    assert solve(phi, inst).chosen.tobytes() == choice
            store = pack(insts)
            want = segment_choices(phi, store)
            if None in want:
                with pytest.raises(ValueError, match="empty candidate set"):
                    solve_packed(phi, store)
            else:
                got = solve_packed(phi, store)
                assert [row.tobytes() for row in got] == want


def segment_kernel(phi, store):
    """``solve_packed``'s rows as the segment kernel computes them."""
    return store.actions[solvers._argmax_segments(phi, store)[2]]


def outcome(call, *args):
    """The bytes of the array ``call(*args)`` returns, or its ValueError's
    message."""
    try:
        return call(*args).tobytes()
    except ValueError as exc:
        return str(exc)


# Under these weights, rows of these coordinates score +-inf by overflow
# and inf - inf = NaN.
EDGE_COORDS = st.sampled_from([-1e308, -1.0, -0.0, 0.0, 1.0, 1e308])
EDGE_WEIGHTS = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def edge_problems(draw):
    d = draw(st.integers(1, 3))
    row = st.lists(EDGE_COORDS, min_size=d, max_size=d)
    sets = draw(st.lists(st.lists(row, min_size=1, max_size=6),
                         min_size=1, max_size=3))
    phi = np.array(draw(st.lists(EDGE_WEIGHTS, min_size=d, max_size=d)))
    return sets, phi


class FixedScores(np.ndarray):
    """An action array whose product with any weights is ``self.scores``."""

    def __matmul__(self, w):
        return self.scores


def scored_store(scores):
    """A one-segment store of 1-wide rows 0, 1, 2, ... scoring ``scores``."""
    actions = np.arange(len(scores), dtype=float)[:, None].view(FixedScores)
    actions.scores = np.array(scores)
    return PackedInstances(actions, np.array([0]), np.array([len(scores)]))


SCORES = st.sampled_from([-np.inf, -1e308, -1.0, -0.0, 0.0, 1e-10, 0.8, 1.0,
                          1e308, np.inf, np.nan])


class TestOneSegmentPath:
    """``solve_packed`` on a store of one segment takes one ``np.argmax``
    and gives the segment kernel's row, and ``solve``'s, bit for bit."""

    @given(packed_problems(st.integers(1, 4), DYADIC | NON_DYADIC))
    @settings(max_examples=200)
    def test_matches_solve_and_the_segment_kernel(self, problem):
        insts, phi = problem
        for store in [pack([inst]) for inst in insts] + [pack(insts)]:
            got = solve_packed(phi, store)
            assert got.tobytes() == segment_kernel(phi, store).tobytes()
        for inst in insts:
            assert (solve_packed(phi, pack([inst]))[0].tobytes()
                    == solve(phi, inst).chosen.tobytes())

    @given(edge_problems())
    @example(([[[1e308, -1e308], [0.0, 0.0]]], np.array([2.0, 2.0])))
    @example(([[[1.0, 1e308]], [[0.0, 1e308], [1e308, 1.0]]], np.array([2.0, 2.0])))
    @example(([[[-1e308], [-1.0]]], np.array([2.0])))
    @settings(max_examples=300)
    def test_edge_scores_match_the_segment_kernel(self, problem):
        sets, phi = problem
        insts = [make_instance(f"i{n}", rows) for n, rows in enumerate(sets)]
        with np.errstate(over="ignore", invalid="ignore"):
            for store in [pack([inst]) for inst in insts] + [pack(insts)]:
                want = outcome(segment_kernel, phi, store)
                assert outcome(solve_packed, phi, store) == want
            for inst in insts:
                assert (outcome(lambda: solve_packed(phi, pack([inst]))[0])
                        == outcome(lambda: solve(phi, inst).chosen))

    # Scores set directly: ties of 0.0 and -0.0 (a BLAS product may never
    # give -0.0), +-inf and NaN.
    @given(st.lists(SCORES, min_size=1, max_size=8))
    @example([-0.0, 0.0])
    @example([0.8, 1.0])
    @example([0.0, -0.0, -1.0])
    @example([1.0, np.inf, np.inf])
    @example([-np.inf, -np.inf])
    @example([1.0, np.nan, 2.0])
    @settings(max_examples=300)
    def test_set_scores_match_the_segment_kernel(self, scores):
        store = scored_store(scores)
        with np.errstate(invalid="ignore"):
            want = outcome(segment_kernel, np.array([1.0]), store)
            got = outcome(solve_packed, np.array([1.0]), store)
        assert got == want
        if np.isnan(scores).any():
            assert got == "empty candidate set"

    def test_no_tied_row_index(self):
        store = pack([make_instance("a", [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])])
        with mock.patch.object(solvers, "_argmax_segments",
                               side_effect=AssertionError("segment kernel called")):
            got = solve_packed(np.array([1.0, 1.0]), store)
        assert got.tolist() == [[1.0, 1.0]]


class TestKnapsack:
    def test_zero_capacity(self):
        spec = KnapsackSpec(
            weights=np.array([1.0]), capacity=0.0, item_features=np.array([[3.0]])
        )
        inst = knapsack_instance(spec, "k")
        assert np.array_equal(inst.actions, np.array([[0.0]]))

    def test_all_subsets_feasible(self):
        spec = KnapsackSpec(
            weights=np.array([1.0, 1.0]),
            capacity=2.0,
            item_features=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        inst = knapsack_instance(spec, "k")
        got = {tuple(a) for a in inst.actions.tolist()}
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_against_subset_enumeration_oracle(self):
        weights = np.array([2.0, 2.0, 3.0])
        feats = np.eye(3)
        spec = KnapsackSpec(weights=weights, capacity=4.0, item_features=feats)
        inst = knapsack_instance(spec, "k")
        expected = set()
        for bits in itertools.product([0, 1], repeat=3):
            x = np.array(bits, dtype=float)
            if x @ weights <= 4.0:
                expected.add(tuple(x @ feats))
        assert {tuple(a) for a in inst.actions.tolist()} == expected
        assert len(expected) == 5  # {}, {1}, {2}, {3}, {1,2}

    @staticmethod
    def one_shot(spec):
        """The enumeration as one 2^m x m integer matrix and one product."""
        m = spec.weights.size
        subsets = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
        feasible = subsets @ spec.weights <= spec.capacity
        return subsets[feasible].astype(float) @ spec.item_features

    @staticmethod
    def item_order(spec):
        """The reference: every one of the 2^m packings at once, its sums
        adding its items in index order from +0.0."""
        m, d = spec.item_features.shape
        packings = np.arange(2**m)
        w, f = np.zeros(2**m), np.zeros((2**m, d))
        for j in range(m):
            mask = (packings >> j) & 1 == 1
            w[mask] += spec.weights[j]
            f[mask] += spec.item_features[j]
        return f[w <= spec.capacity]

    # Up to 16 items under hypothesis, so the packings span up to four
    # blocks; the explicit examples are non-dyadic, up to the enumeration
    # bound.  Only dyadic sums are exact, so only they must also equal one
    # product over all packings.
    @given(st.integers(1, 16), st.integers(1, 5), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(17, 1, False, 0)
    @example(18, 3, False, 1)
    @example(19, 2, False, 2)
    @example(20, 2, False, 3)
    @settings(max_examples=40)
    def test_matches_one_shot_enumeration_bit_for_bit(self, m, d, dyadic, seed):
        rng = np.random.default_rng(seed)
        if dyadic:
            weights = rng.integers(0, 13, m) * 0.25
            feats = rng.integers(-20, 21, (m, d)) * 0.25
        else:
            weights = rng.random(m) * 3
            feats = rng.normal(size=(m, d)) / 3
        spec = KnapsackSpec(weights=weights, capacity=rng.uniform(0, weights.sum()),
                            item_features=feats)
        want = canonical_actions(self.item_order(spec))
        got = knapsack_instance(spec, "k").actions
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if dyadic:  # exact sums: any summation order gives these bits
            assert got.tobytes() == canonical_actions(self.one_shot(spec)).tobytes()

    def test_sums_start_from_positive_zero(self):
        """Negative and -0.0 features, and items that cancel, give no -0.0:
        a product ``0 * x`` with ``x < 0`` would."""
        feats = np.array([[-0.0, 1.5], [-1.5, -0.0], [1.5, -1.5], [-0.0, -0.0]])
        spec = KnapsackSpec(weights=np.ones(4), capacity=4.0, item_features=feats)
        got = knapsack_instance(spec, "k").actions
        assert got.tobytes() == canonical_actions(self.item_order(spec)).tobytes()
        assert (got == 0).any(axis=0).all()
        assert not np.signbit(got[got == 0]).any()

    def test_peak_memory_at_the_enumeration_bound(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(1, 13, 20) * 0.25
        spec = KnapsackSpec(weights=weights, capacity=weights.sum() / 2,
                            item_features=rng.integers(-20, 21, (20, 4)) * 0.25)
        tracemalloc.start()
        try:
            knapsack_instance(spec, "k")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    @pytest.mark.parametrize("field, kwargs", [
        ("weights", dict(weights=[1.0, np.nan])),
        ("weights", dict(weights=[np.inf, 1.0])),
        ("weights", dict(weights=[-np.inf, 1.0])),
        ("capacity", dict(capacity=np.nan)),
        ("capacity", dict(capacity=np.inf)),
        ("item_features", dict(item_features=[[1.0], [np.nan]])),
        ("item_features", dict(item_features=[[-np.inf], [1.0]])),
    ])
    def test_rejects_nonfinite(self, field, kwargs):
        spec = dict(weights=[1.0, 2.0], capacity=2.0, item_features=[[1.0], [2.0]])
        with pytest.raises(ValueError, match=f"knapsack {field} must be finite"):
            KnapsackSpec(**{**spec, **kwargs})

    def test_enumeration_bound(self):
        spec = KnapsackSpec(
            weights=np.ones(21), capacity=1.0, item_features=np.ones((21, 1))
        )
        with pytest.raises(ValueError, match="enumeration bound exceeded"):
            knapsack_instance(spec, "k")


class TestPolytopeVertices:
    def test_unit_square(self):
        inst = polytope_vertex_instance([[0, 0], [0, 1], [1, 0], [1, 1]], "sq")
        assert inst.actions.shape == (4, 2)

    def test_dedup(self):
        inst = polytope_vertex_instance([[0, 0], [0, 0], [1, 1]], "p")
        assert inst.actions.shape == (2, 2)

    def test_simplex_vertices_pick_heaviest_coordinate(self):
        d = 4
        inst = polytope_vertex_instance(np.eye(d), "s")
        phi = np.arange(1, d + 1, dtype=float)
        r = solve(phi, inst, tie_tol=0.0)
        _, chosen = brute_solve(phi, inst.actions)
        assert np.array_equal(r.chosen, chosen)
        assert np.array_equal(r.chosen, np.eye(d)[d - 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            polytope_vertex_instance(np.empty((0, 2)), "p")
