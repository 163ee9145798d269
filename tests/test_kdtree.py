import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstbench import BallTree, BoundingBox, Dataset, KdTree, Point, box_min_distance
from conftest import brute_knn, random_dataset

# the contract both indexes share is tested on both
both_indexes = pytest.mark.parametrize("index_cls", [KdTree, BallTree])


def make_tree(coords, leaf_capacity=20, index_cls=KdTree):
    return index_cls(Dataset(np.asarray(coords, dtype=np.float64)), leaf_capacity)


class TestBuild:
    def test_single_point_is_leaf(self):
        tree = make_tree([[1.0, 2.0]], leaf_capacity=20)
        assert tree.root.is_leaf
        assert tree.root.ids == [0]

    def test_four_point_line_capacity_one(self):
        tree = make_tree([[0.0], [1.0], [2.0], [3.0]], leaf_capacity=1)
        root = tree.root
        assert not root.is_leaf
        assert root.split_value in (1.0, 2.0)  # a median of {0,1,2,3}
        assert tree.depth() == 2
        assert sorted(tree.live_ids()) == [0, 1, 2, 3]

    def test_leaf_ids_form_permutation(self, rng):
        tree = KdTree(random_dataset(rng, 257, 4), leaf_capacity=3)
        assert sorted(tree.live_ids()) == list(range(257))
        tree.audit()

    def test_duplicate_points_still_split(self):
        tree = make_tree([[1.0, 1.0]] * 40, leaf_capacity=4)
        tree.audit()
        assert tree.size == 40

    def test_depth_bound_on_distinct_points(self, rng):
        for n in (2, 17, 128, 500):
            tree = KdTree(random_dataset(rng, n, 3), leaf_capacity=1)
            assert tree.depth() <= 2 * math.ceil(math.log2(n)) + 1

    def test_rejects_bad_leaf_capacity(self, rng):
        with pytest.raises(ValueError):
            KdTree(random_dataset(rng, 5, 2), leaf_capacity=0)


class TestBoxMinDistance:
    BOX = BoundingBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_interior_point_is_zero(self):
        assert box_min_distance(self.BOX, [0.5, 0.5]) == 0.0

    def test_axis_aligned_offset(self):
        assert box_min_distance(self.BOX, [2.0, 0.5]) == 1.0

    def test_corner_distance(self):
        assert box_min_distance(self.BOX, [2.0, 2.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            box_min_distance(self.BOX, [0.5, 0.5, 0.5])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bound_never_exceeds_point_distance(self, data):
        d = data.draw(st.integers(1, 4))
        fin = st.floats(min_value=-50, max_value=50, allow_nan=False)
        lo = np.array(data.draw(st.tuples(*[fin] * d)))
        hi = lo + np.array(data.draw(st.tuples(*[st.floats(0, 10, allow_nan=False)] * d)))
        box = BoundingBox(lo, hi)
        frac = np.array(data.draw(st.tuples(*[st.floats(0, 1, allow_nan=False)] * d)))
        inside = lo + frac * (hi - lo)
        q = np.array(data.draw(st.tuples(*[fin] * d)))
        from emstbench import euclidean_distance

        assert box_min_distance(box, q) <= euclidean_distance(inside, q) * (1 + 1e-12) + 1e-12


class TestKnn:
    def test_one_dimensional_example(self):
        tree = make_tree([[0.0], [1.0], [10.0]])
        result = tree.knn([0.4], 2)
        assert [i for i, _ in result] == [0, 1]
        assert result[0][1] == pytest.approx(0.4, abs=1e-12)
        assert result[1][1] == pytest.approx(0.6, abs=1e-12)

    def test_k_at_least_live_size_returns_everything(self, rng):
        ds = random_dataset(rng, 23, 3)
        tree = KdTree(ds, leaf_capacity=4)
        q = rng.random(3)
        assert tree.knn(q, 23) == brute_knn(tree.coords, range(23), q, 23)
        assert tree.knn(q, 100) == brute_knn(tree.coords, range(23), q, 100)

    def test_matches_oracle_on_random_data(self, rng):
        ds = random_dataset(rng, 1000, 15)
        tree = KdTree(ds, leaf_capacity=16)
        for _ in range(100):
            q = rng.random(15)
            assert tree.knn(q, 5) == brute_knn(tree.coords, range(1000), q, 5)

    @both_indexes
    def test_ties_break_by_id(self, index_cls):
        tree = make_tree([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], 1, index_cls)
        result = tree.knn([0.0, 0.0], 4)
        assert [i for i, _ in result] == [0, 1, 2, 3]

    def test_dimension_mismatch(self, rng):
        tree = KdTree(random_dataset(rng, 5, 3))
        with pytest.raises(ValueError, match="dimension"):
            tree.knn([0.0, 0.0], 1)

    @both_indexes
    def test_invalid_k(self, rng, index_cls):
        tree = index_cls(random_dataset(rng, 5, 2))
        with pytest.raises(ValueError, match="k must be"):
            tree.knn([0.0, 0.0], 0)


class TestInsert:
    def test_forced_split_of_singleton(self):
        tree = make_tree([[0.0, 0.0]], leaf_capacity=1)
        tree.insert(Point(1, [1.0, 1.0]))
        assert not tree.root.is_leaf
        assert tree.root.left.is_leaf and tree.root.right.is_leaf
        assert tree.size == 2
        tree.audit()

    def test_incremental_inserts_match_oracle(self, rng):
        ds = random_dataset(rng, 50, 4)
        tree = KdTree(ds, leaf_capacity=8)
        live = list(range(50))
        for j in range(120):
            pid = 50 + j
            tree.insert(Point(pid, rng.random(4)))
            live.append(pid)
            if j % 10 == 0:
                q = rng.random(4)
                assert tree.knn(q, 5) == brute_knn(tree.coords, live, q, 5)
        tree.audit()

    def test_insert_then_delete_restores_results(self, rng):
        ds = random_dataset(rng, 64, 3)
        tree = KdTree(ds, leaf_capacity=8)
        queries = rng.random((20, 3))
        before = [tree.knn(q, 4) for q in queries]
        tree.insert(Point(64, rng.random(3)))
        tree.delete(64)
        assert [tree.knn(q, 4) for q in queries] == before
        tree.audit()

    @both_indexes
    def test_duplicate_id_rejected(self, rng, index_cls):
        tree = index_cls(random_dataset(rng, 5, 2))
        with pytest.raises(ValueError, match="already live"):
            tree.insert(Point(3, [0.5, 0.5]))

    def test_dimension_mismatch(self, rng):
        tree = KdTree(random_dataset(rng, 5, 2))
        with pytest.raises(ValueError, match="dimension"):
            tree.insert(Point(9, [0.5, 0.5, 0.5]))


class TestDelete:
    def test_survivors_only(self):
        tree = make_tree([[0.0], [5.0], [9.0]])
        tree.delete(1)
        for q in ([0.1], [4.9], [8.0], [100.0]):
            assert sorted(i for i, _ in tree.knn(q, 2)) == [0, 2]
        assert tree.size == 2

    def test_delete_everything(self, rng):
        n = 37
        tree = KdTree(random_dataset(rng, n, 3), leaf_capacity=4)
        order = rng.permutation(n).tolist()
        for i in order:
            tree.delete(i)
        assert tree.size == 0
        assert tree.knn(rng.random(3), 5) == []
        tree.audit()

    @both_indexes
    def test_unknown_id_raises(self, rng, index_cls):
        tree = index_cls(random_dataset(rng, 4, 2))
        with pytest.raises(KeyError):
            tree.delete(17)
        tree.delete(2)
        with pytest.raises(KeyError):
            tree.delete(2)

    @both_indexes
    def test_reinsert_after_delete(self, rng, index_cls):
        tree = index_cls(random_dataset(rng, 10, 2), leaf_capacity=2)
        tree.delete(4)
        tree.insert(Point(4, rng.random(2)))
        assert tree.size == 10
        tree.audit()

    def test_interleaved_mutations_match_oracle(self, rng):
        ds = random_dataset(rng, 120, 3)
        tree = KdTree(ds, leaf_capacity=6)
        live = set(range(120))
        next_id = 120
        for step in range(500):
            if live and rng.random() < 0.5:
                victim = int(rng.choice(sorted(live)))
                tree.delete(victim)
                live.discard(victim)
            else:
                tree.insert(Point(next_id, rng.random(3)))
                live.add(next_id)
                next_id += 1
            q = rng.random(3)
            assert tree.knn(q, 3) == brute_knn(tree.coords, sorted(live), q, 3), f"step {step}"
        tree.audit()


@both_indexes
def test_audit_catches_corruption(rng, index_cls):
    tree = index_cls(random_dataset(rng, 60, 2), leaf_capacity=4)
    tree.root.n_live += 1
    with pytest.raises(AssertionError):
        tree.audit()


def test_audit_catches_a_shrunk_box(rng):
    tree = KdTree(random_dataset(rng, 60, 2), leaf_capacity=4)
    leaf = tree.root
    while not leaf.is_leaf:
        leaf = leaf.left
    tree.audit()
    leaf.maxs = leaf.maxs - 1e-6  # a point on the box's upper face now escapes it
    with pytest.raises(AssertionError, match="escapes"):
        tree.audit()


class TestKnnRange:
    """k-NN on coordinates near the float64 limits, on both indexes."""

    @both_indexes
    def test_overflowing_distances_raise(self, rng, index_cls):
        ds = Dataset(rng.random((50, 3)) * 1e170)
        tree = index_cls(ds, 5)
        with pytest.raises(ValueError, match="overflow"):
            tree.knn(ds.coords[7], 3)
        assert tree.knn(ds.coords[7], 1) == [(7, 0.0)]  # an exact answer still comes back

    @both_indexes
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, rng, index_cls, bad):
        tree = index_cls(random_dataset(rng, 20, 3))
        with pytest.raises(ValueError, match="non-finite"):
            tree.knn([0.5, bad, 0.5], 2)

    @both_indexes
    def test_large_offset_with_small_spread_is_exact(self, rng, index_cls):
        ds = Dataset(1e150 + rng.random((200, 3)) * 1e140)
        tree = index_cls(ds, 6)
        for _ in range(20):
            q = 1e150 + rng.random(3) * 1e140
            assert tree.knn(q, 5) == brute_knn(ds.coords, range(200), q, 5)


@both_indexes
def test_insert_far_outside_grows_the_regions_knn_reads(index_cls):
    # Cluster A (ids 0-9) lies around the origin, cluster B (ids 10-19) on
    # x in [3, 6]; each fills one leaf.  The new point p descends into A's
    # leaf, but B holds the point (3, 0) nearer to p than A's old region.  A
    # search that read A's region from before the insert would stop at
    # (3, 0) and miss p.
    a = [[x, y] for x in (-0.1, 0.0, 0.1) for y in (-0.1, 0.0, 0.1)] + [[0.05, 0.05]]
    b = [[x, 0.1 * (-1) ** i] for i, x in enumerate(np.linspace(3.0, 6.0, 10))]
    b[0] = [3.0, 0.0]
    tree = make_tree(a + b, 12, index_cls)
    assert sorted(tree.root.left.ids) == list(range(10))
    p = np.array([2.0, 3.0])
    tree.insert(Point(20, p))
    assert tree._leaf_of[20] is tree.root.left
    q = p + [0.0, 0.01]
    assert tree.knn(q, 1) == [(20, pytest.approx(0.01, rel=1e-9))]
    coords = np.vstack([a, b, [p]])
    assert tree.knn(q, 3) == brute_knn(coords, range(21), q, 3)
    tree.audit()


@st.composite
def mutation_scripts(draw):
    """A small lattice set and a script of inserts, deletes and k-NN queries.

    Coordinates are small integers, so duplicates and distance ties are
    common; inserted points and queries also come from a range ten times
    wider, outside the initial set's region.
    """
    d = draw(st.integers(1, 3))
    near = st.integers(-3, 3).map(float)
    anywhere = st.one_of(near, st.integers(-30, 30).map(float))

    def point(coord):
        return st.lists(coord, min_size=d, max_size=d)

    initial = draw(st.lists(point(near), min_size=1, max_size=40))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), point(anywhere)),
                st.tuples(st.just("delete"), st.integers(0, 10**6)),
                st.tuples(st.just("knn"), point(anywhere), st.integers(1, 8)),
            ),
            max_size=60,
        )
    )
    return initial, ops, draw(st.sampled_from([1, 2, 5]))


@both_indexes
@settings(max_examples=80, deadline=None)
@given(mutation_scripts())
def test_mutation_scripts_match_brute_force(index_cls, script):
    initial, ops, leaf_capacity = script
    coords = [list(c) for c in initial]
    tree = make_tree(initial, leaf_capacity, index_cls)
    live = list(range(len(initial)))
    for op in ops:
        if op[0] == "insert":
            tree.insert(Point(len(coords), op[1]))
            live.append(len(coords))
            coords.append(op[1])
        elif op[0] == "delete" and live:
            tree.delete(live.pop(op[1] % len(live)))
        elif op[0] == "knn":
            q = np.array(op[1])
            assert tree.knn(q, op[2]) == brute_knn(np.array(coords), live, q, op[2])
    tree.audit()
