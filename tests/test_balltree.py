
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstbench import (
    BallTree,
    Dataset,
    Point,
    ball_min_distance,
    choose_split,
    dual_tree_boruvka,
    kruskal_mst,
)
from emstbench.core import sq_dists
from conftest import brute_knn, random_dataset


def make_tree(coords, leaf_capacity=20):
    return BallTree(Dataset(np.asarray(coords, dtype=np.float64)), leaf_capacity)


class TestChooseSplit:
    def test_prefers_axis_with_spread(self):
        coords = np.zeros((2, 5))
        coords[1, 3] = 2.0
        choice = choose_split([0, 1], coords)
        assert choice.dim == 3
        assert 0.0 < choice.value <= 2.0

    def test_gap_split_matches_enumeration(self):
        coords = np.array([[0.0], [1.0], [10.0], [11.0]])
        choice = choose_split([0, 1, 2, 3], coords)
        # enumerate the three boundaries by hand: costs for p left points are
        # (ext_l/2)^2 p + (ext_r/2)^2 (4-p) with extents from the sorted axis
        costs = []
        vals = [0.0, 1.0, 10.0, 11.0]
        for p in (1, 2, 3):
            el = (vals[p - 1] - vals[0]) / 2
            er = (vals[3] - vals[p]) / 2
            costs.append(el * el * p + er * er * (4 - p))
        assert costs.index(min(costs)) == 1  # the big gap
        assert 1.0 < choice.value < 10.0
        assert choice.cost == pytest.approx(min(costs), rel=1e-12)

    def test_identical_points_forced_split(self):
        coords = np.ones((6, 2))
        choice = choose_split(range(6), coords)
        assert choice.cost == 0.0
        tree = make_tree(coords, leaf_capacity=2)
        tree.audit()
        assert tree.size == 6
        assert sorted(tree.root.left.collect_live_ids()) == [0, 1, 2]
        assert sorted(tree.root.right.collect_live_ids()) == [3, 4, 5]

    def test_thin_axis_is_not_cut_into_slabs(self, rng):
        # y takes two values 0.2 apart: cutting y leaves two zero-width slabs
        # whose balls are as wide as the parent's; cutting x halves both balls
        coords = np.column_stack([rng.random(100), np.repeat([0.0, 0.2], 50)])
        choice = choose_split(range(100), coords)
        assert choice.dim == 0

    def test_power_of_two_scale_changes_no_choice(self, rng):
        coords = rng.random((50, 3))
        base = choose_split(range(50), coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # squared half-extents of 2**560 overflow unscaled
            big = choose_split(range(50), coords * 2.0**560)
        assert big.dim == base.dim
        assert big.value == base.value * 2.0**560

    def test_huge_coordinates_build_a_balanced_tree(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = make_tree(rng.random((50, 3)) * 1e170, leaf_capacity=5)
        assert tree.depth() <= 5  # an overflowed cost peels one point per level
        tree.audit()

    def test_deterministic(self, rng):
        coords = rng.random((30, 4))
        ids = list(range(30))
        a = choose_split(ids, coords)
        b = choose_split(ids, coords)
        assert a == b

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            choose_split([0], np.zeros((1, 2)))

    def test_accepts_dataset(self, rng):
        ds = random_dataset(rng, 10, 3)
        choice = choose_split(range(10), ds)
        assert 0 <= choice.dim < 3


class TestBuild:
    def test_singleton_ball(self):
        tree = make_tree([[2.0, 3.0]])
        assert tree.root.is_leaf
        assert tree.root.radius == 0.0
        assert np.array_equal(tree.root.center, [2.0, 3.0])

    def test_first_split_separates_gap(self):
        tree = make_tree([[0.0], [1.0], [10.0], [11.0]], leaf_capacity=1)
        groups = {frozenset(tree.root.left.collect_live_ids()), frozenset(tree.root.right.collect_live_ids())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_containment_everywhere(self, rng):
        tree = BallTree(random_dataset(rng, 300, 5), leaf_capacity=7)
        tree.audit()

    def test_base_sized_nodes_are_small_balls(self, rng):
        tree = BallTree(random_dataset(rng, 5000, 3))
        radii = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.n_live <= 128:
                radii.append(node.radius)
            else:
                stack.extend((node.left, node.right))
        assert float(np.median(radii)) < 0.4 * tree.root.radius

    def test_centroid_and_radius_are_tight(self, rng):
        ds = random_dataset(rng, 40, 3)
        tree = BallTree(ds, leaf_capacity=40)
        assert np.array_equal(tree.root.center, ds.coords.mean(axis=0))
        dists = np.sqrt(sq_dists(ds.coords, tree.root.center))
        assert tree.root.radius == float(dists.max())


class TestBallMinDistance:
    def test_outside_ball(self):
        node = make_tree([[0.0, 0.0]]).root
        node.radius = 1.0
        assert ball_min_distance(node, [3.0, 0.0]) == 2.0

    def test_inside_ball_is_zero(self):
        node = make_tree([[0.0, 0.0]]).root
        node.radius = 2.0
        assert ball_min_distance(node, [1.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        node = make_tree([[0.0, 0.0]]).root
        with pytest.raises(ValueError, match="dimension"):
            ball_min_distance(node, [1.0, 0.0, 0.0])

    def test_bound_never_exceeds_member_distance(self, rng):
        ds = random_dataset(rng, 200, 4)
        tree = BallTree(ds, leaf_capacity=10)
        nodes = [tree.root]
        while nodes:
            node = nodes.pop()
            if not node.is_leaf:
                nodes.extend((node.left, node.right))
            members = node.collect_live_ids()
            for _ in range(3):
                q = rng.random(4) * 2 - 0.5
                bound = ball_min_distance(node, q)
                dists = np.sqrt(sq_dists(tree.coords[np.array(members)], q))
                assert bound <= float(dists.min()) * (1 + 1e-12) + 1e-12


class TestKnn:
    def test_singleton(self):
        tree = make_tree([[1.0, 1.0]])
        result = tree.knn([4.0, 5.0], 1)
        assert result == [(0, 5.0)]

    def test_k_at_least_live_size_returns_everything(self, rng):
        ds = random_dataset(rng, 19, 25)
        tree = BallTree(ds, leaf_capacity=3)
        q = rng.random(25)
        assert tree.knn(q, 50) == brute_knn(tree.coords, range(19), q, 50)

    def test_matches_oracle_on_random_data(self, rng):
        ds = random_dataset(rng, 1000, 25)
        tree = BallTree(ds, leaf_capacity=16)
        for _ in range(100):
            q = rng.random(25)
            assert tree.knn(q, 5) == brute_knn(tree.coords, range(1000), q, 5)

    def test_dimension_mismatch(self, rng):
        tree = BallTree(random_dataset(rng, 5, 3))
        with pytest.raises(ValueError, match="dimension"):
            tree.knn([0.0], 1)


def test_audit_catches_a_shrunk_radius(rng):
    tree = BallTree(random_dataset(rng, 60, 2), leaf_capacity=4)
    leaf = tree._leaf_of[0]
    tree.audit()
    assert leaf.radius > 0.0
    leaf.radius *= 0.5  # the leaf's farthest point now lies outside its ball
    with pytest.raises(AssertionError, match="escapes"):
        tree.audit()


class TestMutation:
    def test_insert_splits_singleton(self):
        tree = make_tree([[0.0, 0.0]], leaf_capacity=1)
        tree.insert(Point(1, [3.0, 4.0]))
        assert not tree.root.is_leaf
        assert tree.size == 2
        tree.audit()

    def test_containment_after_inserts(self, rng):
        ds = random_dataset(rng, 30, 3)
        tree = BallTree(ds, leaf_capacity=5)
        for j in range(60):
            tree.insert(Point(30 + j, rng.random(3) * 3 - 1))
            tree.audit()

    def test_incremental_inserts_match_oracle(self, rng):
        ds = random_dataset(rng, 40, 4)
        tree = BallTree(ds, leaf_capacity=8)
        live = list(range(40))
        for j in range(100):
            pid = 40 + j
            tree.insert(Point(pid, rng.random(4)))
            live.append(pid)
            q = rng.random(4)
            assert tree.knn(q, 4) == brute_knn(tree.coords, live, q, 4)

    def test_delete_sole_point(self):
        tree = make_tree([[1.0, 2.0]])
        tree.delete(0)
        assert tree.size == 0
        assert tree.knn([0.0, 0.0], 3) == []

    def test_deleted_id_never_returned(self, rng):
        ds = random_dataset(rng, 50, 2)
        tree = BallTree(ds, leaf_capacity=5)
        tree.delete(13)
        for _ in range(20):
            q = rng.random(2)
            assert 13 not in [i for i, _ in tree.knn(q, 50)]
        with pytest.raises(KeyError):
            tree.delete(13)

    def test_interleaved_mutations_match_oracle(self, rng):
        ds = random_dataset(rng, 120, 3)
        tree = BallTree(ds, leaf_capacity=6)
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


@st.composite
def tie_heavy_sets(draw):
    """Up to 60 points on at most 5 distinct integer sites."""
    d = draw(st.integers(1, 4))
    site = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    sites = draw(st.lists(site, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(sites) - 1), min_size=2, max_size=60))
    return np.array([sites[i] for i in picks], dtype=np.float64)


@st.composite
def near_flat_sets(draw):
    """Uniform points with one or more axes of zero or about 1e-9 extent."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 60))
    coords = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, d))
    spans = draw(st.lists(st.sampled_from([1.0, 1e-9, 0.0]), min_size=d, max_size=d))
    if all(s == 1.0 for s in spans):
        spans[draw(st.integers(0, d - 1))] = draw(st.sampled_from([1e-9, 0.0]))
    return 0.5 + (coords - 0.5) * np.array(spans)


@settings(max_examples=60, deadline=None)
@given(st.one_of(tie_heavy_sets(), near_flat_sets()), st.sampled_from([1, 2, 5]))
def test_degenerate_sets_give_bit_identical_msts(coords, leaf_capacity):
    ds = Dataset(coords)
    keys = [
        [(e.u, e.v, e.weight) for e in el.sorted_edges()]
        for el in (
            dual_tree_boruvka(ds, "kd", leaf_capacity=leaf_capacity),
            dual_tree_boruvka(ds, "ball", leaf_capacity=leaf_capacity),
            kruskal_mst(ds),
        )
    ]
    assert keys[0] == keys[1] == keys[2]
    BallTree(ds, leaf_capacity).audit()


def test_matching_leaf_capacity_default():
    from emstbench import KdTree

    kd = KdTree(Dataset(np.zeros((1, 1))))
    ball = BallTree(Dataset(np.zeros((1, 1))))
    assert kd.leaf_capacity == ball.leaf_capacity == 20
