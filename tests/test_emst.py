import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emstbench.emst as emst_module
from emstbench import (
    BACKENDS,
    BallTree,
    Dataset,
    DisjointSet,
    Edge,
    EdgeList,
    KdTree,
    Point,
    dual_tree_boruvka,
    find_component_neighbors,
    format_edges,
    generate_synthetic,
    kruskal_mst,
    naive_boruvka,
    validate_spanning_tree,
)
from emstbench.core import cross_sq_dists, sq_dists
from emstbench.emst import (
    _K,
    _component_roots,
    _DualTreeEngine,
    _gemm_keeps_subnormals,
    _least_per_group,
    _naive_candidates,
    _NodeState,
    _PAD,
)
from conftest import random_dataset, shuffled_path, star


def edge_key(el: EdgeList):
    return [(e.u, e.v, e.weight) for e in el.sorted_edges()]


def line_dataset(*xs):
    return Dataset(np.array([[float(x)] for x in xs]))


class TestDisjointSet:
    def test_initial_components(self):
        dsu = DisjointSet(5)
        assert dsu.component_count == 5
        assert all(dsu.find(i) == i for i in range(5))

    def test_union_decrements_once(self):
        dsu = DisjointSet(4)
        assert dsu.union(0, 1)
        assert dsu.component_count == 3
        assert not dsu.union(0, 1)
        assert dsu.component_count == 3

    def test_find_idempotent(self):
        dsu = DisjointSet(10)
        for a, b in [(0, 1), (1, 2), (5, 6), (6, 0)]:
            dsu.union(a, b)
        for i in range(10):
            assert dsu.find(dsu.find(i)) == dsu.find(i)

    def test_roots_array_matches_find(self, rng):
        dsu = DisjointSet(50)
        for _ in range(30):
            dsu.union(int(rng.integers(50)), int(rng.integers(50)))
        roots = dsu.roots_array()
        assert all(roots[i] == dsu.find(i) for i in range(50))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
    def test_matches_label_propagation_oracle(self, unions):
        """Audit against a naive implementation that relabels eagerly."""
        dsu = DisjointSet(20)
        labels = list(range(20))
        for a, b in unions:
            dsu.union(a, b)
            la, lb = labels[a], labels[b]
            if la != lb:
                labels = [la if x == lb else x for x in labels]
        assert dsu.component_count == len(set(labels))
        for i in range(20):
            for j in range(20):
                assert (dsu.find(i) == dsu.find(j)) == (labels[i] == labels[j])


class TestSmallInstances:
    def test_three_collinear_points(self):
        ds = line_dataset(0, 1, 5)
        for el in (dual_tree_boruvka(ds, "kd"), dual_tree_boruvka(ds, "ball"),
                   naive_boruvka(ds), kruskal_mst(ds)):
            assert [(e.u, e.v, e.weight) for e in el.sorted_edges()] == [(0, 1, 1.0), (1, 2, 4.0)]
            assert el.total_weight == 5.0

    def test_single_point(self):
        ds = line_dataset(3)
        for el in (dual_tree_boruvka(ds, "kd"), naive_boruvka(ds), kruskal_mst(ds)):
            assert el.edges == [] and el.total_weight == 0.0

    def test_two_points(self):
        ds = line_dataset(0, 7)
        assert edge_key(naive_boruvka(ds)) == [(0, 1, 7.0)]

    def test_unit_square_excludes_diagonals(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        el = kruskal_mst(ds)
        assert all(e.weight == 1.0 for e in el.edges)
        assert el.total_weight == 3.0

    def test_collinear_chain_total(self):
        spacing = 0.75
        ds = line_dataset(*[i * spacing for i in range(30)])
        el = kruskal_mst(ds)
        assert el.total_weight == pytest.approx(29 * spacing, rel=1e-12)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            dual_tree_boruvka(line_dataset(0, 1), "quadtree")


class TestFindComponentNeighbors:
    def test_two_points_single_candidate_each(self):
        ds = line_dataset(0, 3)
        tree = KdTree(ds, 20)
        cands = find_component_neighbors(tree, DisjointSet(2))
        assert set(cands) == {0, 1}
        assert all(e == Edge(0, 1, 3.0) for e in cands.values())

    def test_far_pairs_nominate_the_bridge(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]]))
        for cls in (KdTree, BallTree):
            tree = cls(ds, 1)
            dsu = DisjointSet(4)
            dsu.union(0, 1)
            dsu.union(2, 3)
            cands = find_component_neighbors(tree, dsu)
            bridge = Edge(0, 2, 100.0)
            assert cands == {dsu.find(0): bridge, dsu.find(2): bridge}

    def test_single_component_is_an_error(self):
        ds = line_dataset(0, 1)
        tree = KdTree(ds, 20)
        dsu = DisjointSet(2)
        dsu.union(0, 1)
        with pytest.raises(ValueError, match="components"):
            find_component_neighbors(tree, dsu)

    def test_rejects_ids_outside_disjoint_set(self, rng):
        ds = random_dataset(rng, 10, 2)
        tree = KdTree(ds, 4)
        tree.insert(Point(10, rng.random(2)))
        with pytest.raises(ValueError, match="disjoint set"):
            find_component_neighbors(tree, DisjointSet(10))

    def test_candidates_follow_tree_mutations(self, rng):
        """Deleting points invalidates the cached traversal state."""
        n = 40
        ds = random_dataset(rng, n, 2)
        tree = KdTree(ds, 4)
        dsu = DisjointSet(n)
        before = find_component_neighbors(tree, dsu)
        victim = before[0].v
        tree.delete(victim)
        after = find_component_neighbors(tree, dsu)
        live = [i for i in range(n) if i != victim]
        sq = cross_sq_dists(ds.coords, ds.coords)
        expected = {}
        for ai, i in enumerate(live):
            for j in live[ai + 1:]:
                cand = (float(sq[i, j]), i, j)
                for side in (i, j):
                    if side not in expected or cand < expected[side]:
                        expected[side] = cand
        expected = {c: Edge(u, v, math.sqrt(w)) for c, (w, u, v) in expected.items()}
        assert after == expected
        assert victim not in after

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_matches_exhaustive_scan(self, rng, backend_cls):
        """Nominations agree with an O(n^2) inter-component scan mid-run."""
        for trial in range(20):
            n = int(rng.integers(2, 300))
            ds = random_dataset(rng, n, int(rng.choice([2, 3, 15])))
            tree = backend_cls(ds, 8)
            dsu = DisjointSet(n)
            for _ in range(int(rng.integers(0, n))):
                dsu.union(int(rng.integers(n)), int(rng.integers(n)))
            if dsu.component_count < 2:
                continue
            got = find_component_neighbors(tree, dsu)

            sq = cross_sq_dists(ds.coords, ds.coords)
            roots = dsu.roots_array()
            expected = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if roots[i] == roots[j]:
                        continue
                    cand = (float(sq[i, j]), i, j)
                    for side in (int(roots[i]), int(roots[j])):
                        if side not in expected or cand < expected[side]:
                            expected[side] = cand
            expected = {c: Edge(u, v, math.sqrt(w)) for c, (w, u, v) in expected.items()}
            assert got == expected, f"trial {trial}"

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_tight_blobs_take_the_tree_and_match_the_scan(self, backend_cls):
        """Tight blobs send components to the tree; every round equals the scan.

        Once a blob of more than `_K` points is one component, every member's
        list lies inside it.  8 gaussian blobs of 60 points at sigma = 1e-4
        around uniform centres in d=3.
        """
        rng = np.random.default_rng(4)
        centres = rng.random((8, 3))
        ds = Dataset((centres[:, None, :] + 1e-4 * rng.standard_normal((8, 60, 3))).reshape(-1, 3))
        index = backend_cls(ds, 20)
        sq = cross_sq_dists(ds.coords, ds.coords)
        fallback = []
        for dsu, candidates in boruvka_rounds(index, ds.n):
            assert candidates == _naive_candidates(sq, dsu)
            fallback.append(index._emst_engine.fallback_components)
        assert max(fallback) > 0


class TestOracleAgreement:
    def test_all_four_algorithms_agree(self, rng):
        for trial in range(25):
            n = int(rng.integers(2, 300))
            d = int(rng.choice([2, 3, 15, 50]))
            ds = random_dataset(rng, n, d)
            kd = edge_key(dual_tree_boruvka(ds, "kd"))
            ball = edge_key(dual_tree_boruvka(ds, "ball"))
            nv = edge_key(naive_boruvka(ds))
            kr = edge_key(kruskal_mst(ds))
            assert kd == ball == nv == kr, f"trial {trial}: n={n} d={d}"

    def test_totals_agree_tightly(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(50, 500)), 3)
            a = dual_tree_boruvka(ds, "kd").total_weight
            b = kruskal_mst(ds).total_weight
            assert a == pytest.approx(b, rel=1e-9)

    def test_duplicate_points_handled(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ds = Dataset(coords)
        results = [edge_key(f(ds)) for f in (
            lambda d: dual_tree_boruvka(d, "kd"),
            lambda d: dual_tree_boruvka(d, "ball"),
            naive_boruvka,
            kruskal_mst,
        )]
        assert results[0] == results[1] == results[2] == results[3]
        weights = sorted(w for _, _, w in results[0])
        assert weights == [0.0, 0.0, 1.0]

    def test_grid_ties_resolved_identically(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        ds = Dataset(np.column_stack([xs.ravel(), ys.ravel()]))
        kd = edge_key(dual_tree_boruvka(ds, "kd", leaf_capacity=2))
        ball = edge_key(dual_tree_boruvka(ds, "ball", leaf_capacity=2))
        nv = edge_key(naive_boruvka(ds))
        kr = edge_key(kruskal_mst(ds))
        assert kd == ball == nv == kr
        assert all(w == 1.0 for _, _, w in kd)


def mst_keys(ds, leaf_capacity):
    return [
        edge_key(dual_tree_boruvka(ds, "kd", leaf_capacity=leaf_capacity)),
        edge_key(dual_tree_boruvka(ds, "ball", leaf_capacity=leaf_capacity)),
        edge_key(kruskal_mst(ds)),
    ]


def boruvka_rounds(index, n):
    """Run Boruvka over `index`, yielding (dsu, candidates) before each union."""
    dsu = DisjointSet(n)
    while dsu.component_count > 1:
        candidates = find_component_neighbors(index, dsu)
        yield dsu, candidates
        for comp in sorted(candidates):
            edge = candidates[comp]
            dsu.union(edge.u, edge.v)


def brute_lists(index):
    """Every live point's `_K` nearest others under (canonical weight, id), padded (inf, -1)."""
    live = np.array(sorted(index.live_ids()), dtype=np.intp)
    w = np.full((len(live), _K), np.inf)
    ids = np.full((len(live), _K), -1, dtype=np.intp)
    for row, p in enumerate(live.tolist()):
        others = live[live != p]
        wq = sq_dists(index.coords[others], index.coords[p])
        order = np.lexsort((others, wq))[:_K]
        w[row, : len(order)] = wq[order]
        ids[row, : len(order)] = others[order]
    return live, w, ids


def tie_heavy_coords(kind, n, rng, d=None):
    """n copies of 1-4 sites, n points offset by 10-1e4 or scaled by 1e-200 to
    1e-155, an integer lattice, or a sub-scale cluster.  Offset, scaled and
    sub-scale points have dimension `d` when it is given.

    A lattice holds 300-576 points, more than one base node of the k-NN
    pass, so later merges meet list entries that tie with their candidates.
    A sub-scale set holds two points at +-1 on every axis and 300-600 points
    within +-1e-21 of the origin, so whole base nodes lie in the cluster and
    the block kernel's products there are float32 subnormals.  Like a
    lattice it ignores n.  Scaled by 1e-155 or less, points have canonical
    weights that are float64 subnormals or 0.
    """
    if kind == "lattice":
        d = int(rng.integers(2, 4))
        side = 24 if d == 2 else 8
        cells = rng.permutation(side**d)[: int(rng.integers(300, 577))]
        return np.array(np.unravel_index(cells, (side,) * d), dtype=float).T
    if kind == "subscale":
        d = d or int(rng.integers(2, 4))
        cluster = rng.uniform(-1e-21, 1e-21, (int(rng.integers(300, 601)), d))
        return np.vstack([np.ones((1, d)), -np.ones((1, d)), cluster])
    if kind == "sites":
        sites = rng.random((int(rng.integers(1, 5)), int(rng.integers(1, 4))))
        return sites[rng.integers(0, len(sites), n)]
    if kind == "underflow":
        return 10.0 ** rng.uniform(-200.0, -155.0) * rng.random((n, d or int(rng.integers(1, 4))))
    return 10.0 ** rng.uniform(1.0, 4.0) + rng.random((n, d or int(rng.choice([2, 3, 8, 15]))))


# Oracle properties, run by `TestNeighborLists` at the engine's own base
# capacity and by `TestOraclesAcrossBaseNodes` at small ones.  They are
# functions, not methods: hypothesis refuses a @given method that tests of
# two classes call through different instances.


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(_K + 2, 80),
    st.integers(1, 3),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
def duplicate_heavy_sets_give_the_mst(sites, n, d, leaf, seed):
    """More copies of a site than a list holds: the tree settles the rest."""
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.random((sites, d))[rng.integers(0, sites, n)])
    kd, ball, kr = mst_keys(ds, leaf)
    assert kd == ball == kr


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(_K + 2, 90),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def lattice_ties_at_the_last_entry_give_the_mst(d, n, leaf, seed):
    """Integer lattices: the K-th list entry sits inside a run of equal weights."""
    rng = np.random.default_rng(seed)
    side = 5 if d == 2 else 3
    cells = rng.permutation(side**d)[: min(n, side**d)]
    coords = np.array(np.unravel_index(cells, (side,) * d), dtype=float).T
    ds = Dataset(coords)
    kd, ball, kr = mst_keys(ds, leaf)
    assert kd == ball == kr


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["lattice", "sites", "offset", "subscale", "underflow"]),
    st.integers(2, 80),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def lists_equal_brute_force_before_and_after_mutation(backend_cls, kind, n, leaf, seed):
    """Every list entry, not only the first outside a component, is exact."""
    rng = np.random.default_rng(seed)
    ds = Dataset(tie_heavy_coords(kind, n, rng))
    n = ds.n
    index = backend_cls(ds, leaf)
    for step in range(2):
        find_component_neighbors(index, DisjointSet(n))
        engine = index._emst_engine
        live, w, ids = brute_lists(index)
        np.testing.assert_array_equal(engine.live, live)
        np.testing.assert_array_equal(engine.knn_w, w)
        np.testing.assert_array_equal(engine.knn_id, ids)
        if step or n < 3:
            break
        # drop up to half the points, and move some of them onto another's site
        victims = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        for victim in victims.tolist():
            index.delete(victim)
        for victim in victims[: len(victims) // 2].tolist():
            index.insert(Point(victim, ds.coords[int(rng.integers(n))].copy()))


class TestNeighborLists:
    """Rounds answered from the cached k-NN lists, and the tree fallback."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, _K + 1),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_lists_holding_every_point_give_the_mst(self, n, d, leaf, seed):
        ds = Dataset(np.random.default_rng(seed).random((n, d)))
        kd, ball, kr = mst_keys(ds, leaf)
        assert kd == ball == kr

    def test_duplicate_heavy_sets_give_the_mst(self):
        duplicate_heavy_sets_give_the_mst()

    def test_lattice_ties_at_the_last_entry_give_the_mst(self):
        lattice_ties_at_the_last_entry_give_the_mst()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(_K + 2, 150),
        st.sampled_from([2, 3, 8, 15]),
        st.floats(1.0, 4.0),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_offset_sets_stress_the_fast_kernel_window(self, n, d, log_offset, leaf, seed):
        """Far from the origin the float32 block error nears the neighbour gaps."""
        rng = np.random.default_rng(seed)
        ds = Dataset(10.0**log_offset + rng.random((n, d)))
        kd, ball, kr = mst_keys(ds, leaf)
        assert kd == ball == kr

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_lists_equal_brute_force_before_and_after_mutation(self, backend_cls):
        lists_equal_brute_force_before_and_after_mutation(backend_cls)

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_tie_between_last_entry_and_bound_goes_to_the_tree(self, backend_cls):
        """A list ending at the bound's weight may hide a smaller id pair.

        Point 0 sits at the origin of a 9-D lattice with its 18 unit
        neighbours (ids 1-18) at weight 1, so its list holds ids 1-16.  Its
        component also holds point 19, whose list starts with the weight-1
        pair (19, 20).  The component's best edge is (0, 17), which only the
        tree traversal can find.
        """
        unit = np.vstack([np.eye(9), -np.eye(9)])
        far = np.zeros((2, 9))
        far[:, 0] = [100.0, 101.0]
        ds = Dataset(np.vstack([np.zeros((1, 9)), unit, far]))
        dsu = DisjointSet(ds.n)
        for i in list(range(1, 17)) + [19]:
            dsu.union(0, i)
        index = backend_cls(ds, 4)
        got = find_component_neighbors(index, dsu)
        assert got[dsu.find(0)] == Edge(0, 17, 1.0)
        assert got == _naive_candidates(cross_sq_dists(ds.coords, ds.coords), dsu)
        assert index._emst_engine.fallback_components >= 1

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_mutation_after_a_round_rebuilds_the_lists(self, rng, backend_cls):
        n = 120
        ds = random_dataset(rng, n, 3)
        index = backend_cls(ds, 6)
        rounds = boruvka_rounds(index, n)
        dsu, candidates = next(rounds)
        for comp in sorted(candidates):
            dsu.union(candidates[comp].u, candidates[comp].v)
        # move some points: each id is deleted and inserted again elsewhere
        for victim in rng.choice(n, size=10, replace=False).tolist():
            index.delete(victim)
            index.insert(Point(victim, rng.random(3) * 2.0))
        got = find_component_neighbors(index, dsu)
        sq = cross_sq_dists(index.coords[:n], index.coords[:n])
        assert got == _naive_candidates(sq, dsu)

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_no_tree_fallback_after_the_first_round_at_d15(self, backend_cls):
        ds = generate_synthetic(2000, 15, "uniform", 7)
        index = backend_cls(ds, 20)
        counts = [index._emst_engine.fallback_components for _ in boruvka_rounds(index, ds.n)]
        assert len(counts) >= 3
        assert counts[1:] == [0] * (len(counts) - 1)

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_engine_dies_with_its_index_without_the_cyclic_collector(self, rng, backend_cls):
        index = backend_cls(random_dataset(rng, 200, 3), 8)
        gc.disable()
        try:
            find_component_neighbors(index, DisjointSet(200))
            engine = weakref.ref(index._emst_engine)
            del index
            assert engine() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_node_states_die_with_their_index_without_the_cyclic_collector(
        self, rng, backend_cls
    ):
        """Node states link to their parents by index, so they form no cycle."""
        gc.collect()
        gc.disable()
        try:
            index = backend_cls(random_dataset(rng, 2000, 3), 8)
            find_component_neighbors(index, DisjointSet(2000))
            del index
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert not any(isinstance(o, _NodeState) for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_tree_dies_without_the_cyclic_collector(self, rng, backend_cls):
        n = 2000
        index = backend_cls(random_dataset(rng, n, 3), 20)
        first_root = weakref.ref(index.root)
        gc.disable()
        try:
            index.knn(rng.random(3), 5)
            index.insert(Point(n, rng.random(3)))
            for victim in range(1200):  # over half: subtrees, then the root, are rebuilt
                index.delete(victim)
            find_component_neighbors(index, DisjointSet(n + 1))
            root = weakref.ref(index.root)
            del index
            assert root() is None and first_root() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_offset_sets_rederive_as_little_as_at_the_origin(self, rng, backend_cls):
        # the fast kernel is centred on the data, so its error window, and
        # with it the canonical re-derivations, does not grow with the offset
        coords = rng.random((2000, 3))
        counts = []
        for offset in (0.0, 1e4):
            index = backend_cls(Dataset(coords + offset), 20)
            find_component_neighbors(index, DisjointSet(2000))
            counts.append(index._emst_engine.knn_rederived)
        assert counts[0] > 0
        assert counts[1] <= 1.5 * counts[0]
        # and scaled by a power of two, so every count is exactly the same
        coords = generate_synthetic(2000, 3, "uniform", 5).coords
        counts = []
        for k in (0, -100, 100, 450):
            index = backend_cls(Dataset(np.ldexp(coords, k)), 20)
            find_component_neighbors(index, DisjointSet(2000))
            counts.append(index._emst_engine.knn_rederived)
        assert counts[1:] == [counts[0]] * 3

    @pytest.mark.parametrize(
        "backend_cls, count, d",
        [
            pytest.param(KdTree, 40436, 3, id="KdTree-40436"),
            pytest.param(BallTree, 42495, 3, id="BallTree-42495"),
            # at d=15 kd checks bounds that never prune, so this pins the node bounds
            pytest.param(KdTree, 56157, 15, id="KdTree-d15-56157"),
            pytest.param(BallTree, 63020, 15, id="BallTree-d15-63020"),
        ],
    )
    def test_list_pass_rederivations_are_pinned(self, backend_cls, count, d):
        # candidate selection may change how it finds entries, not which
        index = backend_cls(generate_synthetic(2000, d, "uniform", 5), 20)
        find_component_neighbors(index, DisjointSet(2000))
        assert index._emst_engine.knn_rederived == count

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_node_bounds_are_exact_after_the_list_pass(self, backend_cls):
        """Each base case lowers its base nodes' bounds and their ancestors'."""
        index = backend_cls(generate_synthetic(2000, 3, "uniform", 5), 20)
        find_component_neighbors(index, DisjointSet(2000))
        engine = index._emst_engine
        assert engine.fallback_components == 0  # no traversal after the list pass
        kth = engine.knn_w[:, -1]
        for state in engine.nodes:
            if not state.base:
                assert state.bound == max(state.left.bound, state.right.bound)
            elif len(state.ids):
                assert state.bound == kth[np.searchsorted(engine.live, state.ids)].max()

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_node_marks_are_exact_on_a_round_partition(self, backend_cls):
        """A base node's comp is its points' one component or -1, its bound their largest."""
        rng = np.random.default_rng(11)
        sites = rng.random((150, 3))
        ds = Dataset(sites[rng.integers(0, 150, 3000)])
        index = backend_cls(ds, 20)
        single = []
        for dsu, _ in boruvka_rounds(index, ds.n):
            engine = index._emst_engine
            if not engine.fallback_components:
                continue
            labels = dsu.roots_array()
            bound = rng.random(ds.n)
            bound[rng.choice(ds.n, ds.n // 3, replace=False)] = -np.inf  # settled components
            engine.bound = bound
            engine._mark(labels)
            for state in engine.nodes:
                if not state.base:
                    ls, rs = state.left, state.right
                    assert state.comp == (ls.comp if ls.comp == rs.comp else -1)
                    assert state.bound == max(ls.bound, rs.bound)
                elif len(state.ids):
                    comps = np.unique(labels[state.ids])
                    assert state.comp == (comps[0] if len(comps) == 1 else -1)
                    assert state.bound == bound[comps].max()
                    single.append(state.comp >= 0)
        assert any(single) and not all(single)

    def test_limits_admit_entries_up_to_the_bound(self):
        """One limit rule: -inf admits nothing, +inf every finite value, b at least b + err."""
        index = KdTree(generate_synthetic(600, 3, "uniform", 3), 20)
        find_component_neighbors(index, DisjointSet(600))
        engine = index._emst_engine
        bases = [s for s in engine.nodes if s.base and len(s.ids)]
        blocks = [engine._block(a, b)[0].copy() for a in bases for b in bases]
        err = engine._block(bases[0], bases[-1])[1]
        finite = np.random.default_rng(3).random(200) * 1e-2
        engine.bound = np.concatenate(([-np.inf, np.inf], finite))
        limits = engine._limits(SimpleNamespace(roots=np.arange(len(engine.bound))), err)
        assert limits.dtype == np.float32
        assert limits[0] < -1.0 and not any((w <= limits[0]).any() for w in blocks)
        assert all((w <= limits[1]).all() for w in blocks)
        assert not np.float32(np.inf) <= limits[1]
        floor = np.ldexp(finite, -2 * engine.exp) + err
        assert (limits[2:].astype(np.float64) >= floor).all()

    def test_both_base_cases_read_the_limit_rule(self, rng, monkeypatch):
        calls = []
        limits = _DualTreeEngine._limits

        def spy(self, s, err):
            calls.append(s)
            return limits(self, s, err)

        monkeypatch.setattr(_DualTreeEngine, "_limits", spy)
        sites = rng.random((20, 3))
        ds = Dataset(sites[rng.permutation(np.arange(600) % 20)])
        index = KdTree(ds, 20)
        per_round = []
        for _ in boruvka_rounds(index, ds.n):
            per_round.append((len(calls), index._emst_engine.fallback_components))
            calls.clear()
        # round 1 is the list pass alone; later rounds read limits only in the fallback
        assert per_round[0][0] > 0 and per_round[0][1] == 0
        assert any(n > 0 for n, fallback in per_round[1:] if fallback)

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_duplicate_sites_send_components_to_the_tree(self, rng, backend_cls):
        sites = rng.random((20, 3))
        ds = Dataset(sites[rng.permutation(np.arange(600) % 20)])
        index = backend_cls(ds, 20)
        counts = [index._emst_engine.fallback_components for _ in boruvka_rounds(index, ds.n)]
        assert counts[0] == 0 and sum(counts[1:]) > 0

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    @pytest.mark.parametrize("base_cap", [None, 24])
    @pytest.mark.parametrize("kind", ["uniform", "lattice", "sites", "one-point"])
    def test_self_blocks_meet_only_empty_lists(self, backend_cls, base_cap, kind, monkeypatch):
        """A self block is its rows' first base case, so it fills empty lists.

        The traversal finishes both children's self pairs before their cross
        pair.  A base node of one point is one component: its self pair is
        pruned, and its first block is a cross block, whose merge keeps the
        lists' entries.
        """
        rng = np.random.default_rng(5)
        if kind == "one-point":
            index = one_point_base_node_index(backend_cls, 300, rng)
        else:
            if kind == "uniform":
                coords = rng.random((600, 3))
            elif kind == "sites":
                coords = rng.random((20, 3))[rng.integers(0, 20, 600)]
            else:
                coords = tie_heavy_coords(kind, 0, rng)
            index = backend_cls(Dataset(coords), 20)
        if base_cap is not None:
            monkeypatch.setattr(emst_module, "_base_capacity", lambda d: base_cap)
        blocks = []
        base_case = _DualTreeEngine._knn_base_case

        def spy(engine, qs, rs):
            blocks.append((qs, rs, (engine.knn[qs.roots] == _PAD).all()))
            base_case(engine, qs, rs)

        monkeypatch.setattr(_DualTreeEngine, "_knn_base_case", spy)
        find_component_neighbors(index, DisjointSet(max(index.live_ids()) + 1))
        assert all(empty for qs, rs, empty in blocks if qs is rs)
        assert any(qs is not rs for qs, rs, _ in blocks)
        if kind == "one-point":
            lone = [s for s in index._emst_engine.nodes if s.base and len(s.ids) == 1]
            assert len(lone) == 1
            first = next((qs, rs) for qs, rs, _ in blocks if lone[0] in (qs, rs))
            assert first[0] is not first[1]


def one_point_base_node_index(backend_cls, extra, rng):
    """A 3-D index with a base node of one point beside `extra` + 2 others.

    Points at 0, 1, 10 and 11 on every axis make two leaves of two.  The
    first leaf loses a point, and `extra` points inserted beyond 10 on every
    axis all descend into the second, so the first stays a leaf of one under
    a root above any base capacity up to `extra`.
    """
    index = backend_cls(Dataset(np.repeat([[0.0], [1.0], [10.0], [11.0]], 3, axis=1)), 2)
    index.delete(1)
    for i, c in enumerate(10.5 + 10.0 * rng.random((extra, 3)), start=4):
        index.insert(Point(i, c))
    return index


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 3, 4, 250]),
            st.integers(0, 3),
            st.integers(0, 4),
            st.integers(0, 4),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_least_per_group_equals_lexsort_heads(entries):
    """Integer weights, few groups and shared endpoints: ties on every key."""
    group, w, u, v = (np.array(col) for col in zip(*entries))
    w = w.astype(float)
    order = np.lexsort((v, u, w, group))
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = group[order][1:] != group[order][:-1]
    np.testing.assert_array_equal(_least_per_group(group, w, u, v), order[heads])


@pytest.mark.parametrize(
    "offer,replaces",
    [
        ((2.0, 0, 1), False),
        ((1.0, 8, 7), False),
        ((1.0, 3, 2), True),
        ((1.0, 5, 6), True),
        ((0.5, 10, 11), True),
    ],
)
def test_offer_replaces_only_a_lesser_candidate(offer, replaces):
    """Component 0 holds (w=1, 5, 9); an offer wins only if less under (w, min id, max id)."""
    engine = _DualTreeEngine(KdTree(generate_synthetic(12, 2, "uniform", 0), 4))
    engine.cand_sq = np.full(12, np.inf)
    engine.cand_u = np.full(12, -1, dtype=np.int64)
    engine.cand_v = np.full(12, -1, dtype=np.int64)
    engine.cand_sq[0], engine.cand_u[0], engine.cand_v[0] = 1.0, 5, 9
    w, p, q = offer
    engine._offer(np.array([0]), np.array([p]), np.array([q]), np.array([w]))
    expected = (w, min(p, q), max(p, q)) if replaces else (1.0, 5, 9)
    assert (engine.cand_sq[0], engine.cand_u[0], engine.cand_v[0]) == expected


def two_pass_candidates(w, lq, lr, err):
    """Cross-block selection as one `_knn_candidates` pass per side: the oracle."""

    def side(wo, limits):
        hit = wo <= limits[:, None]
        crowded = np.flatnonzero(np.count_nonzero(hit, axis=1) > _K)
        if len(crowded):
            sub = wo[crowded]
            limit = np.partition(sub, _K - 1, axis=1)[:, _K - 1] + 2.0 * err
            hit[crowded] &= sub <= limit[:, None]
        return np.divmod(np.flatnonzero(hit), wo.shape[1])

    return side(w, lq), side(w.T, lr)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3 * _K),
    st.integers(1, 3 * _K),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_cross_block_selection_equals_two_passes(rows, cols, err, seed):
    """Repeated values, inf entries, -inf and capped limits, crowded rows and columns."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 0.5, 1.0, 1.25, 2.0, 3.0, np.inf], dtype=np.float32)
    w = values[rng.integers(0, len(values), (rows, cols))]
    levels = np.array([-np.inf, 0.5, 1.0, 2.0, 8.0], dtype=np.float32)
    lq = levels[rng.integers(0, len(levels), rows)]
    lr = levels[rng.integers(0, len(levels), cols)]
    got = _DualTreeEngine._knn_cross_candidates(w, lq, lr, err)
    want = two_pass_candidates(w, lq, lr, err)
    for got_side, want_side in zip(got, want):
        for g, x in zip(got_side, want_side):
            np.testing.assert_array_equal(g, x)


class TestOraclesAcrossBaseNodes:
    """Oracle tests of this module with base nodes of 8 and 48 points.

    At the engine's own base capacity their sets fit one or two base nodes;
    small ones bring cross blocks, node pruning and the self-block fill
    under `kruskal_mst`, `naive_boruvka` and brute-force lists.
    """

    @pytest.fixture(autouse=True, params=[8, 48])
    def base_cap(self, request, monkeypatch):
        monkeypatch.setattr(emst_module, "_base_capacity", lambda d: request.param)

    def test_all_four_algorithms_agree(self, rng):
        TestOracleAgreement().test_all_four_algorithms_agree(rng)

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_lists_equal_brute_force_before_and_after_mutation(self, backend_cls):
        lists_equal_brute_force_before_and_after_mutation(backend_cls)

    def test_duplicate_heavy_sets_give_the_mst(self):
        duplicate_heavy_sets_give_the_mst()

    def test_lattice_ties_at_the_last_entry_give_the_mst(self):
        lattice_ties_at_the_last_entry_give_the_mst()

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    def test_routes_agree_and_rounds_match_the_full_set(self, backend):
        routes_agree_and_rounds_match_the_full_set(backend)


@pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 15, 50])
@pytest.mark.parametrize("kind", ["uniform", "offset", "subscale", "underflow"])
@pytest.mark.parametrize("base_cap", [None, 48])
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_block_values_lie_within_their_window(backend_cls, d, kind, base_cap, seed):
    """Every block value is within the block's window of the canonical weight.

    Every pair of base nodes, self blocks included, at the engine's own base
    capacity and at 48 points per base node, where whole base nodes lie in
    the sub-scale cluster and their block values are float32 subnormals.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((300, d)) if kind == "uniform" else tie_heavy_coords(kind, 300, rng, d)
    index = backend_cls(Dataset(coords), 20)
    with pytest.MonkeyPatch.context() as patch:
        if base_cap is not None:
            patch.setattr(emst_module, "_base_capacity", lambda d: base_cap)
        engine = _DualTreeEngine(index)
    bases = [s for s in engine.nodes if s.base and len(s.ids)]
    for a in bases:
        for b in bases:
            w, err = engine._block(a, b)
            exact = np.ldexp(cross_sq_dists(engine.coords[a.ids], engine.coords[b.ids]), -2 * engine.exp)
            dev = np.abs(w - exact)
            worst = np.unravel_index(np.argmax(dev), dev.shape)  # a NaN counts as the worst
            fast, want, off = (float(x[worst]) for x in (w, exact, dev))
            assert off <= err, (
                f"block of base nodes of {len(a.ids)} and {len(b.ids)} points: fast value "
                f"{fast!r}, exact {want!r}, deviation {off!r} outside the window {err!r} "
                f"(exp {engine.exp})"
            )


@pytest.mark.parametrize("rows, inner", [(64, 17), (1024, 52)])
def test_float32_matmul_keeps_subnormal_products(rows, inner):
    """The window's subnormal floor assumes BLAS does not flush them to zero."""
    a = np.full((rows, inner), 1e-20, dtype=np.float32)
    tiny = np.float32(1e-40)
    assert 0.0 < tiny < np.finfo(np.float32).smallest_normal
    np.testing.assert_array_equal(a @ a.T, np.float32(inner) * tiny)


def test_the_subnormal_probe_passes_on_this_blas():
    assert _gemm_keeps_subnormals()


def test_a_blas_that_flushes_subnormals_is_refused(rng, monkeypatch, tmp_path, capsys):
    from emstbench.cli import main

    monkeypatch.setattr(emst_module, "_gemm_keeps_subnormals", lambda: False)
    with pytest.raises(RuntimeError, match="flushes subnormals"):
        dual_tree_boruvka(random_dataset(rng, 30, 3), "kd")
    data = tmp_path / "pts.csv"
    data.write_text("0,0\n1,0\n5,0\n")
    assert main(["emst", "--in", str(data)]) == 1
    assert capsys.readouterr().err.startswith("error: float32 BLAS flushes subnormals")


@pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
def test_lists_are_exact_when_gathers_take_many_chunks(backend_cls, monkeypatch):
    """Re-derivation gathers of a few rows each: every merge spans many chunks.

    A round then reads the list ids one row at a time too.
    """
    monkeypatch.setattr(emst_module, "_GATHER_ELEMS", 7)
    ds = generate_synthetic(700, 3, "uniform", 9)
    index = backend_cls(ds, 20)
    dsu = DisjointSet(700)
    first = find_component_neighbors(index, dsu)
    engine = index._emst_engine
    _, w, ids = brute_lists(index)
    np.testing.assert_array_equal(engine.knn_w, w)
    np.testing.assert_array_equal(engine.knn_id, ids)
    for e in first.values():
        dsu.union(e.u, e.v)
    got = find_component_neighbors(index, dsu)
    assert got == _naive_candidates(cross_sq_dists(ds.coords, ds.coords), dsu)


@pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
def test_fallback_rounds_are_exact_when_gathers_take_many_chunks(backend_cls, monkeypatch):
    """The fallback base case re-derives through the same chunked gathers."""
    monkeypatch.setattr(emst_module, "_GATHER_ELEMS", 7)
    rng = np.random.default_rng(3)
    ds = Dataset(rng.random((20, 3))[rng.permutation(np.arange(600) % 20)])
    index = backend_cls(ds, 20)
    sq = cross_sq_dists(ds.coords, ds.coords)
    fallback = []
    for dsu, candidates in boruvka_rounds(index, ds.n):
        assert candidates == _naive_candidates(sq, dsu)
        fallback.append(index._emst_engine.fallback_components)
    assert fallback == [0, 20, 5]


def test_fallback_rounds_never_import_numpy_ma():
    """Settled components are found without `np.setdiff1d`, whose `np.unique` imports it."""
    code = """if True:
        import sys
        import numpy as np
        from emstbench import Dataset, DisjointSet, KdTree, find_component_neighbors

        rng = np.random.default_rng(11)
        ds = Dataset(rng.random((150, 3))[rng.integers(0, 150, 3000)])
        index = KdTree(ds, 20)
        dsu, fallback = DisjointSet(ds.n), 0
        while dsu.component_count > 1:
            candidates = find_component_neighbors(index, dsu)
            fallback += index._emst_engine.fallback_components
            for comp in sorted(candidates):
                dsu.union(candidates[comp].u, candidates[comp].v)
        print(fallback, "numpy.ma" in sys.modules)
    """
    src = str(Path(emst_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = [sys.executable, "-c", code]
    out = subprocess.run(run, env=env, capture_output=True, text=True, check=True, timeout=300)
    fallback, imported = out.stdout.split()
    assert int(fallback) > 0
    assert imported == "False"


def dsu_route(index, n):
    """The EMST and round count of `find_component_neighbors` + DisjointSet."""
    edges, rounds = [], 0
    for dsu, candidates in boruvka_rounds(index, n):
        rounds += 1
        for comp in sorted(candidates):
            edge = candidates[comp]
            if dsu.union(edge.u, edge.v):
                edges.append(edge)
    return EdgeList.from_edges(edges), rounds


def no_candidates(self, labels):
    """A `run_round` stand-in that finds no pair for any component."""
    n = len(labels)
    return np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)


class TestArrayDriver:
    """`dual_tree_boruvka` unions each round as arrays; the DisjointSet route checks it."""

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["sites20", "lattice", "uniform"]),
        st.integers(2, 200),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_disjoint_set_route(self, backend, kind, n, leaf, seed):
        rng = np.random.default_rng(seed)
        if kind == "sites20":
            coords = rng.random((20, 3))[rng.integers(0, 20, n)]
        elif kind == "lattice":
            # unit spacing: nearly every pair two components pick is a tie broken by ids
            side = 6
            cells = rng.permutation(side**3)[: min(n, side**3)]
            coords = np.array(np.unravel_index(cells, (side,) * 3), dtype=float).T
        else:
            coords = rng.random((n, 3))
        ds = Dataset(coords)
        got, rounds = dual_tree_boruvka(ds, backend, leaf_capacity=leaf, return_rounds=True)
        want, want_rounds = dsu_route(BACKENDS[backend](ds, leaf), ds.n)
        assert edge_key(got) == edge_key(want)
        assert got.total_weight.hex() == want.total_weight.hex()
        assert rounds == want_rounds

    def test_a_round_without_edges_raises(self, rng, monkeypatch):
        monkeypatch.setattr(_DualTreeEngine, "run_round", no_candidates)
        with pytest.raises(RuntimeError, match="no progress"):
            dual_tree_boruvka(random_dataset(rng, 30, 2), "kd")


def duplicate_coords(kind, n, rng):
    """Point sets with exact duplicates, ids in random order.

    `mixed`: repeated uniform sites among singletons; `lattice`: a small
    integer lattice drawn with replacement, so repeats meet tied weights;
    `signed_zero`: a {0, 1, 2} lattice with the sign of each zero drawn at
    random; `identical`: one site; `pair`: two points, equal or not.
    """
    d = int(rng.integers(1, 4))
    if kind == "mixed":
        sites = rng.random((int(rng.integers(1, 6)), d))
        coords = np.vstack([sites[rng.integers(0, len(sites), n - n // 2)], rng.random((n // 2, d))])
        return coords[rng.permutation(n)]
    if kind == "lattice":
        return rng.integers(0, 4, (n, d)).astype(float)
    if kind == "signed_zero":
        coords = rng.integers(0, 3, (n, d)).astype(float)
        return np.where((coords == 0.0) & (rng.random((n, d)) < 0.5), -0.0, coords)
    if kind == "identical":
        return np.repeat(rng.random((1, d)), n, axis=0)
    return rng.integers(0, 2, (2, d)).astype(float)


# Run by `TestDuplicateCollapse` at the engine's own base capacity and by
# `TestOraclesAcrossBaseNodes` at small ones, like the oracle properties above.
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["mixed", "lattice", "signed_zero", "identical", "pair"]),
    st.integers(2, 120),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def routes_agree_and_rounds_match_the_full_set(backend, kind, n, leaf, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(duplicate_coords(kind, n, rng))
    got, rounds = dual_tree_boruvka(ds, backend, leaf_capacity=leaf, return_rounds=True)
    other = dual_tree_boruvka(ds, "ball" if backend == "kd" else "kd", leaf_capacity=leaf)
    want = kruskal_mst(ds)
    assert edge_key(got) == edge_key(other) == edge_key(naive_boruvka(ds)) == edge_key(want)
    assert got.total_weight.hex() == want.total_weight.hex()
    assert rounds == dsu_route(BACKENDS[backend](ds, leaf), ds.n)[1]


class TestDuplicateCollapse:
    """`dual_tree_boruvka` runs on one representative per site, stars for the copies."""

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    def test_routes_agree_and_rounds_match_the_full_set(self, backend):
        routes_agree_and_rounds_match_the_full_set(backend)

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    @pytest.mark.parametrize("kind", ["mixed", "lattice"])
    def test_collapsed_sets_over_several_base_nodes_give_the_mst(self, backend, kind, monkeypatch):
        """Base nodes of 8 points: the collapsed index meets cross blocks under both oracles."""
        monkeypatch.setattr(emst_module, "_base_capacity", lambda d: 8)
        cross = 0
        base_case = _DualTreeEngine._knn_base_case

        def spy(engine, qs, rs):
            nonlocal cross
            cross += qs is not rs
            base_case(engine, qs, rs)

        monkeypatch.setattr(_DualTreeEngine, "_knn_base_case", spy)
        for seed in range(10):
            ds = Dataset(duplicate_coords(kind, 120, np.random.default_rng(seed)))
            got = dual_tree_boruvka(ds, backend, leaf_capacity=8)
            for want in (kruskal_mst(ds), naive_boruvka(ds)):
                assert edge_key(got) == edge_key(want)
                assert got.total_weight.hex() == want.total_weight.hex()
        assert cross > 0

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    def test_distinct_sites_at_weight_zero_use_the_full_set(self, backend):
        # (2e-170 - 1e-170)**2 underflows to 0, so no star rule is exact here
        xs = [1e-170, 2e-170] * 4 + [1.0]
        ds = line_dataset(*xs)
        assert sq_dists(ds.coords[:1], ds.coords[1])[0] == 0.0
        got, rounds = dual_tree_boruvka(ds, backend, return_rounds=True)
        want = kruskal_mst(ds)
        assert edge_key(got) == edge_key(want)
        assert got.total_weight.hex() == want.total_weight.hex()
        assert rounds == dsu_route(BACKENDS[backend](ds, 20), ds.n)[1]

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    def test_the_index_holds_one_point_per_site(self, rng, monkeypatch, backend):
        sites = np.vstack([np.zeros((1, 3)), rng.random((19, 3))])
        coords = sites[rng.permutation(np.arange(5000) % 20)]
        coords[:2500] = np.where(coords[:2500] == 0.0, -0.0, coords[:2500])
        built, build = [], BACKENDS[backend]

        def recording(ds, leaf_capacity):
            built.append(ds.n)
            return build(ds, leaf_capacity)

        monkeypatch.setitem(BACKENDS, backend, recording)
        el = dual_tree_boruvka(Dataset(coords), backend)
        assert built == [20]
        validate_spanning_tree(el, 5000)
        assert sum(e.weight == 0.0 for e in el.edges) == 4980

    def test_a_round_without_edges_raises_with_lone_sites(self, rng, monkeypatch):
        monkeypatch.setattr(_DualTreeEngine, "run_round", no_candidates)
        coords = np.vstack([np.zeros((5, 2)), rng.random((10, 2))])
        with pytest.raises(RuntimeError, match="no progress"):
            dual_tree_boruvka(Dataset(coords), "kd")


class TestOverflow:
    ROUTES = {
        "kd": lambda ds: dual_tree_boruvka(ds, "kd"),
        "ball": lambda ds: dual_tree_boruvka(ds, "ball"),
        "naive": naive_boruvka,
        "kruskal": kruskal_mst,
    }

    def test_all_routes_reject_overflowing_distances_alike(self, rng):
        ds = Dataset(rng.random((50, 3)) * 1e170)
        messages = set()
        for name, route in self.ROUTES.items():
            with pytest.raises(ValueError, match="overflows float64") as info:
                route(ds)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_large_offset_with_small_spread_is_exact(self, rng):
        """Squared norms overflow but pair distances do not: routes still agree."""
        ds = Dataset(1e160 + rng.random((60, 3)) * 1e150)
        keys = [edge_key(route(ds)) for route in self.ROUTES.values()]
        assert keys[0] == keys[1] == keys[2] == keys[3]
        assert all(math.isfinite(w) for _, _, w in keys[0])


class TestBoruvkaStructure:
    def test_round_bound(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 400))
            ds = random_dataset(rng, n, 2)
            _, rounds = dual_tree_boruvka(ds, "kd", return_rounds=True)
            assert rounds <= max(1, math.ceil(math.log2(n)))

    def test_result_is_spanning_tree(self, rng):
        for backend in ("kd", "ball"):
            ds = random_dataset(rng, 150, 3)
            el = dual_tree_boruvka(ds, backend)
            validate_spanning_tree(el, 150)

    def test_cut_property_on_small_instance(self, rng):
        """Each round's accepted edges are minimal across their nominating cut."""
        n = 60
        ds = random_dataset(rng, n, 2)
        sq = cross_sq_dists(ds.coords, ds.coords)
        tree = KdTree(ds, 8)
        dsu = DisjointSet(n)
        total = 0
        while dsu.component_count > 1:
            roots = dsu.roots_array()
            candidates = find_component_neighbors(tree, dsu)
            for comp, edge in candidates.items():
                members = {i for i in range(n) if roots[i] == comp}
                crossing = min(
                    (float(sq[i, j]), min(i, j), max(i, j))
                    for i in members
                    for j in range(n)
                    if j not in members
                )
                assert (edge.u, edge.v) == (crossing[1], crossing[2])
                assert edge.weight == math.sqrt(crossing[0])
            for comp in sorted(candidates):
                edge = candidates[comp]
                if dsu.find(edge.u) != dsu.find(edge.v):
                    dsu.union(edge.u, edge.v)
                    total += 1
        assert total == n - 1

    def test_leaf_capacity_does_not_change_result(self, rng):
        ds = random_dataset(rng, 200, 3)
        baseline = edge_key(dual_tree_boruvka(ds, "kd", leaf_capacity=20))
        for cap in (1, 3, 64):
            assert edge_key(dual_tree_boruvka(ds, "kd", leaf_capacity=cap)) == baseline


class TestEdgeFile:
    def test_format_shape(self):
        ds = line_dataset(0, 1, 5)
        text = format_edges(dual_tree_boruvka(ds, "kd"))
        lines = text.splitlines()
        assert lines[0] == "0,1,1"
        assert lines[1] == "1,2,4"
        assert lines[2] == "# total_weight=5"
        assert text.endswith("\n")

    def test_weights_are_17_digit(self, rng):
        ds = random_dataset(rng, 20, 3)
        el = dual_tree_boruvka(ds, "kd")
        lines = format_edges(el).splitlines()
        for line, e in zip(lines, el.sorted_edges()):
            assert float(line.split(",")[2]) == e.weight


class TestValidateSpanningTree:
    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="edges"):
            validate_spanning_tree(EdgeList.from_edges([Edge(0, 1, 1.0)]), 3)

    def test_rejects_cycle(self):
        el = EdgeList.from_edges([Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(0, 2, 1.0)])
        with pytest.raises(ValueError, match="cycle"):
            validate_spanning_tree(el, 4)

    def test_rejects_out_of_range_ids(self):
        el = EdgeList.from_edges([Edge(0, 5, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            validate_spanning_tree(el, 2)

    def test_accepts_valid_tree(self, rng):
        ds = random_dataset(rng, 50, 2)
        validate_spanning_tree(kruskal_mst(ds), 50)


def same_grouping(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two root arrays put the same ids together, whatever the root names."""
    n = len(a)
    least = [np.full(n, n), np.full(n, n)]
    for m, roots in zip(least, (a, b)):
        np.minimum.at(m, roots, np.arange(n))
    return np.array_equal(least[0][a], least[1][b])


class TestComponentRoots:
    """`_component_roots` groups ids as a DisjointSet does, in O(log n) rounds."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
    )
    def test_matches_the_disjoint_set(self, n, pairs):
        # repeated edges, cycles and self pairs all occur
        u = np.array([a % n for a, _ in pairs], dtype=np.intp)
        v = np.array([b % n for _, b in pairs], dtype=np.intp)
        dsu = DisjointSet(n)
        for a, b in zip(u.tolist(), v.tolist()):
            dsu.union(a, b)
        roots = _component_roots(n, u, v)
        assert same_grouping(roots, dsu.roots_array())
        assert (roots[roots] == roots).all()

    def test_a_path_takes_logarithmically_many_rounds(self, monkeypatch):
        n = 20000
        el = shuffled_path(n, 5)
        rounds = []
        resolve = emst_module._resolve_roots

        def counting(parent):
            rounds.append(1)
            return resolve(parent)

        monkeypatch.setattr(emst_module, "_resolve_roots", counting)
        roots = _component_roots(n, el.u, el.v)
        assert (roots == roots[0]).all()
        assert 0 < len(rounds) <= math.log2(n)


class TestValidateOnArrays:
    """`validate_spanning_tree` on large trees and on each defect, built as arrays."""

    @pytest.mark.parametrize("el", [shuffled_path(20000, 11), star(20000, 0), star(20000, 12345)])
    def test_accepts_a_path_and_a_star(self, el):
        validate_spanning_tree(el, 20000)

    def test_n_minus_one_edges_with_a_cycle_raise(self):
        # a shuffled path p0 - p1 - ... whose last edge is swapped for the chord (p0, p2)
        ids = np.random.default_rng(3).permutation(1000)
        a, b = ids[:-1].copy(), ids[1:].copy()
        a[-1], b[-1] = ids[0], ids[2]
        el = EdgeList(np.minimum(a, b), np.maximum(a, b), np.ones(999))
        with pytest.raises(ValueError, match="2 components, so they close a cycle"):
            validate_spanning_tree(el, 1000)

    def test_names_the_first_out_of_range_edge(self):
        el = EdgeList([0, 1, 2, 0], [1, 7, 9, 3], [1.0] * 4)
        with pytest.raises(ValueError, match=r"edge \(1, 7\) references ids outside 0\.\.4"):
            validate_spanning_tree(el, 5)
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) references ids outside"):
            validate_spanning_tree(EdgeList([-1], [0], [1.0]), 2)

    def test_one_point_and_no_edges_pass(self):
        validate_spanning_tree(EdgeList([], [], []), 1)


class TestNoEdgeObjectsOnTheHotPath:
    """The EMST, its file, validation and clustering build no `Edge`; `.edges` builds n - 1 once."""

    @pytest.mark.parametrize("backend", ["kd", "ball"])
    @pytest.mark.parametrize("kind", ["uniform", "sites20"])
    def test_edges_are_built_only_when_read(self, backend, kind, monkeypatch):
        from emstbench import single_linkage

        rng = np.random.default_rng(17)
        coords = rng.random((600, 3))
        if kind == "sites20":
            coords = coords[:20][rng.integers(0, 20, 600)]
        made = []
        check = Edge.__post_init__

        def counting(self):
            made.append(1)
            check(self)

        monkeypatch.setattr(Edge, "__post_init__", counting)
        el = dual_tree_boruvka(Dataset(coords), backend)
        format_edges(el)
        validate_spanning_tree(el, 600)
        for k in (1, 7, 600):
            single_linkage(el, 600, k)
        assert made == []
        edges = el.edges
        assert len(made) == 599
        assert el.edges is edges and len(made) == 599
