import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstbench import (
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
from emstbench.core import cross_sq_dists
from emstbench.emst import _K, _naive_candidates
from conftest import random_dataset


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(_K + 2, 80),
        st.integers(1, 3),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_duplicate_heavy_sets_give_the_mst(self, sites, n, d, leaf, seed):
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
    def test_lattice_ties_at_the_last_entry_give_the_mst(self, d, n, leaf, seed):
        """Integer lattices: the K-th list entry sits inside a run of equal weights."""
        rng = np.random.default_rng(seed)
        side = 5 if d == 2 else 3
        cells = rng.permutation(side**d)[: min(n, side**d)]
        coords = np.array(np.unravel_index(cells, (side,) * d), dtype=float).T
        ds = Dataset(coords)
        kd, ball, kr = mst_keys(ds, leaf)
        assert kd == ball == kr

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

    @pytest.mark.parametrize("backend_cls", [KdTree, BallTree])
    def test_duplicate_sites_send_components_to_the_tree(self, rng, backend_cls):
        sites = rng.random((20, 3))
        ds = Dataset(sites[rng.permutation(np.arange(600) % 20)])
        index = backend_cls(ds, 20)
        counts = [index._emst_engine.fallback_components for _ in boruvka_rounds(index, ds.n)]
        assert counts[0] == 0 and sum(counts[1:]) > 0


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
