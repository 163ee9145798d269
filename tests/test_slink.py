import numpy as np
import pytest

from emstbench import (
    Dataset,
    EdgeList,
    Edge,
    dendrogram,
    dual_tree_boruvka,
    kruskal_mst,
    naive_merge_sequence,
    naive_single_linkage,
    single_linkage,
)
from emstbench.emst import DisjointSet
from emstbench.slink import _canonical_labels, format_labels
from conftest import random_dataset, shuffled_path, star


def far_pairs_dataset():
    return Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]]))


class TestSingleLinkage:
    def test_k_one_is_one_cluster(self, rng):
        ds = random_dataset(rng, 40, 2)
        mst = kruskal_mst(ds)
        labels = single_linkage(mst, 40, 1)
        assert (labels == 0).all()

    def test_k_equals_n_is_singletons(self, rng):
        ds = random_dataset(rng, 17, 3)
        labels = single_linkage(kruskal_mst(ds), 17, 17)
        assert labels.tolist() == list(range(17))

    def test_far_pairs_split_at_two(self):
        ds = far_pairs_dataset()
        labels = single_linkage(kruskal_mst(ds), 4, 2)
        assert labels.tolist() == [0, 0, 1, 1]

    def test_labels_are_canonical(self, rng):
        ds = random_dataset(rng, 60, 2)
        labels = single_linkage(kruskal_mst(ds), 60, 7)
        seen = []
        for lab in labels.tolist():
            if lab not in seen:
                seen.append(lab)
        assert seen == list(range(7))

    def test_k_out_of_range(self, rng):
        ds = random_dataset(rng, 10, 2)
        mst = kruskal_mst(ds)
        for k in (0, 11):
            with pytest.raises(ValueError, match="k must be"):
                single_linkage(mst, 10, k)

    def test_non_spanning_input_rejected(self):
        bogus = EdgeList.from_edges([Edge(0, 1, 1.0), Edge(2, 3, 1.0)])
        with pytest.raises(ValueError):
            single_linkage(bogus, 5, 2)

    def test_nesting_refinement(self, rng):
        """Clusters at k are unions of clusters at k+1."""
        ds = random_dataset(rng, 80, 3)
        mst = kruskal_mst(ds)
        for k in range(1, 80):
            coarse = single_linkage(mst, 80, k)
            fine = single_linkage(mst, 80, k + 1)
            mapping = {}
            for c, f in zip(coarse.tolist(), fine.tolist()):
                assert mapping.setdefault(f, c) == c

    def test_backend_independent(self, rng):
        ds = random_dataset(rng, 90, 3)
        kd_mst = dual_tree_boruvka(ds, "kd")
        ball_mst = dual_tree_boruvka(ds, "ball")
        for k in (1, 2, 5, 30, 90):
            assert (single_linkage(kd_mst, 90, k) == single_linkage(ball_mst, 90, k)).all()


class TestDendrogram:
    def test_two_points(self):
        ds = Dataset(np.array([[0.0], [2.0]]))
        deno = dendrogram(kruskal_mst(ds), 2)
        assert len(deno.steps) == 1
        assert deno.steps[0].components_before == 2
        assert deno.steps[0].edge.weight == 2.0

    def test_double_gap_merges_last(self):
        xs = [0.0, 1.0, 2.0, 4.0, 5.0, 6.0]  # one double-width gap
        ds = Dataset(np.array([[x] for x in xs]))
        deno = dendrogram(kruskal_mst(ds), 6)
        assert [s.components_before for s in deno.steps] == [6, 5, 4, 3, 2]
        last = deno.steps[-1].edge
        assert (last.u, last.v, last.weight) == (2, 3, 2.0)

    def test_heights_match_naive_oracle(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 120))
            ds = random_dataset(rng, n, int(rng.choice([2, 3])))
            deno = dendrogram(dual_tree_boruvka(ds, "kd"), n)
            merges = naive_merge_sequence(ds)
            assert [s.edge.weight for s in deno.steps] == [m.weight for m in merges]
            assert [(s.edge.u, s.edge.v) for s in deno.steps] == [(m.u, m.v) for m in merges]

    def test_non_spanning_input_rejected(self):
        with pytest.raises(ValueError):
            dendrogram(EdgeList.from_edges([Edge(0, 1, 1.0)]), 3)


class TestOracleEquivalence:
    def test_labels_match_naive_for_every_k(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 120))
            ds = random_dataset(rng, n, 2)
            mst = dual_tree_boruvka(ds, "kd")
            for k in range(1, n + 1):
                fast = single_linkage(mst, n, k)
                slow = naive_single_linkage(ds, k)
                assert (fast == slow).all(), f"n={n} k={k}"

    def test_naive_oracle_rejects_bad_k(self, rng):
        ds = random_dataset(rng, 5, 2)
        with pytest.raises(ValueError):
            naive_single_linkage(ds, 6)


def disjoint_set_labels(mst: EdgeList, n: int, k: int) -> np.ndarray:
    """Labels of k clusters by the edge-by-edge DisjointSet union of the n - k lightest edges."""
    dsu = DisjointSet(n)
    for edge in mst.sorted_edges()[: n - k]:
        dsu.union(edge.u, edge.v)
    return _canonical_labels(dsu, n)


@pytest.mark.parametrize("mst", [shuffled_path(20000, 9), star(20000, 777)], ids=["path", "star"])
@pytest.mark.parametrize("k", [1, 2, 7, 20000])
def test_large_path_and_star_cluster_as_the_disjoint_set_does(mst, k):
    labels = single_linkage(mst, 20000, k)
    assert labels.max() == k - 1
    assert (labels == disjoint_set_labels(mst, 20000, k)).all()


def test_format_labels_shape():
    text = format_labels(np.array([0, 0, 1]))
    assert text == "0,0\n1,0\n2,1\n"
