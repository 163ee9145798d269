"""Single-linkage clustering from the EMST, with a naive agglomerative oracle.

Cutting the k-1 heaviest MST edges (under the total order) leaves exactly the
single-linkage clusters at level k; `dendrogram` lists the same edges ascending
as the merge schedule.  `naive_merge_sequence` re-derives that schedule the
slow way, by repeatedly merging the two clusters with the smallest
inter-cluster point pair, and exists so the fast construction can be checked
against something that never sees a spanning tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Edge, EdgeList, cross_sq_dists
from .emst import DisjointSet, _component_roots, validate_spanning_tree

__all__ = [
    "MergeStep",
    "Dendrogram",
    "single_linkage",
    "dendrogram",
    "naive_merge_sequence",
    "naive_single_linkage",
    "format_labels",
    "write_labels",
]


@dataclass(frozen=True)
class MergeStep:
    """One merge: the edge that joins two clusters and the count before it."""

    edge: Edge
    components_before: int


@dataclass(frozen=True)
class Dendrogram:
    """All n-1 merges, ascending by the total order."""

    steps: list[MergeStep]


def _canonical_labels(dsu: DisjointSet, n: int) -> np.ndarray:
    """Cluster indices of a DisjointSet's first n elements (`_first_seen`)."""
    return _first_seen(dsu.roots_array()[:n])


def _first_seen(roots: np.ndarray) -> np.ndarray:
    """Cluster indices assigned by first appearance of each root in id order."""
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def single_linkage(mst: EdgeList, n: int, k: int) -> np.ndarray:
    """Labels of the k single-linkage clusters: cut the k-1 heaviest MST edges.

    The n - k lightest edges are joined as arrays (`emst._component_roots`).
    Labels are canonical: the cluster containing the smallest id gets 0, the
    next unseen id's cluster gets 1, and so on.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    validate_spanning_tree(mst, n)
    keep = mst.order()[: n - k]
    return _first_seen(_component_roots(n, mst.u[keep], mst.v[keep]))


def dendrogram(mst: EdgeList, n: int) -> Dendrogram:
    """The merge schedule implied by the MST: edges ascending, counts n..2."""
    validate_spanning_tree(mst, n)
    steps = [
        MergeStep(edge, n - i) for i, edge in enumerate(mst.sorted_edges())
    ]
    return Dendrogram(steps)


def naive_merge_sequence(ds: Dataset) -> list[Edge]:
    """Agglomerative single linkage by brute force, as a merge list.

    Maintains, for every live cluster pair, the best connecting point pair
    under the total order; each step merges the global minimum.  Cubic time,
    independent of any spanning-tree machinery.
    """
    n = ds.n
    sq = cross_sq_dists(ds.coords, ds.coords)
    np.fill_diagonal(sq, np.inf)
    ii = np.arange(n)
    bu = np.minimum(ii[:, None], ii[None, :])
    bv = np.maximum(ii[:, None], ii[None, :])

    merges: list[Edge] = []
    for _ in range(n - 1):
        wmin = sq.min()
        cands = np.argwhere(sq == wmin)
        best = min((int(bu[i, j]), int(bv[i, j])) for i, j in cands)
        locs = cands[(bu[cands[:, 0], cands[:, 1]] == best[0]) & (bv[cands[:, 0], cands[:, 1]] == best[1])]
        # row-major over a symmetric matrix: the first hit has i < j
        i, j = int(locs[0][0]), int(locs[0][1])
        merges.append(Edge(best[0], best[1], math.sqrt(float(wmin))))
        # fold cluster j into cluster i, keeping the better triple per column
        take_j = (sq[j] < sq[i]) | (
            (sq[j] == sq[i]) & ((bu[j] < bu[i]) | ((bu[j] == bu[i]) & (bv[j] < bv[i])))
        )
        sq[i] = np.where(take_j, sq[j], sq[i])
        bu[i] = np.where(take_j, bu[j], bu[i])
        bv[i] = np.where(take_j, bv[j], bv[i])
        sq[:, i] = sq[i]
        bu[:, i] = bu[i]
        bv[:, i] = bv[i]
        sq[i, i] = np.inf
        sq[j, :] = np.inf
        sq[:, j] = np.inf
    return merges


def naive_single_linkage(ds: Dataset, k: int) -> np.ndarray:
    """Oracle labels for k clusters via the brute-force merge sequence."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}, got {k}")
    dsu = DisjointSet(ds.n)
    for edge in naive_merge_sequence(ds)[: ds.n - k]:
        dsu.union(edge.u, edge.v)
    return _canonical_labels(dsu, ds.n)


def format_labels(labels: np.ndarray) -> str:
    """Label file: 'point_id,cluster_label' lines ascending by point id."""
    return "\n".join(f"{i},{int(label)}" for i, label in enumerate(labels)) + "\n"


def write_labels(labels: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_labels(labels))
