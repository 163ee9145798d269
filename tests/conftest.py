"""Shared oracles and dataset helpers for the test suite."""

import numpy as np
import pytest

from emstbench import Dataset, EdgeList
from emstbench.core import sq_dists


def brute_knn(coords: np.ndarray, ids, q, k: int) -> list[tuple[int, float]]:
    """Reference k-NN: full scan over the given ids, ordered by (distance, id)."""
    ids = list(ids)
    if not ids:
        return []
    arr = np.array(ids, dtype=np.intp)
    dists = np.sqrt(sq_dists(coords[arr], np.asarray(q, dtype=np.float64)))
    ranked = sorted(zip(dists.tolist(), ids))
    return [(i, d) for d, i in ranked[:k]]


def dense_prim(coords: np.ndarray):
    """The exact MST by Prim's algorithm: arrays u < v and squared weights, ascending.

    Pairs are ordered by (squared weight, min id, max id), so the MST is
    unique.  Memory is O(n): each step takes one row of `sq_dists` from the
    point that joined last to the points still outside the tree.  For a fixed
    outside point the order reduces to (weight, tree-side id).
    """
    n = len(coords)
    rest = np.arange(1, n)  # the points outside the tree, in their first m slots
    pts = coords[rest]
    best_w = sq_dists(pts, coords[0])  # each outside point's least pair into the tree
    best_t = np.zeros(n - 1, dtype=np.intp)  # and that pair's tree-side id
    u, v, w = np.empty(n - 1, np.intp), np.empty(n - 1, np.intp), np.empty(n - 1)
    for k, m in enumerate(range(n - 1, 0, -1)):
        ties = np.flatnonzero(best_w[:m] == best_w[:m].min())
        if len(ties) > 1:
            lo = np.minimum(rest[ties], best_t[ties])
            hi = np.maximum(rest[ties], best_t[ties])
            ties = ties[np.lexsort((hi, lo))]
        j, last = ties[0], m - 1
        x, t = rest[j], best_t[j]
        u[k], v[k], w[k] = min(x, t), max(x, t), best_w[j]
        # move the last outside point into slot j
        for a in (rest, pts, best_w, best_t):
            a[j] = a[last]
        sq = sq_dists(pts[:last], coords[x])
        better = (sq < best_w[:last]) | ((sq == best_w[:last]) & (x < best_t[:last]))
        best_w[:last][better] = sq[better]
        best_t[:last][better] = x
    order = np.lexsort((v, u, w))
    return u[order], v[order], w[order]


def random_dataset(rng: np.random.Generator, n: int, d: int) -> Dataset:
    return Dataset(rng.random((n, d)))


def shuffled_path(n: int, seed: int) -> EdgeList:
    """A path over ids 0..n-1 in seeded random order, with tie-heavy weights."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n)
    a, b = ids[:-1], ids[1:]
    return EdgeList(np.minimum(a, b), np.maximum(a, b), rng.integers(0, 50, n - 1).astype(float))


def star(n: int, center: int) -> EdgeList:
    """Edges from `center` to every other id 0..n-1, all of weight 1."""
    others = np.delete(np.arange(n), center)
    u, v = np.minimum(others, center), np.maximum(others, center)
    return EdgeList(u, v, np.ones(n - 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20110215)
