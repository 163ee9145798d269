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
