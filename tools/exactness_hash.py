"""Two SHA-256 lines: the dual-tree EMST's results on a fixed battery of sets,
then the indexes' own answers and regions along a seeded churn stream.

Run from the repository root, with no options:

    python tools/exactness_hash.py

A change that keeps every result bit prints the same two lines as its parent.
The battery is 14 sets (uniform n=3000 at d=1, 2, 3, 6, 15 and 50; gaussian;
150 duplicate sites; 8 gaussian blobs at sigma 1e-4; 3000 cells of a 24^3
lattice; a +-1e-21 cluster beside two points at +-1; an offset of 1e4 at d=8;
a 1e-170 scale; an index with a base node of one point), each on both
backends, at the engine's own base capacity and at 24.  Each run hashes:

- `dual_tree_boruvka`'s `u`, `v`, `w` bytes in `order()`, `total_weight.hex()`
  and the round count;
- through `find_component_neighbors` on a full index: the first round's ids
  and lists in id order, `knn_rederived` and `knn_base_cases`, and every
  round's candidates and `fallback_components`.

The second line hashes, on both backends at leaf capacities 20 and 4, a
stream of inserts, deletes and `knn` queries (k of 1, 10 or 37) over 600
gaussian points and 150 copies of 15 sites: every answer's ids and
`float.hex()` distances, then every node's counts, region floats and leaf
ids in pre-order once the stream ends.

It reads no engine attribute beyond `order`, `knn` and those counters, and
no node attribute beyond `walk`, the counts, `region` and `ids`, so the same
file runs on any commit that has them.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from emstbench import BallTree, Dataset, KdTree, Point  # noqa: E402
from emstbench import emst  # noqa: E402

BACKENDS = {"kd": KdTree, "ball": BallTree}


def battery():
    """(name, coords) for the 13 coordinate sets; the one-point index is built apart."""
    rng = np.random.default_rng(22)
    sets = [(f"uniform-d{d}", rng.random((3000, d))) for d in (1, 2, 3, 6, 15, 50)]
    sets.append(("gaussian", rng.standard_normal((3000, 3))))
    sets.append(("sites", rng.random((150, 3))[rng.integers(0, 150, 3000)]))
    centres = rng.random((8, 3))
    sets.append(("blobs", (centres[:, None, :] + 1e-4 * rng.standard_normal((8, 250, 3))).reshape(-1, 3)))
    cells = rng.permutation(24**3)[:3000]
    sets.append(("lattice", np.array(np.unravel_index(cells, (24,) * 3), dtype=float).T))
    axis = np.zeros((2, 3))
    axis[:, 0] = (1.0, -1.0)
    sets.append(("subscale", np.vstack((axis, 1e-21 * rng.standard_normal((1500, 3))))))
    sets.append(("offset", 1e4 + rng.random((2000, 8))))
    sets.append(("tiny", 1e-170 * rng.random((2000, 3))))
    return sets


def one_point_index(backend_cls):
    """Points at 0, 1, 10 and 11 on every axis, 1 deleted, 300 inserted beyond 10.5."""
    index = backend_cls(Dataset(np.repeat([[0.0], [1.0], [10.0], [11.0]], 3, axis=1)), 2)
    index.delete(1)
    extra = 10.5 + 10.0 * np.random.default_rng(23).random((300, 3))
    for i, c in enumerate(extra, start=4):
        index.insert(Point(i, c))
    return index


def hash_rounds(h, index) -> None:
    """Boruvka through `find_component_neighbors` until no component has an edge."""
    dsu = emst.DisjointSet(max(index.live_ids()) + 1)
    step = 0
    while dsu.component_count > 1:
        cands = emst.find_component_neighbors(index, dsu)
        engine = index._emst_engine
        if not step:
            by_id = np.argsort(engine.order)
            h.update(engine.order[by_id].tobytes())
            h.update(engine.knn[by_id].tobytes())
            h.update(f"{engine.knn_rederived} {engine.knn_base_cases}".encode())
        h.update(f"r{step} {engine.fallback_components}".encode())
        before = dsu.component_count
        for root in sorted(cands):
            e = cands[root]
            h.update(f"{root} {e.u} {e.v} {e.weight.hex()};".encode())
            dsu.union(e.u, e.v)
        if dsu.component_count == before:
            break  # ids the index does not hold stay apart
        step += 1


def hash_emst(h, coords, backend: str) -> None:
    el, rounds = emst.dual_tree_boruvka(Dataset(coords), backend, return_rounds=True)
    order = el.order()
    for a in (el.u, el.v, el.w):
        h.update(a[order].tobytes())
    h.update(f"{el.total_weight.hex()} {rounds}".encode())


def churn_stream(seed: int):
    """(initial coords, [(op, arg)], coords of every id): 2 inserts, 2 deletes, 1 query per step."""
    rng = np.random.default_rng(seed)
    sites = rng.standard_normal((15, 3))
    base = np.vstack((rng.standard_normal((600, 3)), sites[rng.integers(0, 15, 150)]))
    fresh = np.where(rng.random((2 * 300, 1)) < 0.3, sites[rng.integers(0, 15, 600)], rng.standard_normal((600, 3)))
    coords = np.vstack((base, fresh))
    live, next_id, ops = list(range(len(base))), len(base), []
    for step in range(300):
        for _ in range(2):
            ops.append(("insert", next_id))
            live.append(next_id)
            next_id += 1
        for _ in range(2):
            j = int(rng.integers(len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append(("delete", live.pop()))
        at = sites[step % 15] if step % 3 == 0 else rng.standard_normal(3)
        ops.append(("query", (at, (1, 10, 37)[step % 3])))
    return base, ops, coords


def hash_index(h, backend_cls, leaf: int, stream) -> None:
    base, ops, coords = stream
    index = backend_cls(Dataset(base), leaf)
    for op, arg in ops:
        if op == "insert":
            index.insert(Point(arg, coords[arg]))
        elif op == "delete":
            index.delete(arg)
        else:
            at, k = arg
            h.update(" ".join(f"{i}:{dist.hex()}" for i, dist in index.knn(at, k)).encode())
    index.audit()
    for node in index.root.walk():
        floats = [x for part in node.region for x in (part if isinstance(part, list) else [part])]
        h.update(f"{node.n_live} {node.n_tomb} {' '.join(x.hex() for x in floats)} {node.ids};".encode())


def main() -> None:
    start = time.perf_counter()
    h = hashlib.sha256()
    own_capacity = emst._base_capacity
    sets = battery()
    for base_cap in (None, 24):
        emst._base_capacity = own_capacity if base_cap is None else (lambda d: base_cap)
        try:
            for backend, cls in BACKENDS.items():
                for name, coords in sets:
                    h.update(f"{name} {backend} {base_cap}".encode())
                    hash_emst(h, coords, backend)
                    hash_rounds(h, cls(Dataset(coords), 20))
                index = one_point_index(cls)
                live = np.array(sorted(index.live_ids()))
                h.update(f"one-point {backend} {base_cap}".encode())
                hash_emst(h, index.coords[live], backend)
                hash_rounds(h, index)
        finally:
            emst._base_capacity = own_capacity
    print(h.hexdigest())
    h = hashlib.sha256()
    stream = churn_stream(24)
    for backend, cls in BACKENDS.items():
        for leaf in (20, 4):
            h.update(f"churn {backend} {leaf}".encode())
            hash_index(h, cls, leaf, stream)
    print(h.hexdigest())
    print(f"{2 * 2 * (len(sets) + 1)} runs and 4 streams in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
