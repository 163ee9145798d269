"""Kd-tree spatial index: bulk build, insertion, tombstone deletion, exact k-NN.

Nodes split on the axis of maximum coordinate spread at the median, found by
linear-time selection (``np.argpartition``).  Leaves hold up to
``leaf_capacity`` points.  Deletion is lazy: the id is dropped from its leaf
and counted as a tombstone; once tombstones outnumber live points anywhere on
the root-to-leaf path, that whole subtree is rebuilt from its live points.
Bounding boxes only ever grow between rebuilds, so they stay valid (if loose)
under any mutation sequence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Point, sq_dists

__all__ = ["BoundingBox", "KdNode", "KdTree", "box_min_distance"]

# Relative slack applied before discarding a node during search: rounding in
# the bound arithmetic must never prune a point that ties the k-th best.
_PRUNE_EPS = 1e-12


@dataclass(frozen=True)
class BoundingBox:
    """Closed axis-aligned box; mins[i] <= maxs[i] on every axis."""

    mins: np.ndarray
    maxs: np.ndarray


def _query_coords(q) -> np.ndarray:
    return q.coords if isinstance(q, Point) else np.asarray(q, dtype=np.float64)


def box_min_distance(box, q) -> float:
    """Euclidean distance from q to the nearest point of the closed box.

    Zero when q lies inside.  `box` is anything with mins/maxs arrays
    (a BoundingBox or a KdNode).
    """
    c = _query_coords(q)
    if c.shape[0] != box.mins.shape[0]:
        raise ValueError(f"dimension mismatch: box is {box.mins.shape[0]}-D, query is {c.shape[0]}-D")
    g = np.maximum(box.mins - c, 0.0) + np.maximum(c - box.maxs, 0.0)
    return math.sqrt(float(g @ g))


class KdNode:
    """One kd-tree node; a leaf iff `ids` is not None."""

    __slots__ = (
        "parent",
        "left",
        "right",
        "split_dim",
        "split_value",
        "mins",
        "maxs",
        "ids",
        "n_live",
        "n_tomb",
        "_arr",
    )

    def __init__(self, mins, maxs):
        self.parent = None
        self.left = None
        self.right = None
        self.split_dim = -1
        self.split_value = 0.0
        self.mins = mins
        self.maxs = maxs
        self.ids: list[int] | None = None
        self.n_live = 0
        self.n_tomb = 0
        self._arr = None

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None

    def ids_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.ids, dtype=np.intp)
        return self._arr

    @property
    def box(self) -> BoundingBox:
        return BoundingBox(self.mins, self.maxs)

    def min_sqdist_point(self, c: np.ndarray) -> float:
        g = np.maximum(self.mins - c, 0.0) + np.maximum(c - self.maxs, 0.0)
        return float(g @ g)

    def collect_live_ids(self) -> list[int]:
        out: list[int] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(node.ids)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out


class KdTree:
    """Kd-tree over a dataset, supporting insert, delete, and exact k-NN.

    Point coordinates live in a private growable buffer indexed by id, so
    inserted points may carry any id not currently live (fresh ids should be
    kept reasonably dense, e.g. n, n+1, ...).  Concurrent reads are safe;
    mutations need exclusive access.
    """

    backend_name = "kd"

    def __init__(self, dataset: Dataset, leaf_capacity: int = 20):
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        self.dataset = dataset
        self.leaf_capacity = leaf_capacity
        self.d = dataset.d
        self._coords = np.array(dataset.coords)  # row index == point id
        self._leaf_of: dict[int, KdNode] = {}
        self._mutations = 0
        self.root = self._build(np.arange(dataset.n, dtype=np.intp))

    # -- properties ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.root.n_live

    @property
    def tombstones(self) -> int:
        return self.root.n_tomb

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    def live_ids(self) -> list[int]:
        return self.root.collect_live_ids()

    def depth(self) -> int:
        """Maximum number of edges on a root-to-leaf path."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                best = max(best, depth)
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return best

    # -- construction -------------------------------------------------------

    def _build(self, ids: np.ndarray) -> KdNode:
        pts = self._coords[ids]
        node = KdNode(pts.min(axis=0), pts.max(axis=0))
        node.n_live = len(ids)
        if len(ids) <= self.leaf_capacity:
            node.ids = [int(i) for i in ids]
            for i in node.ids:
                self._leaf_of[i] = node
            return node
        spread = node.maxs - node.mins
        dim = int(np.argmax(spread))
        vals = pts[:, dim]
        k = len(ids) // 2
        part = np.argpartition(vals, k)
        node.split_dim = dim
        node.split_value = float(vals[part[k]])
        node.left = self._build(ids[part[:k]])
        node.right = self._build(ids[part[k:]])
        node.left.parent = node
        node.right.parent = node
        return node

    # -- mutation -----------------------------------------------------------

    def insert(self, p: Point) -> None:
        """Insert a point; splits the target leaf if it overflows."""
        c = p.coords
        if c.shape[0] != self.d:
            raise ValueError(f"dimension mismatch: tree is {self.d}-D, point is {c.shape[0]}-D")
        if p.id in self._leaf_of:
            raise ValueError(f"id {p.id} is already live in the tree")
        self._store_coords(p.id, c)

        node = self.root
        while True:
            node.n_live += 1
            if node.is_leaf and node.n_live == 1:
                node.mins = c.copy()
                node.maxs = c.copy()
            else:
                np.minimum(node.mins, c, out=node.mins)
                np.maximum(node.maxs, c, out=node.maxs)
            if node.is_leaf:
                break
            node = node.left if c[node.split_dim] <= node.split_value else node.right

        node.ids.append(p.id)
        node._arr = None
        self._leaf_of[p.id] = node
        if len(node.ids) > self.leaf_capacity:
            self._replace_subtree(node, np.array(node.ids, dtype=np.intp))
        self._mutations += 1

    def delete(self, point_id: int) -> None:
        """Remove a live id; rebuilds any subtree that drops below half live."""
        leaf = self._leaf_of.pop(point_id, None)
        if leaf is None:
            raise KeyError(f"id {point_id} is not live in the tree")
        leaf.ids.remove(point_id)
        leaf._arr = None
        trigger = None
        node = leaf
        while node is not None:
            node.n_live -= 1
            node.n_tomb += 1
            if node.n_tomb > node.n_live:
                trigger = node
            node = node.parent
        if trigger is not None:
            live = np.array(trigger.collect_live_ids(), dtype=np.intp)
            self._replace_subtree(trigger, live)
        self._mutations += 1

    def _store_coords(self, point_id: int, c: np.ndarray) -> None:
        if point_id >= self._coords.shape[0]:
            grow = max(2 * self._coords.shape[0], point_id + 1)
            fresh = np.empty((grow, self.d))
            fresh[: self._coords.shape[0]] = self._coords
            self._coords = fresh
        self._coords[point_id] = c

    def _replace_subtree(self, old: KdNode, live: np.ndarray) -> None:
        """Rebuild `old` from `live` ids and splice the result into its place."""
        if len(live):
            fresh = self._build(live)
        else:
            fresh = KdNode(old.mins, old.maxs)
            fresh.ids = []
        removed_tombs = old.n_tomb
        parent = old.parent
        fresh.parent = parent
        if parent is None:
            self.root = fresh
        elif parent.left is old:
            parent.left = fresh
        else:
            parent.right = fresh
        while parent is not None:
            parent.n_tomb -= removed_tombs
            parent = parent.parent
        self._mutations += 1

    # -- search -------------------------------------------------------------

    def knn(self, q, k: int) -> list[tuple[int, float]]:
        """The exact k nearest live points to q, ascending by (distance, id)."""
        c = _query_coords(q)
        if c.shape[0] != self.d:
            raise ValueError(f"dimension mismatch: tree is {self.d}-D, query is {c.shape[0]}-D")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.root.n_live == 0:
            return []

        heap: list[tuple[float, int]] = []  # (-sqdist, -id): root of heap = current worst
        stack = [(0.0, self.root)]  # (bound, node); nearer child pushed last, popped first
        while stack:
            dist, node = stack.pop()
            if len(heap) == k and dist * (1.0 - _PRUNE_EPS) > -heap[0][0]:
                continue
            if node.is_leaf:
                if not node.ids:
                    continue
                arr = node.ids_array()
                sqs = sq_dists(self._coords[arr], c)
                if len(heap) < k:
                    for sq, i in zip(sqs.tolist(), node.ids):
                        if len(heap) < k:
                            heapq.heappush(heap, (-sq, -i))
                        elif (sq, i) < (-heap[0][0], -heap[0][1]):
                            heapq.heapreplace(heap, (-sq, -i))
                else:
                    worst = -heap[0][0]
                    for j in np.nonzero(sqs <= worst)[0].tolist():
                        sq = float(sqs[j])
                        i = node.ids[j]
                        if (sq, i) < (-heap[0][0], -heap[0][1]):
                            heapq.heapreplace(heap, (-sq, -i))
                continue
            near, far = node.left, node.right
            dn = near.min_sqdist_point(c) if near.n_live else math.inf
            df = far.min_sqdist_point(c) if far.n_live else math.inf
            if df < dn:
                near, far = far, near
                dn, df = df, dn
            if far.n_live:
                stack.append((df, far))
            if near.n_live:
                stack.append((dn, near))

        out = [(-i, math.sqrt(-negsq)) for negsq, i in heap]
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    # -- verification -------------------------------------------------------

    def audit(self) -> None:
        """Walk the whole tree and verify every structural invariant.

        Raises AssertionError on the first violation; used by tests after
        mutation sequences.
        """
        seen: dict[int, KdNode] = {}

        def walk(node: KdNode) -> tuple[int, int]:
            if node.is_leaf:
                if len(node.ids) > self.leaf_capacity:
                    raise AssertionError(f"leaf holds {len(node.ids)} > capacity {self.leaf_capacity}")
                if node.n_live != len(node.ids):
                    raise AssertionError("leaf live count out of sync with its id list")
                for i in node.ids:
                    if i in seen:
                        raise AssertionError(f"id {i} appears in more than one leaf")
                    seen[i] = node
                    pt = self._coords[i]
                    if (pt < node.mins).any() or (pt > node.maxs).any():
                        raise AssertionError(f"point {i} escapes its leaf bounding box")
                return node.n_live, node.n_tomb
            for child in (node.left, node.right):
                if child.parent is not node:
                    raise AssertionError("broken parent link")
            ll, lt = walk(node.left)
            rl, rt = walk(node.right)
            if node.n_live != ll + rl:
                raise AssertionError("internal live count != sum of children")
            if node.n_tomb != lt + rt:
                raise AssertionError("internal tombstone count != sum of children")
            left_ids = node.left.collect_live_ids()
            right_ids = node.right.collect_live_ids()
            dim, sv = node.split_dim, node.split_value
            if left_ids and self._coords[left_ids, dim].max() > sv:
                raise AssertionError("left subtree violates split plane")
            if right_ids and self._coords[right_ids, dim].min() < sv:
                raise AssertionError("right subtree violates split plane")
            for ids, child in ((left_ids, node.left), (right_ids, node.right)):
                for i in ids:
                    pt = self._coords[i]
                    if (pt < node.mins).any() or (pt > node.maxs).any():
                        raise AssertionError(f"point {i} escapes an ancestor bounding box")
            return node.n_live, node.n_tomb

        walk(self.root)
        if seen.keys() != self._leaf_of.keys():
            raise AssertionError("leaf contents out of sync with the id index")
        for i, leaf in seen.items():
            if self._leaf_of[i] is not leaf:
                raise AssertionError(f"id index points id {i} at the wrong leaf")
        if self.size != len(seen):
            raise AssertionError("tree size out of sync with live ids")
