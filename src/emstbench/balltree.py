"""Ball-tree spatial index: cost-driven build, insertion, deletion, exact k-NN.

Each node bounds its live subtree points by a hypersphere (centroid center,
exact max-distance radius).  Construction is top-down: every candidate split
axis is sorted and a cost array evaluated at each boundary between distinct
values; the cheapest (dimension, boundary) wins.  The cost charges each side
its member count times an estimate of its squared half-diagonal: the squared
half-extent along the cut axis plus the node's squared half-extents on every
other axis.  A split therefore shrinks the child's whole ball, not just one
axis, so the tree does not slice an already thin axis into slabs whose balls
stay as wide as the parent's (Omohundro, ICSI TR-89-063; Moore, UAI 2000).
Insertion descends toward the nearer child center and inflates radii on the
way down; deletion mirrors the kd-tree tombstone plus subtree-rebuild policy
so the two structures differ only in geometry.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Point, sq_dists, sqdist

__all__ = ["SplitChoice", "BallNode", "BallTree", "choose_split", "ball_min_distance"]

_PRUNE_EPS = 1e-12
_CONTAINMENT_SLACK = 1e-9


@dataclass(frozen=True)
class SplitChoice:
    """A chosen split: axis, threshold value, and the cost it scored."""

    dim: int
    value: float
    cost: float


def _query_coords(q) -> np.ndarray:
    return q.coords if isinstance(q, Point) else np.asarray(q, dtype=np.float64)


def choose_split(point_ids, data) -> SplitChoice:
    """Scan every dimension for the cheapest boundary between sorted values.

    `data` is a Dataset or a raw (n, d) coordinate array.  With h_k the node's
    half-extent on axis k, the cost of a boundary on axis `dim` putting p of
    the m points left is (left_extent/2)^2 * p + (right_extent/2)^2 * (m-p)
    + m * (sum_k h_k^2 - h_dim^2): each side is charged its count times its
    squared half-diagonal, with the child's extent measured along `dim` and
    the node's own extent on every other axis.  Ties go to
    the lowest dimension, then the lowest boundary position.  When all points
    are coordinate-identical there is no real boundary; the returned choice
    has cost 0 and callers fall back to a half/half split by id.
    """
    coords = data.coords if isinstance(data, Dataset) else np.asarray(data)
    ids = np.asarray(point_ids, dtype=np.intp)
    m = len(ids)
    if m < 2:
        raise ValueError(f"choose_split needs at least 2 points, got {m}")
    pts = coords[ids]
    half_sq = ((pts.max(axis=0) - pts.min(axis=0)) * 0.5) ** 2
    total_sq = float(half_sq.sum())
    best: tuple[float, int, float] | None = None  # (cost, dim, value)
    n_left = np.arange(1, m, dtype=np.float64)
    n_right = np.arange(m - 1, 0, -1, dtype=np.float64)
    for dim in range(coords.shape[1]):
        vals = np.sort(pts[:, dim])
        valid = vals[1:] > vals[:-1]
        if not valid.any():
            continue
        half_left = (vals[:-1] - vals[0]) * 0.5
        half_right = (vals[-1] - vals[1:]) * 0.5
        cost = half_left * half_left * n_left + half_right * half_right * n_right
        cost += m * (total_sq - float(half_sq[dim]))
        cost[~valid] = np.inf
        b = int(np.argmin(cost))
        c = float(cost[b])
        if best is None or c < best[0]:
            value = (vals[b] + vals[b + 1]) * 0.5
            if not value > vals[b]:  # adjacent floats can round the midpoint down
                value = float(vals[b + 1])
            best = (c, dim, float(value))
    if best is None:
        return SplitChoice(0, float(coords[ids[0], 0]), 0.0)
    return SplitChoice(best[1], best[2], best[0])


def ball_min_distance(node, q) -> float:
    """Lower bound on the distance from q to any point inside the ball."""
    c = _query_coords(q)
    if c.shape[0] != node.center.shape[0]:
        raise ValueError(f"dimension mismatch: ball is {node.center.shape[0]}-D, query is {c.shape[0]}-D")
    return max(0.0, math.sqrt(sqdist(c, node.center)) - node.radius)


class BallNode:
    """One ball-tree node; a leaf iff `ids` is not None."""

    __slots__ = (
        "parent",
        "left",
        "right",
        "center",
        "radius",
        "ids",
        "n_live",
        "n_tomb",
        "_arr",
    )

    def __init__(self, center: np.ndarray, radius: float):
        self.parent = None
        self.left = None
        self.right = None
        self.center = center
        self.radius = radius
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

    def min_sqdist_point(self, c: np.ndarray) -> float:
        b = math.sqrt(sqdist(c, self.center)) - self.radius
        return b * b if b > 0.0 else 0.0

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


class BallTree:
    """Ball-tree over a dataset; same mutation and search contract as KdTree."""

    backend_name = "ball"

    def __init__(self, dataset: Dataset, leaf_capacity: int = 20):
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        self.dataset = dataset
        self.leaf_capacity = leaf_capacity
        self.d = dataset.d
        self._coords = np.array(dataset.coords)  # row index == point id
        self._leaf_of: dict[int, BallNode] = {}
        self._mutations = 0
        self.root = self._build(np.arange(dataset.n, dtype=np.intp))

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

    # -- construction -------------------------------------------------------

    def _make_ball(self, ids: np.ndarray) -> BallNode:
        pts = self._coords[ids]
        center = pts.mean(axis=0)
        radius = math.sqrt(float(sq_dists(pts, center).max()))
        node = BallNode(center, radius)
        node.n_live = len(ids)
        return node

    def _build(self, ids: np.ndarray) -> BallNode:
        # iterative: cost-based splits can be arbitrarily lopsided, so the
        # work stack keeps pathological inputs off the Python call stack
        root = self._make_ball(ids)
        stack = [(root, ids)]
        while stack:
            node, ids = stack.pop()
            if len(ids) <= self.leaf_capacity:
                node.ids = [int(i) for i in ids]
                for i in node.ids:
                    self._leaf_of[i] = node
                continue
            choice = choose_split(ids, self._coords)
            mask = self._coords[ids, choice.dim] < choice.value
            left_ids, right_ids = ids[mask], ids[~mask]
            if len(left_ids) == 0 or len(right_ids) == 0:
                ordered = np.sort(ids)  # all points identical: half/half by id
                half = len(ids) // 2
                left_ids, right_ids = ordered[:half], ordered[half:]
            node.left = self._make_ball(left_ids)
            node.right = self._make_ball(right_ids)
            node.left.parent = node
            node.right.parent = node
            stack.append((node.left, left_ids))
            stack.append((node.right, right_ids))
        return root

    # -- mutation -----------------------------------------------------------

    def insert(self, p: Point) -> None:
        """Insert a point, inflating every ancestor ball to keep containment."""
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
                node.center = c.copy()
                node.radius = 0.0
            else:
                dist = math.sqrt(sqdist(c, node.center))
                if dist > node.radius:
                    node.radius = dist
            if node.is_leaf:
                break
            dl = sqdist(c, node.left.center)
            dr = sqdist(c, node.right.center)
            node = node.left if dl <= dr else node.right

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

    def _replace_subtree(self, old: BallNode, live: np.ndarray) -> None:
        if len(live):
            fresh = self._build(live)
        else:
            fresh = BallNode(old.center, 0.0)
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
        """Verify containment, counts, and leaf bookkeeping across the tree."""
        seen: dict[int, BallNode] = {}

        def walk(node: BallNode) -> tuple[int, int]:
            live = node.collect_live_ids()
            if live:
                dists = np.sqrt(sq_dists(self._coords[np.array(live, dtype=np.intp)], node.center))
                if float(dists.max()) > node.radius + _CONTAINMENT_SLACK:
                    raise AssertionError(
                        f"point escapes ball: dist {dists.max()} > radius {node.radius}"
                    )
            if node.radius < 0.0:
                raise AssertionError("negative radius")
            if node.is_leaf:
                if len(node.ids) > self.leaf_capacity:
                    raise AssertionError(f"leaf holds {len(node.ids)} > capacity {self.leaf_capacity}")
                if node.n_live != len(node.ids):
                    raise AssertionError("leaf live count out of sync with its id list")
                for i in node.ids:
                    if i in seen:
                        raise AssertionError(f"id {i} appears in more than one leaf")
                    seen[i] = node
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
            return node.n_live, node.n_tomb

        walk(self.root)
        if seen.keys() != self._leaf_of.keys():
            raise AssertionError("leaf contents out of sync with the id index")
        for i, leaf in seen.items():
            if self._leaf_of[i] is not leaf:
                raise AssertionError(f"id index points id {i} at the wrong leaf")
        if self.size != len(seen):
            raise AssertionError("tree size out of sync with live ids")
