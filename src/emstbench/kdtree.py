"""Kd-tree spatial index: the axis-aligned-box geometry on the shared index core.

Nodes split on the axis of maximum coordinate spread at the median, found by
linear-time selection (``np.argpartition``), and bound their points by a
closed axis-aligned box, held as plain-Python lists ``(mins, maxs)``: the
region snapshot that k-NN, insertion and the EMST engine read.  Insertion
descends by the split plane, then widens every box on the path from one
list of the point's coordinates.
Everything else (leaves of up to ``leaf_capacity`` points, tombstone
deletion with subtree rebuilds, exact k-NN, the shared audit checks) lives
in `index.SpatialIndex`, so the kd-tree and the ball-tree differ only in
their bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import coords_of
from .index import IndexNode, SpatialIndex

__all__ = ["BoundingBox", "KdNode", "KdTree", "box_min_distance"]


@dataclass(frozen=True)
class BoundingBox:
    """Closed axis-aligned box; mins[i] <= maxs[i] on every axis."""

    mins: np.ndarray
    maxs: np.ndarray


def box_min_distance(box, q) -> float:
    """Euclidean distance from q to the nearest point of the closed box.

    Zero when q lies inside.  `box` is anything with mins/maxs arrays (a
    BoundingBox or a KdNode); the bound is the index's own, `_box_min_sq`.
    """
    c = coords_of(q)
    if c.shape[0] != box.mins.shape[0]:
        raise ValueError(f"dimension mismatch: box is {box.mins.shape[0]}-D, query is {c.shape[0]}-D")
    point = c.tolist()
    return math.sqrt(_box_min_sq((box.mins.tolist(), box.maxs.tolist()), (point, point)))


def _box_min_sq(a, b) -> float:
    """Squared gap between two box snapshots (mins, maxs) held as Python lists."""
    total = 0.0
    for amin, amax, bmin, bmax in zip(a[0], a[1], b[0], b[1]):
        gap = amin - bmax
        other = bmin - amax
        if other > gap:
            gap = other
        if gap > 0.0:
            total += gap * gap
    return total


class KdNode(IndexNode):
    """One kd-tree node: a bounding box and, when internal, its split plane.

    The box is stored once, as the region snapshot ``(mins, maxs)`` of
    Python float lists; the read-only `mins` / `maxs` properties give it
    as arrays.
    """

    __slots__ = ("split_dim", "split_value")

    def __init__(self, mins, maxs):
        super().__init__((np.asarray(mins, float).tolist(), np.asarray(maxs, float).tolist()))
        self.split_dim = -1
        self.split_value = 0.0

    @property
    def mins(self) -> np.ndarray:
        return np.array(self.region[0])

    @property
    def maxs(self) -> np.ndarray:
        return np.array(self.region[1])

    def child_for(self, c: np.ndarray) -> KdNode:
        return self.left if c[self.split_dim] <= self.split_value else self.right

    def empty_copy(self) -> KdNode:
        return KdNode(*self.region)


class KdTree(SpatialIndex):
    """Kd-tree over a dataset, supporting insert, delete, and exact k-NN."""

    def _make_node(self, ids: np.ndarray) -> KdNode:
        pts = self._coords[ids]
        return KdNode(pts.min(axis=0), pts.max(axis=0))

    def _split(self, node: KdNode, ids: np.ndarray):
        extent = [hi - lo for lo, hi in zip(*node.region)]
        dim = extent.index(max(extent))
        vals = self._coords[ids, dim]
        k = len(ids) // 2
        part = np.argpartition(vals, k)
        node.split_dim = dim
        node.split_value = float(vals[part[k]])
        return ids[part[:k]], ids[part[k:]]

    @staticmethod
    def _grow_path(path: list, c: np.ndarray) -> None:
        point = c.tolist()
        for node in path:
            mins, maxs = node.region
            for k, x in enumerate(point):
                if x < mins[k]:
                    mins[k] = x
                if x > maxs[k]:
                    maxs[k] = x

    _region_min_sq = staticmethod(_box_min_sq)

    @staticmethod
    def _point_region(c: list) -> tuple:
        # two lists: inserts widen a leaf's mins and maxs in place
        return c, list(c)

    def _audit_region(self, node: KdNode, live: np.ndarray, parts: tuple) -> None:
        pts = self._coords[live]
        escapes = ((pts < node.mins) | (pts > node.maxs)).any(axis=1)
        if escapes.any():
            raise AssertionError(f"point {live[escapes.argmax()]} escapes its node's bounding box")
        if not parts:
            return
        # `live` is the left child's ids, then the right child's
        side, k = pts[:, node.split_dim], len(parts[0])
        if k and side[:k].max() > node.split_value:
            raise AssertionError("left subtree violates split plane")
        if k < len(side) and side[k:].min() < node.split_value:
            raise AssertionError("right subtree violates split plane")
