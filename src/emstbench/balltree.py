"""Ball-tree spatial index: the hypersphere geometry on the shared index core.

Each node bounds its live subtree points by a hypersphere (centroid center,
exact max-distance radius).  Construction is top-down: every candidate split
axis is sorted and a cost array evaluated at each boundary between distinct
values; the cheapest (dimension, boundary) wins.  The cost charges each side
its member count times an estimate of its squared half-diagonal: the squared
half-extent along the cut axis plus the node's squared half-extents on every
other axis.  A split therefore shrinks the child's whole ball, not just one
axis, so the tree does not slice an already thin axis into slabs whose balls
stay as wide as the parent's (Omohundro, ICSI TR-89-063; Moore, UAI 2000).
Each node stores its ball once, as the region snapshot ``(center, radius)``
(the center as a Python float list) that k-NN, insertion and the EMST engine
read; the radius is always a canonical-kernel distance, the value `audit`
checks.  The bound between two balls, `_ball_min_sq`, takes the centre
distance from `math.dist`, which does not overflow, and squares only the
gap.  Insertion descends toward the nearer child center, then takes every
path radius it may inflate from one kernel call over the path's stacked
centers.
Everything else (tombstone deletion with subtree rebuilds, exact k-NN, the
shared audit checks) lives in `index.SpatialIndex`, so the ball-tree and
the kd-tree differ only in their bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, coords_of, sq_dists
from .index import IndexNode, SpatialIndex

__all__ = ["SplitChoice", "BallNode", "BallTree", "choose_split", "ball_min_distance"]


@dataclass(frozen=True)
class SplitChoice:
    """A chosen split: axis, threshold value, and the cost it scored."""

    dim: int
    value: float
    cost: float


def choose_split(point_ids, data) -> SplitChoice:
    """Scan every dimension for the cheapest boundary between sorted values.

    `data` is a Dataset or a raw (n, d) coordinate array.  With h_k the node's
    half-extent on axis k, the cost of a boundary on axis `dim` putting p of
    the m points left is (left_extent/2)^2 * p + (right_extent/2)^2 * (m-p)
    + m * (sum_k h_k^2 - h_dim^2): each side is charged its count times its
    squared half-diagonal, with the child's extent measured along `dim` and
    the node's own extent on every other axis.  Ties go to
    the lowest dimension, then the lowest boundary position.  Costs are
    compared with every half-extent scaled by the power of two that brings
    the largest into [1/2, 1), so they cannot overflow at any coordinate
    scale.  Scaling by a power of two is exact, so wherever the unscaled
    costs neither overflow nor underflow it picks the same boundary; the
    returned cost is in the data's own units (inf when that overflows).
    When all points are coordinate-identical there is no real boundary; the
    returned choice has cost 0 and callers fall back to a half/half split
    by id.
    """
    coords = data.coords if isinstance(data, Dataset) else np.asarray(data)
    ids = np.asarray(point_ids, dtype=np.intp)
    m = len(ids)
    if m < 2:
        raise ValueError(f"choose_split needs at least 2 points, got {m}")
    pts = coords[ids]
    extent = pts.max(axis=0) - pts.min(axis=0)
    # half-extents times 2**-e lie below 1, so their squares times m stay finite
    e = math.frexp(max(extent.tolist()) * 0.5)[1]
    unit = math.ldexp(0.5, -e)
    half_sq = (extent * unit) ** 2
    total_sq = float(half_sq.sum())
    best: tuple[float, int, float] | None = None  # (cost, dim, value)
    n_left = np.arange(1, m, dtype=np.float64)
    n_right = np.arange(m - 1, 0, -1, dtype=np.float64)
    for dim in range(coords.shape[1]):
        vals = np.sort(pts[:, dim])
        valid = vals[1:] > vals[:-1]
        if not valid.any():
            continue
        half_left = (vals[:-1] - vals[0]) * unit
        half_right = (vals[-1] - vals[1:]) * unit
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
    try:
        cost = math.ldexp(best[0], 2 * e)
    except OverflowError:
        cost = math.inf
    return SplitChoice(best[1], best[2], cost)


def ball_min_distance(node, q) -> float:
    """Lower bound on the distance from q to any point inside the ball, by `_ball_min_sq`."""
    c = coords_of(q)
    if c.shape[0] != node.center.shape[0]:
        raise ValueError(f"dimension mismatch: ball is {node.center.shape[0]}-D, query is {c.shape[0]}-D")
    return math.sqrt(_ball_min_sq(node.region, (c.tolist(), 0.0)))


def _ball_min_sq(a, b) -> float:
    """Squared gap between two ball snapshots (center as a Python list, radius)."""
    gap = math.dist(a[0], b[0]) - a[1] - b[1]
    return gap * gap if gap > 0.0 else 0.0


class BallNode(IndexNode):
    """One ball-tree node: a center and a radius covering its live points.

    Built as ``BallNode((center as a list, radius))``; that region snapshot
    is the ball's only copy, and the read-only `center` (a fresh array) and
    `radius` properties read it.
    """

    __slots__ = ()

    @property
    def center(self) -> np.ndarray:
        return np.array(self.region[0])

    @property
    def radius(self) -> float:
        return self.region[1]

    def child_for(self, c: np.ndarray) -> BallNode:
        # not `math.dist`: its rounding differs, and so would the child near ties
        cl = c.tolist()
        dl = dr = 0.0
        for x, lc, rc in zip(cl, self.left.region[0], self.right.region[0]):
            dl += (x - lc) * (x - lc)
            dr += (x - rc) * (x - rc)
        return self.left if dl <= dr else self.right


class BallTree(SpatialIndex):
    """Ball-tree over a dataset; same mutation and search contract as KdTree."""

    def _make_node(self, ids: np.ndarray) -> BallNode:
        pts = self._coords[ids]
        center = pts.mean(axis=0)
        return BallNode((center.tolist(), math.sqrt(float(sq_dists(pts, center).max()))))

    def _split(self, node: BallNode, ids: np.ndarray):
        choice = choose_split(ids, self._coords)
        mask = self._coords[ids, choice.dim] < choice.value
        left_ids, right_ids = ids[mask], ids[~mask]
        if len(left_ids) == 0 or len(right_ids) == 0:
            ordered = np.sort(ids)  # all points identical: half/half by id
            half = len(ids) // 2
            left_ids, right_ids = ordered[:half], ordered[half:]
        return left_ids, right_ids

    @staticmethod
    def _grow_path(path: list, c: np.ndarray) -> None:
        # (a - b)^2 == (b - a)^2 and sqrt rounds correctly, so each radius is
        # the canonical distance from its own center, as `audit` checks
        dists = np.sqrt(sq_dists(np.array([node.region[0] for node in path]), c)).tolist()
        for node, dist in zip(path, dists):
            if dist > node.region[1]:
                node.region = (node.region[0], dist)

    _region_min_sq = staticmethod(_ball_min_sq)

    @staticmethod
    def _point_region(c: list) -> tuple:
        return c, 0.0

    def _audit_region(self, node: BallNode, live: np.ndarray, parts: tuple) -> None:
        # exact: `_make_node` and `_grow_path` set each radius to at least the
        # canonical distance, computed as here, of every point the ball takes in
        if len(live):
            dists = np.sqrt(sq_dists(self._coords[live], node.center))
            if float(dists.max()) > node.radius:
                raise AssertionError(
                    f"point escapes ball: dist {dists.max()} > radius {node.radius}"
                )
        if node.radius < 0.0:
            raise AssertionError("negative radius")
