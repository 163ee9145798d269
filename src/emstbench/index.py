"""Shared spatial-index core: bookkeeping, insertion, deletion, exact k-NN, audit.

`SpatialIndex` holds everything that does not depend on the shape of a
node's region: the coordinate buffer indexed by id, the id -> leaf map, the
top-down build loop, insertion, tombstone deletion with subtree rebuilds,
best-first k-NN and the structural audit.  A concrete index supplies only
its geometry, following the tree / prune-rule / base-case split of Curtin
et al., "Tree-Independent Dual-Tree Algorithms" (ICML 2013):

* the index: `_make_node(ids)` (a node bounding those points), `_split(node,
  ids)` (the two child id sets), `_audit_region(node, live, parts)` (its own
  audit checks on its live ids and its children's), `_region_min_sq(a, b)`
  (squared lower bound between two region snapshots, in plain Python floats)
  and `_point_region(c)` (a point as a degenerate snapshot, so one bound
  serves node-to-point and node-to-node);
* the node: `region` (its snapshot, kept current by every change),
  `child_for(c)` (the child an inserted point descends into), `include(c,
  alone)` (grow the region to take c in; `alone` when c is its only point)
  and `empty_copy()` (the empty leaf that replaces a subtree whose points
  are all deleted).

One snapshot per node serves `knn`, insertion and the EMST engine, so no
search converts a node's region per visit.  `knn` is best-first (distance
browsing as in Hjaltason & Samet, ACM TODS 1999): nodes leave a heap in
order of their bound, and the search stops once the nearest bound left
exceeds the current k-th distance.

No whole-tree pass recurses, since inserts never rebalance and a stream
along a line grows a tree a thousand levels deep.  `IndexNode.walk` yields
a subtree in pre-order, left before right; `audit` runs it backwards, children
first, and checks a leaf's `n_live` against its ids and an internal node's
stored counts against the sums of its children's stored counts.

Deletion is lazy: the id is dropped from its leaf and counted as a
tombstone; once tombstones outnumber live points anywhere on the
root-to-leaf path, that whole subtree is rebuilt from its live points.
Regions only ever grow between rebuilds, so they stay valid (if loose)
under any mutation sequence.  A child refers to its parent weakly, so a
dropped index is freed by reference counting alone.
"""

from __future__ import annotations

import heapq
import math
import weakref

import numpy as np

from .core import Dataset, Point, coords_of, sq_dists

__all__ = ["IndexNode", "SpatialIndex"]

# Relative slack applied before discarding a node during search: rounding in
# the bound arithmetic must never prune a point that ties the k-th best.
_PRUNE_EPS = 1e-12
DEFAULT_LEAF_CAPACITY = 20  # the points a leaf holds before it splits, unless set


def _no_parent() -> None:
    return None


class IndexNode:
    """One index node; a leaf iff `ids` is not None.

    `region` is the plain-Python snapshot of the node's bound that the
    subclass defines and `_region_min_sq` reads.
    """

    __slots__ = (
        "_parent", "left", "right", "ids", "n_live", "n_tomb", "_arr", "region", "__weakref__",
    )

    def __init__(self, region):
        # a weak reference to the parent, or `_no_parent` for a root: a strong
        # child -> parent link would make every tree a reference cycle
        self._parent = _no_parent
        self.left = None
        self.right = None
        self.ids: list[int] | None = None
        self.n_live = 0
        self.n_tomb = 0
        self._arr = None
        self.region = region

    @property
    def parent(self) -> IndexNode | None:
        return self._parent()

    @parent.setter
    def parent(self, node: IndexNode | None) -> None:
        self._parent = _no_parent if node is None else weakref.ref(node)

    @property
    def is_leaf(self) -> bool:
        return self.ids is not None

    def ids_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.ids, dtype=np.intp)
        return self._arr

    def walk(self):
        """This subtree's nodes in pre-order, left before right, without recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.ids is None:
                stack.append(node.right)
                stack.append(node.left)

    def collect_live_ids(self) -> list[int]:
        out: list[int] = []
        for node in self.walk():
            if node.ids is not None:
                out.extend(node.ids)
        return out


class SpatialIndex:
    """Binary space-partitioning index supporting insert, delete, and exact k-NN.

    Point coordinates live in a private growable buffer indexed by id, so
    inserted points may carry any id not currently live.  Fresh ids must stay
    dense (e.g. n, n+1, ...): an insert whose id would more than double the
    buffer raises ValueError.  Concurrent reads are safe; mutations need
    exclusive access.
    """

    def __init__(self, dataset: Dataset, leaf_capacity: int = DEFAULT_LEAF_CAPACITY):
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        self.leaf_capacity = leaf_capacity
        self.d = dataset.d
        self._coords = np.array(dataset.coords)  # row index == point id
        self._leaf_of: dict[int, IndexNode] = {}
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
        level, depth = [self.root], 0
        while True:
            level = [c for node in level if not node.is_leaf for c in (node.left, node.right)]
            if not level:
                return depth
            depth += 1

    # -- construction -------------------------------------------------------

    def _build(self, ids: np.ndarray) -> IndexNode:
        # iterative: splits can be arbitrarily lopsided, so the work stack
        # keeps pathological inputs off the Python call stack
        root = self._make_node(ids)
        root.n_live = len(ids)
        stack = [(root, ids)]
        while stack:
            node, ids = stack.pop()
            if len(ids) <= self.leaf_capacity:
                node.ids = ids.tolist()
                for i in node.ids:
                    self._leaf_of[i] = node
                continue
            left_ids, right_ids = self._split(node, ids)
            node.left, node.right = self._make_node(left_ids), self._make_node(right_ids)
            for child, child_ids in ((node.left, left_ids), (node.right, right_ids)):
                child.n_live = len(child_ids)
                child.parent = node
                stack.append((child, child_ids))
        return root

    # -- mutation -----------------------------------------------------------

    def insert(self, p: Point) -> None:
        """Insert a point, growing every region on its path; splits an overflowing leaf."""
        c = p.coords
        if c.shape[0] != self.d:
            raise ValueError(f"dimension mismatch: tree is {self.d}-D, point is {c.shape[0]}-D")
        if p.id in self._leaf_of:
            raise ValueError(f"id {p.id} is already live in the tree")
        self._store_coords(p.id, c)

        node = self.root
        while True:
            node.n_live += 1
            node.include(c, node.is_leaf and node.n_live == 1)
            if node.is_leaf:
                break
            node = node.child_for(c)

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
            node = node._parent()
        if trigger is not None:
            live = np.array(trigger.collect_live_ids(), dtype=np.intp)
            self._replace_subtree(trigger, live)
        self._mutations += 1

    def _store_coords(self, point_id: int, c: np.ndarray) -> None:
        if point_id >= self._coords.shape[0]:
            # refuse a sparse id before allocating a buffer dense up to it
            if point_id >= 2 * self._coords.shape[0]:
                raise ValueError(
                    f"id {point_id} is too sparse: the coordinate buffer holds "
                    f"{self._coords.shape[0]} rows and may at most double per insert"
                )
            grow = 2 * self._coords.shape[0]
            fresh = np.empty((grow, self.d))
            fresh[: self._coords.shape[0]] = self._coords
            self._coords = fresh
        self._coords[point_id] = c

    def _replace_subtree(self, old: IndexNode, live: np.ndarray) -> None:
        """Rebuild `old` from `live` ids and splice the result into its place."""
        if len(live):
            fresh = self._build(live)
        else:
            fresh = old.empty_copy()
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

    # -- search -------------------------------------------------------------

    def knn(self, q, k: int) -> list[tuple[int, float]]:
        """The exact k nearest live points to q, ascending by (distance, id).

        Raises ValueError for a non-finite query, and when a distance in the
        answer overflows float64: such distances all read inf, so their
        order, and which points they are, would be arbitrary.
        """
        c = coords_of(q)
        if c.shape[0] != self.d:
            raise ValueError(f"dimension mismatch: tree is {self.d}-D, query is {c.shape[0]}-D")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not np.isfinite(c).all():
            raise ValueError("query has non-finite coordinates")
        if self.root.n_live == 0:
            return []

        target = self._point_region(c.tolist())
        min_sq = self._region_min_sq
        heap: list[tuple[float, int]] = []  # (-squared distance, -id): root of heap = current worst
        frontier = [(0.0, 0, self.root)]  # (bound, push order, node), nearest bound first
        pushed = 0
        while frontier:
            dist, _, node = heapq.heappop(frontier)
            if len(heap) == k and dist * (1.0 - _PRUNE_EPS) > -heap[0][0]:
                break  # every node left is at least this far
            ids = node.ids
            if ids is None:
                for child in (node.left, node.right):
                    if child.n_live:
                        pushed += 1
                        heapq.heappush(frontier, (min_sq(child.region, target), pushed, child))
                continue
            with np.errstate(over="ignore"):  # an overflow reads inf; see the check below
                sqs = sq_dists(self._coords[node.ids_array()], c)
            # admission under (distance, id): every point until the heap holds
            # k, then only points no farther than the k-th best
            worst = -heap[0][0] if len(heap) == k else math.inf
            for j in np.nonzero(sqs <= worst)[0].tolist():
                sq, i = sqs.item(j), ids[j]
                if len(heap) < k:
                    heapq.heappush(heap, (-sq, -i))
                elif (sq, i) < (-heap[0][0], -heap[0][1]):
                    heapq.heapreplace(heap, (-sq, -i))

        if -heap[0][0] == math.inf:
            raise ValueError(
                "squared distances from the query overflow float64; rescale the data and query"
            )
        out = [(-i, math.sqrt(-negsq)) for negsq, i in heap]
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    # -- verification -------------------------------------------------------

    def audit(self) -> None:
        """Walk the whole tree and verify every structural invariant.

        Raises AssertionError on the first violation; used by tests after
        mutation sequences.  Counts, parent links, leaf capacity and the id
        index are checked here; `_audit_region` checks each node's region.
        """
        seen: dict[int, IndexNode] = {}
        below: dict[IndexNode, np.ndarray] = {}  # a subtree's live ids, until its parent joins them
        for node in reversed(list(self.root.walk())):
            parts = () if node.is_leaf else (below.pop(node.left), below.pop(node.right))
            live = below[node] = np.concatenate(parts) if parts else np.array(node.ids, dtype=np.intp)
            self._audit_region(node, live, parts)
            if node.is_leaf:
                if len(node.ids) > self.leaf_capacity:
                    raise AssertionError(f"leaf holds {len(node.ids)} > capacity {self.leaf_capacity}")
                if node.n_live != len(node.ids):
                    raise AssertionError("leaf live count out of sync with its id list")
                for i in node.ids:
                    if i in seen:
                        raise AssertionError(f"id {i} appears in more than one leaf")
                    seen[i] = node
                continue
            left, right = node.left, node.right
            if left.parent is not node or right.parent is not node:
                raise AssertionError("broken parent link")
            if node.n_live != left.n_live + right.n_live:
                raise AssertionError("internal live count != sum of children")
            if node.n_tomb != left.n_tomb + right.n_tomb:
                raise AssertionError("internal tombstone count != sum of children")
        if seen.keys() != self._leaf_of.keys():
            raise AssertionError("leaf contents out of sync with the id index")
        for i, leaf in seen.items():
            if self._leaf_of[i] is not leaf:
                raise AssertionError(f"id index points id {i} at the wrong leaf")
        if self.size != len(seen):
            raise AssertionError("tree size out of sync with live ids")
