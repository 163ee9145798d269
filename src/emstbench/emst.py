"""Euclidean MST via dual-tree Boruvka over either spatial index, plus oracles.

Each Boruvka round asks a candidate finder for the minimum-weight outgoing
edge of every component under the package-wide total order (weight, min id,
max id), then merges the components those edges join.  With that order all
pair weights are distinct, the MST is unique, and `dual_tree_boruvka` (either
backend), `naive_boruvka`, and `kruskal_mst` must return the same edge set
exactly.  All routes reject, up front, coordinates whose squared pair
distances could overflow float64.

`dual_tree_boruvka` unions each round as arrays over a component label
array: every component hooks onto the label at the other end of its edge,
and pointer jumping relabels the points.  Under the strict total order the
chosen edges form a forest but for edges chosen from both ends.  Were there
a cycle of components C1 -> C2 -> ... -> Ck -> C1, each following its edge,
then Ci's edge e_i would be no heavier than e_(i-1), which also leaves Ci;
around the cycle all e_i would be one edge, and one edge joins only two
components.  So a round keeps one copy of each edge both ends chose, and the
smaller label of that pair stays the root: the kept edges are exactly those
the edge-by-edge DisjointSet loop of `naive_boruvka` accepts.

`dual_tree_boruvka` first collapses exact duplicates.  Each site is
represented by its smallest id; the representatives, kept in ascending id
order, are all the index holds, so (w, min id, max id) orders their pairs as
it orders the same pairs in the full set.  While no two distinct sites weigh
0, round 1 of the full set joins each other copy x of a site to the site's
smallest id r: x's lightest pairs are the 0-weight pairs within its site,
(r, x) has the least ids of them, and r's own pick (r, second copy) is that
copy's pick too.  A lone site picks the same pair at both levels, because
among one site's copies at equal weight the smallest id gives the least
(min id, max id); the same holds for the best pair between two components
from round 2 on, when every site lies inside one component.  So round 1
adds the stars (r, x) and the picks of lone sites only, later rounds run on
the representatives unchanged, and the round count is the full set's.  If
two distinct sites do weigh 0 (their squared difference underflows), stars
are wrong; the representatives' MST then holds a 0-weight edge, since the
lightest pair is in every MST, and the full set is run instead.

The dual-tree candidate finder first lists every point's exact 16 nearest
neighbours, once per index state, in one pass over (tree x tree) node pairs.
Every round is then answered from those lists.  For a fixed point the total
order reduces to (weight, other id), so a point's first list entry outside
its component is its exact best outgoing pair, and the least of those over a
component's members bounds the component.  A component is settled when every
member whose list lies wholly inside the component has a 16th weight strictly
greater than that bound; a tie leaves it unsettled.  Only unsettled
components go through the tree traversal, starting from their list bound.

Each list is one row of complex numbers, weight + 1j * id, padded with
inf - 1j: one sort of a row with its candidates orders it by (weight, id), so
a merge copies whole rows in and out.  A list-pass base case over two
distinct base nodes finds the entries either side may take in one pass over
its block, then splits, trims and orders them by side from those hits alone,
and merges them with the lists.  A self block, which pairs a base node with
itself, is its rows' first base case, since the traversal finishes both
children's self pairs before their cross pair: its lists hold only pads, so
it trims every row and fills the lists from its candidates alone.

The traversal prunes a node pair when both sides sit inside one component,
or when the region-to-region lower bound exceeds both sides' node bounds.
Settled components carry a bound of -inf, so a pair that holds no unsettled
component is pruned even at distance 0.  A base node's bound is the largest
current bound of the components (in the list pass: the points) it holds, an
internal node's the larger of its children's.  Each traversal sets them
bottom-up, and every base case lowers its two base nodes' bounds and then
their ancestors'.  A component's bound only falls, so a node bound left
stale, as when a base case elsewhere lowers a component that this node also
holds, is still an upper bound and every prune it allows is sound.  In the
list pass each point lies in one base node, whose base cases alone change
its list, so no bound is stale there.

Both base cases admit a point's block entries by one limit rule: the bound
of its component (in the list pass: its K-th weight) in block units, plus
the block's error window, rounded up to float32 and capped.  Rounding up
only admits more entries, the cap keeps the masked (infinite) entries out,
and a settled component's -inf bound admits none.

Small-enough subtrees become base cases: their cross-distance block is
computed as one float32 matrix product, which is fast but not
bitwise-canonical, so candidates are re-derived with the canonical kernel
`core.sq_dists` among everything within a rigorous floating-point error
window.  Weights stored and compared are therefore always canonical.  Both
base cases re-derive through `_rederive`, the engine's one way: `sq_dists`
on `np.take` gathers, a chunk at a time.

The block kernel is the only one, and serves data in any unit.  It centres
the coordinates on the midpoint m of the live bounding box, so its window
scales with the data's spread, not its distance from the origin; the
canonical kernel keeps the raw coordinates.  Centring rounds each coordinate
once, x' = (x - m)(1 + e) with |e| <= 2**-53, which moves a squared distance
by at most 4 * 2**-53 * (|x'|^2 + |y'|^2) up to a factor 1 + O(2**-52); the
window carries twice that, 2**-50 per unit of scale.  The kernel then scales
by 2**-e, e the least integer, but at least -460, that brings every
coordinate below 1 / sqrt(d), so squared norms stay below 1 and block values
below 4.  Powers of two scale exactly: canonical weights and bounds enter
block units by `np.ldexp(w, -2e)`, limits capped at 8 pass every block value
but never the infinite masked diagonal, and data times 2**k (e + k) gives
the same candidates.

Each base node keeps its points twice in float32: x^ = fl32(x') and
n^ = fl32(|x'|^2), the norm summed in float64, as a reference copy
[x^, n^, 1] and a query copy [-2 x^, 1, n^].  One matrix product of a query
copy with a reference copy gives the block n^_q + n^_r - 2 x^_q.x^_r as a
sum of d + 2 terms.  Doubling is exact in float32, subnormals included, so
the product's inputs are exactly x^ and n^; only the summation order is the
BLAS's.

A block of q against r has the window err32 * S + floor, S = max|q'|^2 +
max|r'|^2 in block units (float64), u = 2**-24.  Rounding the inputs moves
the sum by at most (u + d 2**-53) S through the norms and 2 (2u + u^2) |q'||r'|
<= (2u + u^2) S through the cross term.  The sum itself errs, in any order
and with or without fused multiply-adds, by at most gamma_(d+2) times the
sum of its terms' magnitudes, gamma_k = k u / (1 - k u) (Higham, "Accuracy
and Stability of Numerical Algorithms", 2nd ed., ch. 3), and those add to at
most 2 (1 + u)^2 S.  That is (2d + 7) u S to first order; err32 = 8 max(d, 2)
u, at least (2d + 9) u for every d >= 1, covers it with the higher-order
terms, plus centring.

Relative bounds fail on float32 subnormals (below 2**-126), such as the
products within a cluster far tighter than the data's spread; there a
rounding errs by up to 2**-150 absolute.  Each of the 2d coordinates rounded
to float32 moves its products by at most 2**-150 (|x'_i| < 1), doubled by
the -2; each of the d cross products rounds at most once, fused or not, with
the -2 inside it; the two norms round once each to float32, and their
products with 1.0 are exact; sums with a subnormal result are exact.  That
is (5d + 2) * 2**-150 in all.  The floor (4d + 8) * 2**-149 also covers
rounding the window itself to float32 and a canonical weight's float64
underflow, at most d * 2**-1075, which e >= -460 keeps below d * 2**-155.
The floor assumes that float32 BLAS keeps subnormals rather than flushing
them to zero; each engine checks this first (`_gemm_keeps_subnormals`).
"""

from __future__ import annotations

import math

import numpy as np

from .balltree import BallTree
from .core import Dataset, Edge, EdgeList, check_sq_range, cross_sq_dists, fmt17, sq_dists
from .index import DEFAULT_LEAF_CAPACITY, _PRUNE_EPS
from .kdtree import KdTree

__all__ = [
    "DisjointSet",
    "BACKENDS",
    "dual_tree_boruvka",
    "find_component_neighbors",
    "naive_boruvka",
    "kruskal_mst",
    "validate_spanning_tree",
    "format_edges",
    "write_edges",
]

BACKENDS = {"kd": KdTree, "ball": BallTree}

_PRUNE_FACTOR = 1.0 - _PRUNE_EPS  # never prune an exact boundary tie
_K = 16  # nearest neighbours cached per point across Boruvka rounds
# block kernel (module docstring): finite limit above every block value,
# least scaling exponent, and centring round-off per unit of scale
_THRESH_CAP = 8.0
_MIN_EXP = -460
_CENTRING_ERR = 2.0 ** -50
_PAD = complex(np.inf, -1)  # k-NN list pad: weight inf, id -1
_GATHER_ELEMS = 1 << 14  # coordinates per re-derivation gather


class DisjointSet:
    """Union-find with path halving and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.component_count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.component_count -= 1
        return True

    def roots_array(self) -> np.ndarray:
        """Component root of every element, resolved in bulk."""
        return _resolve_roots(np.array(self.parent, dtype=np.intp))


def _resolve_roots(parent: np.ndarray) -> np.ndarray:
    """Root of every element of a parent array, by pointer jumping."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component root of each id 0..n-1 under the edges (u[i], v[i]), as arrays.

    Components are named by root ids.  Each round every component with an
    edge to another hooks onto its least-named neighbour, a mutual pair keeps
    its smaller name as root, and `_resolve_roots` relabels.  The hooks form a
    forest but for mutual pairs: in a cycle C1 -> ... -> Ck -> C1 with k > 2,
    C(i+1) hooks onto C(i+2) though C(i) is its neighbour too, so C(i+2) <
    C(i) for every i, which cannot hold all around.  Every component with a
    neighbour merges each round, so their count at least halves: at most
    log2(n) rounds, even on a path, where spreading the least name takes n.
    """
    ids = labels = np.arange(n)
    while True:
        a, b = labels[u], labels[v]
        cross = a != b
        if not cross.any():
            return labels
        u, v, a, b = u[cross], v[cross], a[cross], b[cross]
        least = np.full(n, n)
        np.minimum.at(least, a, b)
        np.minimum.at(least, b, a)
        hook = np.where(least < n, least, ids)
        root = (hook[hook] == ids) & (ids < hook)  # the smaller of a mutual pair
        hook[root] = ids[root]
        labels = _resolve_roots(hook)[labels]


# ---------------------------------------------------------------------------
# dual-tree traversal engine


def _gemm_keeps_subnormals() -> bool:
    """Whether float32 GEMM, as `_block` calls it, keeps subnormal inputs and products."""
    q = np.array([[2.0**-70, 2.0**-130]] * 2, dtype=np.float32)
    r = np.array([[2.0**-70, 1.0]] * 2, dtype=np.float32)
    return bool((np.matmul(q, r.T).astype(np.float64) == 2.0**-130 + 2.0**-140).all())


def _base_capacity(d: int) -> int:
    # Region bounds barely prune in high dimensions, so trade traversal
    # granularity for large BLAS blocks as d grows.  The k-NN pass pays a
    # fixed cost per block, which favours blocks of a few hundred points.
    if d <= 6:
        return 256
    if d <= 20:
        return 512
    return 1024


class _NodeState:
    """Per-node traversal state: static geometry caches plus per-round marks.

    Every node is marked with `comp` and `bound`; base nodes also keep their
    points' `roots`.
    """

    __slots__ = (
        "base",
        "left",
        "right",
        "parent",
        "n_live",
        "ids",
        "query",
        "ref",
        "max_sqn",
        "region",
        "roots",
        "comp",
        "bound",
    )

    def __init__(self, node, base: bool, parent: int):
        self.base = base
        self.left = None
        self.right = None
        # the parent's index in the engine's node list, -1 at the root: an
        # index, not a reference, keeps the states free of reference cycles
        self.parent = parent
        self.n_live = node.n_live
        self.ids = None
        # float32 block-kernel copies of the points x, centred and scaled by
        # the engine's 2**-e, with their squared norms |x|^2 (module
        # docstring): [-2x, 1, |x|^2] as the query side of a block, [x, |x|^2,
        # 1] as its reference side, each a row slice of one engine-wide
        # array; the largest |x|^2 in float64
        self.query = None
        self.ref = None
        self.max_sqn = 0.0
        # the node's plain-Python region snapshot, read by the pair bound
        self.region = node.region
        self.roots = None
        self.comp = -1
        self.bound = -math.inf


class _DualTreeEngine:
    """Answers Boruvka rounds over one index from cached k-NN lists.

    The first round builds every live point's exact `_K` nearest neighbours
    with one dual-tree pass.  Each round then reads every component's bound
    off the lists, and only components the lists cannot settle go through a
    dual-tree traversal over (tree x tree) node pairs.
    """

    def __init__(self, tree):
        # no reference back to the index: the index holds the engine, and a
        # cycle would keep both alive until the cyclic collector runs
        if not _gemm_keeps_subnormals():
            raise RuntimeError("float32 BLAS flushes subnormals, which the block kernel's window assumes it does not")
        self.token = tree._mutations
        self.coords = tree.coords
        self.d = tree.d
        # the index's lower bound between two nodes' region snapshots
        self.region_min_sq = tree._region_min_sq
        base_cap = max(_base_capacity(tree.d), tree.leaf_capacity)
        # block-kernel error bound per unit of scale, and its subnormal floor
        self.err32 = 8.0 * max(tree.d, 2) * 2.0 ** -24 + _CENTRING_ERR
        self.err_floor = (4 * tree.d + 8) * 2.0 ** -149
        # the kernel works on centred coordinates times 2**-exp
        self.exp = 0
        # parents before children: reversed, the list runs bottom-up
        self.nodes = self._snapshot(tree.root, base_cap)
        self.root = self.nodes[0]
        bases = [s for s in self.nodes if s.base]
        live = [s.ids for s in bases]
        order = np.concatenate(live) if live else np.empty(0, dtype=np.intp)
        self.live = np.sort(order)
        self.max_id = int(self.live[-1]) if len(self.live) else -1
        # base node by base node, so each node's rows are one slice
        live_coords = self.coords[order]
        check_sq_range(live_coords)
        self._fill_fast(bases, live_coords)
        # row r holds live point live[r]: its `_K` nearest other points as
        # canonical squared weight + 1j * id, ascending by (weight, id);
        # `_PAD` pads short lists
        self.knn = None
        # canonical weights the k-NN list pass computed
        self.knn_rederived = 0
        # components the last round sent to the tree traversal
        self.fallback_components = 0

    def _snapshot(self, root, base_cap: int) -> list[_NodeState]:
        nodes: list[_NodeState] = []

        def make(node, parent: int) -> _NodeState:
            base = node.is_leaf or node.n_live <= base_cap
            state = _NodeState(node, base, parent)
            if base:
                state.ids = np.sort(np.array(node.collect_live_ids(), dtype=np.intp))
            else:
                stack.append((len(nodes), node))
            nodes.append(state)
            return state

        stack = []
        make(root, -1)
        while stack:
            i, node = stack.pop()
            nodes[i].left = make(node.left, i)
            nodes[i].right = make(node.right, i)
        return nodes

    def _fill_fast(self, bases: list, live_coords: np.ndarray) -> None:
        """Block-kernel copies of every base node, centred and scaled by 2**-exp.

        `live_coords` holds the base nodes' points in order; it is overwritten.
        """
        if not len(live_coords):
            return
        lo, hi = live_coords.min(axis=0), live_coords.max(axis=0)
        fast = live_coords
        fast -= lo + (hi - lo) / 2.0
        reach = max(float(fast.max()), -float(fast.min()))
        if reach > 0.0:
            self.exp = max(math.frexp(reach * math.sqrt(self.d))[1], _MIN_EXP)
        np.ldexp(fast, -self.exp, out=fast)
        sqn = np.einsum("ij,ij->i", fast, fast)
        ref = np.empty((len(fast), self.d + 2), dtype=np.float32)
        ref[:, :-2], ref[:, -2], ref[:, -1] = fast, sqn, 1.0
        query = np.empty_like(ref)
        # doubled after rounding: doubling is exact in float32
        np.multiply(ref[:, :-2], -2.0, out=query[:, :-2])
        query[:, -2], query[:, -1] = 1.0, ref[:, -2]
        start = 0
        for state in bases:
            stop = start + len(state.ids)
            if stop > start:  # empty nodes are never visited: the traversal skips them
                state.ref, state.query = ref[start:stop], query[start:stop]
                state.max_sqn = float(sqn[start:stop].max())
            start = stop

    @property
    def knn_w(self) -> np.ndarray:
        """Canonical squared weights of the lists, inf in pads (a view)."""
        return self.knn.real

    @property
    def knn_id(self) -> np.ndarray:
        """Ids of the lists, -1 in pads."""
        return self.knn.imag.astype(np.intp)

    def run_round(self, labels: np.ndarray):
        """Each component's best outgoing pair as (squared weight, u, v) arrays.

        `labels` names every point's component by an id in 0..n-1; entry c of the
        arrays holds component c's pair, and u = -1 where c names no component.
        """
        if self.knn is None:
            self._all_knn()
        n = len(labels)
        self.cand_sq = cand_sq = np.full(n, np.inf)
        self.cand_u = np.full(n, -1, dtype=np.int64)
        self.cand_v = np.full(n, -1, dtype=np.int64)
        unsettled = self._answer_from_lists(labels)
        self.fallback_components = len(unsettled)
        if len(unsettled):
            # Settled components keep their list answer: a bound of -inf makes
            # their rows never accept a block entry and prunes every node pair
            # that holds no unsettled component.
            settled = np.zeros(n, dtype=bool)
            settled[labels[self.live]] = True
            settled[unsettled] = False
            kept = cand_sq[settled]
            cand_sq[settled] = -np.inf
            self.bound = cand_sq
            self._mark(labels)
            self._visit(self.root, self.root, 0.0, self._base_case)
            cand_sq[settled] = kept
        return cand_sq, self.cand_u, self.cand_v

    def _all_knn(self) -> None:
        """One dual-tree pass filling every live point's `_K`-NN list."""
        rows = len(self.live)
        self.knn = np.full((rows, _K), _PAD)
        row_of = np.zeros(self.max_id + 1, dtype=np.intp)
        row_of[self.live] = np.arange(rows)
        # each point is its own component, named by its list row and bounded
        # by its current K-th weight; base nodes' `roots` are then list rows
        self.bound = self.knn.real[:, -1]
        self._mark(row_of)
        self._visit(self.root, self.root, 0.0, self._knn_base_case)

    def _answer_from_lists(self, roots_all: np.ndarray) -> np.ndarray:
        """Fill the candidates from the lists; return the unsettled components.

        A point's first list entry outside its component is its exact
        nearest outgoing pair, since for a fixed point the pair order
        (w, min id, max id) reduces to (w, other id).  A point whose list lies
        wholly inside its component can still hold the component's best edge
        unless its K-th weight exceeds the component's bound strictly.
        """
        live, ids, w = self.live, self.knn.imag, self.knn_w
        own = roots_all[live]
        # ids as integers a chunk of rows at a time: whole-list copies were
        # measured to set the EMST's peak memory at d=3
        outside = ids >= 0
        step = max(1, _GATHER_ELEMS // _K)
        for lo in range(0, len(live), step):
            nbr = ids[lo : lo + step].astype(np.intp)
            outside[lo : lo + step] &= roots_all[nbr] != own[lo : lo + step, None]
        has = outside.any(axis=1)
        rows = np.nonzero(has)[0]
        first = outside[rows].argmax(axis=1)
        self._offer(own[rows], live[rows], ids[rows, first].astype(np.intp), w[rows, first])
        blocked = ~has & (w[:, -1] <= self.cand_sq[own])
        # distinct, ascending: `np.unique` imports `numpy.ma` (1.6 MB) on first use
        return np.flatnonzero(np.bincount(own[blocked]))

    def _mark(self, roots_all: np.ndarray) -> None:
        """Mark every node's component and bound for the current partition.

        A base node's bound is the largest bound of its points' components,
        an internal node's the larger of its children's.
        """
        bound = self.bound
        for state in reversed(self.nodes):
            if not state.base:
                ls, rs = state.left, state.right
                state.comp = ls.comp if ls.comp >= 0 and ls.comp == rs.comp else -1
                state.bound = max(ls.bound, rs.bound)
            elif len(state.ids):
                roots = state.roots = roots_all[state.ids]
                state.comp = int(roots[0]) if (roots == roots[0]).all() else -1
                state.bound = float(bound[roots].max())

    def _lower(self, state: _NodeState) -> None:
        """Refresh a base node's bound after a base case, and its ancestors'."""
        nodes = self.nodes
        new = float(self.bound[state.roots].max())
        while new < state.bound:
            state.bound = new
            if state.parent < 0:
                break
            state = nodes[state.parent]
            new = max(state.left.bound, state.right.bound)

    def _visit(self, a: _NodeState, b: _NodeState, dmin: float, base_case) -> None:
        # depth-first over node pairs, nearest child pair descended first;
        # an explicit stack (farthest pushed first) reproduces that order
        # without recursion-depth limits on lopsided trees
        min_sq = self.region_min_sq
        stack = [(dmin, a, b)]
        while stack:
            dmin, a, b = stack.pop()
            if a.n_live == 0 or b.n_live == 0:
                continue
            acomp = a.comp
            if acomp >= 0 and acomp == b.comp:
                continue
            limit = dmin * _PRUNE_FACTOR
            if limit > a.bound and limit > b.bound:
                continue
            if a.base:
                if b.base:
                    base_case(a, b)
                    self._lower(a)
                    if b is not a:
                        self._lower(b)
                    continue
                pairs = ((a, b.left), (a, b.right))
            elif b.base:
                pairs = ((a.left, b), (a.right, b))
            elif a is b:
                # self pairs are popped first, so a base node's self block is
                # its rows' first base case: `_knn_base_case` fills empty lists
                left, right = a.left, a.right
                stack.append((min_sq(left.region, right.region), left, right))
                stack.append((0.0, right, right))
                stack.append((0.0, left, left))
                continue
            else:
                pairs = (
                    (a.left, b.left),
                    (a.left, b.right),
                    (a.right, b.left),
                    (a.right, b.right),
                )
            scored = sorted(
                ((min_sq(x.region, y.region), i) for i, (x, y) in enumerate(pairs)), reverse=True
            )
            for d, i in scored:
                stack.append((d, *pairs[i]))

    def _block(self, qs: _NodeState, rs: _NodeState):
        """Scaled squared-distance block |q|^2 + |r|^2 - 2 q.r and its error bound.

        One float32 matrix product of the query copy of `qs` with the
        reference copy of `rs` (module docstring), a fresh array that the
        base case may overwrite.
        """
        err = self.err32 * (qs.max_sqn + rs.max_sqn) + self.err_floor
        return np.matmul(qs.query, rs.ref.T), err

    def _knn_base_case(self, qs: _NodeState, rs: _NodeState) -> None:
        w, err = self._block(qs, rs)
        if qs is rs:
            np.fill_diagonal(w, np.inf)
            own, other = self._knn_candidates(w, self._limits(qs, err), err)
            p, q, keep = qs.roots[own], qs.ids[other], 0
        else:
            (i, j), (jr, ir) = self._knn_cross_candidates(
                w, self._limits(qs, err), self._limits(rs, err), err
            )
            p = np.concatenate((qs.roots[i], rs.roots[jr]))
            q = np.concatenate((rs.ids[j], qs.ids[ir]))
            keep = _K
        if len(p):
            self._knn_merge(p, q, keep)

    def _limits(self, s: _NodeState, err: float) -> np.ndarray:
        """Per-point limits on block values, by the one limit rule (module docstring)."""
        limits = np.ldexp(self.bound[s.roots], -2 * self.exp) + err
        limits = np.minimum(limits, _THRESH_CAP).astype(np.float32)
        return np.nextafter(limits, np.float32(np.inf))

    @staticmethod
    def _knn_candidates(w, limits, err: float):
        """Entries (row, column) of a self block `w` that may enter the row's list.

        The pairs come row by row, each row's in ascending column order.  An
        entry can enter a row's list only if its canonical weight is at most
        the row's current K-th weight and at most the row's K-th smallest
        canonical weight in this block; within the error window that means a
        fast value <= min(K-th + err, K-th smallest fast value + 2 err).  With
        more than K columns every row is trimmed at the latter: a row with
        at most K hits loses none, as its hits are its smallest values.  The
        finite limits also exclude the masked (infinite) diagonal.
        """
        if w.shape[1] > _K:
            limits = np.minimum(limits, np.partition(w, _K - 1, axis=1)[:, _K - 1] + 2.0 * err)
        return np.divmod(np.flatnonzero(w <= limits[:, None]), w.shape[1])

    @staticmethod
    def _knn_cross_candidates(w, lq, lr, err: float):
        """`_knn_candidates` of a cross block for both sides, in one pass over it.

        Returns (row, column) pairs for the row owners, with limits `lq`, and
        (column, row) pairs for the column owners, with limits `lr`, each in
        the order `_knn_candidates(w, lq, err)` and `_knn_candidates(w.T, lr,
        err)` give.  One pass finds the entries either side may take; the
        rest works on those hits alone, apart from the K-th smallest value of
        a crowded owner.
        """
        hits = np.flatnonzero((w <= lq[:, None]) | (w <= lr[None, :]))
        vals = w.ravel()[hits]
        i, j = np.divmod(hits, w.shape[1])
        mine, theirs = vals <= lq[i], vals <= lr[j]
        _trim_crowded(w, i, mine, vals, err)
        _trim_crowded(w.T, j, theirs, vals, err)
        ir, jr = i[theirs], j[theirs]
        # a stable sort of 16-bit keys is a radix sort
        order = np.argsort(jr.astype(np.uint16) if w.shape[1] <= 1 << 16 else jr, kind="stable")
        return (i[mine], j[mine]), (jr[order], ir[order])

    def _knn_merge(self, p: np.ndarray, q: np.ndarray, keep: int) -> None:
        """Merge candidates (list row p, point id q) into the lists with one sort.

        Each touched list is copied into one padded row of at least K entries:
        its first `keep` entries, then its candidates, as complex numbers
        weight + 1j * id.  `keep` is K for a cross block; a self block passes
        0, as it fills lists that hold only pads (`_visit`).  NumPy orders
        complex values by real part, then imaginary part, so one sort along
        the rows orders every row by (weight, id); ids stay below 2**53,
        exact in the imaginary part.  The K first entries of a row are its
        merged list.  The canonical weights are re-derived by `_rederive`.

        Each row's candidates must lie contiguously in `p`, as
        `_knn_base_case` hands them over: one ascending run of rows for a
        self block, else two ascending runs over the disjoint rows of its two
        base nodes.
        """
        m = len(p)
        cand = np.empty(m, complex)
        cand.imag = q
        self._rederive(self.live[p], q, cand.real)
        self.knn_rederived += m
        heads = np.ones(m, dtype=bool)
        heads[1:] = p[1:] != p[:-1]
        group = np.cumsum(heads) - 1
        first = np.flatnonzero(heads)
        prow = p[first]
        col = keep + np.arange(m) - first[group]
        rows = np.full((len(prow), max(_K, int(col.max()) + 1)), _PAD)
        rows[:, :keep] = self.knn[prow, :keep]
        rows[group, col] = cand
        rows.sort(axis=1)
        self.knn[prow] = rows[:, :_K]

    def _rederive(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """Canonical squared weights of pairs (a[i], b[i]) into `out`, by chunks.

        Whole gathers were measured to raise peak RSS by 0.9 MB on a self
        block at d=15 and by 30 MB on a fallback block of heavy duplicates.
        """
        step = max(1, _GATHER_ELEMS // self.d)
        for lo in range(0, len(a), step):
            ga = np.take(self.coords, a[lo : lo + step], axis=0, mode="clip")
            gb = np.take(self.coords, b[lo : lo + step], axis=0, mode="clip")
            out[lo : lo + step] = sq_dists(ga, gb)

    def _base_case(self, qs: _NodeState, rs: _NodeState) -> None:
        w, err = self._block(qs, rs)
        if qs.comp < 0 or rs.comp < 0:  # else the pair spans two components entirely
            w[qs.roots[:, None] == rs.roots[None, :]] = np.inf
        self._update_side(w, qs, rs, err)
        if qs is not rs:
            self._update_side(w.T, rs, qs, err)

    def _update_side(self, w, qs: _NodeState, rs: _NodeState, err: float) -> None:
        best_w = w.min(axis=1)
        rows = np.nonzero(best_w <= self._limits(qs, err))[0]
        if not len(rows):
            return
        # every pair whose canonical weight could win sits within 2*err of
        # its row's block optimum; re-derive those with the exact kernel
        near = w[rows] <= (best_w[rows] + 2.0 * err)[:, None]
        ri, cols = np.nonzero(near)
        qi = rows[ri]
        qid, rid = qs.ids[qi], rs.ids[cols]
        sq = np.empty(len(qid))
        self._rederive(qid, rid, sq)
        self._offer(qs.roots[qi], qid, rid, sq)

    def _offer(self, comp: np.ndarray, p: np.ndarray, q: np.ndarray, w: np.ndarray) -> None:
        """Offer pairs (p, q) of canonical squared weight w to components `comp`.

        The candidate rule: each component's least offered pair under (w, min
        id, max id) replaces its current candidate only if it is less.
        """
        u, v = np.minimum(p, q), np.maximum(p, q)
        best = _least_per_group(comp, w, u, v)
        c, nw, nu, nv = comp[best], w[best], u[best], v[best]
        cw, cu = self.cand_sq[c], self.cand_u[c]
        better = (nw < cw) | ((nw == cw) & ((nu < cu) | ((nu == cu) & (nv < self.cand_v[c]))))
        c = c[better]
        self.cand_sq[c] = nw[better]
        self.cand_u[c] = nu[better]
        self.cand_v[c] = nv[better]


def _trim_crowded(wo, owner: np.ndarray, keep: np.ndarray, vals: np.ndarray, err: float) -> None:
    """Clear `keep` at hits beyond their owner's K-th smallest value + 2 err.

    Owners are the rows of `wo`; hit h, of value vals[h], belongs to owner[h]
    and counts where keep[h] is set.  Only owners with more than K such hits
    are trimmed: an owner with at most K would lose none of them.
    """
    crowded = np.flatnonzero(np.bincount(owner[keep], minlength=len(wo)) > _K)
    if len(crowded):
        cap = np.full(len(wo), np.inf, dtype=np.float32)
        cap[crowded] = np.partition(wo[crowded], _K - 1, axis=1)[:, _K - 1] + 2.0 * err
        keep &= vals <= cap[owner]


def _least_per_group(group: np.ndarray, w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Index of each group's least entry under (w, u, v), groups ascending.

    Sort-free: one `np.minimum.at` pass per key keeps the entries that equal
    their group's least key among the entries the passes before kept, and
    the least kept index of each group, ascending by group, answers once no
    group keeps two entries (after all three keys: the first of full ties).
    """
    n = len(group)
    if not n:
        return np.empty(0, dtype=np.intp)
    size = int(group.max()) + 1
    kept, g = np.arange(n), group
    for key in (w, u, v):
        k = key[kept]
        least = np.empty(size, k.dtype)
        least[g] = k  # each present group starts at one of its own keys
        np.minimum.at(least, g, k)
        tie = k == least[g]
        kept, g = kept[tie], g[tie]
        first = np.full(size, n)
        np.minimum.at(first, g, kept)
        first = first[first < n]
        if len(first) == len(kept):
            break
    return first


def _engine_for(index) -> _DualTreeEngine:
    engine = getattr(index, "_emst_engine", None)
    if engine is None or engine.token != index._mutations:
        engine = _DualTreeEngine(index)
        index._emst_engine = engine
    return engine


def find_component_neighbors(index, dsu: DisjointSet) -> dict[int, Edge]:
    """One Boruvka round: each component's nearest edge into any other component.

    Returns a map from component root id to that component's best outgoing
    edge under the total order.  The index must cover ids 0..n-1 of the same
    dataset the DisjointSet was built for and must not be mutated mid-round.
    The first call on an index state builds the k-NN lists the rounds are
    answered from; components the lists cannot settle take a dual-tree pass.
    """
    if dsu.component_count < 2:
        raise ValueError("need at least 2 components to have outgoing edges")
    n = len(dsu.parent)
    engine = _engine_for(index)
    if engine.max_id >= n:
        raise ValueError(
            f"index holds id {engine.max_id} but the disjoint set covers only 0..{n - 1}"
        )
    cand_sq, cand_u, cand_v = engine.run_round(dsu.roots_array())
    out: dict[int, Edge] = {}
    for root in np.nonzero(cand_u >= 0)[0].tolist():
        out[root] = Edge(int(cand_u[root]), int(cand_v[root]), math.sqrt(float(cand_sq[root])))
    return out


# ---------------------------------------------------------------------------
# Boruvka drivers and oracles


def _duplicate_sites(coords: np.ndarray):
    """Exact duplicates grouped by site, or None when every point is distinct.

    Returns the representatives (each site's smallest id, ascending), which
    of them stand alone on their site, and every point's representative.
    Adding 0.0 folds -0.0 into 0.0 before the rows are compared as bytes.
    """
    key = np.ascontiguousarray(coords + 0.0)
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    if len(first) == len(coords):
        return None
    order = np.argsort(first)
    return first[order], counts[order] == 1, first[inverse]


def _boruvka_edges(engine: _DualTreeEngine, n: int, lone: np.ndarray | None = None):
    """MST edges as (u, v, squared weight) arrays and the round count.

    Each round is unioned as arrays over component labels.  With `lone`
    given, the points are the representatives of duplicate sites and round 1
    is the full set's: only the sites marked lone choose an edge, and every
    other site is joined that round by its star (module docstring).
    """
    labels = np.arange(n)
    us, vs, sqs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    found = rounds = 0
    if lone is not None and not lone.any():
        rounds, lone = 1, None  # round 1 adds stars only
    while found < n - 1:
        cand_sq, cand_u, cand_v = engine.run_round(labels)
        if lone is not None:
            cand_u[~lone] = -1
            lone = None
        rounds += 1
        comp = np.flatnonzero(cand_u >= 0)
        u, v = cand_u[comp], cand_v[comp]
        other = np.where(labels[u] == comp, labels[v], labels[u])
        # the edges chosen form a forest but for edges chosen from both ends
        # (module docstring): keep one copy, and its smaller label as root
        mutual = (cand_u[other] == u) & (cand_v[other] == v)
        root = mutual & (comp < other)
        keep = ~mutual | root
        if not keep.any():
            raise RuntimeError("Boruvka round made no progress")  # unreachable
        hook = np.arange(n)
        hook[comp] = np.where(root, comp, other)
        labels = _resolve_roots(hook)[labels]
        us.append(u[keep])
        vs.append(v[keep])
        sqs.append(cand_sq[comp[keep]])
        found += len(us[-1])
    return np.concatenate(us), np.concatenate(vs), np.concatenate(sqs), rounds


def dual_tree_boruvka(
    ds: Dataset,
    backend: str = "kd",
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    return_rounds: bool = False,
):
    """Exact EMST by Boruvka rounds with dual-tree candidate search.

    Exact duplicates are collapsed first: the index holds one representative
    per site, and every other copy joins its representative by a 0-weight
    star edge.  The chosen index is built once, then the engine round behind
    `find_component_neighbors` runs and its edges are unioned as arrays until
    one component remains.  With `return_rounds=True` also returns the
    number of rounds, the same as Boruvka over the full set takes.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {sorted(BACKENDS)}")
    check_sq_range(ds.coords)
    sites = _duplicate_sites(ds.coords)
    if sites is not None:
        reps, lone, rep_of = sites
        index = BACKENDS[backend](Dataset(ds.coords[reps]), leaf_capacity)
        u, v, sq, rounds = _boruvka_edges(_engine_for(index), len(reps), lone)
        if (sq == 0.0).any():
            sites = None  # distinct sites at weight 0: stars are not exact (module docstring)
        else:
            # stars first: edges stay in the order of the rounds that add them
            stars = np.flatnonzero(rep_of != np.arange(ds.n))
            u = np.concatenate((rep_of[stars], reps[u]))
            v = np.concatenate((stars, reps[v]))
            sq = np.concatenate((np.zeros(len(stars)), sq))
    if sites is None:
        index = BACKENDS[backend](ds, leaf_capacity)
        u, v, sq, rounds = _boruvka_edges(_engine_for(index), ds.n)
    result = EdgeList(u, v, np.sqrt(sq))
    return (result, rounds) if return_rounds else result


def _naive_candidates(sq: np.ndarray, dsu: DisjointSet) -> dict[int, Edge]:
    """Each component's best outgoing edge by an exhaustive scan of `sq`."""
    n = len(sq)
    roots = dsu.roots_array()
    masked = np.where(roots[:, None] == roots[None, :], np.inf, sq)
    best_j = np.argmin(masked, axis=1)
    best_w = masked[np.arange(n), best_j]
    best: dict[int, tuple[float, int, int]] = {}
    for i in range(n):
        w = float(best_w[i])
        if w == np.inf:
            continue
        j = int(best_j[i])
        u, v = (i, j) if i < j else (j, i)
        comp = int(roots[i])
        cur = best.get(comp)
        if cur is None or (w, u, v) < cur:
            best[comp] = (w, u, v)
    return {c: Edge(u, v, math.sqrt(w)) for c, (w, u, v) in best.items()}


def naive_boruvka(ds: Dataset, return_rounds: bool = False):
    """Boruvka with per-round exhaustive all-pairs candidate scans.

    Quadratic per round; the mid-level oracle for the dual-tree path.  Its
    rounds are unioned edge by edge through a DisjointSet, independently of
    the array driver of `dual_tree_boruvka`.
    """
    n = ds.n
    rounds = 0
    edges: list[Edge] = []
    if n > 1:
        check_sq_range(ds.coords)
        sq = cross_sq_dists(ds.coords, ds.coords)
        dsu = DisjointSet(n)
        while dsu.component_count > 1:
            candidates = _naive_candidates(sq, dsu)
            rounds += 1
            before = dsu.component_count
            for root in sorted(candidates):
                edge = candidates[root]
                if dsu.union(edge.u, edge.v):
                    edges.append(edge)
            if dsu.component_count == before:
                raise RuntimeError("Boruvka round made no progress")  # unreachable
    result = EdgeList.from_edges(edges)
    return (result, rounds) if return_rounds else result


def kruskal_mst(ds: Dataset) -> EdgeList:
    """Ground-truth MST: sort all pairs by the total order, union greedily.

    Materializes the full pair set, so intended for modest n (a few thousand).
    """
    n = ds.n
    if n == 1:
        return EdgeList.from_edges([])
    check_sq_range(ds.coords)
    sq = cross_sq_dists(ds.coords, ds.coords)
    iu, ju = np.triu_indices(n, 1)
    weights = sq[iu, ju]
    order = np.lexsort((ju, iu, weights))
    dsu = DisjointSet(n)
    edges: list[Edge] = []
    for idx in order.tolist():
        u, v = int(iu[idx]), int(ju[idx])
        if dsu.union(u, v):
            edges.append(Edge(u, v, math.sqrt(float(weights[idx]))))
            if len(edges) == n - 1:
                break
    return EdgeList.from_edges(edges)


# ---------------------------------------------------------------------------
# validation and the edge file format


def validate_spanning_tree(edgelist: EdgeList, n: int) -> None:
    """Raise ValueError unless the edges form a spanning tree over ids 0..n-1.

    n - 1 edges in range that leave more than one component close a cycle.
    """
    u, v = edgelist.u, edgelist.v
    if len(u) != n - 1:
        raise ValueError(f"spanning tree over {n} points needs {n - 1} edges, got {len(u)}")
    bad = (u < 0) | (v >= n)  # u < v on every edge
    if bad.any():
        raise ValueError(f"edge ({u[bad][0]}, {v[bad][0]}) references ids outside 0..{n - 1}")
    parts = np.count_nonzero(_component_roots(n, u, v) == np.arange(n))
    if parts > 1:
        raise ValueError(f"the {n - 1} edges leave {parts} components, so they close a cycle")


def format_edges(edgelist: EdgeList) -> str:
    """Edge file: 'u,v,weight' lines ascending by the total order, then the total."""
    u, v, w = (a[edgelist.order()].tolist() for a in (edgelist.u, edgelist.v, edgelist.w))
    lines = [f"{a},{b},{fmt17(x)}" for a, b, x in zip(u, v, w)]
    lines.append(f"# total_weight={fmt17(edgelist.total_weight)}")
    return "\n".join(lines) + "\n"


def write_edges(edgelist: EdgeList, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edges(edgelist))
