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
the edge-by-edge DisjointSet loop of `naive_boruvka` accepts.  Wrong
candidates could close a longer cycle; pointer jumping then raises.

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
children's self pairs before their cross pair and never fuses a self pair:
its lists hold only pads, so it trims every row and fills the lists from its
candidates alone.

The traversal prunes a node pair when both sides sit inside one component,
or when the region-to-region lower bound exceeds both sides' node bounds.
Settled components carry a bound of -inf, so a pair that holds no unsettled
component is pruned even at distance 0.  A base node's bound is the largest
current bound of the components (in the list pass: the points) it holds, an
internal node's the larger of its children's.  Each traversal sets them
bottom-up, and every base case lowers the bounds of the base nodes it
covers and then their ancestors'.  A component's bound only falls, so a node
bound left stale, as when a base case elsewhere lowers a component that this
node also holds, is still an upper bound and every prune it allows is sound.
In the list pass each point lies in one base node, and only base cases that
cover that node change its list, so no bound is stale there.

Cross blocks and fallback blocks admit a point's block entries by one limit
rule: the bound of its component (in the list pass: its K-th weight) in block
units, plus the block's error window, rounded up to float32 and capped.
Rounding up only admits more entries, the cap keeps the masked (infinite)
entries out, and a settled component's -inf bound admits none.  A self
block meets only pads, for which the rule gives the cap, so it admits by
the trim rule of `_knn_candidates` alone.

Small-enough subtrees become base cases: their cross-distance block is
computed as one float32 matrix product, which is fast but not
bitwise-canonical, so candidates are re-derived with the canonical kernel
`core.sq_dists` among everything within a rigorous floating-point error
window.  Weights stored and compared are therefore always canonical.  Both
base cases re-derive through `_rederive`, the engine's one way: `sq_dists`
on `np.take` gathers, a chunk at a time.

A base case has a fixed cost in small numpy calls that can far exceed its
kernel's, so the traversal fuses sibling base nodes.  The engine's rows are
the index's live ids in pre-order, left before right, so each node's points
are one run of rows, in the index's order, not sorted by id.  A base parent
is an internal node whose two children are base nodes; like a base node,
it holds only its row range, by which a base case slices the engine's row
arrays of ids, components and block copies.  When the traversal pops a
cross pair whose sides are base nodes or base parents, at least one a base
parent, and none of the 2 or 4 child pairs it would push is pruned, it runs
one base case over the whole pair and then lowers the bounds of every base
node the pair covers.  The fused block's entries are exactly the union of
its child blocks', so it evaluates no pair the traversal would have skipped;
it admits entries by the bounds before its child blocks would have lowered
them, which only admits more.

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

The engine keeps every point twice in float32, as two row arrays that
`_block` slices by a holder's rows: x^ = fl32(x') and n^ = fl32(|x'|^2), the
norm summed in float64, as a reference copy [x^, n^, 1] and a query copy
[-2 x^, 1, n^].  One matrix product of query copies with reference copies
gives the block n^_q + n^_r - 2 x^_q.x^_r, each entry a sum of d + 2 terms.
Doubling is exact in float32, subnormals included, so the product's inputs
are exactly x^ and n^; only the summation order is the BLAS's.

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
from itertools import product

import numpy as np

from .balltree import BallTree
from .core import Dataset, Edge, EdgeList, check_sq_range, cross_sq_dists, fmt17, sq_dists
from .index import _PRUNE_FACTOR, DEFAULT_LEAF_CAPACITY
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
    """Root of every element of a parent array, by pointer jumping; a cycle raises."""
    # each jump doubles every reach: a forest of n settles within n.bit_length() jumps
    for _ in range(len(parent).bit_length() + 1):
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped
    raise RuntimeError("the parent array holds a cycle: pointer jumping does not settle")


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

    Every node is marked with `comp` and `bound`.  Base nodes and base parents,
    internal nodes whose two children are base nodes, hold blocks:
    `rows` is their run of the index's pre-order live ids, the engine's row
    order (else None).  A block's ids, components and copies are that slice
    of the engine's row arrays; rows are not sorted by id.  A base parent's
    rows are its left child's, then its right child's.
    """

    __slots__ = (
        "base",
        "left",
        "right",
        "parent",
        "rows",
        "max_sqn",
        "region",
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
        self.rows = None
        # the largest squared norm of the rows' block-kernel copies, in float64
        self.max_sqn = 0.0
        # the node's plain-Python region snapshot, read by the pair bound
        self.region = node.region
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
        # the row order: the index's live ids in pre-order, left before right,
        # so every node's points are one run of it and of every array in it
        self.order = order = np.array(tree.live_ids(), dtype=np.intp)
        # parents before children: reversed, the list runs bottom-up
        self.nodes = self._snapshot(tree.root, base_cap)
        self.root = self.nodes[0]
        self.max_id = int(order.max())
        self._fill_fast(self.coords[order])
        # row r holds live point order[r] (rows are not sorted by id): its `_K`
        # nearest other points as canonical squared weight + 1j * id,
        # ascending by (weight, id); `_PAD` pads short lists
        self.knn = None
        # canonical weights the k-NN list pass computed, and its base cases
        # (a fused block counts once)
        self.knn_rederived = 0
        self.knn_base_cases = 0
        # components the last round sent to the tree traversal
        self.fallback_components = 0

    def _snapshot(self, root, base_cap: int) -> list[_NodeState]:
        # a node's rows start where its parent's do, or, for a right child,
        # after its left sibling's live points (pre-order, left before right)
        nodes: list[_NodeState] = []

        def make(node, parent: int, start: int) -> _NodeState:
            base = node.is_leaf or node.n_live <= base_cap
            state = _NodeState(node, base, parent)
            if base:
                state.rows = slice(start, start + node.n_live)
            else:
                stack.append((len(nodes), node, start))
            nodes.append(state)
            return state

        stack = []
        make(root, -1, 0)
        while stack:
            i, node, start = stack.pop()
            ls = nodes[i].left = make(node.left, i, start)
            rs = nodes[i].right = make(node.right, i, start + node.left.n_live)
            if ls.base and rs.base:
                nodes[i].rows = slice(start, start + node.n_live)  # a base parent
        return nodes

    def _fill_fast(self, live_coords: np.ndarray) -> None:
        """The block kernel's `query` and `ref` copies of the points (module docstring).

        `live_coords` holds the points in the engine's row order, the copies'
        row order; it is overwritten, after their bounding box is checked
        (`check_sq_range`).  Each holder keeps its rows' `max_sqn`.
        """
        fast = live_coords
        lo, hi = fast.min(axis=0), fast.max(axis=0)
        check_sq_range(np.stack((lo, hi)))
        fast -= lo + (hi - lo) / 2.0
        reach = max(float(fast.max()), -float(fast.min()))
        if reach > 0.0:
            self.exp = max(math.frexp(reach * math.sqrt(self.d))[1], _MIN_EXP)
        np.ldexp(fast, -self.exp, out=fast)
        sqn = np.einsum("ij,ij->i", fast, fast)
        self.ref = ref = np.empty((len(fast), self.d + 2), dtype=np.float32)
        ref[:, :-2], ref[:, -2], ref[:, -1] = fast, sqn, 1.0
        self.query = query = np.empty_like(ref)
        # doubled after rounding: doubling is exact in float32
        np.multiply(ref[:, :-2], -2.0, out=query[:, :-2])
        query[:, -2], query[:, -1] = 1.0, ref[:, -2]
        for state in self.nodes:
            if state.rows is not None:
                state.max_sqn = float(sqn[state.rows].max())

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
        self.own = own = labels[self.order]
        unsettled = self._answer_from_lists(labels)
        self.fallback_components = len(unsettled)
        if len(unsettled):
            # Settled components keep their list answer: a bound of -inf makes
            # their rows never accept a block entry and prunes every node pair
            # that holds no unsettled component.
            settled = np.zeros(n, dtype=bool)
            settled[own] = True
            settled[unsettled] = False
            kept = cand_sq[settled]
            cand_sq[settled] = -np.inf
            self.bound = cand_sq
            self._mark()
            self._visit(self.root, self.root, 0.0, self._base_case)
            cand_sq[settled] = kept
        return cand_sq, self.cand_u, self.cand_v

    def _all_knn(self) -> None:
        """One dual-tree pass filling every live point's `_K`-NN list."""
        rows = len(self.order)
        self.knn = np.full((rows, _K), _PAD)
        # each point is its own component, named by its list row and bounded
        # by its current K-th weight
        self.own = np.arange(rows)
        self.bound = self.knn.real[:, -1]
        self._mark()
        self._visit(self.root, self.root, 0.0, self._knn_base_case)

    def _answer_from_lists(self, labels: np.ndarray) -> np.ndarray:
        """Fill the candidates from the lists; return the unsettled components.

        `labels` names every id's component, `self.own` every row's.

        A point's first list entry outside its component is its exact
        nearest outgoing pair, since for a fixed point the pair order
        (w, min id, max id) reduces to (w, other id).  A point whose list lies
        wholly inside its component can still hold the component's best edge
        unless its K-th weight exceeds the component's bound strictly.
        """
        order, own, ids, w = self.order, self.own, self.knn.imag, self.knn.real
        # ids as integers a chunk of rows at a time: whole-list copies were
        # measured to set the EMST's peak memory at d=3
        outside = ids >= 0
        step = max(1, _GATHER_ELEMS // _K)
        for lo in range(0, len(order), step):
            nbr = ids[lo : lo + step].astype(np.intp)
            outside[lo : lo + step] &= labels[nbr] != own[lo : lo + step, None]
        has = outside.any(axis=1)
        rows = np.nonzero(has)[0]
        first = outside[rows].argmax(axis=1)
        self._offer(own[rows], order[rows], ids[rows, first].astype(np.intp), w[rows, first])
        blocked = ~has & (w[:, -1] <= self.cand_sq[own])
        # distinct, ascending: `np.unique` imports `numpy.ma` (1.6 MB) on first use
        return np.flatnonzero(np.bincount(own[blocked]))

    def _mark(self) -> None:
        """Mark every node's component and bound from `self.own` and `self.bound`.

        A base node's comp is its points' one component, else -1, and its
        bound the largest bound of its points' components; an internal node's
        are its children's common comp and larger bound.
        """
        own, bound = self.own, self.bound
        for state in reversed(self.nodes):
            if not state.base:
                ls, rs = state.left, state.right
                state.comp = ls.comp if ls.comp >= 0 and ls.comp == rs.comp else -1
                state.bound = max(ls.bound, rs.bound)
            else:
                roots = own[state.rows]
                state.comp = int(roots[0]) if (roots == roots[0]).all() else -1
                state.bound = float(bound[roots].max())

    def _lower(self, holder: _NodeState) -> None:
        """Refresh the bounds of a block's base nodes after a base case, and their ancestors'."""
        nodes = self.nodes
        for state in (holder,) if holder.base else (holder.left, holder.right):
            new = float(self.bound[self.own[state.rows]].max())
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
            if _pruned(dmin, a, b):
                continue
            if not (a.base and b.base):
                if a is b:
                    # self pairs are popped first and never fused, so a base
                    # node's self block is its rows' first base case:
                    # `_knn_base_case` fills empty lists
                    left, right = a.left, a.right
                    stack.append((min_sq(left.region, right.region), left, right))
                    stack.append((0.0, right, right))
                    stack.append((0.0, left, left))
                    continue
                # split each side that is not a base node
                pairs = tuple(product(
                    (a,) if a.base else (a.left, a.right),
                    (b,) if b.base else (b.left, b.right),
                ))
                scored = [(min_sq(x.region, y.region), i) for i, (x, y) in enumerate(pairs)]
                # unless both sides hold blocks and no child pair would be
                # pruned: then fall through to one fused base case, whose
                # block is exactly the union of the child blocks
                if a.rows is None or b.rows is None or any(_pruned(d, *pairs[i]) for d, i in scored):
                    for d, i in sorted(scored, reverse=True):
                        stack.append((d, *pairs[i]))
                    continue
            base_case(a, b)
            self._lower(a)
            if b is not a:
                self._lower(b)

    def _block(self, qs: _NodeState, rs: _NodeState):
        """Scaled squared-distance block |q|^2 + |r|^2 - 2 q.r and its error bound.

        One float32 matrix product of the query copies of the rows of `qs`
        with the reference copies of the rows of `rs` (module docstring), a
        fresh array that the base case may overwrite.
        """
        err = self.err32 * (qs.max_sqn + rs.max_sqn) + self.err_floor
        return np.matmul(self.query[qs.rows], self.ref[rs.rows].T), err

    def _knn_base_case(self, qs: _NodeState, rs: _NodeState) -> None:
        self.knn_base_cases += 1
        w, err = self._block(qs, rs)
        own, order = self.own, self.order
        if qs is rs:
            np.fill_diagonal(w, np.inf)
            i, j = self._knn_candidates(w, err)
            p, q, keep = own[qs.rows][i], order[qs.rows][j], 0
        else:
            (i, j), (jr, ir) = self._knn_cross_candidates(
                w, self._limits(qs, err), self._limits(rs, err), err
            )
            p = np.concatenate((own[qs.rows][i], own[rs.rows][jr]))
            q = np.concatenate((order[rs.rows][j], order[qs.rows][ir]))
            keep = _K
        if len(p):
            self._knn_merge(p, q, keep)

    def _limits(self, s: _NodeState, err: float) -> np.ndarray:
        """Per-point limits on block values, by the one limit rule (module docstring)."""
        limits = np.ldexp(self.bound[self.own[s.rows]], -2 * self.exp) + err
        limits = np.minimum(limits, _THRESH_CAP).astype(np.float32)
        return np.nextafter(limits, np.float32(np.inf))

    @staticmethod
    def _knn_candidates(w, err: float):
        """Entries (row, column) of a self block `w` that may enter the row's list.

        The pairs come row by row, each row's in ascending column order.  A
        self block meets only empty lists (`_visit`), so an entry can enter a
        row's list only if its canonical weight is at most the row's K-th
        smallest in this block: a fast value <= the K-th smallest fast value
        + 2 err.  With at most K columns every finite entry may enter.
        """
        if w.shape[1] > _K:
            hit = w <= (np.partition(w, _K - 1, axis=1)[:, _K - 1] + 2.0 * err)[:, None]
        else:
            hit = w < np.inf
        return np.divmod(np.flatnonzero(hit), w.shape[1])

    @staticmethod
    def _knn_cross_candidates(w, lq, lr, err: float):
        """Entries of a cross block that may enter either side's lists, in one pass.

        Returns (row, column) pairs for the row owners, with limits `lq`, and
        (column, row) pairs for the column owners, with limits `lr`, owner by
        owner in ascending order.  An owner takes its entries up to its limit,
        trimmed by `_trim_crowded`.  One pass finds the entries either side
        may take; the rest works on those hits alone.
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
        `_knn_base_case` hands them over: row by row in each side's order,
        and for a cross block the rows of one side, then the other's, which
        are disjoint.
        """
        m = len(p)
        cand = np.empty(m, complex)
        cand.imag = q
        self._rederive(self.order[p], q, cand.real)
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
            w[self.own[qs.rows][:, None] == self.own[rs.rows][None, :]] = np.inf
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
        # a chunk of rows at a time, of about `_GATHER_ELEMS` pairs: a fused
        # block's per-pair arrays were measured to set the peak memory of
        # fallback rounds on heavy duplicates
        chunk = np.count_nonzero(near, axis=1).cumsum() // _GATHER_ELEMS
        cuts = (np.flatnonzero(np.diff(chunk)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            ri, cols = np.nonzero(near[lo:hi])
            qi = rows[lo + ri]
            qid, rid = self.order[qs.rows][qi], self.order[rs.rows][cols]
            sq = np.empty(len(qid))
            self._rederive(qid, rid, sq)
            self._offer(self.own[qs.rows][qi], qid, rid, sq)

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


def _pruned(dmin: float, a: _NodeState, b: _NodeState) -> bool:
    """The traversal's test of a node pair at region distance `dmin`.

    A pair is pruned when both sides sit inside one component, or when the
    bound exceeds both sides' node bounds.
    """
    if a.comp >= 0 and a.comp == b.comp:
        return True
    limit = dmin * _PRUNE_FACTOR
    return limit > a.bound and limit > b.bound


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


def find_component_neighbors(index, dsu: DisjointSet) -> dict[int, Edge]:
    """One Boruvka round: each component's nearest edge into any other component.

    Returns a map from component root id to that component's best outgoing
    edge under the total order.  The index's ids must lie in 0..n-1 of the
    same dataset the DisjointSet was built for; a component of ids the index
    does not hold gets no edge.  The index must not be mutated mid-round.
    The first call on an index state builds the k-NN lists the rounds are
    answered from and keeps them until a mutation; components the lists
    cannot settle take a dual-tree pass.
    """
    if dsu.component_count < 2:
        raise ValueError("need at least 2 components to have outgoing edges")
    if index.size == 0:
        return {}  # the engine walks trees whose every node holds a point
    n = len(dsu.parent)
    engine = getattr(index, "_emst_engine", None)
    if engine is None or engine.token != index._mutations:
        engine = index._emst_engine = _DualTreeEngine(index)
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
        u, v, sq, rounds = _boruvka_edges(_DualTreeEngine(index), len(reps), lone)
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
        u, v, sq, rounds = _boruvka_edges(_DualTreeEngine(index), ds.n)
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

    Every weight must be finite and non-negative.  n - 1 edges in range that
    leave more than one component close a cycle.
    """
    u, v, w = edgelist.u, edgelist.v, edgelist.w
    if len(u) != n - 1:
        raise ValueError(f"spanning tree over {n} points needs {n - 1} edges, got {len(u)}")
    bad = (u < 0) | (v >= n)  # u < v on every edge
    if bad.any():
        raise ValueError(f"edge ({u[bad][0]}, {v[bad][0]}) references ids outside 0..{n - 1}")
    bad = ~(np.isfinite(w) & (w >= 0.0))
    if bad.any():
        raise ValueError(f"edge ({u[bad][0]}, {v[bad][0]}) has weight {w[bad][0]}, not a finite distance >= 0")
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
