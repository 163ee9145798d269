"""Euclidean MST via dual-tree Boruvka over either spatial index, plus oracles.

The Boruvka driver is shared by every variant: each round asks a candidate
finder for the minimum-weight outgoing edge of every component under the
package-wide total order (weight, min id, max id), then unions the edges that
still cross components.  With that order all pair weights are distinct, the
MST is unique, and `dual_tree_boruvka` (either backend), `naive_boruvka`, and
`kruskal_mst` must return the same edge set exactly.  All routes reject, up
front, coordinates whose squared pair distances could overflow float64.

The dual-tree candidate finder first lists every point's exact 16 nearest
neighbours, once per index state, in one pass over (tree x tree) node pairs.
Every round is then answered from those lists.  For a fixed point the total
order reduces to (weight, other id), so a point's first list entry outside
its component is its exact best outgoing pair, and the least of those over a
component's members bounds the component.  A component is settled when every
member whose list lies wholly inside the component has a 16th weight strictly
greater than that bound; a tie leaves it unsettled.  Only unsettled
components go through the tree traversal, starting from their list bound.

The traversal prunes a node pair when both sides sit inside one component,
when neither side holds an unsettled component, or when the
region-to-region lower bound exceeds the current bound of every component
(in the list pass: every point) present on either side.  Small-enough
subtrees become base cases: their cross-distance block is computed with a
norms + matrix-product kernel, which is fast but not bitwise-canonical, so
candidates are re-derived with the canonical kernel among everything within
a rigorous floating-point error window.  Weights stored and compared are
therefore always canonical.

The fast kernel works on coordinates minus one centre, the midpoint of the
live points' bounding box, so its error window err * (max|q|^2 + max|r|^2)
scales with the data's spread, not with its distance from the origin; the
canonical kernel keeps the raw coordinates.  Centring rounds each coordinate
once: x' = (x - m)(1 + e) with |e| <= 2**-53 per axis, so the centred
difference of two points is off by at most 2**-53 (|x - m| + |y - m|) and
their squared distance by at most 4 * 2**-53 * (|x'|^2 + |y'|^2) up to a
factor 1 + O(2**-52).  Both windows carry a separate 2**-50 per unit of
scale for it, twice that bound, so the centring round-off stays inside err.
"""

from __future__ import annotations

import math

import numpy as np

from .balltree import BallTree
from .core import Dataset, Edge, EdgeList, check_sq_range, cross_sq_dists, fmt17, sq_dists
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

_PRUNE_FACTOR = 1.0 - 1e-12  # never prune an exact boundary tie
_K = 16  # nearest neighbours cached per point across Boruvka rounds
# block kernels by scale (max|q|^2 + max|r|^2): float32 norms + product below
# the first, float64 below the second, the canonical kernel above it
_FLOAT32_SCALE = 1e30
_FLOAT64_SCALE = 1e300
# centring on the data rounds each coordinate once, which moves a squared
# distance by at most 4 * 2**-53 * (1 + O(2**-52)) per unit of scale; this is
# twice that (module docstring)
_CENTRING_ERR = 2.0 ** -50


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
        parent = np.array(self.parent, dtype=np.intp)
        roots = parent.copy()
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                return roots
            roots = nxt


# ---------------------------------------------------------------------------
# dual-tree traversal engine


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
    """Per-node traversal state: static geometry caches plus per-round marks."""

    __slots__ = (
        "node",
        "base",
        "left",
        "right",
        "n_live",
        "ids",
        "fast",
        "sqn",
        "fast32",
        "sqn32",
        "max_sqn",
        "region",
        "roots",
        "comps",
        "comp",
    )

    def __init__(self, node, base: bool):
        self.node = node
        self.base = base
        self.left = None
        self.right = None
        self.n_live = node.n_live
        self.ids = None
        # fast-kernel copies (float64 and, below _FLOAT32_SCALE, float32) of
        # the points minus the engine's centre, with their squared norms
        self.fast = None
        self.sqn = None
        self.fast32 = None
        self.sqn32 = None
        self.max_sqn = 0.0
        # the node's plain-Python region snapshot, read by the pair bound
        self.region = node.region
        self.roots = None
        self.comps = None
        self.comp = -1


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
        self.token = tree._mutations
        self.coords = tree.coords
        self.d = tree.d
        # the index's lower bound between two nodes' region snapshots
        self.region_min_sq = tree._region_min_sq
        base_cap = max(_base_capacity(tree.d), tree.leaf_capacity)
        # Fast-kernel absolute error bounds per unit of (max|q|^2 + max|r|^2),
        # for the float32 and float64 block kernels respectively, each plus
        # the centring round-off (see the module docstring).
        self.err32 = 8.0 * tree.d * 2.0 ** -24 + _CENTRING_ERR
        self.err64 = 8.0 * tree.d * 2.0 ** -53 + _CENTRING_ERR
        bases: list[_NodeState] = []
        self.root = self._snapshot(tree.root, base_cap, bases)
        live = [s.ids for s in bases]
        self.live = np.sort(np.concatenate(live)) if live else np.empty(0, dtype=np.intp)
        self.max_id = int(self.live[-1]) if len(self.live) else -1
        live_coords = self.coords[self.live]
        check_sq_range(live_coords)
        self._fill_fast(bases, live_coords)
        # row r holds live point live[r]: canonical squared weights and ids of
        # its `_K` nearest other points, ascending by (weight, id); inf / -1
        # pad short lists
        self.knn_w = None
        self.knn_id = None
        # canonical weights the k-NN list pass computed
        self.knn_rederived = 0
        # components the last round sent to the tree traversal
        self.fallback_components = 0

    def _snapshot(self, root, base_cap: int, bases: list) -> _NodeState:
        def make(node) -> _NodeState:
            base = node.is_leaf or node.n_live <= base_cap
            state = _NodeState(node, base)
            if base:
                state.ids = np.sort(np.array(node.collect_live_ids(), dtype=np.intp))
                bases.append(state)
            return state

        root_state = make(root)
        stack = [root_state]
        while stack:
            state = stack.pop()
            if state.base:
                continue
            state.left = make(state.node.left)
            state.right = make(state.node.right)
            stack.append(state.left)
            stack.append(state.right)
        return root_state

    def _fill_fast(self, bases: list, live_coords: np.ndarray) -> None:
        """Fast-kernel copies of every base node, centred on the live bounding box."""
        if not len(live_coords):
            return
        lo, hi = live_coords.min(axis=0), live_coords.max(axis=0)
        centre = lo + (hi - lo) / 2.0
        for state in bases:
            if not len(state.ids):
                continue  # never visited: the traversal skips empty nodes
            state.fast = self.coords[state.ids] - centre
            state.sqn = np.einsum("ij,ij->i", state.fast, state.fast)
            state.max_sqn = float(state.sqn.max())
            if state.max_sqn < _FLOAT32_SCALE:
                state.fast32 = state.fast.astype(np.float32)
                state.sqn32 = state.sqn.astype(np.float32)

    def run_round(self, roots_all: np.ndarray, cand_sq, cand_u, cand_v) -> None:
        if self.knn_w is None:
            self._all_knn()
        self.cand_sq = cand_sq
        self.cand_u = cand_u
        self.cand_v = cand_v
        unsettled = self._answer_from_lists(roots_all)
        self.fallback_components = len(unsettled)
        if not len(unsettled):
            return
        # Settled components keep their list answer: a bound of -inf makes
        # their rows never accept a block entry and prunes every node pair
        # that holds no unsettled component.
        settled = np.setdiff1d(roots_all[self.live], unsettled)
        kept = cand_sq[settled]
        cand_sq[settled] = -np.inf
        self.bound = cand_sq
        self.prune_at_zero = len(settled) > 0
        self._mark(self.root, roots_all)
        self._visit(self.root, self.root, 0.0, self._base_case)
        cand_sq[settled] = kept

    def _all_knn(self) -> None:
        """One dual-tree pass filling every live point's `_K`-NN list."""
        rows = len(self.live)
        self.knn_w = np.full((rows, _K), np.inf)
        self.knn_id = np.full((rows, _K), -1, dtype=np.intp)
        row_of = np.zeros(self.max_id + 1, dtype=np.intp)
        row_of[self.live] = np.arange(rows)
        # each point is its own component, named by its list row and bounded
        # by its current K-th weight; base nodes' `roots` are then list rows
        self.bound = self.knn_w[:, -1]
        self.prune_at_zero = False
        self._mark(self.root, row_of)
        self._visit(self.root, self.root, 0.0, self._knn_base_case)

    def _answer_from_lists(self, roots_all: np.ndarray) -> np.ndarray:
        """Fill the candidates from the lists; return the unsettled components.

        A point's first list entry outside its component is its exact
        nearest outgoing pair, since for a fixed point the pair order
        (w, min id, max id) reduces to (w, other id).  A point whose list lies
        wholly inside its component can still hold the component's best edge
        unless its K-th weight exceeds the component's bound strictly.
        """
        live, nbr, w = self.live, self.knn_id, self.knn_w
        own = roots_all[live]
        outside = (roots_all[nbr] != own[:, None]) & (nbr >= 0)
        has = outside.any(axis=1)
        rows = np.nonzero(has)[0]
        first = outside[rows].argmax(axis=1)
        p, q, wq = live[rows], nbr[rows, first], w[rows, first]
        u, v = np.minimum(p, q), np.maximum(p, q)
        comp = own[rows]
        best = _least_per_group(comp, wq, u, v)
        c = comp[best]
        self.cand_sq[c] = wq[best]
        self.cand_u[c] = u[best]
        self.cand_v[c] = v[best]
        blocked = ~has & (w[:, -1] <= self.cand_sq[own])
        return np.unique(own[blocked])

    def _mark(self, root: _NodeState, roots_all: np.ndarray) -> None:
        """Refresh component containment marks for the current partition."""
        stack = [(root, False)]
        while stack:
            state, processed = stack.pop()
            if state.base:
                if len(state.ids):
                    state.roots = roots_all[state.ids]
                    state.comps = np.unique(state.roots)
                    state.comp = int(state.comps[0]) if len(state.comps) == 1 else -1
                else:
                    state.comps = np.empty(0, dtype=np.intp)
                    state.comp = -1
            elif not processed:
                stack.append((state, True))
                stack.append((state.left, False))
                stack.append((state.right, False))
            else:
                ls, rs = state.left, state.right
                if ls.comp >= 0 and ls.comp == rs.comp:
                    state.comps = ls.comps
                    state.comp = ls.comp
                else:
                    state.comps = np.union1d(ls.comps, rs.comps)
                    state.comp = -1

    def _visit(self, a: _NodeState, b: _NodeState, dmin: float, base_case) -> None:
        # depth-first over node pairs, nearest child pair descended first;
        # an explicit stack (farthest pushed first) reproduces that order
        # without recursion-depth limits on lopsided trees
        min_sq = self.region_min_sq
        bound = self.bound
        prune_at_zero = self.prune_at_zero
        stack = [(dmin, a, b)]
        while stack:
            dmin, a, b = stack.pop()
            if a.n_live == 0 or b.n_live == 0:
                continue
            acomp = a.comp
            if acomp >= 0 and acomp == b.comp:
                continue
            if dmin > 0.0 or prune_at_zero:
                limit = dmin * _PRUNE_FACTOR
                if limit > float(bound[a.comps].max()) and limit > float(bound[b.comps].max()):
                    continue
            if a.base:
                if b.base:
                    base_case(a, b)
                    continue
                pairs = ((a, b.left), (a, b.right))
            elif b.base:
                pairs = ((a.left, b), (a.right, b))
            elif a is b:
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
        """Fast squared-distance block and its absolute error bound."""
        scale = qs.max_sqn + rs.max_sqn
        if scale < _FLOAT32_SCALE:
            w = qs.sqn32[:, None] + rs.sqn32[None, :]
            w -= 2.0 * (qs.fast32 @ rs.fast32.T)
            return w, self.err32 * scale
        if scale < _FLOAT64_SCALE:
            w = qs.sqn[:, None] + rs.sqn[None, :]
            w -= 2.0 * (qs.fast @ rs.fast.T)
            return w, self.err64 * scale
        # squared norms near overflow: the canonical kernel, exact by definition
        return cross_sq_dists(self.coords[qs.ids], self.coords[rs.ids]), 0.0

    def _knn_base_case(self, qs: _NodeState, rs: _NodeState) -> None:
        w, err = self._block(qs, rs)
        if qs is rs:
            np.fill_diagonal(w, np.inf)
        own, other = self._knn_candidates(w, self._knn_thresh(qs, w, err), err, by_row=True)
        p, q = qs.roots[own], rs.ids[other]
        if qs is not rs:
            own, other = self._knn_candidates(w, self._knn_thresh(rs, w, err), err, by_row=False)
            p, q = np.concatenate((p, rs.roots[own])), np.concatenate((q, qs.ids[other]))
        if len(p):
            self._knn_merge(p, q)

    def _knn_thresh(self, s: _NodeState, w, err: float) -> np.ndarray:
        """Per-point limits on fast block values: K-th weight + err.

        The limits stay finite, so the infinite diagonal never passes.
        """
        thresh = self.knn_w[s.roots, -1] + err
        if w.dtype == np.float32:
            # float32 block values stay below 2 * _FLOAT32_SCALE; compare in
            # float32 with the limit rounded up
            thresh = np.minimum(thresh, 4.0 * _FLOAT32_SCALE).astype(np.float32)
            return np.nextafter(thresh, np.float32(np.inf))
        return np.minimum(thresh, np.finfo(np.float64).max)

    @staticmethod
    def _knn_candidates(w, thresh, err: float, by_row: bool):
        """Block entries (owner index, other index) that may enter the owner's list.

        Owners are the rows of `w` (`by_row`) or its columns; the pairs of
        each owner come in ascending order of the other index.  An entry can
        enter an owner's list only if its canonical weight is at most the
        owner's current K-th weight and at most the owner's K-th smallest
        canonical weight in this block; within the error window that means a
        fast value <= min(K-th + err, K-th smallest fast value + 2 err).
        The finite limits also exclude the masked (infinite) diagonal.
        """
        hit = w <= (thresh[:, None] if by_row else thresh[None, :])
        i, j = np.divmod(np.flatnonzero(hit), w.shape[1])
        own, other = (i, j) if by_row else (j, i)
        crowded = np.flatnonzero(np.bincount(own, minlength=len(thresh)) > _K)
        if len(crowded):
            sub = w[crowded] if by_row else w[:, crowded].T
            limit = np.full(len(thresh), np.inf)
            limit[crowded] = np.partition(sub, _K - 1, axis=1)[:, _K - 1] + 2.0 * err
            keep = w[i, j] <= limit[own]
            own, other = own[keep], other[keep]
        return own, other

    def _knn_merge(self, p: np.ndarray, q: np.ndarray) -> None:
        """Merge candidates (list row p, point id q), q ascending per p, into the lists."""
        wq = sq_dists(self.coords[self.live[p]], self.coords[q])
        self.knn_rederived += len(wq)
        # stable sorts by weight, then by p, give (p, w, q) order
        order = np.argsort(wq, kind="stable")
        order = order[np.argsort(p[order], kind="stable")]
        p, wq, q = p[order], wq[order], q[order]
        heads = np.ones(len(p), dtype=bool)
        heads[1:] = p[1:] != p[:-1]
        group = np.cumsum(heads) - 1
        first = np.flatnonzero(heads)
        prow = p[first]
        list_w, list_id = self.knn_w[prow], self.knn_id[prow]
        # a candidate's merged slot: list entries before it plus earlier
        # candidates of its point; a list entry moves down by the candidates
        # inserted at or before its index
        gw, gid = list_w[group], list_id[group]
        before = np.count_nonzero(
            (gw < wq[:, None]) | ((gw == wq[:, None]) & (gid < q[:, None])), axis=1
        )
        cand_slot = before + np.arange(len(p)) - first[group]
        m = len(prow)
        inserted = np.bincount(group * (_K + 1) + before, minlength=m * (_K + 1))
        list_slot = np.arange(_K) + np.cumsum(inserted.reshape(m, _K + 1), axis=1)[:, :_K]
        out_w = np.empty((m, _K))
        out_id = np.empty((m, _K), dtype=np.intp)
        keep = cand_slot < _K
        out_w[group[keep], cand_slot[keep]] = wq[keep]
        out_id[group[keep], cand_slot[keep]] = q[keep]
        lr, lc = np.nonzero(list_slot < _K)
        out_w[lr, list_slot[lr, lc]] = list_w[lr, lc]
        out_id[lr, list_slot[lr, lc]] = list_id[lr, lc]
        self.knn_w[prow] = out_w
        self.knn_id[prow] = out_id

    def _base_case(self, qs: _NodeState, rs: _NodeState) -> None:
        w, err = self._block(qs, rs)
        if qs.comp < 0 or rs.comp < 0:  # else the pair spans two components entirely
            w[qs.roots[:, None] == rs.roots[None, :]] = np.inf
        self._update_side(w, qs, rs, err)
        if qs is not rs:
            self._update_side(w.T, rs, qs, err)

    def _update_side(self, w, qs: _NodeState, rs: _NodeState, err: float) -> None:
        best_j = np.argmin(w, axis=1)
        best_w = np.take_along_axis(w, best_j[:, None], axis=1)[:, 0]
        thresh = self.cand_sq[qs.roots] + err
        rows = np.nonzero((best_w <= thresh) & (best_w < np.inf))[0]
        if not len(rows):
            return
        # every pair whose canonical weight could win sits within 2*err of
        # its row's block optimum; re-derive those with the exact kernel
        near = w[rows] <= (best_w[rows] + 2.0 * err)[:, None]
        ri, cols = np.nonzero(near)
        qi = rows[ri]
        qid, rid = qs.ids[qi], rs.ids[cols]
        wc = sq_dists(self.coords[qid], self.coords[rid])
        u, v = np.minimum(qid, rid), np.maximum(qid, rid)
        comp = qs.roots[qi]
        best = _least_per_group(comp, wc, u, v)
        c, nw, nu, nv = comp[best], wc[best], u[best], v[best]
        cw, cu = self.cand_sq[c], self.cand_u[c]
        better = (nw < cw) | ((nw == cw) & ((nu < cu) | ((nu == cu) & (nv < self.cand_v[c]))))
        c = c[better]
        self.cand_sq[c] = nw[better]
        self.cand_u[c] = nu[better]
        self.cand_v[c] = nv[better]


def _least_per_group(group: np.ndarray, w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Index of each group's least entry under (w, u, v), groups ascending."""
    order = np.lexsort((v, u, w, group))
    g = group[order]
    heads = np.ones(len(g), dtype=bool)
    heads[1:] = g[1:] != g[:-1]
    return order[heads]


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
    roots_all = dsu.roots_array()
    cand_sq = np.full(n, np.inf)
    cand_u = np.full(n, -1, dtype=np.int64)
    cand_v = np.full(n, -1, dtype=np.int64)
    engine.run_round(roots_all, cand_sq, cand_u, cand_v)
    out: dict[int, Edge] = {}
    for root in np.nonzero(cand_u >= 0)[0].tolist():
        out[root] = Edge(int(cand_u[root]), int(cand_v[root]), math.sqrt(float(cand_sq[root])))
    return out


# ---------------------------------------------------------------------------
# Boruvka drivers and oracles


def _accept_candidates(dsu: DisjointSet, candidates: dict[int, Edge], edges: list[Edge]) -> int:
    accepted = 0
    for root in sorted(candidates):
        edge = candidates[root]
        if dsu.find(edge.u) != dsu.find(edge.v):
            dsu.union(edge.u, edge.v)
            edges.append(edge)
            accepted += 1
    return accepted


def _run_boruvka(n: int, candidate_fn) -> tuple[EdgeList, int]:
    dsu = DisjointSet(n)
    edges: list[Edge] = []
    rounds = 0
    while dsu.component_count > 1:
        candidates = candidate_fn(dsu)
        rounds += 1
        if _accept_candidates(dsu, candidates, edges) == 0:
            raise RuntimeError("Boruvka round made no progress")  # unreachable
    return EdgeList.from_edges(edges), rounds


def dual_tree_boruvka(
    ds: Dataset,
    backend: str = "kd",
    leaf_capacity: int = 20,
    return_rounds: bool = False,
):
    """Exact EMST by Boruvka rounds with dual-tree candidate search.

    Builds the chosen index once, then repeats rounds of
    `find_component_neighbors` + union until one component remains.  With
    `return_rounds=True` also returns the number of rounds executed.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {sorted(BACKENDS)}")
    check_sq_range(ds.coords)
    index = BACKENDS[backend](ds, leaf_capacity)
    result, rounds = _run_boruvka(ds.n, lambda dsu: find_component_neighbors(index, dsu))
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

    Quadratic per round; the mid-level oracle for the dual-tree path.
    """
    n = ds.n
    if n == 1:
        result = EdgeList.from_edges([])
        return (result, 0) if return_rounds else result
    check_sq_range(ds.coords)
    sq = cross_sq_dists(ds.coords, ds.coords)
    result, rounds = _run_boruvka(n, lambda dsu: _naive_candidates(sq, dsu))
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
    """Raise ValueError unless the edges form a spanning tree over ids 0..n-1."""
    edges = edgelist.edges
    if len(edges) != n - 1:
        raise ValueError(f"spanning tree over {n} points needs {n - 1} edges, got {len(edges)}")
    dsu = DisjointSet(n)
    for e in edges:
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise ValueError(f"edge ({e.u}, {e.v}) references ids outside 0..{n - 1}")
        if not dsu.union(e.u, e.v):
            raise ValueError(f"edge ({e.u}, {e.v}) closes a cycle")
    if dsu.component_count != 1:
        raise ValueError("edges do not connect all points")


def format_edges(edgelist: EdgeList) -> str:
    """Edge file: 'u,v,weight' lines ascending by the total order, then the total."""
    lines = [f"{e.u},{e.v},{fmt17(e.weight)}" for e in edgelist.sorted_edges()]
    lines.append(f"# total_weight={fmt17(edgelist.total_weight)}")
    return "\n".join(lines) + "\n"


def write_edges(edgelist: EdgeList, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edges(edgelist))
