"""Benchmark worker: set up one workload, signal readiness, measure it, check it.

    python3 perfbench/harness.py --workload emst-d3 --seed 0 --seconds 25 --trace 0

`run.py` starts this script in a fresh process and times it from process
start to the ``READY`` line it prints once set-up is done (import, input
generation, untimed warm-up).  The worker then measures for ``--seconds``,
checks every output, and prints one JSON line with its metrics, the
attempted and failed operation counts, sample counts and the environment.

The harness drives the library only through its public functions, from
outside: it never imports ``emstbench.bench`` nor touches a private name, so
rework of the in-package timing suite cannot move a measurement here.  Load
model: one process, one closed-loop client; each call waits for the last.
BLAS keeps its default thread count.

Every duration (and every rate derived from durations) is reported at a
fixed reference host speed: between measured calls the worker times a fixed
calibration workload that does not touch the library (`HostSpeed`), and
scales each call's wall time by the calibration just before it.  The samples
line records the calibration's median and `host_scale`, the factor from this
host's wall-clock times to reported ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import emstbench  # noqa: E402
from emstbench import (  # noqa: E402
    BallTree,
    Dataset,
    DisjointSet,
    EdgeList,
    KdTree,
    Point,
    dual_tree_boruvka,
    find_component_neighbors,
    generate_synthetic,
    kruskal_mst,
    single_linkage,
    validate_spanning_tree,
)

if Path(emstbench.__file__).resolve().parent != ROOT / "src" / "emstbench":
    raise ImportError(f"emstbench imported from {emstbench.__file__}, not from {ROOT / 'src'}")

BACKENDS = ("kd", "ball")
TREES = {"kd": KdTree, "ball": BallTree}
TREE_NAMES = {"kd": "kdtree", "ball": "balltree"}
LEAF = 20  # leaf capacity of every index, as in `dual_tree_boruvka(ds, b, 20)`
K = 10  # neighbours per k-NN query
SLINK_K = 10  # clusters cut from the kd EMST in the traced run
DUP_SITES = 20  # distinct locations of the tie-heavy set
BUILD_PAIRS = 8  # kd-then-ball constructor pairs timed per stream pass; the last pair is used
CHECKED_QUERY_SHARE = 10  # one k-NN query in this many is checked by brute force
CALIBRATION_REF_MS = 10.0  # calibration time that defines the reference host speed
CALIBRATION_EVERY_S = 0.2  # at most one calibration per this much run time

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    kind: str  # "emst": EMST with both backends; "churn": index build + mixed stream
    n: int
    d: int
    data: str  # "uniform" or "gaussian" via generate_synthetic, or "dup"
    steps: int = 0  # churn: k-NN queries per stream pass (2 inserts + 2 deletes each)
    min_queries: int = 0  # churn: queries per backend a run measures at least
    variants: int = 1  # emst: datasets drawn from the seed, one per measured round in turn


# Sizes keep one run inside about 25 s on 2 cores while giving every EMST
# metric several calls per run and every k-NN tail at least 1000 queries.
# EMST time depends on the dataset (the Boruvka round count at d=15, where
# the tie-heavy sites fall), so an EMST run draws more datasets from its seed
# than it has rounds, takes a new one each round and reports medians over
# all of them.
WORKLOADS = {
    "emst-d3": Workload("emst", 5000, 3, "uniform", variants=24),
    "emst-d15": Workload("emst", 5000, 15, "uniform", variants=24),
    "index-churn": Workload("churn", 5000, 3, "gaussian", steps=500, min_queries=1000),
    "emst-dup": Workload("emst", 600, 3, "dup", variants=48),
}
TINY = {
    "emst-d3": replace(WORKLOADS["emst-d3"], n=300),
    "emst-d15": replace(WORKLOADS["emst-d15"], n=300),
    "index-churn": replace(WORKLOADS["index-churn"], n=300, steps=60, min_queries=0),
    "emst-dup": replace(WORKLOADS["emst-dup"], n=200),
}
WARM_UP_N = 200
WARM_UP_STEPS = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"op_{b}_p50_ms": "ms" for b in BACKENDS},
    **{f"ops_{b}_per_s": "1/s" for b in BACKENDS},
}
TIME_UNITS = {"s", "ms", "us"}  # metrics in these units (and their inverse, 1/s) are host-speed scaled
PER_LAYER_UNITS = {
    "input.dup_frac": "ratio",
    **{f"{TREE_NAMES[b]}.build_s": "s" for b in BACKENDS},
    **{
        f"emst.{b}.{name}": unit
        for b in BACKENDS
        for name, unit in (
            ("round0_s", "s"),
            ("rounds_rest_s", "s"),
            ("round_max_s", "s"),
            ("union_s", "s"),
            ("rounds", "count"),
            ("comps_after_round0", "count"),
            ("accept_ratio", "ratio"),
        )
    },
    **{f"trace.{b}.overhead_s": "s" for b in BACKENDS},
    "slink.single_linkage_s": "s",
    **{
        f"{TREE_NAMES[b]}.{name}": unit
        for b in BACKENDS
        for name, unit in (
            ("knn_busy_s", "s"),
            ("knn_queries", "count"),
            ("knn_p99_ms", "ms"),
            ("knn_late_over_early", "ratio"),
            ("insert_busy_s", "s"),
            ("delete_busy_s", "s"),
            ("delete_p99_us", "us"),
            ("mutate_ops_s", "1/s"),
            ("rebuilds", "count"),
            ("tombstones_end", "count"),
        )
    },
}


# ---------------------------------------------------------------------------
# inputs, all derived from the seed


@dataclass
class Inputs:
    datasets: list[Dataset]  # churn: one, the indexes' initial contents
    coords: np.ndarray | None = None  # churn: coordinates of every id, base rows first
    ops: list[tuple[str, int]] | None = None  # churn: ("insert"|"delete"|"query", id or query index)
    queries: np.ndarray | None = None
    checked: frozenset[int] = frozenset()  # churn: query indices checked by brute force


def duplicate_dataset(n: int, d: int, sites: int, seed: int) -> Dataset:
    """n points on `sites` distinct uniform locations, n // sites (or one more) each."""
    rng = np.random.default_rng(seed)
    locations = rng.random((sites, d))
    return Dataset(locations[rng.permutation(np.arange(n) % sites)])


def churn_stream(n: int, d: int, steps: int, seed: int):
    """2 inserts and 2 deletes of random live ids before each of `steps` queries."""
    rng = np.random.default_rng([seed, 1])
    inserted = rng.standard_normal((2 * steps, d))
    queries = rng.standard_normal((steps, d))
    live = list(range(n))
    next_id = n
    ops: list[tuple[str, int]] = []
    for step in range(steps):
        for _ in range(2):
            ops.append(("insert", next_id))
            live.append(next_id)
            next_id += 1
        for _ in range(2):
            j = int(rng.integers(len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append(("delete", live.pop()))
        ops.append(("query", step))
    checked = rng.choice(steps, size=max(1, steps // CHECKED_QUERY_SHARE), replace=False)
    return inserted, ops, queries, frozenset(checked.tolist())


def make_inputs(w: Workload, seed: int) -> Inputs:
    if w.kind == "emst":
        seeds = np.random.SeedSequence(seed).generate_state(w.variants).tolist()
        if w.data == "dup":
            return Inputs([duplicate_dataset(w.n, w.d, DUP_SITES, s) for s in seeds])
        return Inputs([generate_synthetic(w.n, w.d, w.data, s) for s in seeds])
    ds = generate_synthetic(w.n, w.d, w.data, seed)
    inserted, ops, queries, checked = churn_stream(w.n, w.d, w.steps, seed)
    return Inputs([ds], np.vstack([ds.coords, inserted]), ops, queries, checked)


def dup_frac(coords: np.ndarray) -> float:
    """Share of points that repeat an earlier point."""
    return 1.0 - len(np.unique(coords, axis=0)) / len(coords)


# ---------------------------------------------------------------------------
# output checks


class Tally:
    """Attempted and failed operations; a call that raises or fails its check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def add(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def call(self, fn, *args):
        """Run one operation: (True, its result), or (False, None) if it raised.

        The first exception's traceback goes to stderr; the run goes on.
        """
        try:
            return True, fn(*args)
        except Exception:
            if not self._reported:
                traceback.print_exc()
                self._reported = True
            return False, None


def edge_key(el: EdgeList | None, n: int) -> str | None:
    """Digest of the bit-exact edge set of a spanning tree over 0..n-1, or None if it is not one.

    A digest, not the edge list, so that what a run keeps does not grow with
    the number of calls it makes.
    """
    if el is None:
        return None
    try:
        validate_spanning_tree(el, n)
    except ValueError:
        return None
    canonical = sorted((e.u, e.v, e.weight.hex()) for e in el.edges)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def brute_knn(coords: np.ndarray, ids: list[int], q: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Reference k-NN by full scan, ordered by (distance, id)."""
    arr = np.array(ids, dtype=np.intp)
    diff = coords[arr] - q
    sq = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((arr, sq))[:k]
    return [(int(arr[j]), math.sqrt(float(sq[j]))) for j in order]


def knn_matches(answer, expected) -> bool:
    return (
        [i for i, _ in answer] == [i for i, _ in expected]
        and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) for (_, a), (_, b) in zip(answer, expected))
    )


# ---------------------------------------------------------------------------
# timing helpers


def _another_round(start: float, seconds: float, rounds: int) -> bool:
    """At least one round; then another only if one of average length still fits."""
    elapsed = perf() - start
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


_CALIBRATION_POINTS = np.random.default_rng(12345).random((128, 4))


def calibration_work() -> None:
    """Fixed interpreter, allocator and NumPy work that never calls the library: a yardstick of host speed.

    `HostSpeed` runs it with the garbage collector off, so its time does not
    depend on how much the measured calls left alive.
    """
    heap = []
    seen = {}
    x = 0.0
    for i in range(6000):
        heapq.heappush(heap, (i * 7919) % 6007)
        seen[i] = x = x * 0.5 + math.sqrt(i)
    while heap:
        heapq.heappop(heap)
    rows = sorted((i % 97, (i * 31) % 1009, str(i)) for i in range(6000))
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    for q in _CALIBRATION_POINTS:
        diff = _CALIBRATION_POINTS - q
        np.argpartition(np.einsum("ij,ij->i", diff, diff), K)[:K]


class HostSpeed:
    """Times `calibration_work` between measured calls, in proportion to the time between them.

    The processor of a shared virtual machine runs plain Python code up to
    40 % slower for minutes at a time, so every timing of a run moves with it.
    Each duration is reported as it would read on the reference host, on which
    the calibration takes `CALIBRATION_REF_MS`, going by the calibration made
    just before the call.
    """

    def __init__(self):
        self.samples: list[float] = []  # per gap between calls: mean seconds per calibration
        self._last = None

    def sample(self) -> None:
        """One calibration per `CALIBRATION_EVERY_S` since the last (at least one, at most 10)."""
        now = perf()
        if self._last is not None and now - self._last < CALIBRATION_EVERY_S:
            return
        due = 1 if self._last is None else min(10, int((now - self._last) / CALIBRATION_EVERY_S))
        gc.disable()
        try:
            s = perf()
            for _ in range(due):
                calibration_work()
            self._last = perf()
        finally:
            gc.enable()
        self.samples.append((self._last - s) / due)

    def at_reference(self, seconds: float) -> float:
        """A duration measured since the last `sample`, at the reference host speed."""
        return seconds * CALIBRATION_REF_MS / (self.samples[-1] * 1e3)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3



def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# EMST workloads


def traced_emst(ds: Dataset, b: str):
    """`dual_tree_boruvka` rebuilt from its public parts, timing each layer call."""
    t0 = perf()
    index = TREES[b](ds, LEAF)
    t1 = perf()
    dsu = DisjointSet(ds.n)
    edges = []
    rounds, unions, comps = [], [], []
    candidates_total = 0
    while dsu.component_count > 1:
        s = perf()
        candidates = find_component_neighbors(index, dsu)
        m = perf()
        accepted = 0
        for comp in sorted(candidates):
            e = candidates[comp]
            if dsu.find(e.u) != dsu.find(e.v):
                dsu.union(e.u, e.v)
                edges.append(e)
                accepted += 1
        union_end = perf()
        if accepted == 0:
            raise RuntimeError("traced Boruvka round made no progress")
        rounds.append(m - s)
        unions.append(union_end - m)
        comps.append(dsu.component_count)
        candidates_total += len(candidates)
    end = perf()
    layers = {
        f"{TREE_NAMES[b]}.build_s": t1 - t0,
        f"emst.{b}.round0_s": rounds[0] if rounds else 0.0,
        f"emst.{b}.rounds_rest_s": sum(rounds[1:]),
        f"emst.{b}.round_max_s": max(rounds, default=0.0),
        f"emst.{b}.union_s": sum(unions),
        f"emst.{b}.rounds": len(rounds),
        f"emst.{b}.comps_after_round0": comps[0] if comps else 1,
        f"emst.{b}.accept_ratio": len(edges) / candidates_total if candidates_total else 0.0,
    }
    return EdgeList.from_edges(edges), end - t0, layers


def run_emst(w: Workload, inp: Inputs, seconds: float, trace: bool, host: HostSpeed, emst=dual_tree_boruvka):
    """Rounds of one EMST call per backend while another round fits in `seconds`.

    Round r uses dataset r modulo the number of datasets.

    Every output must be a spanning tree and the kd and ball edge sets must
    agree bit for bit; on the tie-heavy set both must equal `kruskal_mst`.
    A traced run adds the outside-in EMST per backend, which must return the
    untraced edge set, and single-linkage on the kd tree.
    """
    tally = Tally()
    calls = {b: [] for b in BACKENDS}
    keys = []  # per round: (dataset index, {backend: edge-set digest or None})
    layers: dict[str, list[float]] = {}
    traced_total = {b: [] for b in BACKENDS}
    start = perf()
    rnd = 0
    while _another_round(start, seconds, rnd):
        which = rnd % len(inp.datasets)
        ds = inp.datasets[which]
        round_keys = {}
        for b in BACKENDS:
            host.sample()
            gc.collect()
            s = perf()
            ok, el = tally.call(emst, ds, b, LEAF)
            t = perf() - s
            if ok:
                calls[b].append(host.at_reference(t))
            round_keys[b] = edge_key(el, ds.n)
            if trace:
                gc.collect()
                ok, out = tally.call(traced_emst, ds, b)
                traced_key = None
                if ok:
                    traced_el, total, layer = out
                    traced_key = edge_key(traced_el, ds.n)
                    traced_total[b].append(host.at_reference(total))
                    for name, value in layer.items():
                        if PER_LAYER_UNITS[name] in TIME_UNITS:
                            value = host.at_reference(value)
                        layers.setdefault(name, []).append(value)
                tally.add(traced_key is not None and traced_key == round_keys[b])
            if trace and b == "kd" and el is not None:
                s = perf()
                ok, labels = tally.call(single_linkage, el, ds.n, SLINK_K)
                t = perf() - s
                tally.add(ok and len(np.unique(labels)) == min(SLINK_K, ds.n))
                layers.setdefault("slink.single_linkage_s", []).append(host.at_reference(t))
        keys.append((which, round_keys))
        rnd += 1

    reference = {}
    if w.data == "dup":
        for which in sorted({which for which, _ in keys}):
            ds = inp.datasets[which]
            reference[which] = edge_key(kruskal_mst(ds), ds.n)
    for which, round_keys in keys:
        for b in BACKENDS:
            other = round_keys[BACKENDS[1 - BACKENDS.index(b)]]
            want = reference.get(which, other)
            tally.add(round_keys[b] is not None and round_keys[b] == want)

    if not trace:
        metrics = {}
        for b in BACKENDS:
            metrics[f"op_{b}_p50_ms"] = _median(calls[b]) * 1e3
            metrics[f"ops_{b}_per_s"] = len(calls[b]) / sum(calls[b]) if calls[b] else 0.0
    else:
        metrics = {name: _median(values) for name, values in layers.items()}
        for b in BACKENDS:
            metrics[f"trace.{b}.overhead_s"] = _median(traced_total[b]) - _median(calls[b])
    samples = {f"emst_{b}_calls": len(calls[b]) for b in BACKENDS}
    samples["datasets"] = min(rnd, len(inp.datasets))
    return tally, metrics, samples


# ---------------------------------------------------------------------------
# index-churn workload


def churn_pass(inp: Inputs, tally: Tally, host: HostSpeed, trees=TREES) -> dict:
    """Build both indexes, then run the insert/delete/query stream on them in lockstep.

    Each operation goes to the kd index and then to the ball index, so both
    backends' samples spread over the whole pass and see the same machine.
    """
    builds = {b: [] for b in BACKENDS}
    tree = {}
    for _ in range(BUILD_PAIRS):
        for b in BACKENDS:
            host.sample()
            gc.collect()
            s = perf()
            tree[b] = trees[b](inp.datasets[0], LEAF)
            builds[b].append(host.at_reference(perf() - s))
    lat = {b: {"insert": [], "delete": [], "query": []} for b in BACKENDS}
    rebuilds = {b: 0 for b in BACKENDS}
    ok_ops = {b: 0 for b in BACKENDS}
    last_ok = {b: True for b in BACKENDS}
    live = set(range(inp.datasets[0].n))
    for op, arg in inp.ops:
        host.sample()
        if op == "insert":
            live.add(arg)
            p = Point(arg, inp.coords[arg])
        elif op == "delete":
            live.discard(arg)
        else:
            q = inp.queries[arg]
            expected = brute_knn(inp.coords, sorted(live), q, K) if arg in inp.checked else None
        for b in BACKENDS:
            t = tree[b]
            if op == "insert":
                s = perf()
                ok, _ = tally.call(t.insert, p)
                e = perf()
            elif op == "delete":
                before = t.tombstones
                s = perf()
                ok, _ = tally.call(t.delete, arg)
                e = perf()
                rebuilds[b] += t.tombstones < before
            else:
                s = perf()
                ok, answer = tally.call(t.knn, q, K)
                e = perf()
                ok = ok and len(answer) == min(K, len(live))
                if ok and expected is not None:
                    ok = sorted(t.live_ids()) == sorted(live) and knn_matches(answer, expected)
            ok = ok and t.size == len(live)
            lat[b][op].append(host.at_reference(e - s))
            tally.add(ok)
            ok_ops[b] += ok
            last_ok[b] = ok
    out = {}
    for b in BACKENDS:
        name = TREE_NAMES[b]
        try:
            tree[b].audit()
        except AssertionError:
            traceback.print_exc()
            if last_ok[b]:  # a broken structure fails the stream's last operation
                tally.failed += 1
                ok_ops[b] -= 1
        queries = lat[b]["query"]
        quarter = max(1, len(queries) // 4)
        mutate_busy = sum(lat[b]["insert"]) + sum(lat[b]["delete"])
        out[b] = {
            "query": queries,
            "delete": lat[b]["delete"],
            "busy": sum(queries) + mutate_busy,
            "ok_ops": ok_ops[b],
            "layers": {
                f"{name}.build_s": statistics.median(builds[b]),
                f"{name}.knn_busy_s": sum(queries),
                f"{name}.knn_late_over_early": _median(queries[-quarter:]) / _median(queries[:quarter]),
                f"{name}.insert_busy_s": sum(lat[b]["insert"]),
                f"{name}.delete_busy_s": sum(lat[b]["delete"]),
                f"{name}.mutate_ops_s": (len(lat[b]["insert"]) + len(lat[b]["delete"])) / mutate_busy,
                f"{name}.rebuilds": rebuilds[b],
                f"{name}.tombstones_end": tree[b].tombstones,
            },
        }
    return out


def run_churn(w: Workload, inp: Inputs, seconds: float, trace: bool, host: HostSpeed, trees=TREES):
    """Stream passes on fresh indexes while another fits in `seconds`, or until `min_queries`.

    Every checked query must match brute force over the live ids under the
    (distance, id) order, the live ids must be exactly those the stream left,
    and `audit()` must pass at the end of each pass.
    """
    tally = Tally()
    passes = []
    start = perf()
    while _another_round(start, seconds, len(passes)) or len(passes) * w.steps < w.min_queries:
        passes.append(churn_pass(inp, tally, host, trees))
    metrics = {}
    samples = {"stream_passes": len(passes)}
    for b in BACKENDS:
        runs = [p[b] for p in passes]
        queries = [t for r in runs for t in r["query"]]
        if not trace:
            metrics[f"op_{b}_p50_ms"] = _median(queries) * 1e3
            metrics[f"ops_{b}_per_s"] = sum(r["ok_ops"] for r in runs) / sum(r["busy"] for r in runs)
        else:
            name = TREE_NAMES[b]
            for key in runs[0]["layers"]:
                metrics[key] = _median([r["layers"][key] for r in runs])
            metrics[f"{name}.knn_queries"] = len(queries)
            metrics[f"{name}.knn_p99_ms"] = _quantile(queries, 0.99) * 1e3
            metrics[f"{name}.delete_p99_us"] = _quantile([t for r in runs for t in r["delete"]], 0.99) * 1e6
        samples[f"knn_{b}_queries"] = len(queries)
    return tally, metrics, samples


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def measure(w: Workload, inp: Inputs, seconds: float, trace: bool):
    run = run_emst if w.kind == "emst" else run_churn
    host = HostSpeed()
    tally, metrics, samples = run(w, inp, seconds, trace, host)
    if trace:
        points = [inp.coords] if inp.coords is not None else [ds.coords for ds in inp.datasets]
        metrics["input.dup_frac"] = statistics.mean(dup_frac(c) for c in points)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # layers a workload does not exercise read 0; set-up time is measured by run.py
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in units.items() if name != "setup_s"}
    samples.update(calibrations=len(host.samples), calibration_ms=host.median_ms,
                   host_scale=CALIBRATION_REF_MS / host.median_ms)
    return tally, out, samples


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help="exit after set-up, for timing set-up alone")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    inp = make_inputs(w, args.seed)
    warm = replace(w, n=min(w.n, WARM_UP_N), steps=min(w.steps, WARM_UP_STEPS), min_queries=0)
    measure(warm, make_inputs(warm, args.seed + 1), 0.0, bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tally, metrics, samples = measure(w, inp, args.seconds, bool(args.trace))
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": samples,
        "env": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
