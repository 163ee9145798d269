"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines (pytest captures stdout otherwise).  Criteria with stated runtime
budgets assert them; the timing-heavy criteria (4-6) measure medians over
repeated trials with an untimed warmup.  Criterion 7's structural checks are
collected while criteria 1 and 2 run, so execute the module as a whole.
"""

import math
import statistics
import time

import numpy as np
import pytest

from emstbench import (
    BallTree,
    BenchmarkReport,
    KdTree,
    Point,
    RatioRecord,
    TimingRecord,
    dual_tree_boruvka,
    emit_report,
    generate_synthetic,
    kruskal_mst,
    naive_boruvka,
    naive_merge_sequence,
    parse_report_csv,
    single_linkage,
)
from emstbench.bench import CSV_HEADER
from emstbench.emst import DisjointSet
from emstbench.slink import _canonical_labels
from conftest import brute_knn

MASTER_SEED = 20110215

# evidence gathered by criteria 1 and 2 for criterion 7
_round_log: list[tuple[int, str, int]] = []
_audit_log: list[str] = []


def _median(values):
    return statistics.median(values)


def test_criterion_1_oracle_equivalence():
    """Four MST algorithms produce identical edge sets on 100 random datasets."""
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    dims = [2, 3, 15, 25, 50]
    checked = 0
    for i in range(100):
        n = int(rng.integers(2, 501))
        d = dims[i % len(dims)]
        ds = generate_synthetic(n, d, "uniform", int(rng.integers(2**31)))
        kd_mst, kd_rounds = dual_tree_boruvka(ds, "kd", return_rounds=True)
        ball_mst, ball_rounds = dual_tree_boruvka(ds, "ball", return_rounds=True)
        naive_mst = naive_boruvka(ds)
        kruskal = kruskal_mst(ds)
        key = lambda el: [(e.u, e.v, e.weight) for e in el.sorted_edges()]
        assert key(kd_mst) == key(ball_mst) == key(naive_mst) == key(kruskal), f"dataset {i}: n={n} d={d}"
        if n > 1:
            assert kd_mst.total_weight == pytest.approx(kruskal.total_weight, rel=1e-9)
        _round_log.append((n, "kd", kd_rounds))
        _round_log.append((n, "ball", ball_rounds))
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s, budget is 120s"
    print(f"\nPASS criterion 1: oracle equivalence on {checked} datasets "
          f"(kd == ball == naive == kruskal), {elapsed:.1f}s")


def test_criterion_2_knn_exactness():
    """Both indexes match brute force for every query, k, and mutation state."""
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 1)
    dims = [2, 15, 25, 50]
    ks = (1, 5, 20)
    datasets = 100
    queries_per_dataset = 100
    query_checks = 0

    for i in range(datasets):
        n = int(rng.integers(20, 2001))
        d = dims[i % len(dims)]
        ds = generate_synthetic(n, d, "uniform", int(rng.integers(2**31)))
        trees = {"kd": KdTree(ds, 20), "ball": BallTree(ds, 20)}
        queries = rng.random((queries_per_dataset, d))

        def sweep(live_ids):
            nonlocal query_checks
            for q in queries:
                expected20 = brute_knn(trees["kd"].coords, live_ids, q, 20)
                for name, tree in trees.items():
                    for k in ks:
                        got = tree.knn(q, k)
                        assert got == expected20[:k], f"dataset {i} ({name}, k={k})"
                        query_checks += 1

        live = sorted(range(n))
        sweep(live)

        if i % 10 == 0:  # interleaved insert/delete sequence, then re-verify
            live_set = set(live)
            next_id = n
            for _ in range(500):
                if live_set and rng.random() < 0.5:
                    victim = int(rng.choice(sorted(live_set)))
                    for tree in trees.values():
                        tree.delete(victim)
                    live_set.discard(victim)
                else:
                    coords = rng.random(d)
                    for tree in trees.values():
                        tree.insert(Point(next_id, coords))
                    live_set.add(next_id)
                    next_id += 1
            for name, tree in trees.items():
                tree.audit()
                _audit_log.append(f"{name} dataset {i}")
            sweep(sorted(live_set))

    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"criterion 2 took {elapsed:.1f}s, budget is 180s"
    print(f"\nPASS criterion 2: k-NN exactness over {query_checks} query checks "
          f"incl. post-mutation sweeps, {elapsed:.1f}s")


def test_criterion_3_single_linkage_equivalence():
    """MST-derived clusters equal the cubic agglomerative oracle for every k."""
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 2)
    label_checks = 0
    for i in range(10):
        n = int(rng.integers(2, 301))
        d = int(rng.choice([2, 3, 15]))
        ds = generate_synthetic(n, d, "uniform", int(rng.integers(2**31)))
        mst = dual_tree_boruvka(ds, "kd")
        merges = naive_merge_sequence(ds)
        oracle_dsu = DisjointSet(n)
        oracle_labels = {n: _canonical_labels(oracle_dsu, n)}
        for step, edge in enumerate(merges):
            oracle_dsu.union(edge.u, edge.v)
            oracle_labels[n - step - 1] = _canonical_labels(oracle_dsu, n)
        for k in range(1, n + 1):
            fast = single_linkage(mst, n, k)
            assert (fast == oracle_labels[k]).all(), f"dataset {i}: n={n} k={k}"
            label_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget is 120s"
    print(f"\nPASS criterion 3: single-linkage equals naive oracle for "
          f"{label_checks} (dataset, k) pairs, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_4_build_time_ratio():
    """Ball-tree construction is markedly slower than kd at n>=10000, d=50."""
    start = time.perf_counter()
    ratios = {}
    for n in (10000, 25000):
        ds = generate_synthetic(n, 50, "uniform", MASTER_SEED)
        times = {}
        for name, cls in (("kd", KdTree), ("ball", BallTree)):
            cls(ds, 20)  # warmup
            trial_values = []
            for _ in range(3):
                t0 = time.perf_counter()
                cls(ds, 20)
                trial_values.append(time.perf_counter() - t0)
            times[name] = _median(trial_values)
        ratios[n] = times["ball"] / times["kd"]
        assert ratios[n] > 1.5, f"n={n}: ball/kd build ratio {ratios[n]:.2f} <= 1.5"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s, budget is 120s"
    print(f"\nPASS criterion 4: build ratio ball/kd = "
          f"{ratios[10000]:.2f} (n=10000), {ratios[25000]:.2f} (n=25000) at d=50, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_kd_emst_not_slower():
    """End-to-end EMST (build + rounds): kd backend <= ball at n=20000."""
    medians = {}
    for d in (15, 50):
        ds = generate_synthetic(20000, d, "uniform", MASTER_SEED)
        times = {"kd": [], "ball": []}
        for backend in ("kd", "ball"):  # untimed warmup for each
            dual_tree_boruvka(ds, backend)
        for _ in range(5):  # paired trials to share load drift
            for backend in ("kd", "ball"):
                t0 = time.perf_counter()
                dual_tree_boruvka(ds, backend)
                times[backend].append(time.perf_counter() - t0)
        medians[d] = (_median(times["kd"]), _median(times["ball"]))
        kd_med, ball_med = medians[d]
        assert kd_med <= ball_med, (
            f"d={d}: kd median {kd_med:.2f}s > ball median {ball_med:.2f}s"
        )
    print("\nPASS criterion 5: EMST medians kd <= ball at n=20000: "
          + ", ".join(f"d={d}: {m[0]:.2f}s vs {m[1]:.2f}s" for d, m in medians.items()))


@pytest.mark.slow
def test_criterion_6_subquadratic_scaling():
    """Doubling n at d=3 grows kd EMST time by less than 3x."""
    sets = {n: generate_synthetic(n, 3, "uniform", MASTER_SEED) for n in (10000, 20000)}
    times = {n: [] for n in sets}
    for n, ds in sets.items():  # warmup
        dual_tree_boruvka(ds, "kd")
    for _ in range(3):  # paired trials to share load drift
        for n, ds in sets.items():
            t0 = time.perf_counter()
            dual_tree_boruvka(ds, "kd")
            times[n].append(time.perf_counter() - t0)
    medians = {n: _median(v) for n, v in times.items()}
    factor = medians[20000] / medians[10000]
    assert factor < 3.0, f"EMST time grew {factor:.2f}x for 2x points"
    print(f"\nPASS criterion 6: kd EMST d=3 time factor for n 10000->20000 "
          f"is {factor:.2f} (< 3), {medians[10000]:.2f}s -> {medians[20000]:.2f}s")


def test_criterion_7_structural_invariants():
    """Round bound held on every criterion-1 run; criterion-2 audits passed."""
    if not _round_log or not _audit_log:
        pytest.skip("criteria 1 and 2 must run first in this module")
    for n, backend, rounds in _round_log:
        assert rounds <= max(1, math.ceil(math.log2(n))), (
            f"{backend} used {rounds} rounds for n={n}"
        )
    print(f"\nPASS criterion 7: {len(_round_log)} Boruvka runs within the "
          f"ceil(log2 n) round bound; {len(_audit_log)} post-mutation audits passed")


def test_criterion_8_report_format():
    """Report CSV round-trips bit-identically and the header is pinned."""
    assert CSV_HEADER == "backend,operation,n,d,elapsed_ms,trials,seed"
    report = BenchmarkReport(
        config={},
        environment="acceptance",
        records=[
            TimingRecord("kd", "build", 1000, 15, 12.5, [12.0, 12.5, 13.0], 3, 42),
            TimingRecord("ball", "build", 1000, 15, 81.25, [80.0, 81.25, 90.5], 3, 42),
            TimingRecord("kd", "nn_search", 1000, 15, 3.75, [3.5, 3.75, 4.0], 3, 42),
        ],
        ratios=[RatioRecord("build", 1000, 15, 6.5)],
    )
    text = emit_report(report, "csv")
    assert text.splitlines()[0] == CSV_HEADER
    assert emit_report(parse_report_csv(text), "csv") == text
    twice = emit_report(parse_report_csv(emit_report(parse_report_csv(text), "csv")), "csv")
    assert twice == text
    print("\nPASS criterion 8: CSV report round-trips bit-identically, header exact")
