"""Tests of the benchmark's own checker and result format (tiny inputs)."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
from emstbench import Edge, EdgeList, KdTree

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, args, cwd: Path):
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _emst_run(name, emst):
    w = harness.TINY[name]
    return harness.run_emst(w, harness.make_inputs(w, 3), 0.0, False, harness.HostSpeed(), emst=emst)[0]


def _perturbed(el: EdgeList) -> EdgeList:
    """Same tree, one weight off by one ulp: still a spanning tree, not bit-identical."""
    e = el.edges[-1]
    bumped = Edge(e.u, e.v, float.fromhex(e.weight.hex()) * (1 + 2**-52))
    return EdgeList.from_edges([*el.edges[:-1], bumped])


def test_correct_emst_runs_have_no_failures():
    for name in ("emst-d3", "emst-dup"):
        tally = _emst_run(name, harness.dual_tree_boruvka)
        assert tally.attempted > 0 and tally.failed == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda el: EdgeList.from_edges(el.edges[:-1]),  # not spanning
        _perturbed,  # spanning, but differs from the other backend
    ],
)
def test_corrupted_edge_set_counts_as_failure(corrupt):
    def emst(ds, backend, leaf):
        el = harness.dual_tree_boruvka(ds, backend, leaf)
        return corrupt(el) if backend == "ball" else el

    tally = _emst_run("emst-d3", emst)
    assert tally.failed >= 1


def test_tie_heavy_set_is_checked_against_kruskal():
    # both backends agree with each other, so only the kruskal_mst check can see it
    tally = _emst_run("emst-dup", lambda ds, b, leaf: _perturbed(harness.dual_tree_boruvka(ds, b, leaf)))
    assert tally.failed == tally.attempted


def test_raising_call_counts_as_failure():
    def emst(ds, backend, leaf):
        if backend == "kd":
            raise RuntimeError("boom")
        return harness.dual_tree_boruvka(ds, backend, leaf)

    tally = _emst_run("emst-d3", emst)
    assert tally.failed >= 2  # the kd call, and the ball result it could not be compared with


class _WrongKdTree(KdTree):
    def knn(self, q, k):
        answer = super().knn(q, k)
        return [*answer[:-1], (answer[0][0], answer[-1][1])]  # last neighbour's id replaced


def test_wrong_knn_answer_counts_as_failure():
    w = harness.TINY["index-churn"]
    inp = harness.make_inputs(w, 3)
    honest = harness.run_churn(w, inp, 0.0, False, harness.HostSpeed())[0]
    assert honest.attempted > 0 and honest.failed == 0
    trees = {"kd": _WrongKdTree, "ball": harness.TREES["ball"]}
    tally = harness.run_churn(w, inp, 0.0, False, harness.HostSpeed(), trees=trees)[0]
    assert tally.failed == len(inp.checked)


def test_durations_are_scaled_by_the_calibration_before_them():
    host = harness.HostSpeed()
    host.samples = [2 * harness.CALIBRATION_REF_MS / 1e3]  # a host at half the reference speed
    assert host.at_reference(1.0) == 0.5
    host.sample()  # first call always calibrates
    assert len(host.samples) == 2 and host.at_reference(1.0) > 0


def test_inputs_depend_only_on_seed():
    for name, w in harness.TINY.items():
        a, b = harness.make_inputs(w, 5), harness.make_inputs(w, 5)
        assert all((x.coords == y.coords).all() for x, y in zip(a.datasets, b.datasets)) and a.ops == b.ops
        assert not (harness.make_inputs(w, 6).datasets[0].coords == a.datasets[0].coords).all()
    dup = harness.make_inputs(replace(harness.TINY["emst-dup"], n=400), 1).datasets[0].coords
    assert harness.dup_frac(dup) == 1 - harness.DUP_SITES / 400


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = _run(HERE / "run.py", args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "emst-d3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = _run(tmp_path / "perfbench" / "run.py", args, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
