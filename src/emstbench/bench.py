"""Timing harness: Build / Insertion / Deletion / N-NN Search per structure.

Each (backend, operation, n, d) cell is measured `trials` times on a
monotonic clock after one untimed warmup, and reported as the median.  Every
timed workload (datasets, inserted points, deleted ids, query points) is
derived deterministically from the config seed, so two runs of the same
config time identical work.  End-to-end EMST timing (index build plus
Boruvka) is available as the optional `emst` operation.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import asdict, dataclass, field
from itertools import takewhile
from typing import get_type_hints

import numpy as np

from .core import DISTRIBUTIONS, Point, draw_coords, generate_synthetic
from .emst import BACKENDS, dual_tree_boruvka

__all__ = [
    "OPERATIONS",
    "BenchConfig",
    "TimingRecord",
    "RatioRecord",
    "BenchmarkReport",
    "run_suite",
    "emit_report",
    "parse_report_csv",
]

OPERATIONS = ("build", "insert", "delete", "nn_search", "emst")
# the CSV columns of each record type, in order: they drive header, rows and parser
_RECORD_COLUMNS = ("backend", "operation", "n", "d", "elapsed_ms", "trials", "seed")
_RATIO_COLUMNS = ("operation", "n", "d", "ball_over_kd")
CSV_HEADER = ",".join(_RECORD_COLUMNS)
RATIO_HEADER = ",".join(_RATIO_COLUMNS)
_LEAF_CAPACITY = 20  # shared by both backends so cells compare structures, not tuning


@dataclass
class BenchConfig:
    """What to measure: sizes x dims x backends x operations, plus workload knobs."""

    sizes: list[int] = field(default_factory=lambda: [1000, 5000, 20000])
    dims: list[int] = field(default_factory=lambda: [15])
    distribution: str = "uniform"
    seed: int = 42
    trials: int = 3
    knn_queries: int = 1000
    knn_k: int = 1
    mutation_count: int | None = None  # None: n // 10 per cell
    operations: list[str] = field(default_factory=lambda: ["build", "insert", "delete", "nn_search"])
    backends: list[str] = field(default_factory=lambda: ["kd", "ball"])

    def validate(self) -> None:
        for name, kind in (("sizes", int), ("dims", int), ("operations", str), ("backends", str)):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(_is_a(v, kind) for v in value):
                raise ValueError(f"{name} must be a list of {kind.__name__}s, got {value!r}")
        for name in ("seed", "trials", "knn_queries", "knn_k", "mutation_count"):
            value = getattr(self, name)
            if not _is_a(value, int) and not (name == "mutation_count" and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError(f"sizes must be non-empty positive ints, got {self.sizes}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be non-empty positive ints, got {self.dims}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.trials < 3:
            raise ValueError(f"trials must be >= 3 for a meaningful median, got {self.trials}")
        if self.knn_queries < 1 or self.knn_k < 1:
            raise ValueError("knn_queries and knn_k must be >= 1")
        if self.mutation_count is not None and self.mutation_count < 1:
            raise ValueError(f"mutation_count must be >= 1, got {self.mutation_count}")
        bad_ops = [op for op in self.operations if op not in OPERATIONS]
        if bad_ops or not self.operations:
            raise ValueError(f"operations must be a non-empty subset of {OPERATIONS}, got {self.operations}")
        bad_backends = [b for b in self.backends if b not in BACKENDS]
        if bad_backends or not self.backends:
            raise ValueError(f"backends must be a non-empty subset of {sorted(BACKENDS)}, got {self.backends}")

    @classmethod
    def from_dict(cls, data: dict) -> "BenchConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "BenchConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is not an int: JSON true is no count."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class TimingRecord:
    """One measured cell; elapsed_ms is the median of trial_values_ms."""

    backend: str
    operation: str
    n: int
    d: int
    elapsed_ms: float
    trial_values_ms: list[float]
    trials: int
    seed: int


@dataclass
class RatioRecord:
    operation: str
    n: int
    d: int
    ball_over_kd: float


@dataclass
class BenchmarkReport:
    config: dict
    environment: str
    records: list[TimingRecord]
    ratios: list[RatioRecord]


def _workload_rng(seed: int, n: int, d: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, n, d)))


def _time_cell(fn, trials: int, setup=lambda: None) -> list[float]:
    """Milliseconds of `trials` calls fn(setup()) after one untimed warmup.

    `setup` runs untimed before every call, so per-trial state (a fresh
    tree to mutate) is not charged to the operation.
    """
    values = []
    for trial in range(trials + 1):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        if trial:  # trial 0 is the warmup
            values.append((time.perf_counter() - start) * 1000.0)
    return values


def run_suite(cfg: BenchConfig) -> BenchmarkReport:
    """Run every requested cell and assemble records plus ball/kd ratios."""
    cfg.validate()
    records: list[TimingRecord] = []
    for n in cfg.sizes:
        for d in cfg.dims:
            ds = generate_synthetic(n, d, cfg.distribution, cfg.seed)
            rng = _workload_rng(cfg.seed, n, d)
            mutations = cfg.mutation_count if cfg.mutation_count is not None else max(1, n // 10)
            insert_coords = draw_coords(rng, mutations, d, cfg.distribution)
            delete_ids = rng.choice(n, size=min(mutations, n), replace=False).tolist()
            query_coords = draw_coords(rng, cfg.knn_queries, d, cfg.distribution)
            for backend in cfg.backends:
                for operation in cfg.operations:
                    try:
                        values = _run_cell(
                            operation, backend, ds, insert_coords, delete_ids, query_coords, cfg
                        )
                    except Exception as exc:
                        raise RuntimeError(
                            f"benchmark cell failed: backend={backend} operation={operation} n={n} d={d}: {exc}"
                        ) from exc
                    records.append(
                        TimingRecord(
                            backend=backend,
                            operation=operation,
                            n=n,
                            d=d,
                            elapsed_ms=float(statistics.median(values)),
                            trial_values_ms=values,
                            trials=len(values),
                            seed=cfg.seed,
                        )
                    )
    environment = (
        f"{platform.platform()} / Python {platform.python_version()} / NumPy {np.__version__}"
    )
    return BenchmarkReport(
        config=cfg.to_dict(),
        environment=environment,
        records=records,
        ratios=_compute_ratios(records),
    )


def _run_cell(operation, backend, ds, insert_coords, delete_ids, query_coords, cfg) -> list[float]:
    tree_cls = BACKENDS[backend]

    def fresh_tree():
        return tree_cls(ds, _LEAF_CAPACITY)

    if operation == "build":
        return _time_cell(lambda _: fresh_tree(), cfg.trials)

    if operation == "insert":
        points = [Point(ds.n + j, row) for j, row in enumerate(insert_coords)]

        def run_inserts(tree):
            for p in points:
                tree.insert(p)

        return _time_cell(run_inserts, cfg.trials, fresh_tree)  # build untimed

    if operation == "delete":

        def run_deletes(tree):
            for i in delete_ids:
                tree.delete(i)

        return _time_cell(run_deletes, cfg.trials, fresh_tree)

    if operation == "nn_search":
        tree = fresh_tree()

        def run_queries(_):
            for q in query_coords:
                tree.knn(q, cfg.knn_k)

        return _time_cell(run_queries, cfg.trials)

    if operation == "emst":
        return _time_cell(lambda _: dual_tree_boruvka(ds, backend, _LEAF_CAPACITY), cfg.trials)

    raise ValueError(f"unknown operation {operation!r}")


def _compute_ratios(records: list[TimingRecord]) -> list[RatioRecord]:
    """Ball over kd per (operation, n, d) cell where both ran, in first-seen order."""
    kd = {(r.operation, r.n, r.d): r.elapsed_ms for r in records if r.backend == "kd"}
    ball = {(r.operation, r.n, r.d): r.elapsed_ms for r in records if r.backend == "ball"}
    return [RatioRecord(*cell, ms / kd[cell]) for cell, ms in ball.items() if cell in kd]


# ---------------------------------------------------------------------------
# report formats


def emit_report(report: BenchmarkReport, format: str = "csv") -> str:
    """Render a report as CSV (two sections) or JSON (one object).

    CSV: the record header and rows, then a '# ratios' marker, the ratio
    header, and one row per cell where both backends ran.  JSON: one object
    with keys config, environment, records, ratios, in that order.
    """
    if format == "csv":
        lines = [CSV_HEADER] + [_csv_row(r, _RECORD_COLUMNS) for r in report.records]
        if report.records:
            lines += ["# ratios", RATIO_HEADER] + [_csv_row(r, _RATIO_COLUMNS) for r in report.ratios]
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps(asdict(report), indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def _csv_row(record, columns: tuple) -> str:
    # str of a float is its shortest round-tripping repr
    return ",".join(str(getattr(record, c)) for c in columns)


def _parse_row(cls, columns: tuple, line: str, **rest):
    """A `cls` record from one CSV row; ValueError unless it has one field per column."""
    kind = get_type_hints(cls)  # str, int or float: each parses its own cells
    cells = zip(columns, line.split(","), strict=True)
    return cls(**{c: kind[c](cell) for c, cell in cells}, **rest)


def parse_report_csv(text: str) -> BenchmarkReport:
    """Parse emit_report CSV output back into a report (timing fields only)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad report header: expected {CSV_HEADER!r}")
    cut = lines.index("# ratios") if "# ratios" in lines else len(lines)
    records = [_parse_row(TimingRecord, _RECORD_COLUMNS, r, trial_values_ms=[]) for r in lines[1:cut]]
    rest = lines[cut + 1 :]
    if cut < len(lines) and rest[:1] != [RATIO_HEADER]:
        raise ValueError(f"bad ratio header: expected {RATIO_HEADER!r}")
    ratios = [_parse_row(RatioRecord, _RATIO_COLUMNS, r) for r in takewhile(bool, rest[1:])]
    return BenchmarkReport(config={}, environment="", records=records, ratios=ratios)
