"""Point/dataset model, the Euclidean metric, synthetic data, and CSV ingestion.

Every exact squared distance in the package is a call of `sq_dists`, and a
row's result does not depend on the batch it was computed in: one pair, a
batch against a query, a row of `cross_sq_dists` or a chunk of pairs give the
same bits for the same two points.  That consistency is what lets
independently-implemented MST and k-NN routines agree exactly instead of
merely within tolerance.

Ties between equal distances are broken by the normalized id pair, giving a
total order on point pairs: weight, then min id, then max id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ParseError",
    "Point",
    "Dataset",
    "Edge",
    "EdgeList",
    "euclidean_distance",
    "generate_synthetic",
    "load_dataset",
    "write_dataset",
    "sq_dists",
    "cross_sq_dists",
    "check_sq_range",
    "fmt17",
]

DISTRIBUTIONS = ("uniform", "gaussian")

# Largest accepted bound on a squared pair distance; the headroom absorbs the
# rounding of the bound itself and of the `sq_dists` reduction.
_SQ_LIMIT = float(np.finfo(np.float64).max) / 4.0


class ParseError(ValueError):
    """A dataset file could not be parsed; the message names row (and column)."""


# ---------------------------------------------------------------------------
# metric kernels


def sq_dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each row of `points` to `q`.

    `q` is one point, or one row per row of `points` for distances of pairs.
    """
    d = points - q
    return np.einsum("ij,ij->i", d, d)


def cross_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared distances between rows of `a` and rows of `b`."""
    out = np.empty((a.shape[0], b.shape[0]))
    for i, row in enumerate(a):
        out[i] = sq_dists(b, row)
    return out


def check_sq_range(coords: np.ndarray) -> None:
    """Raise ValueError if a squared distance between two rows can overflow float64.

    Every squared pair distance is at most the squared diagonal of the rows'
    bounding box, so that is the bound checked.
    """
    if len(coords) < 2:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        extent = coords.max(axis=0) - coords.min(axis=0)
        bound = float(np.einsum("i,i->", extent, extent))
    if not bound <= _SQ_LIMIT:
        raise ValueError(
            f"coordinates too far apart: squared pair distances can reach {bound:.3g}, "
            "which overflows float64; rescale the dataset"
        )


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for binary64)."""
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class Point:
    """A d-dimensional point with a stable non-negative integer id."""

    id: int
    coords: np.ndarray

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"point id must be non-negative, got {self.id}")
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"coords must be 1-D, got shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError(f"point {self.id} has non-finite coordinates")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


class Dataset:
    """An immutable set of n points in d dimensions with ids 0..n-1.

    Coordinates are held in one read-only (n, d) float64 array; `Point`
    objects are created on demand as views into it.
    """

    def __init__(self, coords: np.ndarray):
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-D (n, d), got shape {coords.shape}")
        if coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ValueError(f"dataset needs n >= 1 and d >= 1, got shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("dataset contains non-finite coordinates")
        coords.setflags(write=False)
        self.coords = coords

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def point(self, i: int) -> Point:
        return Point(i, self.coords[i])

    @property
    def points(self) -> list[Point]:
        return [self.point(i) for i in range(self.n)]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


def coords_of(p) -> np.ndarray:
    """The coordinate vector of a Point, or a raw sequence as float64."""
    return p.coords if isinstance(p, Point) else np.asarray(p, dtype=np.float64)


def euclidean_distance(a, b) -> float:
    """Euclidean distance between two points (or raw coordinate vectors)."""
    ca, cb = coords_of(a), coords_of(b)
    if ca.shape[0] != cb.shape[0]:
        raise ValueError(
            f"dimension mismatch: {ca.shape[0]} vs {cb.shape[0]}"
        )
    return math.sqrt(sq_dists(ca[None, :], cb)[0])


@dataclass(frozen=True)
class Edge:
    """A weighted edge between point ids, normalized so u < v."""

    u: int
    v: int
    weight: float

    def __post_init__(self):
        if not self.u < self.v:
            raise ValueError(f"edge ids must satisfy u < v, got ({self.u}, {self.v})")


def _ids(values) -> np.ndarray:
    """`values` as an intp array; ValueError if one is not an integer (1.7, nan, 1e30)."""
    raw = np.asarray(values)
    if raw.dtype.kind in "iu":
        return np.array(raw, np.intp)
    with np.errstate(invalid="ignore"):  # a cast that fails is caught below
        ids = raw.astype(np.intp)
    bad = ids != raw
    if bad.any():
        raise ValueError(f"edge ids must be integers, got {raw[bad].flat[0]!r}")
    return ids


class EdgeList:
    """Edges as arrays: edge i joins ids u[i] < v[i] (intp) at weight w[i] (float64).

    `total_weight` is `math.fsum(w)`, correctly rounded in any edge order;
    `Edge` objects are built only when `.edges` is first read.
    """

    def __init__(self, u, v, w):
        self.u, self.v, self.w = _ids(u), _ids(v), np.array(w, np.float64)
        if not self.u.shape == self.v.shape == self.w.shape == (self.w.size,):
            raise ValueError(f"u, v, w must be 1-D of one length: {self.u.shape}, {self.v.shape}, {self.w.shape}")
        bad = self.u >= self.v
        if bad.any():
            raise ValueError(f"edge ids must satisfy u < v, got ({self.u[bad][0]}, {self.v[bad][0]})")
        self.total_weight = math.fsum(self.w.tolist())

    @classmethod
    def from_edges(cls, edges: list[Edge]) -> "EdgeList":
        el = cls([e.u for e in edges], [e.v for e in edges], [e.weight for e in edges])
        el.edges = list(edges)  # the cache `.edges` reads
        return el

    @cached_property
    def edges(self) -> list[Edge]:
        return list(map(Edge, self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def order(self) -> np.ndarray:
        """Edge indices ascending by the total order (w, u, v)."""
        return np.lexsort((self.v, self.u, self.w))

    def sorted_edges(self) -> list[Edge]:
        return [self.edges[i] for i in self.order().tolist()]

    def __len__(self) -> int:
        return len(self.w)


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion


def generate_synthetic(n: int, d: int, distribution: str = "uniform", seed: int = 0) -> Dataset:
    """Deterministic synthetic dataset of n points in d dimensions.

    `uniform` draws each coordinate from [0, 1); `gaussian` draws from a
    standard normal.  The generator is numpy's PCG64, so equal arguments
    always reproduce the same dataset bit for bit.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return Dataset(draw_coords(np.random.default_rng(seed), n, d, distribution))


def draw_coords(rng: np.random.Generator, count: int, d: int, distribution: str) -> np.ndarray:
    """`count` points in d dimensions from `rng`: uniform on [0, 1) or standard normal."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}, expected one of {DISTRIBUTIONS}")
    if distribution == "uniform":
        return rng.random((count, d))
    return rng.standard_normal((count, d))


def load_dataset(path) -> Dataset:
    """Load a dataset from a CSV file: one point per row, comma-separated.

    A single leading non-numeric row is treated as a header and skipped.
    Rows must all have the same number of fields; d is inferred from the
    first data row and ids are assigned in row order.  A ragged row, a
    non-numeric field or a NaN/infinite value raises ParseError naming it.
    """
    # "utf-8-sig" drops a byte-order mark, which would make row 1 a header
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")

    rows: list[list[float]] = []
    row_lines: list[int] = []
    d = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        values = []
        bad_col = None
        for col, field in enumerate(fields, start=1):
            try:
                values.append(float(field))
            except ValueError:
                bad_col = col
                break
        if bad_col is not None:
            if not rows and d is None:
                # header row: skipped, but it still pins the field count
                d = len(fields)
                continue
            raise ParseError(f"non-numeric field at row {lineno}, column {bad_col}: {fields[bad_col - 1]!r}")
        if d is None:
            d = len(values)
        elif len(values) != d:
            raise ParseError(f"ragged row {lineno}: expected {d} fields, got {len(values)}")
        rows.append(values)
        row_lines.append(lineno)

    if not rows:
        raise ValueError(f"no data rows in {path}")
    coords = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(coords))
    if len(bad):
        r, c = bad[0]
        raise ParseError(f"non-finite value {coords[r, c]} at row {row_lines[r]}, column {c + 1}")
    return Dataset(coords)


def write_dataset(ds: Dataset, path, header: list[str] | None = None) -> None:
    """Write a dataset as CSV with 17-significant-digit coordinates."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in ds.coords:
            fh.write(",".join(fmt17(x) for x in row) + "\n")
