import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstbench import (
    Dataset,
    Edge,
    EdgeList,
    ParseError,
    Point,
    dual_tree_boruvka,
    euclidean_distance,
    format_edges,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from emstbench.core import cross_sq_dists, fmt17, sq_dists


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance(Point(0, [0.0, 0.0]), Point(1, [3.0, 4.0])) == 5.0

    def test_identical_points(self):
        p = Point(0, [1.0, 1.0, 1.0])
        assert euclidean_distance(p, Point(1, [1.0, 1.0, 1.0])) == 0.0

    def test_unit_diagonal(self):
        d = euclidean_distance(Point(0, [0.0, 0.0]), Point(1, [1.0, 1.0]))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(ValueError, match="2.*3|3.*2"):
            euclidean_distance(Point(0, [0.0, 0.0]), Point(1, [0.0, 0.0, 0.0]))

    def test_accepts_raw_arrays(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0


coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(*[st.tuples(coord, coord, coord)] * d)))
def test_triangle_inequality(dims):
    a = np.array([t[0] for t in dims])
    b = np.array([t[1] for t in dims])
    c = np.array([t[2] for t in dims])
    ab = euclidean_distance(a, b)
    bc = euclidean_distance(b, c)
    ac = euclidean_distance(a, c)
    assert ac <= ab + bc + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
def test_distance_symmetry_exact(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    assert euclidean_distance(a, b) == euclidean_distance(b, a)


def test_kernels_are_batch_invariant(rng):
    """Row results of the canonical kernel must not depend on the batch."""
    for scale in (1.0, 1e-160, 1e150):
        coords = rng.random((200, 7)) * scale
        q = rng.random(7) * scale
        full = sq_dists(coords, q)
        for _ in range(20):
            idx = rng.choice(200, size=rng.integers(1, 100), replace=False)
            assert np.array_equal(sq_dists(coords[idx], q), full[idx])
            cross = cross_sq_dists(coords[idx], coords)
            for row, i in zip(cross, idx):
                assert np.array_equal(row.view(np.uint64), sq_dists(coords, coords[i]).view(np.uint64))
        for i in range(20):
            assert sq_dists(coords[i][None, :], q)[0] == full[i]


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(5, 3, "uniform", seed=42)
        b = generate_synthetic(5, 3, "uniform", seed=42)
        assert np.array_equal(a.coords, b.coords)

    def test_single_gaussian_point(self):
        ds = generate_synthetic(1, 50, "gaussian", seed=0)
        assert ds.n == 1 and ds.d == 50
        assert np.isfinite(ds.coords).all()

    def test_uniform_range(self):
        ds = generate_synthetic(10000, 50, "uniform", seed=7)
        assert (ds.coords >= 0.0).all() and (ds.coords < 1.0).all()

    def test_different_seeds_differ(self):
        a = generate_synthetic(10, 2, "uniform", seed=1)
        b = generate_synthetic(10, 2, "uniform", seed=2)
        assert not np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("n,d", [(0, 3), (3, 0)])
    def test_rejects_empty(self, n, d):
        with pytest.raises(ValueError):
            generate_synthetic(n, d, "uniform", seed=0)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            generate_synthetic(3, 2, "exponential", seed=0)


class TestDataset:
    def test_ids_and_shapes(self):
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert ds.n == 2 and ds.d == 2
        assert [p.id for p in ds.points] == [0, 1]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.0, np.nan]]))

    def test_coords_read_only(self):
        ds = Dataset(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            ds.coords[0, 0] = 5.0

    def test_point_rejects_negative_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            Point(-1, [0.0])

    def test_point_rejects_2d_coords(self):
        with pytest.raises(ValueError, match=r"coords must be 1-D, got shape \(1, 2\)"):
            Point(0, [[0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_rejects_non_finite_coords(self, bad):
        with pytest.raises(ValueError, match="point 3 has non-finite coordinates"):
            Point(3, [0.0, bad])

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_rejects_coords_not_2d(self, shape):
        with pytest.raises(ValueError, match=r"coords must be 2-D \(n, d\)"):
            Dataset(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_rejects_an_empty_array(self, shape):
        with pytest.raises(ValueError, match="dataset needs n >= 1 and d >= 1"):
            Dataset(np.zeros(shape))


class TestCsvIO:
    def test_minimal_parse(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n3,4\n")
        ds = load_dataset(path)
        assert ds.n == 2 and ds.d == 2

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0,0\n3,4\n")
        ds = load_dataset(path)
        assert ds.n == 2 and ds.d == 2

    @pytest.mark.parametrize("header", ["", "x,y\n"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, header):
        """Excel's "CSV UTF-8" starts with a byte-order mark; only a real header is skipped."""
        path = tmp_path / "pts.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}1.0,2.0\n3,4\n5,6\n".encode())
        ds = load_dataset(path)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.coords, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_ragged_row_names_row_number(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_dataset(path)

    def test_non_numeric_field_names_row_and_column(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_field_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "pts.csv"
        path.write_text(f"x,y\n0,0\n1,2\n3,{cell}\n")
        with pytest.raises(ParseError, match="non-finite value .* at row 4, column 2"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data"):
            load_dataset(path)

    def test_round_trip_is_exact(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((37, 5)))
        path = tmp_path / "round.csv"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.coords, ds.coords)

    def test_round_trip_with_header(self, tmp_path):
        ds = Dataset(np.array([[1.5, -2.25]]))
        path = tmp_path / "h.csv"
        write_dataset(ds, path, header=["a", "b"])
        back = load_dataset(path)
        assert np.array_equal(back.coords, ds.coords)


class TestEdges:
    def test_edge_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            Edge(2, 1, 1.0)

    def test_edgelist_total_weight(self):
        el = EdgeList.from_edges([Edge(0, 1, 1.25), Edge(1, 2, 2.5)])
        assert el.total_weight == pytest.approx(3.75, rel=1e-12)
        assert len(el) == 2

    def test_sorted_edges_uses_total_order(self):
        el = EdgeList.from_edges([Edge(0, 2, 1.0), Edge(0, 1, 1.0), Edge(1, 2, 0.5)])
        assert [(e.u, e.v) for e in el.sorted_edges()] == [(1, 2), (0, 1), (0, 2)]


def edge_object_formatter(edgelist: EdgeList) -> str:
    """The edge file written edge object by edge object, as `format_edges` once did."""
    lines = [f"{e.u},{e.v},{fmt17(e.weight)}" for e in sorted(edgelist.edges, key=lambda e: (e.weight, e.u, e.v))]
    lines.append(f"# total_weight={fmt17(math.fsum(e.weight for e in edgelist.edges))}")
    return "\n".join(lines) + "\n"


def edge_lists(kind: str, n: int, seed: int):
    """An EMST of either backend, or a from_edges list, on uniform or lattice points."""
    rng = np.random.default_rng(seed)
    if kind.endswith("lattice"):
        # small integer coordinates: most weights tie, so ids decide the order
        coords = rng.integers(0, 4, (n, 2)).astype(float)
    else:
        coords = rng.random((n, 3))
    if kind.startswith("edges"):
        u = rng.integers(0, n - 1, n)
        v = u + 1 + rng.integers(0, n - 1 - u)
        w = np.sqrt(cross_sq_dists(coords, coords)[u, v])
        return EdgeList.from_edges(list(map(Edge, u.tolist(), v.tolist(), w.tolist())))
    return dual_tree_boruvka(Dataset(coords), kind.split("-")[0])


class TestArrayEdgeList:
    """`EdgeList` holds arrays; `.edges`, the order, the total and the file agree with them."""

    KINDS = ["kd-uniform", "ball-uniform", "kd-lattice", "ball-lattice", "edges-uniform", "edges-lattice"]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(2, 120), st.integers(0, 2**32 - 1))
    def test_views_agree_with_the_arrays(self, kind, n, seed):
        el = edge_lists(kind, n, seed)
        edges = el.edges
        assert el.edges is edges
        assert [(e.u, e.v, e.weight) for e in edges] == list(zip(el.u.tolist(), el.v.tolist(), el.w.tolist()))
        assert len(el) == len(edges)
        assert el.sorted_edges() == sorted(edges, key=lambda e: (e.weight, e.u, e.v))
        assert el.total_weight.hex() == math.fsum(e.weight for e in edges).hex()
        assert format_edges(el) == edge_object_formatter(el)

    @pytest.mark.parametrize("u, v", [([0, 3], [1, 3]), ([0, 4], [1, 2])])
    def test_rejects_any_edge_without_u_below_v(self, u, v):
        with pytest.raises(ValueError, match=f"u < v, got \\({u[1]}, {v[1]}\\)"):
            EdgeList(u, v, [1.0, 1.0])

    @pytest.mark.parametrize(
        "u, v, w",
        [([0, 1], [1, 2], [1.0]), ([0, 1], [2], [1.0, 2.0]), ([[0, 1]], [[1, 2]], [[1.0, 2.0]])],
        ids=["short-w", "short-v", "2-D"],
    )
    def test_rejects_arrays_of_other_shapes(self, u, v, w):
        with pytest.raises(ValueError, match="1-D of one length"):
            EdgeList(u, v, w)

    @pytest.mark.parametrize(
        "u, v",
        [([0.5], [1.7]), ([0], [1.7]), ([0.0, 1.0], [1.0, float("nan")]), (np.array([0.0]), np.array([1e30]))],
        ids=["fractions", "one-fraction", "nan", "too-large"],
    )
    def test_rejects_ids_that_are_not_integers(self, u, v):
        with pytest.raises(ValueError, match="edge ids must be integers"):
            EdgeList(u, v, [1.0] * len(u))

    def test_integral_floats_and_integer_arrays_are_ids(self):
        el = EdgeList([0.0, 2.0], np.array([1, 3], np.int32), [1.0, 2.0])
        assert el.u.dtype == el.v.dtype == np.intp
        assert el.u.tolist() == [0, 2] and el.v.tolist() == [1, 3]


def test_fmt17_round_trips_exactly(rng):
    for x in rng.standard_normal(100).tolist():
        assert float(fmt17(x)) == x
