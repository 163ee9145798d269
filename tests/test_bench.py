import json

import pytest

from emstbench import (
    BenchConfig,
    BenchmarkReport,
    RatioRecord,
    TimingRecord,
    emit_report,
    parse_report_csv,
    run_suite,
)
from emstbench.bench import CSV_HEADER, RATIO_HEADER


def tiny_config(**overrides):
    base = dict(
        sizes=[60],
        dims=[2],
        distribution="uniform",
        seed=9,
        trials=3,
        knn_queries=5,
        knn_k=2,
        mutation_count=4,
        operations=["build", "insert", "delete", "nn_search", "emst"],
        backends=["kd", "ball"],
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        BenchConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sizes", []),
            ("sizes", [0]),
            ("dims", [-1]),
            ("distribution", "zipf"),
            ("trials", 2),
            ("knn_queries", 0),
            ("knn_k", 0),
            ("mutation_count", 0),
            ("operations", ["sort"]),
            ("operations", []),
            ("backends", ["rtree"]),
            ("trials", "3"),
            ("sizes", 5),
            ("sizes", [True]),
            ("dims", (2,)),
            ("seed", 1.5),
            ("knn_k", True),
            ("mutation_count", "4"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        cfg = tiny_config(**{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            BenchConfig.from_dict({"size": [10]})

    def test_json_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert BenchConfig.from_json_file(path) == cfg


class TestRunSuite:
    def test_record_per_cell_and_median(self):
        cfg = tiny_config()
        report = run_suite(cfg)
        assert len(report.records) == 2 * 5  # backends x operations
        for r in report.records:
            assert r.trials == 3
            assert len(r.trial_values_ms) == 3
            assert r.elapsed_ms == sorted(r.trial_values_ms)[1]
            assert all(v >= 0 for v in r.trial_values_ms)

    def test_ratios_cover_every_cell(self):
        report = run_suite(tiny_config())
        assert {(rr.operation, rr.n, rr.d) for rr in report.ratios} == {
            (op, 60, 2) for op in ("build", "insert", "delete", "nn_search", "emst")
        }
        assert all(rr.ball_over_kd > 0 for rr in report.ratios)

    def test_median_invariant_to_trial_order(self, rng):
        import statistics

        values = rng.random(5).tolist()
        medians = {statistics.median(rng.permutation(values).tolist()) for _ in range(20)}
        assert len(medians) == 1

    def test_non_timing_fields_reproducible(self):
        a = run_suite(tiny_config())
        b = run_suite(tiny_config())
        strip = lambda rep: [
            (r.backend, r.operation, r.n, r.d, r.trials, r.seed) for r in rep.records
        ]
        assert strip(a) == strip(b)
        assert a.config == b.config
        assert a.environment == b.environment

    def test_kd_only_produces_no_ratios(self):
        report = run_suite(tiny_config(backends=["kd"], operations=["build"]))
        assert len(report.records) == 1
        assert report.ratios == []

    def test_failing_cell_names_itself(self, monkeypatch):
        import emstbench.bench as bench_mod

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setitem(bench_mod.BACKENDS, "kd", boom)
        with pytest.raises(RuntimeError, match=r"backend=kd operation=build n=60 d=2"):
            run_suite(tiny_config(backends=["kd"], operations=["build"]))


class TestEmitReport:
    def sample_report(self):
        return BenchmarkReport(
            config={},
            environment="test",
            records=[
                TimingRecord("kd", "build", 100, 3, 1.5, [1.0, 1.5, 2.0], 3, 7),
                TimingRecord("ball", "build", 100, 3, 4.5, [4.0, 4.5, 5.0], 3, 7),
            ],
            ratios=[RatioRecord("build", 100, 3, 3.0)],
        )

    def test_empty_report_is_header_only(self):
        text = emit_report(BenchmarkReport({}, "", [], []), "csv")
        assert text == CSV_HEADER + "\n"

    def test_csv_shape(self):
        lines = emit_report(self.sample_report(), "csv").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "kd,build,100,3,1.5,3,7"
        assert lines[2] == "ball,build,100,3,4.5,3,7"
        assert lines[3] == "# ratios"
        assert lines[4] == RATIO_HEADER
        assert lines[5] == "build,100,3,3.0"

    def test_csv_round_trip_bit_identical(self):
        text = emit_report(self.sample_report(), "csv")
        again = emit_report(parse_report_csv(text), "csv")
        assert again == text

    def test_round_trip_preserves_fields(self):
        parsed = parse_report_csv(emit_report(self.sample_report(), "csv"))
        [kd, ball] = parsed.records
        assert (kd.backend, kd.operation, kd.n, kd.d) == ("kd", "build", 100, 3)
        assert kd.elapsed_ms == 1.5 and kd.trials == 3 and kd.seed == 7
        assert parsed.ratios == [RatioRecord("build", 100, 3, 3.0)]

    def test_real_report_round_trips(self):
        report = run_suite(tiny_config(operations=["build", "nn_search"]))
        text = emit_report(report, "csv")
        assert emit_report(parse_report_csv(text), "csv") == text

    def test_json_mirror(self):
        report = self.sample_report()
        obj = json.loads(emit_report(report, "json"))
        assert list(obj) == ["config", "environment", "records", "ratios"]
        assert obj["records"][0]["backend"] == "kd"
        assert obj["records"][0]["trial_values_ms"] == [1.0, 1.5, 2.0]
        assert obj["ratios"][0]["ball_over_kd"] == 3.0

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(self.sample_report(), "xml")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_report_csv("nope\n")

    @pytest.mark.parametrize(
        "line, row",
        [
            (1, "kd,build,100,3,1.5,3"),
            (1, "kd,build,100,3,1.5,3,7,8"),
            (5, "build,100,3"),
            (5, "build,100,3,3.0,4"),
        ],
        ids=["record-short", "record-long", "ratio-short", "ratio-long"],
    )
    def test_parse_rejects_a_row_of_the_wrong_width(self, line, row):
        lines = emit_report(self.sample_report(), "csv").splitlines()
        lines[line] = row
        with pytest.raises(ValueError):
            parse_report_csv("\n".join(lines) + "\n")
