import json

import pytest

from emstbench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


THREE_POINTS = "0,0\n1,0\n5,0\n"


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "gen", "--n", "5", "--d", "2", "--seed", "42", "--out", str(a))[0] == 0
        assert run_cli(capsys, "gen", "--n", "5", "--d", "2", "--seed", "42", "--out", str(b))[0] == 0
        assert a.read_text() == b.read_text()

    def test_bad_n_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "0", "--d", "2", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1


class TestEmst:
    def test_three_point_example(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text(THREE_POINTS)
        out = tmp_path / "edges.txt"
        code, stdout, _ = run_cli(capsys, "emst", "--in", str(data), "--out", str(out))
        assert code == 0
        assert stdout.strip() == "total_weight=5"
        lines = out.read_text().splitlines()
        assert lines == ["0,1,1", "1,2,4", "# total_weight=5"]

    def test_backends_agree_on_files(self, tmp_path, capsys, rng):
        data = tmp_path / "pts.csv"
        rows = rng.random((80, 3))
        data.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")
        outputs = {}
        for backend in ("kd", "ball", "naive", "kruskal"):
            out = tmp_path / f"{backend}.txt"
            code, stdout, _ = run_cli(capsys, "emst", "--in", str(data), "--backend", backend, "--out", str(out))
            assert code == 0
            outputs[backend] = out.read_text()
        assert len(set(outputs.values())) == 1

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, capsys, rng):
        text = "\n".join(",".join(repr(float(x)) for x in row) for row in rng.random((40, 3))) + "\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outputs = [run_cli(capsys, "emst", "--in", str(path)) for path in (plain, bom)]
        assert outputs[0][0] == 0 and outputs[0][1].startswith("total_weight=")
        assert outputs[1] == outputs[0]

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "emst", "--in", str(tmp_path / "nope.csv"))
        assert code == 1
        assert err.startswith("error:")

    def test_parse_error_names_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0,0\n1\n")
        code, _, err = run_cli(capsys, "emst", "--in", str(data))
        assert code == 1
        assert "row 2" in err

    def test_non_finite_cell_names_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0,0\n1,0\nnan,5\n")
        code, stdout, err = run_cli(capsys, "emst", "--in", str(data))
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "row 3, column 1" in err

    def test_stdout_without_out_flag(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text(THREE_POINTS)
        code, stdout, _ = run_cli(capsys, "emst", "--in", str(data))
        assert code == 0
        assert stdout == "total_weight=5\n"


class TestCluster:
    def test_two_far_pairs(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text("0,0\n0,1\n100,0\n100,1\n")
        out = tmp_path / "labels.csv"
        code, _, _ = run_cli(capsys, "cluster", "--in", str(data), "--k", "2", "--out", str(out))
        assert code == 0
        assert out.read_text() == "0,0\n1,0\n2,1\n3,1\n"

    def test_k_too_large_exits_one(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text(THREE_POINTS)
        code, _, err = run_cli(capsys, "cluster", "--in", str(data), "--k", "9", "--out", str(tmp_path / "l.csv"))
        assert code == 1
        assert "k must be" in err


class TestBench:
    def test_flags_run_and_write_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--sizes", "40",
            "--dims", "2",
            "--trials", "3",
            "--knn-queries", "3",
            "--mutations", "3",
            "--ops", "build,nn_search",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "backend,operation,n,d,elapsed_ms,trials,seed"
        assert "# ratios" in lines

    def test_config_file_json_to_stdout(self, tmp_path, capsys):
        cfg = {
            "sizes": [30],
            "dims": [2],
            "trials": 3,
            "knn_queries": 2,
            "mutation_count": 2,
            "operations": ["build"],
            "backends": ["kd"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, stdout, _ = run_cli(capsys, "bench", "--config", str(path), "--format", "json")
        assert code == 0
        report = json.loads(stdout)
        assert list(report) == ["config", "environment", "records", "ratios"]
        assert report["records"][0]["n"] == 30

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sizes": [30], "dims": [2], "operations": ["build"], "backends": ["kd"], "trials": 3}))
        code, stdout, _ = run_cli(
            capsys,
            "bench",
            "--config", str(path),
            "--sizes", "25",
            "--dist", "gaussian",
            "--mutations", "2",
            "--ops", "build,delete",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["records"][0]["n"] == 25
        config = report["config"]
        assert (config["distribution"], config["mutation_count"]) == ("gaussian", 2)
        assert config["operations"] == ["build", "delete"]

    @pytest.mark.parametrize(
        "text,named", [('{"trials": "3"}', "trials"), ('{"sizes": 5}', "sizes"), ("[1, 2]", "JSON object")]
    )
    def test_config_of_the_wrong_type_exits_one(self, tmp_path, capsys, text, named):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and named in err

    def test_bad_trials_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--trials", "1", "--sizes", "10", "--dims", "2")
        assert code == 1
        assert "trials" in err


class TestUsageErrors:
    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "3", "--d", "2", "--out", "x.csv", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_backend_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emst", "--in", "x.csv", "--backend", "octree"])
        assert exc.value.code == 2
