import csv
import io
import json

import pytest

from turan_systems import cli
from turan_systems.hypergraph import UniformHypergraph, is_turan_system


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "cache.json"))


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_prefix_to_stdout(self, capsys):
        code, out, _ = run(
            ["construct", "prefix", "--n", "6", "--s", "4", "--r", "3"], capsys
        )
        assert code == 0
        H = UniformHypergraph.from_json(out)
        assert is_turan_system(H, 4).is_turan

    def test_out_file_and_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "sys.json"
        code, _, _ = run(
            [
                "construct", "prefix",
                "--n", "6", "--s", "4", "--r", "3",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "sys.json.manifest.json").read_text())
        assert manifest["subcommand"] == "construct"
        assert str(out_path) in manifest["outputs"]
        import hashlib

        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out_path)] == digest

    def test_coloring_requires_seed(self, capsys):
        code, _, err = run(
            [
                "construct", "coloring",
                "--n", "6", "--s", "4", "--r", "3", "--ell", "2",
            ],
            capsys,
        )
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["prefix", "--n", "6", "--s", "4"], "--r"),
            (["coloring", "--n", "6", "--s", "4", "--r", "3", "--seed", "7"], "--ell"),
            (["blowup", "--m", "2"], "--input"),
            (["recursive", "--n", "8", "--r", "3", "--seed", "1"], "--big-r, --k, --c"),
        ],
        ids=["prefix", "coloring", "blowup", "recursive"],
    )
    def test_missing_required_option_exit2(self, argv, flags, capsys):
        code, out, err = run(["construct", *argv], capsys)
        assert code == 2 and out == ""
        assert err == f"construct {argv[0]} requires {flags}\n"

    def test_coloring_success(self, capsys):
        code, out, _ = run(
            [
                "construct", "coloring",
                "--n", "6", "--s", "4", "--r", "3", "--ell", "2", "--seed", "7",
            ],
            capsys,
        )
        assert code == 0
        H = UniformHypergraph.from_json(out)
        assert is_turan_system(H, 4).is_turan

    def test_coloring_round_cap_exit3(self, capsys):
        code, _, err = run(
            [
                "construct", "coloring",
                "--n", "6", "--s", "4", "--r", "3", "--ell", "20",
                "--seed", "1", "--max-rounds", "30",
            ],
            capsys,
        )
        assert code == 3 and "resampling cap" in err

    def test_blowup_pipeline(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        run(
            [
                "construct", "prefix",
                "--n", "4", "--s", "3", "--r", "2", "--out", str(base),
            ],
            capsys,
        )
        code, out, _ = run(
            ["construct", "blowup", "--input", str(base), "--m", "2"], capsys
        )
        assert code == 0
        H = UniformHypergraph.from_json(out)
        assert H.n == 8
        assert is_turan_system(H, 3).is_turan

    def test_blowup_missing_input_exit2(self, tmp_path, capsys):
        code, _, _ = run(
            ["construct", "blowup", "--input", str(tmp_path / "nope.json"), "--m", "2"],
            capsys,
        )
        assert code == 2

    def test_recursive_deterministic(self, tmp_path, capsys):
        argv = [
            "construct", "recursive",
            "--n", "8", "--r", "3", "--big-r", "1", "--k", "2",
            "--c", "1.0", "--seed", "11",
        ]
        a = run(argv + ["--out", str(tmp_path / "a.json")], capsys)
        b = run(argv + ["--out", str(tmp_path / "b.json")], capsys)
        assert a[0] == b[0] == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        H = UniformHypergraph.from_json((tmp_path / "a.json").read_text())
        assert is_turan_system(H, 4).is_turan


class TestVerify:
    def _write_system(self, tmp_path, capsys, broken=False):
        path = tmp_path / "H.json"
        run(
            [
                "construct", "prefix",
                "--n", "6", "--s", "4", "--r", "3", "--out", str(path),
            ],
            capsys,
        )
        if broken:
            obj = json.loads(path.read_text())
            obj["edges"] = obj["edges"][1:]
            path.write_text(json.dumps(obj))
        return str(path)

    def test_verified_true_exit0(self, tmp_path, capsys):
        path = self._write_system(tmp_path, capsys)
        code, out, _ = run(["verify", "--input", path, "--s", "4"], capsys)
        report = json.loads(out)
        assert code == 0 and report["is_turan"]

    def test_verified_false_exit1_with_witness(self, tmp_path, capsys):
        path = self._write_system(tmp_path, capsys, broken=True)
        code, out, _ = run(["verify", "--input", path, "--s", "4"], capsys)
        report = json.loads(out)
        assert code == 1 and not report["is_turan"]
        assert report["witness"] is not None

    def test_budget_refusal_exit4(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        H = UniformHypergraph.from_edges(40, 2, [(0, 1)])
        path.write_text(H.to_json())
        code, _, _ = run(
            ["verify", "--input", path.as_posix(), "--s", "20", "--budget", "1000"],
            capsys,
        )
        assert code == 4

    def test_sample_mode_needs_seed(self, tmp_path, capsys):
        path = self._write_system(tmp_path, capsys)
        code, _, err = run(
            ["verify", "--input", path, "--s", "4", "--mode", "sample"], capsys
        )
        assert code == 2 and "seed" in err

    def test_sample_mode_deterministic(self, tmp_path, capsys):
        path = self._write_system(tmp_path, capsys)
        argv = [
            "verify", "--input", path, "--s", "4",
            "--mode", "sample", "--trials", "200", "--seed", "5",
        ]
        a = run(argv, capsys)
        b = run(argv, capsys)
        assert a == b and a[0] == 0

    def test_unparsable_input_exit2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        code, _, err = run(["verify", "--input", str(path), "--s", "4"], capsys)
        assert code == 2 and "cannot parse" in err


class TestSolve:
    def test_solve_small(self, capsys):
        code, out, _ = run(["solve", "--n", "5", "--s", "4", "--r", "3"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["optimum"] == 3 and obj["proven_optimal"]

    def test_solve_uses_env_cache(self, tmp_path, capsys, monkeypatch):
        cache_path = tmp_path / "cache2.json"
        monkeypatch.setenv("TURAN_CACHE", str(cache_path))
        run(["solve", "--n", "5", "--s", "4", "--r", "3"], capsys)
        assert cache_path.exists()
        code, out, _ = run(["solve", "--n", "5", "--s", "4", "--r", "3"], capsys)
        assert code == 0 and json.loads(out)["nodes_explored"] == 0

    def test_bad_parameters_exit2(self, capsys):
        code, _, _ = run(["solve", "--n", "4", "--s", "5", "--r", "2"], capsys)
        assert code == 2

    def test_unwritable_cache_warns_and_exits0(self, capsys, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", "/no/such/dir/c.json")
        code, out, err = run(["solve", "--n", "5", "--s", "4", "--r", "3"], capsys)
        assert code == 0 and json.loads(out)["optimum"] == 3
        assert len(err.splitlines()) == 1 and err.startswith("warning: ")


class TestBounds:
    def test_json_format(self, capsys):
        code, out, _ = run(
            ["bounds", "--r", "100", "--big-r", "10", "--format", "json"], capsys
        )
        rows = json.loads(out)["rows"]
        assert code == 0
        names = {row["bound_name"] for row in rows}
        assert {"decaen_lower", "limit_alpha", "R_log_binom"} <= names

    def test_csv_format_columns(self, capsys):
        code, out, _ = run(
            ["bounds", "--r", "100", "--big-r", "10", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and set(rows[0]) == {
            "r", "R", "bound_name", "kind", "value", "assumptions"
        }

    def test_deterministic_output(self, capsys):
        argv = ["bounds", "--r", "1000", "--big-r", "5", "--format", "json"]
        assert run(argv, capsys) == run(argv, capsys)

    def test_degenerate_chain_row_omitted(self, capsys):
        code, out, err = run(
            ["bounds", "--r", "2", "--big-r", "2000", "--format", "json"], capsys
        )
        names = {row["bound_name"] for row in json.loads(out)["rows"]}
        assert code == 0 and not err
        assert "R_log_binom" in names and "chain_lhs_over_RlnC" not in names


class TestCertifyLll:
    def test_schedule_cell_passes(self, capsys):
        code, out, _ = run(["certify-lll", "--r", "1000", "--big-r", "10"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["certificate"]["condition_holds"]
        assert "chain_check" in obj

    def test_explicit_overrides(self, capsys):
        code, out, _ = run(
            ["certify-lll", "--r", "3", "--big-r", "1", "--n", "20", "--ell", "1"],
            capsys,
        )
        obj = json.loads(out)
        assert code == 0 and obj["certificate"]["condition_holds"]
        assert "chain_check" not in obj

    def test_failing_condition_exit1(self, capsys):
        # Far too many colours at a tiny ground set: the lemma condition fails.
        code, out, _ = run(
            ["certify-lll", "--r", "3", "--big-r", "1", "--n", "8", "--ell", "4"],
            capsys,
        )
        obj = json.loads(out)
        assert code == 1 and not obj["certificate"]["condition_holds"]

    def test_C_over_ell_beyond_float_range(self, capsys):
        # C(3000,1000)/3 exceeds float range; the certificate still prints.
        code, out, err = run(
            ["certify-lll", "--r", "2000", "--big-r", "1000", "--n", "5000", "--ell", "3"],
            capsys,
        )
        cert = json.loads(out)["certificate"]
        assert code == (0 if cert["condition_holds"] else 1) and not err
        assert cert["ratio_C_over_ell"] == float("inf")

    def test_degenerate_cell_exit3(self, capsys):
        code, _, err = run(["certify-lll", "--r", "2", "--big-r", "1"], capsys)
        assert code == 3 and "degenerate" in err

    @pytest.mark.parametrize("big_r", ["2000", str(10**17)])
    def test_degenerate_log_path_cell_exit3(self, capsys, big_r):
        # N <= s on the log-space path, with N floored (R = 2000, N = 1001)
        # or carried as ln N (R = 10^17, N about R/2).
        code, out, err = run(["certify-lll", "--r", "2", "--big-r", big_r], capsys)
        assert code == 3 and not out
        assert err.startswith("degenerate parameters: N = ") and "<= s = " in err


class TestTable:
    def test_grid_csv(self, capsys):
        code, out, _ = run(
            ["table", "--grid", "r=100,200;R=3,5", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cells = {(row["r"], row["R"]) for row in rows}
        assert cells == {("100", "3"), ("100", "5"), ("200", "3"), ("200", "5")}

    def test_bad_grid_exit2(self, capsys):
        code, _, _ = run(["table", "--grid", "r=100"], capsys)
        assert code == 2
        code, _, _ = run(["table", "--grid", "q=1;R=2"], capsys)
        assert code == 2


class TestParser:
    def test_unknown_subcommand_exits2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
