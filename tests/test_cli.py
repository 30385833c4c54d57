import ast
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import turan_systems
from turan_systems import bounds, cli
from turan_systems.hypergraph import UniformHypergraph, is_turan_system


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "cache.json"))


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# What the installed `turan` script runs, then one more line on stdout:
# the package modules loaded by the time it exits.
_FRESH_TURAN = """\
import sys
from turan_systems.cli import main
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print("\\n" + " ".join(m for m in sys.modules if m.startswith("turan_systems.")))
"""


def run_fresh(args, timeout=None, max_bytes=None):
    """Exit code, stdout and stderr of `turan args` in a fresh interpreter
    that imports the package from this checkout, and the package modules
    it loaded.  timeout and max_bytes (its address space) bound a command
    that should be refused at once."""
    src = os.path.dirname(os.path.dirname(turan_systems.__file__))

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_TURAN, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=timeout, preexec_fn=cap if max_bytes else None,
    )
    out, _, modules = proc.stdout[:-1].rpartition("\n")
    return (proc.returncode, out, proc.stderr), set(modules.split())


class TestConstruct:
    def test_prefix_to_stdout(self, capsys):
        code, out, _ = run(
            ["construct", "prefix", "--n", "6", "--s", "4", "--r", "3"], capsys
        )
        assert code == 0
        H = UniformHypergraph.from_json(out)
        assert is_turan_system(H, 4).is_turan

    @pytest.mark.parametrize("n", [5_000_000, 32_770])
    def test_prefix_beyond_mask_bits_exit4(self, n):
        # The prefix's m = n - 1 vertices give m r-sets, within the
        # 5,000,000-set budget, of m bits each: m * m bits, above 2^30 from
        # m = 32769 on.  Refused before any mask is built; the time and
        # memory caps stop a regression that builds them.
        argv = ["construct", "prefix", "--n", str(n), "--s", "2", "--r", "1"]
        (code, out, err), _ = run_fresh(argv, timeout=20, max_bytes=2**30)
        assert (code, out) == (4, "")
        assert err.splitlines() == [f"C({n - 1},1) masks of {n - 1} bits exceed the bit budget"]

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
                "--n", "6", "--s", "4", "--r", "3", "--ell", "4",
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

    @pytest.mark.parametrize("n, m", [(1, 1), (0, 2)])
    def test_blowup_below_two_vertices(self, tmp_path, capsys, n, m):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"n": n, "r": 2, "edges": []}))
        code, out, err = run(
            ["construct", "blowup", "--input", str(base), "--m", str(m)], capsys
        )
        assert (code, err) == (0, "")
        H = UniformHypergraph.from_json(out)
        assert (H.n, H.r, H.edges) == (m * n, 2, ())

    def test_blowup_missing_input_exit2(self, tmp_path, capsys):
        code, _, _ = run(
            ["construct", "blowup", "--input", str(tmp_path / "nope.json"), "--m", "2"],
            capsys,
        )
        assert code == 2

    def test_unwritable_out_exit2_one_line(self, tmp_path, capsys):
        out_path = tmp_path / "no-such-dir" / "x.json"
        code, out, err = run(
            ["construct", "prefix", "--n", "6", "--s", "4", "--r", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 2 and not out
        assert err == f"[Errno 2] No such file or directory: '{out_path}'\n"

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


# System files that are not systems, by what is wrong with them: each must
# give exit 2 and one line.
MALFORMED_SYSTEMS = {
    "edge-not-iterable": '{"n": 4, "r": 2, "edges": [1, 2]}',
    "str-vertices": '{"n": 4, "r": 2, "edges": [["a", "b"]]}',
    "float-vertex": '{"n": 4, "r": 2, "edges": [[0.5, 1]]}',
    # Vertices that cannot be compared reach the type check (messages
    # pinned in test_hypergraph.TestLoaderMessages).
    "null-vertex": '{"n": 4, "r": 2, "edges": [[null, 1]]}',
    "mixed-vertices": '{"n": 4, "r": 2, "edges": [["a", 1]]}',
    "nested-vertex": '{"n": 4, "r": 2, "edges": [[0, [1]]]}',
    "bool-vertex": '{"n": 4, "r": 2, "edges": [[true, 2], [0, 1]]}',
    # A bool or float after an equal int is still refused.
    "bool-after-int": '{"n": 4, "r": 2, "edges": [[0, 1], [true, 2]]}',
    "float-after-int": '{"n": 4, "r": 2, "edges": [[3, 1], [3.0, 2]]}',
    "root-not-object": "[1]",
    "n-not-integer": '{"n": "4", "r": 2, "edges": []}',
    "r-not-integer": '{"n": 4, "r": 2.0, "edges": []}',
    "no-edges": '{"n": 4, "r": 2}',
    "edges-not-iterable": '{"n": 4, "r": 2, "edges": 5}',
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
}


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
        # C(10^6, 2000) has more digits than str() prints.
        edgeless = tmp_path / "edgeless.json"
        edgeless.write_text(json.dumps({"n": 10**6, "r": 1, "edges": []}))
        for argv in (
            ["verify", "--input", path.as_posix(), "--s", "20", "--budget", "1000"],
            ["verify", "--input", edgeless.as_posix(), "--s", "2000"],
        ):
            code, _, err = run(argv, capsys)
            assert code == 4 and len(err.splitlines()) == 1, argv

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

    def test_sample_mode_at_huge_n(self, tmp_path, capsys):
        # Unranking steps down by doubling strides, so the sampled 3-sets of
        # [10^20] take microseconds; none of them builds a vertex bit near
        # 10^20, which would not fit in memory.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**20, "r": 2, "edges": [[0, 1]]}))
        argv = ["verify", "--input", str(path), "--s", "3",
                "--mode", "sample", "--trials", "3", "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 1 and not err
        report = json.loads(out)
        assert not report["is_turan"] and report["sets_checked"] == 1
        assert len(report["witness"]) == 3 and report["witness"][-1] < 10**20

    def test_huge_vertex_refused_before_any_bit(self, tmp_path, capsys):
        # The bit of vertex 10^19 would not fit in memory: the loader refuses
        # it first, so the command exits 2 with one line, in this process
        # and in a fresh interpreter alike.
        path = tmp_path / "huge-vertex.json"
        path.write_text(json.dumps({"n": 10**20, "r": 2, "edges": [[0, 10**19]]}))
        argv = ["verify", "--input", str(path), "--s", "3",
                "--mode", "sample", "--trials", "3", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"cannot parse {path}: vertices must lie below the mask limit "
            f"5000000, got {10**19}\n"
        )
        (fresh_code, fresh_out, fresh_err), _ = run_fresh(argv)
        assert (fresh_code, fresh_out, fresh_err) == (code, out, err)

    def test_sampled_report_states_its_bound(self, tmp_path, capsys):
        path = self._write_system(tmp_path, capsys)
        argv = ["verify", "--input", path, "--s", "4",
                "--mode", "sample", "--trials", "600", "--seed", "5"]
        code, out, _ = run(argv, capsys)
        report = json.loads(out)
        assert code == 0 and report["is_turan"] and report["delta"] == 1e-3
        # 600 clean trials at delta = 10^-3 leave an uncovered share of at
        # most about 1.1 %.
        assert report["uncovered_share_bound"] == pytest.approx(1 - 1e-3 ** (1 / 600))
        assert 0.0114 < report["uncovered_share_bound"] < 0.0116

    def test_unparsable_input_exit2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        code, _, err = run(["verify", "--input", str(path), "--s", "4"], capsys)
        assert code == 2 and "cannot parse" in err

    @pytest.mark.parametrize(
        "text", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS.keys()
    )
    @pytest.mark.parametrize("command", ["verify", "blowup"])
    def test_malformed_system_exit2_one_line(self, tmp_path, capsys, text, command):
        path = tmp_path / "bad.json"
        path.write_text(text)
        if command == "verify":
            argv = ["verify", "--input", str(path), "--s", "3"]
        else:
            argv = ["construct", "blowup", "--input", str(path), "--m", "2"]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out
        assert err.startswith(f"cannot parse {path}: ") and len(err.splitlines()) == 1


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

    def test_published_value_proven_by_bound(self, capsys):
        code, out, err = run(["solve", "--n", "8", "--s", "4", "--r", "3"], capsys)
        obj = json.loads(out)
        assert code == 0 and not err
        assert (obj["optimum"], obj["proof"], obj["lower_bound"]) == (20, "bound-met", 20)
        assert obj["lower_bound_source"] == "averaging" and obj["proven_optimal"]

    def test_tampered_cache_bound_dropped_and_resolved(self, tmp_path, capsys):
        # A valid 21-edge Turán witness claimed optimal by a counting bound
        # of 21: the counting bound is 14 and T(8,4,3) = 20.
        argv = ["solve", "--n", "8", "--s", "4", "--r", "3"]
        code, out, _ = run(argv, capsys)
        edges = json.loads(out)["witness"]["edges"]
        edges.append(next(e for e in map(list, itertools.combinations(range(8), 3))
                          if e not in edges))
        (tmp_path / "cache.json").write_text(json.dumps({"8,4,3": {
            "optimum": 21, "edges": edges, "lower_bound": 21,
            "lower_bound_source": "counting", "proof": "bound-met",
        }}))
        code, out, err = run(argv, capsys)
        obj = json.loads(out)
        assert code == 0 and obj["nodes_explored"] > 0
        assert (obj["optimum"], obj["proof"], obj["proven_optimal"]) == (20, "bound-met", True)
        assert err.startswith("warning: dropping") and "counting bound 14" in err
        assert len(err.splitlines()) == 1

    def test_node_budget_exhausted_exit4_with_witness(self, capsys):
        # (10,4,3) has bound 43 against Turán's 45 and needs a real search;
        # its budget runs out at level 7 already.
        code, out, _ = run(
            ["solve", "--n", "10", "--s", "4", "--r", "3", "--node-budget", "1000"], capsys
        )
        obj = json.loads(out)
        assert code == 4 and obj["budget_exhausted"] and not obj["proven_optimal"]
        assert obj["proof"] is None and obj["nodes_explored"] == 1001
        witness = UniformHypergraph.from_json_dict(obj["witness"])
        assert len(witness) == obj["optimum"] == 45
        assert is_turan_system(witness, 4).is_turan

    @pytest.mark.parametrize("budget", ["-1", "-50000000"])
    def test_negative_node_budget_exit2(self, capsys, budget):
        code, out, err = run(
            ["solve", "--n", "8", "--s", "4", "--r", "3", "--node-budget", budget], capsys
        )
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "budget" in err

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

    def test_fixed_gap_beyond_float_range_is_null(self, capsys):
        code, out, err = run(
            ["bounds", "--r", "3", "--big-r", str(10**160), "--format", "json"], capsys
        )
        values = {row["bound_name"]: row["value"] for row in json.loads(out)["rows"]}
        assert code == 0 and not err
        assert values["fixed_gap"] is None and values["limit_alpha"] > 10**160

    @pytest.mark.parametrize("exponent", [306, 400])
    def test_R_beyond_root_range_exit2(self, capsys, exponent):
        code, out, err = run(["bounds", "--r", "3", "--big-r", str(10**exponent)], capsys)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "10**305" in err

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--r", "100", "--big-r", "10"], ["table", "--grid", "r=100;R=3"]],
        ids=["bounds", "table"],
    )
    def test_eps1_option_refused(self, capsys, argv):
        # No bound depends on eps1, so neither command takes it.
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--eps1", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps1 0.1" in capsys.readouterr().err

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

    BEYOND_FLOAT_RANGE = [
        "certify-lll", "--r", "2000", "--big-r", "1000", "--n", "5000", "--ell", "3",
    ]

    def test_C_over_ell_beyond_float_range(self, capsys):
        # C(3000,1000)/3 exceeds float range; the certificate still prints,
        # with C/ell and ln p (-inf, p = 0) as null.
        code, out, err = run(self.BEYOND_FLOAT_RANGE, capsys)
        cert = json.loads(out)["certificate"]
        assert code == 0 and not err and cert["condition_holds"]
        assert cert["ratio_C_over_ell"] is None
        assert cert["log_p_bound"] is None

    def test_output_is_strict_json(self, capsys):
        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        code, out, _ = run(self.BEYOND_FLOAT_RANGE, capsys)
        assert code == 0
        json.loads(out, parse_constant=reject)

    def test_degenerate_cell_exit3(self, capsys):
        code, _, err = run(["certify-lll", "--r", "2", "--big-r", "1"], capsys)
        assert code == 3 and "degenerate" in err

    def test_R_at_root_limit_unchanged(self, capsys):
        code, out, err = run(["certify-lll", "--r", "3", "--big-r", str(10**305)], capsys)
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fa6a9ec97c3fb2e9068705fc553cb1206b57608ebd720adb66b0d5f175f966d6"
        )

    @pytest.mark.parametrize("r", [3, 10])
    @pytest.mark.parametrize("exponent", [306, 309])
    def test_R_beyond_root_range_exit2(self, capsys, r, exponent):
        code, out, err = run(["certify-lll", "--r", str(r), "--big-r", str(10**exponent)], capsys)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "10**305" in err

    def test_unprintable_delta_refused_quickly(self, capsys, monkeypatch):
        # delta_exact here has over 4300 digits, more than Python prints by
        # default; the refusal comes before its 2501 exact binomials.
        monkeypatch.setattr(bounds, "_int_str_digit_limit", lambda: 4300)
        argv = ["certify-lll", "--r", "3", "--big-r", "2500", "--n", "125000", "--ell", "2"]
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "delta_exact" in err and "--n" in err

    @pytest.mark.parametrize("big_r", ["2000", str(10**17), str(10**309)])
    def test_degenerate_log_path_cell_exit3(self, capsys, big_r):
        # N <= s on the log-space path, with N floored (R = 2000, N = 1001)
        # or carried as ln N (R = 10^17, N about R/2; R = 10^309, beyond
        # float range, which the chain check must survive).
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

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--s", "4"], ["solve", "--n", "x", "--s", "4", "--r", "3"], ["frobnicate"]],
        ids=["missing-option", "bad-int", "unknown-subcommand"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("turan") and ": error: " in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()


# sha256 of stdout and the exit code of commands whose output is pinned
# byte for byte; "{sys}" is the prefix (6,4,3) system file, and "{dir}" the
# directory that holds it.
PINNED_OUTPUTS = {
    "solve": (
        "solve --n 8 --s 4 --r 3", 0,
        "70a930c12891195a0e6b2c18fd1838c4d9d03c4f7c3fc8f2d6f3629240ad010b",
    ),
    "verify-exhaustive": (
        "verify --input {sys} --s 4", 0,
        "b194bd23a4a66f383ab7dc22b21588e1ae9167d24b2e9f8f85796b118243d4e9",
    ),
    "verify-sampled": (
        "verify --input {sys} --s 4 --mode sample --trials 200 --seed 5", 0,
        "59491957e93ee44dbb6c289fdbae89bd9c5d681cf1cd4a24298c8e8df62c8451",
    ),
    "certify-lll": (
        "certify-lll --r 1000000 --big-r 1000", 0,
        "a598544dcdcbc2fdfa4e6b309e3b7c3e80d3a6ec7ca92fb781d1c6fb2bd645f0",
    ),
    "construct-recursive": (
        "construct recursive --n 8 --r 3 --big-r 1 --k 2 --c 1.0 --seed 11", 0,
        "6842890d0e325d8bb0cc731f51329d648e050933d7e825e11abbda415dd3409a",
    ),
    # r(r-1) still fits a float; at 10**155 it does not (ERROR_PATHS).
    "bounds-r-10^154": (
        f"bounds --r {10**154} --big-r 3", 0,
        "19cd647233ddbe8791cc27c08727fbec7d7d6b1d7ac6a1197d384e0e1b39bddc",
    ),
    # 21 resampling rounds.
    "construct-coloring": (
        "construct coloring --n 9 --s 5 --r 3 --ell 3 --seed 7", 0,
        "28a14ab3e5185077246b91f6b1bc9072eb82221ea3275d170f00786c29d9e077",
    ),
    # A benchmark instance: 4 rounds, each scan resumed past block 0.
    "construct-coloring-10-6-3-4": (
        "construct coloring --n 10 --s 6 --r 3 --ell 4 --seed 3", 0,
        "59a114aef36ee9411da2619155d52716da67608e97fccf437c6bb13722e7693c",
    ),
    "construct-prefix": (
        "construct prefix --n 10 --s 5 --r 3", 0,
        "acdab6e6394c62de8ac47c0615cca9d7bed5de3db3071a09863a70ba876b4a57",
    ),
    "construct-blowup": (
        "construct blowup --input {dir}/sys.json --m 2", 0,
        "d41dbc396961fa44d3e2bbb6c26f003b77b7a2d51c782a436798a59a4e286040",
    ),
    # k = R: the one initial segment drawn is the empty set.
    "construct-recursive-k-equals-R": (
        "construct recursive --n 9 --r 3 --big-r 2 --k 2 --c 1.0 --seed 3", 0,
        "8c99c1b7ad2ae5d43845eea2c7a75ebcb89ca9d409df6439fac8908f08626249",
    ),
}

# Every failure other than a verified-false result and a solve out of
# budget: (command, exit code).  "{dir}" is a directory holding the files
# written by the fixture below.
ERROR_PATHS = {
    "construct-missing-option": ("construct prefix --n 6 --s 4", 2),
    "coloring-round-cap": (
        "construct coloring --n 6 --s 4 --r 3 --ell 4 --seed 1 --max-rounds 30", 3,
    ),
    # An s-set of (6,4,3) holds C(4,3) = 4 triples, so no more colours fit.
    "coloring-ell-beyond-r-subsets": (
        "construct coloring --n 6 --s 4 --r 3 --ell 5 --seed 1", 2,
    ),
    "coloring-ell-10^30": (f"construct coloring --n 6 --s 4 --r 3 --ell {10**30} --seed 1", 2),
    "coloring-budget": ("construct coloring --n 400 --s 4 --r 3 --ell 2 --seed 1", 4),
    # C(40,3) fits the materialization budget; its cover bitmaps, 9880 of
    # C(40,8) = 76904685 bits (7.6e11 bits), do not fit COVER_BITS_BUDGET.
    "coloring-s-set-budget": ("construct coloring --n 40 --s 8 --r 3 --ell 2 --seed 1", 4),
    # C(60,3) and C(60,4) fit the materialization budget; their cover
    # bitmaps, 34220 of 487635 bits, do not fit COVER_BITS_BUDGET.
    "coloring-cover-budget": ("construct coloring --n 60 --s 4 --r 3 --ell 2 --seed 1", 4),
    # Their C(32768,1) * C(32768,16384) bits have too many digits to print.
    "coloring-cover-budget-long-count": (
        "construct coloring --n 32768 --s 16384 --r 1 --ell 2 --seed 1", 4,
    ),
    "coloring-negative-rounds": (
        "construct coloring --n 6 --s 4 --r 3 --ell 2 --seed 1 --max-rounds -1", 2,
    ),
    "coloring-no-colour": ("construct coloring --n 6 --s 4 --r 3 --ell 0 --seed 1", 2),
    "coloring-r0": ("construct coloring --n 6 --s 4 --r 0 --ell 2 --seed 1", 2),
    "blowup-missing-file": ("construct blowup --input {dir}/nope.json --m 2", 2),
    "blowup-bad-m": ("construct blowup --input {dir}/sys.json --m 0", 2),
    "blowup-r1": ("construct blowup --input {dir}/r1.json --m 2", 2),
    "recursive-retries": (
        "construct recursive --n 3 --r 2 --big-r 1 --k 1 --c 0.99999 --seed 0", 3,
    ),
    "recursive-bad-k": ("construct recursive --n 8 --r 3 --big-r 5 --k 2 --c 1 --seed 1", 2),
    # C(3000,1) and C(3000,2) fit the materialization budget, C(3000,3) does not.
    "recursive-budget": (
        "construct recursive --n 3000 --r 3 --big-r 1 --k 2 --c 1.0 --seed 1", 4,
    ),
    "prefix-budget": ("construct prefix --n 100000 --s 4 --r 3", 4),
    "construct-unwritable-out": ("construct prefix --n 6 --s 4 --r 3 --out {dir}/no/x.json", 2),
    "verify-budget": ("verify --input {dir}/big.json --s 20 --budget 1000", 4),
    "verify-negative-budget": ("verify --input {dir}/sys.json --s 4 --budget -1", 2),
    # An s-set of 10^20 - 1 vertices exceeds the materialization budget in
    # both modes, refused before the search or unranking builds anything.
    "verify-huge-s": (
        f"verify --input {{dir}}/edgeless.json --s {10**20 - 1} --budget {10**21}", 4,
    ),
    "verify-sample-huge-s": (
        f"verify --input {{dir}}/edgeless.json --s {10**20 - 1} --mode sample --trials 1 --seed 1",
        4,
    ),
    "verify-sample-no-seed": ("verify --input {dir}/sys.json --s 4 --mode sample", 2),
    "verify-no-trials": (
        "verify --input {dir}/sys.json --s 4 --mode sample --trials 0 --seed 5", 2,
    ),
    "verify-junk": ("verify --input {dir}/junk.json --s 4", 2),
    "verify-bad-s": ("verify --input {dir}/sys.json --s 9", 2),
    "solve-bad-parameters": ("solve --n 4 --s 5 --r 2", 2),
    "solve-negative-budget": ("solve --n 8 --s 4 --r 3 --node-budget -1", 2),
    "solve-r0": ("solve --n 9 --s 4 --r 0", 2),
    # Level 26 needs a search (bound 2, prefix 14); its C(26,13) = 10400600
    # r-sets exceed the materialization budget, though their cover bitmaps,
    # 2.7e8 bits, fit COVER_BITS_BUDGET.
    "solve-r-sets-budget": ("solve --n 26 --s 25 --r 13 --node-budget 1000", 4),
    "bounds-R-beyond-root": (f"bounds --r 3 --big-r {10**306}", 2),
    "bounds-R-zero": ("bounds --r 1 --big-r 0", 2),
    "certify-degenerate": ("certify-lll --r 2 --big-r 1", 3),
    "certify-degenerate-log-path": ("certify-lll --r 2 --big-r 2000", 3),
    "certify-R-beyond-root": (f"certify-lll --r 3 --big-r {10**306}", 2),
    "certify-no-colour": ("certify-lll --r 3 --big-r 1 --n 20 --ell 0", 2),
    "certify-bad-r": ("certify-lll --r 0 --big-r 1", 2),
    # An explicit N needs the exact dependency degree, whose binomials
    # math.comb refuses for R beyond sys.maxsize.
    "certify-override-R-10^20": (f"certify-lll --r 3 --big-r {10**20} --n {10**21} --ell 2", 2),
    "certify-override-R-10^306": (
        f"certify-lll --r 3 --big-r {10**306} --n {10**307} --ell 2", 2,
    ),
    # --n and --ell override the schedule together or not at all.
    "certify-n-alone": ("certify-lll --r 30 --big-r 3 --n 100000", 2),
    "certify-ell-alone": ("certify-lll --r 30 --big-r 3 --ell 5", 2),
    "certify-override-N-below-s": ("certify-lll --r 3 --big-r 2 --n 3 --ell 2", 2),
    "table-missing-R": ("table --grid r=100", 2),
    "table-bad-name": ("table --grid q=1;R=2", 2),
    "table-bad-int": ("table --grid r=x;R=2", 2),
    "table-repeated-name": ("table --grid r=3;R=1;r=4", 2),
    # r(r-1) beyond float range; r = 10**154 still runs (PINNED_OUTPUTS).
    "bounds-r-beyond-float": (f"bounds --r {10**155} --big-r 3", 2),
    "certify-r-beyond-float": (f"certify-lll --r {10**155} --big-r 3", 2),
    "table-r-beyond-float": (f"table --grid r={10**155};R=3", 2),
}


class TestOutputContract:
    @pytest.fixture
    def files(self, tmp_path, capsys):
        run(["construct", "prefix", "--n", "6", "--s", "4", "--r", "3",
             "--out", str(tmp_path / "sys.json")], capsys)
        (tmp_path / "r1.json").write_text('{"n": 4, "r": 1, "edges": [[0], [1]]}')
        (tmp_path / "big.json").write_text('{"n": 40, "r": 2, "edges": [[0, 1]]}')
        (tmp_path / "edgeless.json").write_text(json.dumps({"n": 10**20, "r": 1, "edges": []}))
        (tmp_path / "junk.json").write_text("{oops")
        return tmp_path

    @pytest.mark.parametrize(
        "command, code, digest", PINNED_OUTPUTS.values(), ids=PINNED_OUTPUTS.keys()
    )
    def test_output_bytes_pinned(self, files, capsys, command, code, digest):
        got, out, err = run(command.format(sys=files / "sys.json", dir=files).split(), capsys)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, code", ERROR_PATHS.values(), ids=ERROR_PATHS.keys())
    def test_error_is_one_stderr_line(self, files, capsys, command, code):
        got, out, err = run(command.format(dir=files).split(), capsys)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command, code", [
        ("verify --input {dir}/big.json --s 3", 1),
        ERROR_PATHS["verify-negative-budget"],
        ERROR_PATHS["solve-negative-budget"],
        ERROR_PATHS["coloring-round-cap"],
        ERROR_PATHS["certify-degenerate"],
        ERROR_PATHS["verify-budget"],
        ERROR_PATHS["prefix-budget"],
        ERROR_PATHS["verify-huge-s"],
        ERROR_PATHS["verify-sample-huge-s"],
    ], ids=["verified-false", "verify-negative-budget", "solve-negative-budget",
            "coloring-round-cap", "certify-degenerate", "verify-budget", "prefix-budget",
            "verify-huge-s", "verify-sample-huge-s"])
    def test_exit_code_in_a_fresh_interpreter(self, files, capsys, command, code):
        # In this process the test modules have loaded the package already;
        # a fresh interpreter maps each exception with nothing loaded but
        # the modules its command ran.
        argv = command.format(dir=files).split()
        got, _ = run_fresh(argv)
        assert got == run(argv, capsys)
        assert got[0] == code
        assert len(got[2].splitlines()) == (0 if code == 1 else 1)

    def test_unmapped_runtime_error_propagates(self, monkeypatch):
        def fail(args):
            raise RuntimeError("not an exit code")

        monkeypatch.setattr(cli, "cmd_bounds", fail)
        with pytest.raises(RuntimeError, match="not an exit code"):
            cli.main(["bounds", "--r", "3", "--big-r", "1"])

    def test_import_leaves_mpmath_unloaded(self):
        # The package imports only the stdlib (see the test below); mpmath
        # serves the tests' references alone.
        src = os.path.dirname(os.path.dirname(turan_systems.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # Nor fractions: binomial_ratio_check compares integers.  Nor
        # hashlib, which only the construct manifest needs.  Nor any module
        # of the package: each command imports what it runs.
        code = (
            "import sys, turan_systems.cli; "
            "sys.exit(any(m in sys.modules for m in ('mpmath', 'fractions', 'hashlib')) or "
            "[m for m in sys.modules if m.startswith('turan_systems.')] != ['turan_systems.cli'])"
        )
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_package_imports_only_the_stdlib(self):
        package = os.path.dirname(turan_systems.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    assert module.split(".")[0] in sys.stdlib_module_names, (name, module)


# The package modules each command loads besides the package and cli, and
# its exit code; "{sys}" is the prefix (6,4,3) system file.
_VERIFY = {"combinatorics", "hypergraph"}
_CONSTRUCT = _VERIFY | {"constructions"}
_BOUNDS = {"combinatorics", "bounds"}
_SOLVE = _VERIFY | {"bounds", "solver"}
MODULES_LOADED = {
    "version": ("--version", 0, set()),
    "help": ("--help", 0, set()),
    "verify-help": ("verify --help", 0, set()),
    "usage-error": ("verify --s 4", 2, set()),
    "verify-exhaustive": ("verify --input {sys} --s 4", 0, _VERIFY),
    "verify-sampled": ("verify --input {sys} --s 4 --mode sample --trials 20 --seed 5", 0, _VERIFY),
    "construct-prefix": ("construct prefix --n 6 --s 4 --r 3", 0, _CONSTRUCT),
    "construct-coloring": ("construct coloring --n 9 --s 5 --r 3 --ell 3 --seed 7", 0, _CONSTRUCT),
    "construct-blowup": ("construct blowup --input {sys} --m 2", 0, _CONSTRUCT),
    "construct-recursive": (
        "construct recursive --n 8 --r 3 --big-r 1 --k 2 --c 1.0 --seed 11", 0, _CONSTRUCT,
    ),
    "bounds": ("bounds --r 10 --big-r 2", 0, _BOUNDS),
    "table": ("table --grid r=4,5;R=1,2", 0, _BOUNDS),
    "certify-lll": ("certify-lll --r 10 --big-r 2", 0, _BOUNDS),
    "solve": ("solve --n 6 --s 4 --r 3", 0, _SOLVE),
}


class TestStartup:
    @pytest.mark.parametrize(
        "command, code, modules", MODULES_LOADED.values(), ids=MODULES_LOADED.keys()
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, capsys, command, code, modules):
        path = tmp_path / "sys.json"
        run(["construct", "prefix", "--n", "6", "--s", "4", "--r", "3", "--out", str(path)],
            capsys)
        (got, _, _), loaded = run_fresh(command.format(sys=path).split())
        assert got == code
        assert loaded == {f"turan_systems.{m}" for m in modules | {"cli"}}


class TestToyScript:
    def test_every_construction_verifies(self):
        # The README's end-to-end walk through all four constructions.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = os.path.join(root, "scripts", "toy_constructions.py")
        src = os.path.dirname(os.path.dirname(turan_systems.__file__))
        proc = subprocess.run(
            [sys.executable, script, "--seed", "7"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        checked = [line for line in proc.stdout.splitlines() if "verified=" in line]
        # Three prefix systems, two colour classes, one blowup, one recursion.
        assert len(checked) == 7
        assert all(line.endswith("verified=True") for line in checked)
