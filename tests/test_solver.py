import json

import pytest

from turan_systems.combinatorics import binomial
from turan_systems.constructions import trivial_prefix_system
from turan_systems.hypergraph import is_turan_system
from turan_systems.solver import (
    ValueCache,
    solve_min_turan,
    solve_with_cache,
    turan_r2_value,
)


class TestSolveMinTuran:
    def test_single_s_set(self):
        for n, r in [(4, 2), (5, 3), (6, 4)]:
            assert solve_min_turan(n, n, r).optimum == 1

    def test_small_exact_values(self):
        assert solve_min_turan(4, 3, 2).optimum == 2
        assert solve_min_turan(5, 3, 2).optimum == 4
        assert solve_min_turan(5, 4, 3).optimum == 3

    def test_witness_verifies(self):
        res = solve_min_turan(6, 4, 3)
        assert is_turan_system(res.witness, 4).is_turan
        assert len(res.witness) == res.optimum
        assert res.proven_optimal

    def test_deterministic(self):
        a = solve_min_turan(6, 4, 2)
        b = solve_min_turan(6, 4, 2)
        assert a.optimum == b.optimum
        assert a.witness == b.witness
        assert a.nodes_explored == b.nodes_explored

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            solve_min_turan(4, 5, 2)
        with pytest.raises(ValueError):
            solve_min_turan(5, 3, 3)

    def test_budget_exhaustion_reports_incumbent(self):
        res = solve_min_turan(7, 3, 2, node_budget=10)
        assert res.budget_exhausted and not res.proven_optimal
        assert is_turan_system(res.witness, 3).is_turan

    def test_search_order_pinned(self):
        # The branching order fixes node counts and witnesses; these are the
        # figures of the recursive form of the same search.
        for (n, s, r, budget), (optimum, nodes) in {
            (6, 4, 3, None): (6, 166),
            (7, 4, 3, None): (12, 114374),
            (7, 3, 2, 10): (15, 11),
            (6, 4, 2, 37): (3, 38),
        }.items():
            kwargs = {} if budget is None else {"node_budget": budget}
            res = solve_min_turan(n, s, r, **kwargs)
            assert (res.optimum, res.nodes_explored) == (optimum, nodes)

    def test_deep_search_does_not_overflow(self):
        # The first dive for (30,4,3) goes past depth 1000 within this budget,
        # deeper than the interpreter's default recursion limit.
        res = solve_min_turan(30, 4, 3, node_budget=2000)
        assert res.budget_exhausted and not res.proven_optimal
        assert res.nodes_explored == 2001
        assert res.optimum == binomial(29, 3)  # still the prefix incumbent


class TestTuranGraphCrossCheck:
    def test_r2_formula_values(self):
        assert turan_r2_value(4, 3) == 2
        assert turan_r2_value(5, 3) == 4
        assert turan_r2_value(7, 7) == 1

    def test_agreement_small_range(self):
        for n in range(3, 8):
            for s in range(3, n + 1):
                assert solve_min_turan(n, s, 2).optimum == turan_r2_value(n, s)


class TestSandwich:
    def test_counting_lower_and_prefix_upper(self):
        for (n, s, r) in [(5, 4, 3), (6, 4, 2), (6, 5, 3), (7, 5, 4)]:
            opt = solve_min_turan(n, s, r).optimum
            lower = -(-binomial(n, r) // binomial(s, r))
            assert lower <= opt <= len(trivial_prefix_system(n, s, r))


class TestValueCache:
    def test_roundtrip(self, tmp_path):
        cache = ValueCache(str(tmp_path / "cache.json"))
        res = solve_min_turan(4, 3, 2)
        cache.store(res)
        again = ValueCache(str(tmp_path / "cache.json")).get(4, 3, 2)
        assert again is not None
        assert again.optimum == res.optimum and again.witness == res.witness

    def test_tampered_witness_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ValueCache(str(path))
        cache.store(solve_min_turan(4, 3, 2))
        data = json.loads(path.read_text())
        data["4,3,2"]["edges"] = [[0, 1]]  # no longer a Turán system
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning):
            assert ValueCache(str(path)).get(4, 3, 2) is None

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.warns(UserWarning):
            cache = ValueCache(str(path))
        assert cache.get(4, 3, 2) is None

    def test_cold_cache_solves_and_persists(self, tmp_path):
        path = str(tmp_path / "cache.json")
        res = solve_with_cache(5, 4, 3, cache=ValueCache(path))
        assert res.optimum == 3
        hit = solve_with_cache(5, 4, 3, cache=ValueCache(path))
        assert hit.nodes_explored == 0  # served from cache

    def test_crash_during_store_keeps_earlier_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = ValueCache(str(path))
        real_dump = json.dump
        calls = []

        def dump_failing_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("simulated crash mid-write")
            real_dump(*args, **kwargs)

        monkeypatch.setattr(json, "dump", dump_failing_third)
        cache.store(solve_min_turan(4, 3, 2))
        cache.store(solve_min_turan(5, 4, 3))
        with pytest.raises(RuntimeError):
            cache.store(solve_min_turan(5, 3, 2))
        monkeypatch.undo()
        reloaded = ValueCache(str(path))
        assert sorted(json.loads(path.read_text())) == ["4,3,2", "5,4,3"]
        assert reloaded.get(4, 3, 2) is not None and reloaded.get(5, 4, 3) is not None
        assert reloaded.get(5, 3, 2) is None
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_unwritable_cache_only_warns(self, tmp_path):
        cache = ValueCache(str(tmp_path / "no" / "such" / "cache.json"))
        with pytest.warns(UserWarning, match="cannot write cache"):
            res = solve_with_cache(5, 4, 3, cache=cache)
        assert res.optimum == 3 and res.proven_optimal

    def test_unproven_results_not_cacheable(self, tmp_path):
        cache = ValueCache(str(tmp_path / "cache.json"))
        res = solve_min_turan(7, 3, 2, node_budget=10)
        with pytest.raises(ValueError):
            cache.store(res)


class TestMonotoneRatio:
    def test_ratio_non_decreasing_in_n(self):
        for (s, r, n_max) in [(3, 2, 8), (4, 2, 8), (4, 3, 7), (5, 3, 8), (5, 4, 8)]:
            prev = 0.0
            for n in range(s, n_max + 1):
                res = solve_min_turan(n, s, r)
                assert res.proven_optimal
                ratio = res.optimum / binomial(n, r)
                assert ratio >= prev - 1e-12
                prev = ratio
