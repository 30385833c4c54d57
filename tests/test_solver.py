import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.combinatorics import binomial, enumerate_subsets
from turan_systems.constructions import trivial_prefix_system
from turan_systems.hypergraph import UniformHypergraph, is_turan_system
from turan_systems.solver import (
    SolveResult,
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
            (8, 5, 4, None): (14, 201527),
            (8, 6, 4, None): (6, 27182),
            (9, 5, 2, None): (6, 10422),
            (7, 5, 3, None): (5, 472),
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

    def test_setup_heavy_budgeted_solve_pinned(self):
        # Setup dominates at n = 40; with 10 nodes the incumbent is still
        # the prefix system, the colex-first C(39,3) triples.
        res = solve_min_turan(40, 4, 3, node_budget=10)
        assert res.budget_exhausted and not res.proven_optimal
        assert res.nodes_explored == 11
        assert res.optimum == binomial(39, 3)
        assert res.witness.edges == tuple(enumerate_subsets(39, 3))
        assert res.witness == trivial_prefix_system(40, 4, 3)


def reference_solve(n, s, r, node_budget):
    """The search as it was written before the per-depth threshold.

    Every node stores its r-set in a path array and takes the ceiling bound
    from the complement of its covered set.  Returns the result and the
    node numbers at which the incumbent improved.
    """
    s_sets = list(enumerate_subsets(n, s))
    r_rank = {}
    r_sets = []
    for e in enumerate_subsets(n, r):
        r_rank[e] = len(r_sets)
        r_sets.append(e)
    cover_mask = [0] * len(r_sets)
    children = []
    for i, S in enumerate(s_sets):
        subs = [r_rank[tuple(S[p] for p in pos)] for pos in enumerate_subsets(s, r)]
        children.append(subs)
        for j in subs:
            cover_mask[j] |= 1 << i
    num_s = len(s_sets)
    all_covered = (1 << num_s) - 1
    per_edge = binomial(n - r, s - r)

    incumbent = list(enumerate_subsets(n - (s - r), r))
    incumbent_idx = [r_rank[e] for e in incumbent]
    best = len(incumbent)
    nodes = 0
    exhausted = False
    improved_at = []

    none = len(r_sets)
    cover_mask.append(0)
    root_branch = [r_rank[tuple(range(r))]]
    path = [none] * (best + 1)
    stack = [(0, iter([none]))]
    while stack and not exhausted:
        base, rest = stack[-1]
        depth = len(stack) - 1
        for j in rest:
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                break
            path[depth] = j
            covered = base | cover_mask[j]
            if covered == all_covered:
                if depth < best:
                    best = depth
                    incumbent_idx = path[1:depth + 1]
                    improved_at.append(nodes)
                continue
            uncovered = all_covered & ~covered
            if depth + -(-(uncovered.bit_count()) // per_edge) >= best:
                continue
            i = (uncovered & -uncovered).bit_length() - 1
            stack.append((covered, iter(children[i] if depth > 0 else root_branch)))
            break
        else:
            stack.pop()

    witness = UniformHypergraph.from_edges(n, r, [r_sets[j] for j in incumbent_idx])
    result = SolveResult(n, s, r, best, witness, nodes, not exhausted, exhausted)
    return result, improved_at


# Reference budget: enough for every (n <= 8) instance to improve its
# incumbent several times, small enough for the reference loop.
REFERENCE_CAP = 20_000


@st.composite
def budgeted_instances(draw):
    """(n, s, r, budget): budgets cut mid-frame, at and around improvements."""
    n = draw(st.integers(2, 8))
    s = draw(st.integers(2, n))
    r = draw(st.integers(1, s - 1))
    _, improved_at = reference_solve(n, s, r, REFERENCE_CAP)
    around = [k + d for k in improved_at for d in (-1, 0, 1)]
    budget = draw(
        st.one_of(
            st.integers(0, REFERENCE_CAP),
            st.sampled_from(around or [0]),
        )
    )
    return n, s, r, budget


class TestSearchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(budgeted_instances())
    def test_matches_reference_loop(self, case):
        n, s, r, budget = case
        want, _ = reference_solve(n, s, r, budget)
        got = solve_min_turan(n, s, r, node_budget=budget)
        assert got.to_json_dict() == want.to_json_dict()

    def test_every_small_instance_to_the_cap(self):
        for n in range(2, 9):
            for s in range(2, n + 1):
                for r in range(1, s):
                    want, _ = reference_solve(n, s, r, REFERENCE_CAP)
                    got = solve_min_turan(n, s, r, node_budget=REFERENCE_CAP)
                    assert got.to_json_dict() == want.to_json_dict()


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
