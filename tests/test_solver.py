import hashlib
import itertools
import json
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems import combinatorics, solver
from turan_systems.combinatorics import (
    BudgetExceededError,
    binomial,
    colex_masks,
    cover_masks,
    enumerate_subsets,
    rank_colex,
    unrank_colex,
)
from turan_systems.constructions import trivial_prefix_system
from turan_systems.hypergraph import UniformHypergraph, is_turan_system
from turan_systems.solver import (
    ValueCache,
    _first_incumbent,
    _first_size,
    _greedy_cover,
    _search,
    _turan_construction,
    solve_min_turan,
    solve_with_cache,
    turan_r2_value,
)


def prefix_search(n, s, r, budget, bound=0):
    """The search kernel from the prefix incumbent, with no bound unless
    one is given, as the reference loop runs it: (optimum, witness, nodes,
    budget ran out)."""
    masks, nodes, out = _search(n, s, r, colex_masks(n - s + r, r), bound, budget)
    witness = UniformHypergraph._from_masks(n, r, sorted(masks))
    return len(masks), witness, nodes, out


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
        # Level 7 of (7,4,3) is searched (bound 11, Turán's 12 edges) and
        # runs out of its 10 nodes.
        res = solve_min_turan(7, 4, 3, node_budget=10)
        assert res.budget_exhausted and not res.proven_optimal and res.proof is None
        assert res.nodes_explored == 11 and res.optimum == 12
        assert is_turan_system(res.witness, 4).is_turan

    def test_search_order_pinned(self):
        # The branching order fixes node counts and witnesses.  From the
        # prefix incumbent with no bound, the kernel gives the figures of
        # the recursive form of the same search; the solver's figures add
        # the levels below n, start from the greedy incumbent where it is
        # smaller, and stop where the bound is met.
        for (n, s, r, budget), (optimum, kernel_nodes, nodes) in {
            (6, 4, 3, None): (6, 166, 0),
            (7, 4, 3, None): (12, 114374, 113722),
            (7, 3, 2, 10): (15, 11, None),
            (6, 4, 2, 37): (3, 38, 0),
            (8, 5, 4, None): (14, 201527, 0),
            (8, 6, 4, None): (6, 27182, 0),
            (9, 5, 2, None): (6, 10422, 0),
            (7, 5, 3, None): (5, 472, 412),
        }.items():
            budget = solver.DEFAULT_NODE_BUDGET if budget is None else budget
            assert prefix_search(n, s, r, budget)[::2] == (optimum, kernel_nodes)
            if nodes is not None:
                res = solve_min_turan(n, s, r, node_budget=budget)
                assert (res.optimum, res.nodes_explored) == (optimum, nodes)
        # Turán's theorem closes (7,3,2) at the root: T(7,3,2) = 9.
        res = solve_min_turan(7, 3, 2, node_budget=10)
        assert (res.optimum, res.nodes_explored, res.proof) == (9, 0, "bound-met")

    def test_deep_search_does_not_overflow(self):
        # The first dive for (30,4,3) goes past depth 1000 within this budget,
        # deeper than the interpreter's default recursion limit.
        optimum, _, nodes, out = prefix_search(30, 4, 3, 2000)
        assert out and nodes == 2001
        assert optimum == binomial(29, 3)  # still the prefix incumbent

    def test_search_memo_bounded_by_its_constant(self, monkeypatch):
        # (10,4,3) searches about 40 depths at level 10 and would hold about
        # 11 MB of finished subtrees with no cap.  Its tracemalloc peak
        # above that of the same solve with no search stays within the
        # entries allowed, each a bitmap of C(10,4) - C(7,1) = 203 bits, a
        # count and at most a one-entry dict.  So does a search of 10^5
        # nodes, level 7 only, with 1/32 of the entries, which would hold
        # about twice its cap's bytes with no cap.
        entries = solver.MEMO_ENTRIES
        size = sys.getsizeof(1 << 203) + sys.getsizeof(10**6) + sys.getsizeof({0: 0})

        def peak(budget):
            tracemalloc.start()
            try:
                res = solve_min_turan(10, 4, 3, node_budget=budget)
                return res, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, floor = peak(0)
        res, used = peak(10**6)
        assert [res.optimum, res.nodes_explored, res.proof] == [45, 1_000_001, None]
        assert used - floor <= entries * size
        monkeypatch.setattr(solver, "MEMO_ENTRIES", entries // 32)
        _, used = peak(10**5)
        assert used - floor <= entries // 32 * size

    def test_budgeted_search_holds_no_edge_table(self):
        # (18,14,9) searches level 16 for its 1,000 nodes.  Greedy's
        # C(16,9) = 11,440 cover bitmaps are freed before the search, which
        # reads the vertex bitmaps and the rows it builds: a tracemalloc
        # peak of about 1.0 MB.  A table of the 11,440 edge masks and a
        # rank map keyed by the 11,440 9-sets beside them peaked at 3.8 MB;
        # 2 MB lies between the two.
        tracemalloc.start()
        try:
            res = solve_min_turan(18, 14, 9, node_budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.optimum, res.nodes_explored, res.budget_exhausted) == (715, 1001, True)
        assert peak < 2_000_000

    def test_setup_heavy_budgeted_solve_pinned(self, monkeypatch):
        # Setup dominates the kernel at n = 40; with 10 nodes its incumbent
        # is still the prefix system, the colex-first C(39,3) triples.
        optimum, witness, nodes, out = prefix_search(40, 4, 3, 10)
        assert out and nodes == 11 and optimum == binomial(39, 3)
        assert witness.edges == tuple(enumerate_subsets(39, 3))
        assert witness == trivial_prefix_system(40, 4, 3)
        # The solver spends the 10 nodes at level 7, the first level its
        # bound leaves open, and sets up no other level: levels 8 to 40
        # take the bound only, and the witness is Turán's construction.
        searched, covered = [], []
        real, real_cover = solver._search, solver.cover_masks
        monkeypatch.setattr(solver, "_search", lambda *a: searched.append(a[:3]) or real(*a))
        monkeypatch.setattr(solver, "cover_masks", lambda *a: covered.append(a) or real_cover(*a))
        res = solve_min_turan(40, 4, 3, node_budget=10)
        assert searched == covered == [(7, 4, 3)]
        assert res.budget_exhausted and not res.proven_optimal and res.proof is None
        assert res.nodes_explored == 11
        turan = sorted(_turan_construction(40, 4, 3))
        assert res.witness == UniformHypergraph._from_masks(40, 3, turan)
        assert res.optimum == 4225 and res.lower_bound == 3289
        assert res.lower_bound_source == "averaging"

    def test_level_closed_at_root_does_no_setup(self, monkeypatch):
        monkeypatch.setattr(solver, "_search", None)
        monkeypatch.setattr(solver, "cover_masks", None)
        for n, s, r in [(10, 5, 2), (11, 6, 2), (6, 4, 3), (9, 6, 1)]:
            res = solve_min_turan(n, s, r)
            assert res.nodes_explored == 0 and res.proof == "bound-met"

    def test_rows_built_on_demand(self, monkeypatch):
        # Ten nodes below the root branch on at most ten s-sets, each row
        # from its s-set's vertices, unranked once; row 0, the root's, is
        # seeded.  A full table would hold all C(16,8) = 12870.
        rows = []
        real = solver.unrank_colex
        monkeypatch.setattr(solver, "unrank_colex", lambda *a: rows.append(a) or real(*a))
        _, nodes, out = _search(16, 8, 4, range(495), 0, 10)
        assert out and nodes == 11
        assert 0 < len(rows) <= 11 and len(set(rows)) == len(rows)
        assert all(k == 8 and n == 16 and i != 0 for i, k, n in rows)

    def test_no_level_builds_an_edge_table(self, monkeypatch):
        # Edges are masks built from their vertices: greedy's few chosen
        # ones through unrank_colex, the search's rows from their s-sets.
        # No level builds the C(m,r) table colex_masks(m, r) or the rank
        # map of r_subset_ranks; the only colex_masks call is a prefix
        # incumbent's, on the first m - s + r < m vertices.  Each instance
        # sets up a level above n - s + r: (9,7,5) levels 8 and 9, the
        # budgeted (8,4,3) level 7, (9,6,3) level 9, where greedy wins.
        def refuse(*args):
            raise AssertionError("r_subset_ranks called")

        assert not hasattr(solver, "r_subset_ranks")
        monkeypatch.setattr(combinatorics, "r_subset_ranks", refuse)
        tables = []
        real = solver.colex_masks
        monkeypatch.setattr(solver, "colex_masks", lambda *a: tables.append(a) or real(*a))
        for n, s, r, budget in [(9, 7, 5, 0), (8, 4, 3, 1000), (9, 6, 3, 1000)]:
            tables.clear()
            res = solve_min_turan(n, s, r, node_budget=budget)
            assert is_turan_system(res.witness, s).is_turan
            assert all(k == r and m <= n - s + r for m, k in tables), (n, s, r)

    def test_level_beyond_cover_bit_budget_refused(self, monkeypatch):
        # (8,4,3) searches level 7 only, whose bitmaps take
        # C(7,3) * C(7,4) = 1225 bits; the refusal comes before any node.
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1224)
        monkeypatch.setattr(solver, "_search", None)
        with pytest.raises(BudgetExceededError, match="cover bitmaps"):
            solve_min_turan(8, 4, 3)
        monkeypatch.undo()
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1225)
        assert solve_min_turan(8, 4, 3).optimum == 20

    def test_witness_beyond_bit_budget_refused(self, monkeypatch):
        # T(5,3,2) = 4: its witness is 4 masks of up to 5 bits, 20 bits by
        # the loader's rule, refused as a budget and not as bad input.
        monkeypatch.setattr(solver, "COVER_BITS_BUDGET", 19)
        with pytest.raises(BudgetExceededError, match="4 witness masks of 5 bits"):
            solve_min_turan(5, 3, 2)
        monkeypatch.setattr(solver, "COVER_BITS_BUDGET", 20)
        assert solve_min_turan(5, 3, 2).optimum == 4

    def test_witness_beyond_bit_budget_refused_before_it_is_built(self, monkeypatch):
        # T(40,3,2) = 380 closes every level by its bound, so no level builds
        # an incumbent; the witness's 380 * 40 bits are refused before
        # level 40's is built.
        def refuse(*args):
            raise AssertionError("_first_incumbent called")

        monkeypatch.setattr(solver, "COVER_BITS_BUDGET", 380 * 40 - 1)
        monkeypatch.setattr(solver, "_first_incumbent", refuse)
        with pytest.raises(BudgetExceededError, match="380 witness masks of 40 bits"):
            solve_min_turan(40, 3, 2)

    def test_witness_built_without_the_loader(self, monkeypatch):
        # Turán's construction (40,3,2), the prefix system (9,6,1) and a
        # searched incumbent (9,7,5) reach the witness as edge masks.
        def refuse(*args):
            raise AssertionError("the edge loader was called")

        monkeypatch.setattr(UniformHypergraph, "__init__", refuse)
        for (n, s, r), optimum in {(40, 3, 2): 380, (9, 6, 1): 4, (9, 7, 5): 8}.items():
            res = solve_min_turan(n, s, r)
            assert res.optimum == len(res.witness) == optimum
            assert is_turan_system(res.witness, s).is_turan
        assert res.nodes_explored == 1269431
        assert solve_min_turan(9, 6, 1).witness.edges == ((0,), (1,), (2,), (3,))

    def test_search_leaves_its_incumbent_unchanged(self):
        # Only the incumbent's length is read: a search that improves on it
        # returns new masks and leaves the caller's list as it was.
        incumbent = colex_masks(6, 3)
        before = list(incumbent)
        masks, nodes, out = _search(7, 4, 3, incumbent, 0, 1000)
        assert out and nodes == 1001 and len(masks) < 20 and incumbent == before
        masks, _, out = _search(7, 4, 3, incumbent, 0, solver.DEFAULT_NODE_BUDGET)
        assert not out and len(masks) == 12 and incumbent == before

    def test_benchmark_instances_pinned(self):
        # (optimum, nodes, proof) of the solve benchmark's six instances,
        # and the sha256 of the JSON list of each witness's edge masks.
        # (8,5,4) closes at the root: greedy's 14 edges meet the bound.
        for (n, s, r, budget), (*want, digest) in {
            (9, 7, 5, None): (
                8, 1269431, "exhausted",
                "3d23979851bc9da875e2f0b53819fe45e94b2acaef8dd1c6d5fd1c1037329548",
            ),
            (10, 5, 2, None): (
                8, 0, "bound-met",
                "c45b71ae4aa3a83585c3daffd3c9159e2dbb50b36742e4db4b6214be8f76c62a",
            ),
            (11, 6, 2, None): (
                7, 0, "bound-met",
                "7d6237734417bfe16a2aa0add9950a1118ca9c83f515f538ae8383cd8f3e9583",
            ),
            (7, 4, 3, None): (
                12, 113722, "exhausted",
                "731e216f913d0e81b0c0315edb325deeb59c6a343c8f69a44509f4ca2724f585",
            ),
            (8, 5, 4, None): (
                14, 0, "bound-met",
                "945c403752f4fefe94e4f711b6562dcbca1a6d9af64b094decdfcace15453ab8",
            ),
            (8, 4, 3, 1_000_000): (
                20, 113722, "bound-met",
                "d3380599bf84a1638f22d9a88f8f59cb19df6c62d17f212b116518dc38795de1",
            ),
        }.items():
            res = solve_min_turan(n, s, r, node_budget=budget or solver.DEFAULT_NODE_BUDGET)
            assert [res.optimum, res.nodes_explored, res.proof] == want
            assert is_turan_system(res.witness, s).is_turan
            masks = json.dumps(res.witness.masks).encode()
            assert hashlib.sha256(masks).hexdigest() == digest, (n, s, r)

    def test_t975_budget_edges_pinned(self):
        # Level 9 of (9,7,5) is the only level searched.  Its first dive
        # opens the root's row of one child, then rows of C(7,5) = 21:
        # budget 1 passes at the root's child, 2 at the first child of the
        # second row, and 21, 22 and 23 inside the fourth row, whose first
        # 20 children are pruned, so the stop is read at its 21st.  Each
        # stops with b + 1 nodes and the first incumbent.  The tree has
        # 1,269,431 nodes: a budget one short of it passes at the last
        # frame end, and a budget of it exhausts the tree.
        for budget in (1, 2, 21, 22, 23, 1_269_430):
            res = solve_min_turan(9, 7, 5, node_budget=budget)
            assert (res.optimum, res.nodes_explored, res.proof) == (8, budget + 1, None), budget
            assert res.budget_exhausted
        res = solve_min_turan(9, 7, 5, node_budget=1_269_431)
        assert (res.optimum, res.nodes_explored, res.proof) == (8, 1_269_431, "exhausted")
        assert not res.budget_exhausted

    def test_incumbent_improvements_pinned(self):
        # Two solves whose level-n search improves its incumbent and then
        # stops at the bound, so the incumbent is read off the open frames.
        # (8,5,3): level 7 exhausts its tree at 412 nodes (T(7,5,3) = 5),
        # and level 8 searches from greedy's 9 edges, reaching the
        # averaging bound 8 at node 2,847.  (9,7,6): level 9 searches from
        # greedy's 14 edges, finds 13 at node 7,060 and the counting bound
        # 12 at node 7,226.  Each budget is one node before, at and after
        # a level end or an improvement; a budget that runs out at level 7
        # leaves level 8 at the prefix system's 20 edges.
        for (n, s, r), (*want, digest) in {
            (8, 5, 3): (
                8, 2847, "bound-met",
                "5d24f33e2fac10d4b9bc39273989bfe3e833377110e6d819ee2ee3ac978fabfd",
            ),
            (9, 7, 6): (
                12, 7226, "bound-met",
                "65c57e27195e33b93d1b1b335ccb3d90b080aa92377f04988959e0ce856077e9",
            ),
        }.items():
            res = solve_min_turan(n, s, r)
            assert [res.optimum, res.nodes_explored, res.proof] == want
            assert is_turan_system(res.witness, s).is_turan
            masks = json.dumps(res.witness.masks).encode()
            assert hashlib.sha256(masks).hexdigest() == digest, (n, s, r)
        for (n, s, r), stops in {
            (8, 5, 3): {
                411: (20, 412, None), 412: (9, 413, None), 413: (9, 414, None),
                2846: (9, 2847, None), 2847: (8, 2847, "bound-met"),
                2848: (8, 2847, "bound-met"),
            },
            (9, 7, 6): {
                7059: (14, 7060, None), 7060: (13, 7061, None), 7061: (13, 7062, None),
                7225: (13, 7226, None), 7226: (12, 7226, "bound-met"),
                7227: (12, 7226, "bound-met"),
            },
        }.items():
            for budget, want in stops.items():
                res = solve_min_turan(n, s, r, node_budget=budget)
                assert (res.optimum, res.nodes_explored, res.proof) == want, (n, s, r, budget)
                assert is_turan_system(res.witness, s).is_turan

    def test_t975_rows_fit_one_digit(self, monkeypatch):
        # The s-sets that contain the root's edge {0,...,4} are left out of
        # the search's bitmaps: C(9,7) - C(4,2) = 30 bits, one CPython digit.
        rows = spy_rows(monkeypatch)
        res = solve_min_turan(9, 7, 5)
        assert (res.optimum, res.nodes_explored) == (8, 1269431)
        assert 0 < len(rows) <= 30 and all(len(row) == 21 for row in rows)
        assert all(0 <= m < 2**30 for row in rows for m in row)

    def test_t953_proven_by_greedy(self):
        # T(9,5,3) = 12.  Averaging from T(8,5,3) = 8 gives ceil(9 * 8 / 6)
        # = 12, which greedy meets at level 9; the 2,847 nodes are level
        # 8's, where greedy's 9 edges miss the bound 8.
        res = solve_min_turan(9, 5, 3)
        assert (res.optimum, res.nodes_explored, res.proof) == (12, 2847, "bound-met")
        assert (res.lower_bound, res.lower_bound_source) == (12, "averaging")
        assert is_turan_system(res.witness, 5).is_turan
        # The witness is the 12 lines of the affine plane AG(2,3), vertex v
        # at (v // 3, v % 3), whose largest cap has 4 points: a triple is a
        # line when both coordinate sums are 0 mod 3.
        for e in res.witness.edges:
            assert sum(v // 3 for v in e) % 3 == sum(v % 3 for v in e) % 3 == 0

    def test_greedy_closes_level_without_rows(self, monkeypatch):
        # Level 22's bound is C(22,11) / C(21,11) = 2 against a prefix of
        # 12; greedy takes {0,...,10} and {11,...,21}, so no row is built:
        # the only ranks unranked are greedy's two, one 11-set each.
        unranked = []
        real = solver.unrank_colex
        monkeypatch.setattr(solver, "unrank_colex", lambda *a: unranked.append(a) or real(*a))
        res = solve_min_turan(22, 21, 11)
        assert (res.optimum, res.nodes_explored, res.proof) == (2, 0, "bound-met")
        assert res.witness.edges == (tuple(range(11)), tuple(range(11, 22)))
        assert len(unranked) == 2 and all(a[1:] == (11, 22) for a in unranked)

    def test_zero_budget_proves_greedy_levels(self):
        # Level 6 of (6,5,3) needs a search from the prefix (4 edges
        # against the bound 2); greedy meets the bound, so no node is spent.
        res = solve_min_turan(6, 5, 3, node_budget=0)
        assert (res.optimum, res.nodes_explored, res.proof) == (2, 0, "bound-met")
        assert res.proven_optimal and is_turan_system(res.witness, 5).is_turan


def reference_incidence(n, s, r):
    """The r-sets of [n] in colex order, their ranks, each one's bitmap over
    the s-sets that contain it, and each s-set's r-subsets' ranks."""
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
    return r_sets, r_rank, cover_mask, children


def reference_greedy(n, s, r):
    """Greedy set cover by full scans: each step takes the r-set of largest
    gain, the lowest rank on a tie.  Returns the r-sets in the order taken."""
    r_sets, _, cover_mask, _ = reference_incidence(n, s, r)
    uncovered = (1 << binomial(n, s)) - 1
    chosen = []
    while uncovered:
        gains = [(mask & uncovered).bit_count() for mask in cover_mask]
        j = gains.index(max(gains))
        chosen.append(r_sets[j])
        uncovered &= ~cover_mask[j]
    return chosen


def reference_solve(n, s, r, node_budget, incumbent=None, bound=0):
    """The search as it was written before the per-depth threshold.

    Every node stores its r-set in a path array and takes the ceiling bound
    from the complement of its covered set.  It starts from `incumbent`, a
    list of r-sets (the prefix system by default), and stops once it finds
    a system of at most `bound` edges.  Returns (optimum, witness, nodes,
    budget ran out) and the node numbers at which the incumbent improved.
    """
    r_sets, r_rank, cover_mask, children = reference_incidence(n, s, r)
    num_s = binomial(n, s)
    all_covered = (1 << num_s) - 1
    per_edge = binomial(n - r, s - r)

    if incumbent is None:
        incumbent = list(enumerate_subsets(n - (s - r), r))
    incumbent_idx = [r_rank[e] for e in incumbent]
    best = len(incumbent)
    nodes = 0
    exhausted = met = False
    improved_at = []

    none = len(r_sets)
    cover_mask.append(0)
    root_branch = [r_rank[tuple(range(r))]]
    path = [none] * (best + 1)
    stack = [(0, iter([none]))]
    while stack and not (exhausted or met):
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
                    if best <= bound:
                        met = True
                        break
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
    return (best, witness, nodes, exhausted), improved_at


def reference_construction(n, s, r):
    """Turán's systems, as the r-sets whose parts fit the pattern.

    Vertex v lies in part v // (q + 1) among the first rem * (q + 1)
    vertices and in part rem + (v - rem * (q + 1)) // q after them, for
    n = q k + rem and k parts: k = s - 1 for r = 2, k = 3 for (4,3).
    """
    if r != 2 and (s, r) != (4, 3):
        return None
    k = s - 1 if r == 2 else 3
    q, rem = divmod(n, k)
    head = rem * (q + 1)
    part = [v // (q + 1) if v < head else rem + (v - head) // q for v in range(n)]
    if r == 2:
        return [e for e in enumerate_subsets(n, 2) if part[e[0]] == part[e[1]]]
    patterns = [(i, i, i) for i in range(3)] + [(i, i, (i + 1) % 3) for i in range(3)]
    patterns = {tuple(sorted(p)) for p in patterns}
    return [e for e in enumerate_subsets(n, 3) if tuple(sorted(part[v] for v in e)) in patterns]


def reference_levels(n, s, r, node_budget):
    """solve_min_turan's levels written out over reference_solve: each
    level's bound from counting and averaging, its first incumbent the
    smaller of the prefix system and reference_construction, and, on a
    level that this misses the bound and budget remains, reference_greedy
    where it is smaller still."""
    below = nodes = 0
    out = False
    for m in range(s, n + 1):
        counting = -(-binomial(m, r) // binomial(s, r))
        averaging = -(-m * below // (m - r)) if m > s else 0
        bound = max(counting, averaging)
        source = "averaging" if averaging > counting else "counting"
        incumbent = list(enumerate_subsets(m - s + r, r))
        built = reference_construction(m, s, r)
        if built is not None and len(built) < len(incumbent):
            incumbent = built
        if len(incumbent) > bound and not out:
            greedy = reference_greedy(m, s, r)
            if len(greedy) < len(incumbent):
                incumbent = greedy
        best, witness = len(incumbent), UniformHypergraph.from_edges(m, r, incumbent)
        if best > bound and not out:
            (best, witness, used, out), _ = reference_solve(
                m, s, r, node_budget - nodes, incumbent, bound
            )
            nodes += used
        proof = "bound-met" if best == bound else None if out else "exhausted"
        below = bound if proof is None else best
    return {
        "n": n, "s": s, "r": r, "optimum": best, "witness": witness.to_json_dict(),
        "nodes_explored": nodes, "proven_optimal": proof is not None,
        "budget_exhausted": proof is None, "lower_bound": bound,
        "lower_bound_source": source, "proof": proof,
    }


# Reference budget: enough for every (n <= 8) instance to improve its
# incumbent several times, small enough for the reference loop.
REFERENCE_CAP = 20_000

SMALL_INSTANCES = [
    (n, s, r) for n in range(2, 9) for s in range(2, n + 1) for r in range(1, s)
]


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
    """The kernel from the prefix incumbent with no bound, node for node."""

    @settings(max_examples=60, deadline=None)
    @given(budgeted_instances())
    def test_matches_reference_loop(self, case):
        n, s, r, budget = case
        want, _ = reference_solve(n, s, r, budget)
        assert prefix_search(n, s, r, budget) == want

    def test_every_small_instance_to_the_cap(self):
        for n, s, r in SMALL_INSTANCES:
            want, _ = reference_solve(n, s, r, REFERENCE_CAP)
            assert prefix_search(n, s, r, REFERENCE_CAP) == want

    def test_every_small_instance_with_one_memo_entry_per_depth(self, monkeypatch):
        # The prefix incumbent's best - 1 depths share MEMO_ENTRIES, so each
        # holds one finished subtree and then refuses the rest, still read.
        for n, s, r in SMALL_INSTANCES:
            monkeypatch.setattr(solver, "MEMO_ENTRIES", binomial(n - s + r, r) - 1)
            want, _ = reference_solve(n, s, r, REFERENCE_CAP)
            assert prefix_search(n, s, r, REFERENCE_CAP) == want, (n, s, r)

    def test_every_budget_to_exhaustion(self):
        # Every budget from 0 to the whole tree and one past it, so the
        # budget is passed inside a run of pruned children, at a frame end,
        # at a surviving child, at each incumbent and inside subtrees that
        # the memo credits: 10 of them in (7,3,2), 5 each in (6,4,3) and
        # (7,5,4).  (8,7,4) improves at its last node, 107.
        for n, s, r, total in [
            (6, 4, 3, 166), (7, 5, 4, 322), (8, 7, 4, 107), (7, 3, 2, 338)
        ]:
            assert reference_solve(n, s, r, total)[0][2:] == (total, False)
            for budget in range(total + 2):
                want, _ = reference_solve(n, s, r, budget)
                assert prefix_search(n, s, r, budget) == want, (n, s, r, budget)

    def test_bound_stops_match_reference_loop(self):
        # A bound at the optimum stops at the node that meets it; one above
        # stops at the first incumbent within it.
        for n, s, r in SMALL_INSTANCES:
            optimum = reference_solve(n, s, r, REFERENCE_CAP)[0][0]
            for bound in (optimum, optimum + 1):
                want, _ = reference_solve(n, s, r, REFERENCE_CAP, bound=bound)
                assert prefix_search(n, s, r, REFERENCE_CAP, bound) == want, (n, s, r, bound)


def reference_delete_bits(mask, gone):
    """mask with the bits set in gone taken out, one bit at a time."""
    kept = [b for b in range(max(mask.bit_length(), gone.bit_length())) if not gone >> b & 1]
    return sum((mask >> b & 1) << i for i, b in enumerate(kept))


class TestDeleteBits:
    """The search's bit deletion against a bit-by-bit reference."""

    def test_edge_cases(self):
        cases = [
            (0b1011, 0),  # nothing deleted
            (0b1011, 0b1),  # bit 0
            (0b1011, 0b1111),  # every bit
            (0b1011, 0b1000),  # the top bit of the mask
            (0b1011, 0b110000),  # only bits above the mask
            (0b110110111, 0b011011000),  # adjacent runs of one and two
            (0b1101, 0b0110),  # a run across set and clear bits
            (0, 0b10101),
            ((1 << 70) - 1, 1 << 69 | 1),  # both ends of a three-digit int
        ]
        for mask, gone in cases:
            assert solver._delete_bits(mask, gone) == reference_delete_bits(mask, gone), (mask, gone)
        assert solver._delete_bits(0b1011, 0b1) == 0b101
        assert solver._delete_bits(0b110110111, 0b011011000) == 0b11111

    def test_matches_reference_on_random_masks(self):
        rng = random.Random(37)
        for _ in range(2000):
            width = rng.choice([1, 5, 29, 30, 31, 60, 61, 200])
            mask = rng.getrandbits(width)
            gone = rng.getrandbits(width) & rng.getrandbits(width) if rng.random() < 0.5 else 0
            # Runs of deleted bits too, adjacent ones included.
            for _ in range(rng.randrange(4)):
                low = rng.randrange(width)
                gone |= ((1 << rng.randint(1, 5)) - 1) << low
            gone &= (1 << width) - 1
            assert solver._delete_bits(mask, gone) == reference_delete_bits(mask, gone), (mask, gone)

    def test_search_rows_are_reduced_cover_masks(self, monkeypatch):
        # Every row built for (8,5,3), and for (7,4,3) to its 1,000th node,
        # holds the cover masks of the row's r-sets with the bits of the
        # s-sets that contain {0,...,r-1} deleted.
        rows = spy_rows(monkeypatch)
        for n, s, r, budget in [(8, 5, 3, solver.DEFAULT_NODE_BUDGET), (7, 4, 3, 1000)]:
            rows.clear()
            cover = cover_masks(n, s, r)
            _search(n, s, r, range(binomial(n, r)), 0, budget)
            want = {
                tuple(reference_delete_bits(cover[j], cover[0]) for j in reference_row(n, s, r, i))
                for i in range(binomial(n, s))
                if not cover[0] >> i & 1
            }
            assert rows and set(map(tuple, rows)) <= want, (n, s, r)


def spy_rows(monkeypatch):
    """The list to which each row of cover masks that the search builds
    is appended: the rows that AND vertex bitmaps, not those that OR the
    same vertices' bits into edge masks."""
    rows = []
    real = solver._colex_blocks

    def spy(level, k, top, op, *args, **kwargs):
        row = real(level, k, top, op, *args, **kwargs)
        if op is operator.and_:
            rows.append(row)
        return row

    monkeypatch.setattr(solver, "_colex_blocks", spy)
    return rows


def reference_row(n, s, r, i):
    """The colex ranks of the r-subsets of s-set i, ascending."""
    sset = unrank_colex(i, s, n)
    return sorted(rank_colex(e) for e in itertools.combinations(sset, r))


class TestGreedyEquivalence:
    """The lazy greedy against full scans, r-set for r-set."""

    def test_matches_full_scan(self):
        for n, s, r in SMALL_INSTANCES + [(9, 7, 5), (9, 5, 3), (10, 6, 3)]:
            ranks = _greedy_cover(cover_masks(n, s, r), binomial(n, s))
            want = reference_greedy(n, s, r)
            assert [unrank_colex(j, r, n) for j in ranks] == want
            assert is_turan_system(UniformHypergraph.from_edges(n, r, want), s).is_turan


class TestLevelEquivalence:
    """The solver against the reference loop fed the same levels."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_INSTANCES), st.integers(0, REFERENCE_CAP))
    def test_matches_reference_levels(self, instance, budget):
        got = solve_min_turan(*instance, node_budget=budget).to_json_dict()
        assert got == reference_levels(*instance, budget)

    def test_every_small_instance_to_the_cap(self):
        for n, s, r in SMALL_INSTANCES:
            got = solve_min_turan(n, s, r, node_budget=REFERENCE_CAP).to_json_dict()
            assert got == reference_levels(n, s, r, REFERENCE_CAP)


class TestBoundsAndConstructions:
    def test_lower_bound_sound_for_small_instances(self):
        # Every instance with n <= 8 is proven; where the unbounded
        # reference search proves within its cap, the optima agree.
        agreed = 0
        for n, s, r in SMALL_INSTANCES:
            res = solve_min_turan(n, s, r)
            assert res.proven_optimal and res.proof in ("exhausted", "bound-met")
            assert res.lower_bound <= res.optimum == len(res.witness)
            assert (res.proof == "bound-met") == (res.lower_bound == res.optimum)
            assert is_turan_system(res.witness, s).is_turan
            (optimum, _, _, out), _ = reference_solve(n, s, r, REFERENCE_CAP)
            if not out:
                assert res.optimum == optimum
                agreed += 1
        assert agreed == 78  # of 84

    def test_turan_43_construction(self):
        for n in range(4, 13):
            masks = _turan_construction(n, 4, 3)
            H = UniformHypergraph._from_masks(n, 3, sorted(masks))
            assert len(H) == len(masks) and is_turan_system(H, 4).is_turan
            assert H.edges == tuple(reference_construction(n, 4, 3))
        assert len(_turan_construction(8, 4, 3)) == 20
        assert len(_turan_construction(9, 4, 3)) == 30

    def test_r2_construction_is_turan(self):
        for n in range(3, 13):
            for s in range(3, n + 1):
                masks = _turan_construction(n, s, 2)
                H = UniformHypergraph._from_masks(n, 2, sorted(masks))
                assert is_turan_system(H, s).is_turan
                assert len(H) == len(masks) == turan_r2_value(n, s)

    def test_first_size_counts_first_incumbent(self):
        for n in range(3, 13):
            for s, r in [(s, 2) for s in range(3, n + 1)] + [(4, 3), (5, 3), (5, 4)]:
                if s <= n:
                    assert _first_size(n, s, r) == len(_first_incumbent(n, s, r))

    def test_first_incumbent_built_only_where_read(self, monkeypatch):
        # (40,3,2) closes every level by its bound and builds level 40's
        # witness only; (40,4,3) with 10 nodes also searches level 7.
        built = []
        real = solver._first_incumbent
        monkeypatch.setattr(solver, "_first_incumbent", lambda *a: built.append(a) or real(*a))
        assert solve_min_turan(40, 3, 2).optimum == 380
        assert built == [(40, 3, 2)]
        built.clear()
        assert solve_min_turan(40, 4, 3, node_budget=10).optimum == 4225
        assert built == [(7, 4, 3), (40, 4, 3)]

    def test_r2_and_43_solves_pinned(self):
        # Every r = 2 solve and the (4,3) solves under two node budgets for
        # n <= 12, as their canonical JSON, hashed in this order.
        h = hashlib.sha256()
        for n, s, r, budget in (
            [(n, s, 2, solver.DEFAULT_NODE_BUDGET) for n in range(3, 13) for s in range(3, n + 1)]
            + [(n, 4, 3, b) for b in (1000, 200_000) for n in range(4, 13)]
        ):
            res = solve_min_turan(n, s, r, node_budget=budget)
            h.update(json.dumps(res.to_json_dict(), sort_keys=True).encode())
        assert h.hexdigest() == "a6f0a2678de393bdcef13390ead38f4e72521371699e5f6cfc4941e0256f5636"

    def test_no_construction_elsewhere(self):
        assert _turan_construction(8, 5, 3) is None and _turan_construction(8, 5, 4) is None

    def test_published_43_values_proven_by_bound(self):
        # T(8,4,3) = 20 and T(9,4,3) = 30 (Sidorenko, Graphs Combin. 1995):
        # averaging from T(7,4,3) = 12 gives ceil(8 * 12 / 5) = 20, then
        # ceil(9 * 20 / 6) = 30, which Turán's construction meets.
        for n, value in [(8, 20), (9, 30)]:
            res = solve_min_turan(n, 4, 3)
            assert (res.optimum, res.proof, res.lower_bound) == (value, "bound-met", value)
            assert res.lower_bound_source == "averaging" and res.proven_optimal
            assert is_turan_system(res.witness, 4).is_turan

    def test_r2_solves_by_matching_bounds(self):
        # Turán's formula sizes the first incumbent, but the proof is the
        # counting or averaging bound meeting it with no node, and the
        # witness, Turán's construction or on a tie the prefix system, is
        # built edge by edge.
        for n in range(3, 13):
            for s in range(3, min(n, 7) + 1):
                res = solve_min_turan(n, s, 2)
                assert res.nodes_explored == 0 and res.proof == "bound-met"
                assert res.optimum == res.lower_bound == len(res.witness) == turan_r2_value(n, s)
                assert is_turan_system(res.witness, s).is_turan

    def test_repeated_calls_are_identical(self):
        for args in [(8, 4, 3), (9, 7, 5), (11, 6, 2)]:
            assert solve_min_turan(*args).to_json_dict() == solve_min_turan(*args).to_json_dict()
        budgeted = [solve_min_turan(10, 4, 3, node_budget=500).to_json_dict() for _ in range(2)]
        assert budgeted[0] == budgeted[1]

    def test_negative_budget_refused(self, tmp_path):
        with pytest.raises(ValueError):
            solve_min_turan(6, 4, 3, node_budget=-1)
        with pytest.raises(ValueError):
            solve_with_cache(6, 4, 3, cache=ValueCache(str(tmp_path / "c.json")), node_budget=-1)


class TestTuranGraphCrossCheck:
    def test_r2_formula_values(self):
        for s in (1, 2):
            with pytest.raises(ValueError, match="need 2 < s <= n"):
                turan_r2_value(5, s)
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
        assert (again.lower_bound, again.lower_bound_source, again.proof) == (
            res.lower_bound, res.lower_bound_source, res.proof
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda e: e.pop("proof"),  # written before proofs were recorded
            lambda e: e.update(proof="exhausted"),  # bound-met is the only match
            lambda e: e.update(lower_bound=e["optimum"] + 1),
            lambda e: e.update(lower_bound_source="guess"),
            # The counting bound is 14: 20 is not it, and averaging is named
            # only above it.
            lambda e: e.update(lower_bound_source="counting"),
            lambda e: e.update(lower_bound=14, proof="exhausted"),
        ],
    )
    def test_entry_without_matching_proof_dropped(self, tmp_path, edit):
        path = tmp_path / "cache.json"
        ValueCache(str(path)).store(solve_min_turan(8, 4, 3))
        data = json.loads(path.read_text())
        edit(data["8,4,3"])
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="malformed"):
            assert ValueCache(str(path)).get(8, 4, 3) is None

    def test_averaging_entry_kept(self, tmp_path):
        # (8,4,3) is proven by an averaging bound of 20, above counting's 14.
        path = tmp_path / "cache.json"
        ValueCache(str(path)).store(solve_min_turan(8, 4, 3))
        hit = ValueCache(str(path)).get(8, 4, 3)
        assert (hit.optimum, hit.lower_bound, hit.lower_bound_source) == (20, 20, "averaging")

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
        # Text nested too deeply for the parser raises RecursionError, not a
        # decoding error; it is corrupt all the same.
        path = tmp_path / "cache.json"
        for text in ("{not json", "[" * 200_000):
            path.write_text(text)
            with pytest.warns(UserWarning, match="ignoring corrupt cache"):
                cache = ValueCache(str(path))
            assert cache.get(4, 3, 2) is None

    def test_list_root_ignored(self, tmp_path):
        # Valid JSON, but no cache.
        path = tmp_path / "cache.json"
        path.write_text("[]")
        with pytest.warns(UserWarning, match="ignoring corrupt cache .*root must be an object"):
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
        # No temporary file is left; the lock file stays where flock exists.
        expected = ["cache.json", "cache.json.lock"] if solver.fcntl else ["cache.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected

    @pytest.mark.skipif(solver.fcntl is None, reason="no fcntl: writes are not serialised")
    def test_concurrent_caches_keep_both_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first, second = ValueCache(path), ValueCache(path)
        first.store(solve_min_turan(5, 4, 3))
        second.store(solve_min_turan(6, 4, 3))
        assert sorted(json.loads((tmp_path / "cache.json").read_text())) == ["5,4,3", "6,4,3"]
        reloaded = ValueCache(path)
        assert reloaded.get(5, 4, 3) is not None and reloaded.get(6, 4, 3) is not None

    @pytest.mark.skipif(solver.fcntl is None, reason="no fcntl: the file is not re-read")
    def test_corrupt_file_read_under_lock_only_warns(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ValueCache(str(path))
        cache.store(solve_min_turan(5, 4, 3))
        path.write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt"):
            cache.store(solve_min_turan(6, 4, 3))
        assert sorted(json.loads(path.read_text())) == ["6,4,3"]
        assert ValueCache(str(path)).get(6, 4, 3) is not None

    def test_unwritable_cache_only_warns(self, tmp_path):
        cache = ValueCache(str(tmp_path / "no" / "such" / "cache.json"))
        with pytest.warns(UserWarning, match="cannot write cache"):
            res = solve_with_cache(5, 4, 3, cache=cache)
        assert res.optimum == 3 and res.proven_optimal

    def test_unproven_results_not_cacheable(self, tmp_path):
        cache = ValueCache(str(tmp_path / "cache.json"))
        res = solve_min_turan(7, 4, 3, node_budget=10)
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
