import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems import combinatorics, solver
from turan_systems.combinatorics import (
    BudgetExceededError,
    binomial,
    cover_masks,
    enumerate_subsets,
    unrank_colex,
)
from turan_systems.constructions import trivial_prefix_system
from turan_systems.hypergraph import UniformHypergraph, is_turan_system
from turan_systems.solver import (
    ValueCache,
    _greedy_cover,
    _search,
    _turan_construction,
    solve_min_turan,
    solve_with_cache,
    turan_r2_value,
)


def prefix_search(n, s, r, budget):
    """The search kernel from the prefix incumbent with no bound, as the
    reference loop runs it: (optimum, witness, nodes, budget ran out)."""
    prefix = range(binomial(n - s + r, r))
    ranks, nodes, out = _search(n, s, r, cover_masks(n, s, r), prefix, 0, budget)
    witness = UniformHypergraph.from_edges(n, r, [unrank_colex(j, r, n) for j in ranks])
    return len(ranks), witness, nodes, out


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
        built, covered = [], []
        real, real_cover = solver.r_subset_ranks, solver.cover_masks
        monkeypatch.setattr(solver, "r_subset_ranks", lambda *a: built.append(a) or real(*a))
        monkeypatch.setattr(solver, "cover_masks", lambda *a: covered.append(a) or real_cover(*a))
        res = solve_min_turan(40, 4, 3, node_budget=10)
        assert built == covered == [(7, 4, 3)]
        assert res.budget_exhausted and not res.proven_optimal and res.proof is None
        assert res.nodes_explored == 11
        assert res.witness == UniformHypergraph.from_edges(40, 3, _turan_construction(40, 4, 3))
        assert res.optimum == 4225 and res.lower_bound == 3289
        assert res.lower_bound_source == "averaging"

    def test_level_closed_at_root_does_no_setup(self, monkeypatch):
        monkeypatch.setattr(solver, "r_subset_ranks", None)
        monkeypatch.setattr(solver, "cover_masks", None)
        for n, s, r in [(10, 5, 2), (11, 6, 2), (6, 4, 3), (9, 6, 1)]:
            res = solve_min_turan(n, s, r)
            assert res.nodes_explored == 0 and res.proof == "bound-met"

    def test_rows_built_on_demand(self, monkeypatch):
        # Ten nodes below the root branch on at most ten s-sets; row 0, the
        # root's, is seeded.  A full table would hold all C(16,8) = 12870.
        rows = []

        def spy(*a):
            ranks = real(*a)
            return lambda i: rows.append(i) or ranks(i)

        real = solver.r_subset_ranks
        monkeypatch.setattr(solver, "r_subset_ranks", spy)
        _, nodes, out = _search(16, 8, 4, cover_masks(16, 8, 4), range(495), 0, 10)
        assert out and nodes == 11
        assert 0 < len(rows) <= 11 and len(set(rows)) == len(rows) and 0 not in rows

    def test_level_beyond_cover_bit_budget_refused(self, monkeypatch):
        # (8,4,3) searches level 7 only, whose bitmaps take
        # C(7,3) * C(7,4) = 1225 bits; the refusal comes before any node.
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1224)
        monkeypatch.setattr(solver, "r_subset_ranks", None)
        with pytest.raises(BudgetExceededError, match="cover bitmaps"):
            solve_min_turan(8, 4, 3)
        monkeypatch.undo()
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1225)
        assert solve_min_turan(8, 4, 3).optimum == 20

    def test_search_leaves_cover_masks_unchanged(self):
        masks = cover_masks(7, 4, 3)
        before = list(masks)
        _, nodes, out = _search(7, 4, 3, masks, range(20), 0, 1000)
        assert out and nodes == 1001 and masks == before
        _search(7, 4, 3, masks, range(20), 0, solver.DEFAULT_NODE_BUDGET)
        assert masks == before

    def test_benchmark_instances_pinned(self):
        # (optimum, nodes, proof) of the solve benchmark's six instances.
        # (8,5,4) closes at the root: greedy's 14 edges meet the bound.
        for (n, s, r, budget), want in {
            (9, 7, 5, None): (8, 1269431, "exhausted"),
            (10, 5, 2, None): (8, 0, "bound-met"),
            (11, 6, 2, None): (7, 0, "bound-met"),
            (7, 4, 3, None): (12, 113722, "exhausted"),
            (8, 5, 4, None): (14, 0, "bound-met"),
            (8, 4, 3, 1_000_000): (20, 113722, "bound-met"),
        }.items():
            res = solve_min_turan(n, s, r, node_budget=budget or solver.DEFAULT_NODE_BUDGET)
            assert (res.optimum, res.nodes_explored, res.proof) == want
            assert is_turan_system(res.witness, s).is_turan

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
        # 12; greedy takes {0,...,10} and {11,...,21}, so no row is built.
        built = []
        real = solver.r_subset_ranks
        monkeypatch.setattr(solver, "r_subset_ranks", lambda *a: built.append(a) or real(*a))
        res = solve_min_turan(22, 21, 11)
        assert (res.optimum, res.nodes_explored, res.proof) == (2, 0, "bound-met")
        assert res.witness.edges == (tuple(range(11)), tuple(range(11, 22)))
        assert built == []

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
            edges = _turan_construction(n, 4, 3)
            H = UniformHypergraph.from_edges(n, 3, edges)
            assert len(H) == len(edges) and is_turan_system(H, 4).is_turan
            assert sorted(edges) == sorted(reference_construction(n, 4, 3))
        assert len(_turan_construction(8, 4, 3)) == 20
        assert len(_turan_construction(9, 4, 3)) == 30

    def test_r2_construction_is_turan(self):
        for n in range(3, 13):
            for s in range(3, n + 1):
                edges = _turan_construction(n, s, 2)
                H = UniformHypergraph.from_edges(n, 2, edges)
                assert is_turan_system(H, s).is_turan
                assert len(H) == len(edges) == turan_r2_value(n, s)

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

    def test_r2_solves_without_turans_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_min_turan called turan_r2_value")

        monkeypatch.setattr(solver, "turan_r2_value", refuse)
        for n in range(3, 13):
            for s in range(3, min(n, 7) + 1):
                res = solve_min_turan(n, s, 2)
                assert res.nodes_explored == 0 and res.proof == "bound-met"
                assert res.optimum == turan_r2_value(n, s)

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
