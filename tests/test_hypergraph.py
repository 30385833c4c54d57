import gc
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turan_systems.bounds import counting_lower_T
from turan_systems import hypergraph
from turan_systems.combinatorics import check_subset, enumerate_subsets, rank_colex
from turan_systems.hypergraph import (
    BITMAP_VERIFY_BITS,
    BudgetExceededError,
    UniformHypergraph,
    _least_uncovered,
    contains_edge,
    density,
    is_turan_system,
    sample_verify,
)


def matching_4_3_2():
    return UniformHypergraph.from_edges(4, 2, [(0, 1), (2, 3)])


class TestContainsEdge:
    def test_subset_hit(self):
        assert contains_edge(matching_4_3_2(), (0, 1, 2))

    def test_empty_system(self):
        H = UniformHypergraph.from_edges(4, 2, [])
        assert not contains_edge(H, (0, 1, 2))

    def test_complete_graph(self):
        H = UniformHypergraph.from_edges(4, 3, enumerate_subsets(4, 3))
        assert contains_edge(H, (1, 2, 3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            contains_edge(matching_4_3_2(), (1, 2, 7))

    def test_set_smaller_than_an_edge_refused(self):
        with pytest.raises(ValueError, match="set of size 2 cannot contain an 3-edge"):
            contains_edge(UniformHypergraph(5, 3, [[0, 1, 2]]), (0, 1))

    @pytest.mark.parametrize("S, message", [
        ((-1, 2), "not within ground set of size 5"),
        ((-3, -1, 2), "not within ground set of size 5"),
        ((2, 1), "strictly increasing"),
        ((1, 1), "strictly increasing"),
    ])
    def test_negative_vertex_is_outside_the_ground_set(self, S, message):
        with pytest.raises(ValueError, match=message):
            contains_edge(UniformHypergraph(5, 2, [[0, 1]]), S)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        n, _, r, edges = data.draw(random_systems())
        H = UniformHypergraph.from_edges(n, r, edges)
        k = data.draw(st.integers(r, n))
        S = tuple(sorted(data.draw(st.permutations(range(n)))[:k]))
        assert contains_edge(H, S) == (not uncovered(S, edges))

    # These tests keep the names they had when a system kept an index by
    # least vertex; each checks that a system holds only n, r and its masks.
    def test_index_built_on_first_use_and_kept(self):
        H = UniformHypergraph.from_json(matching_4_3_2().to_json())
        assert set(vars(H)) == {"n", "r", "masks"}
        assert contains_edge(H, (0, 1, 2))
        assert not contains_edge(H, (0, 2))
        assert set(vars(H)) == {"n", "r", "masks"}

    def test_index_does_not_grow_with_n(self):
        # One edge among 10^6 vertices: no table over the vertices is built,
        # where one list per vertex took hundreds of milliseconds and tens of MB.
        H = UniformHypergraph(10**6, 2, [[0, 1]])
        assert contains_edge(H, (0, 1, 5))
        assert not contains_edge(H, (2, 5, 10**6 - 1))
        assert set(vars(H)) == {"n", "r", "masks"}

    @pytest.mark.parametrize("S, covered", [
        ((1, 5, 7), True),  # the edge is the set's largest pair
        ((1, 3, 5, 8), False),
        ((5, 7, 10**5 - 1), True),  # a vertex above every edge gets no bit
    ])
    def test_scan_of_all_masks(self, monkeypatch, S, covered):
        # Each set has more pairs than the system has edges, so every mask
        # is tested for inclusion rather than the pairs looked up.
        H = UniformHypergraph(10**5, 2, [[0, 2], [7, 5]])
        monkeypatch.setattr(hypergraph, "bisect_left", None)
        assert contains_edge(H, S) == covered

    def test_sampling_reads_the_same_index(self):
        # C(3,2) = 3 r-subsets per set against one edge: sampling scans the
        # masks rather than looking the set's pairs up.
        H = UniformHypergraph(10**4, 2, [[5, 7]])
        report = sample_verify(H, 3, trials=3, seed=1)
        assert not report.is_turan
        assert set(vars(H)) == {"n", "r", "masks"}


class TestExhaustiveVerify:
    def test_matching_covers_triples(self):
        report = is_turan_system(matching_4_3_2(), 3)
        assert report.is_turan and report.sets_checked == 4

    def test_empty_system_least_witness(self):
        H = UniformHypergraph.from_edges(6, 2, [])
        report = is_turan_system(H, 4)
        assert not report.is_turan
        assert report.witness == (0, 1, 2, 3)

    def test_constructor_builds_a_checked_system(self):
        # K4^(3) through the constructor: its one 4-set holds all four triples.
        H = UniformHypergraph(4, 3, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        assert is_turan_system(H, 4).is_turan
        assert contains_edge(H, (0, 1, 2))

    def test_three_triples_cover_5_4(self):
        H = UniformHypergraph.from_edges(5, 3, [(0, 1, 2), (0, 3, 4), (1, 3, 4)])
        assert is_turan_system(H, 4).is_turan

    def test_budget_refusal(self):
        H = UniformHypergraph.from_edges(40, 2, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            is_turan_system(H, 20, budget=10**6)

    def test_far_count_refused_without_computing_it(self, monkeypatch):
        # ln C(10^9, 10^5) is near 10^6, far above ln 10^9: the exact count,
        # which alone takes over a second, is never computed.
        calls = []
        real = hypergraph.binomial
        monkeypatch.setattr(hypergraph, "binomial", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(BudgetExceededError, match=r"C\(1000000000,100000\) exceeds"):
            is_turan_system(UniformHypergraph(10**9, 1, []), 10**5)
        assert (10**9, 10**5) not in calls

    @pytest.mark.parametrize("n, s", [(40, 20), (10**6, 2), (10**20, 5)])
    def test_budget_at_the_count_decided_exactly(self, n, s):
        # Both sides of the exact path of log_binomial and of its series.
        H = UniformHypergraph(n, 1, [])
        assert is_turan_system(H, s, budget=math.comb(n, s)).witness == tuple(range(s))
        with pytest.raises(BudgetExceededError):
            is_turan_system(H, s, budget=math.comb(n, s) - 1)

    @pytest.mark.parametrize("r, s", [(1, 2), (2, 5)])
    def test_edgeless_system_at_huge_n(self, r, s):
        # Above the bitmap limit the search runs with no edge, and builds no
        # bit near vertex 10^20.
        H = UniformHypergraph(10**20, r, [])
        report = is_turan_system(H, s, budget=10**100)
        assert not report.is_turan and report.witness == tuple(range(s))
        assert report.sets_checked == 1

    def test_witness_is_colex_least_and_sound(self):
        # Remove one edge from a prefix system; the first uncovered s-set
        # must be the colex-least one and must really be uncovered.
        edges = list(enumerate_subsets(4, 3))[1:]
        H = UniformHypergraph.from_edges(6, 3, edges)
        report = is_turan_system(H, 4)
        assert not report.is_turan
        assert not contains_edge(H, report.witness)
        for S in enumerate_subsets(6, 4):
            if S == report.witness:
                break
            assert contains_edge(H, S)

    def test_dense_system_witness_matches_scan(self):
        # A dense system with small s - r prunes almost every partial set;
        # the witness must still be the first uncovered s-set of a scan.
        edges = [e for e in enumerate_subsets(8, 2) if e != (5, 7)]
        H = UniformHypergraph.from_edges(8, 2, edges)
        report = is_turan_system(H, 3)
        scan = None
        for S in enumerate_subsets(8, 3):
            if not contains_edge(H, S):
                scan = S
                break
        assert report.witness == scan

    def test_deep_search_needs_no_recursion(self):
        # s = 2999 is deeper than the default recursion limit.
        n, s = 3000, 2999
        empty = UniformHypergraph.from_edges(n, 1, [])
        assert is_turan_system(empty, s).to_json_dict()["witness"] == list(range(s))
        ends = UniformHypergraph.from_edges(n, 1, [(0,), (n - 1,)])
        report = is_turan_system(ends, s)
        assert report.is_turan and report.sets_checked == n

    def test_forced_tails_stop_at_least_edge(self):
        # Every s-set misses at most one vertex, so it holds 0 or 1.  Both
        # are forbidden from the start, which leaves n - 2 vertices for s
        # places: the search stops at its first depth, with no walk down the
        # vertices.
        n, s = 6000, 5999
        H = UniformHypergraph.from_edges(n, 1, [(0,), (1,)])
        report = is_turan_system(H, s)
        assert report.is_turan and report.sets_checked == n

    @pytest.mark.parametrize("dropped", [None, (20, 21, 22, 23), (0, 5, 11, 17)])
    def test_prefix_system_above_the_bitmap_limit(self, dropped):
        # The prefix (28,8,4)-system, every 4-set of [24], is Turán: an
        # 8-set of [28] has at least 4 vertices in [24].  Without one edge
        # e, an 8-set is uncovered only if it meets [24] in e alone, so
        # e + (24, 25, 26, 27) is the one uncovered set.
        n, s, r = 28, 8, 4
        assert n * math.comb(n, s) > BITMAP_VERIFY_BITS
        edges = set(itertools.combinations(range(24), r)) - {dropped}
        report = is_turan_system(UniformHypergraph(n, r, edges), s)
        if dropped is None:
            assert report.is_turan and report.sets_checked == math.comb(n, s)
        else:
            hole = dropped + (24, 25, 26, 27)
            assert not report.is_turan and report.witness == hole
            assert report.sets_checked == rank_colex(hole) + 1

    @pytest.mark.parametrize(
        "n, s, r, edges, witness",
        [
            (200, 150, 3, [], tuple(range(150))),
            (200, 150, 3, [(0, 1, 2)], (0, 1, *range(3, 151))),
            (3000, 2999, 4, [], tuple(range(2999))),
            (100, 96, 50, [], tuple(range(96))),
            (4000, 3998, 2000, [range(2000)], (*range(1999), *range(2000, 3999))),
            (4000, 3998, 2000, [range(1, 2001)], (*range(2000), *range(2001, 3999))),
        ],
    )
    def test_deep_search_with_down_links(self, n, s, r, edges, witness):
        # Deep searches, up to 3998 depths.  A depth's lookups are bounded by
        # the down-links at its vertex, not by the (r-2)-subsets of the set
        # above it, which run to millions in the empty 4- and 50-graphs.  A
        # depth's first candidate takes every vertex below it, so it is
        # skipped when those hold the one edge: the search walks straight
        # down to the witness, with no branch run down and back for each
        # vertex of the edge.  With {0,1,2}, vertex 1 then finds {1,2}
        # outside the set and forbids nothing.
        assert n * math.comb(n, s) > BITMAP_VERIFY_BITS
        report = is_turan_system(UniformHypergraph(n, r, edges), s, budget=math.comb(n, s))
        assert report.witness == witness
        assert report.sets_checked == rank_colex(witness) + 1

    @pytest.mark.parametrize("hole", [False, True])
    @pytest.mark.parametrize(
        "s, r, p",
        [
            (7, 2, 0.05), (8, 3, 0.02), (9, 3, 0.04), (8, 4, 0.01), (9, 4, 0.03),
            (7, 5, 0.05), (8, 5, 0.6), (8, 6, 0.3), (9, 6, 0.9), (9, 7, 0.1), (10, 7, 0.5),
        ],
    )
    def test_search_matches_the_bitmap_path(self, monkeypatch, s, r, p, hole):
        # Random 2- to 7-graphs on 20 vertices above the limit, sparse to
        # dense, with or without a hole, against the cover bitmaps of the
        # same system with the limit lifted.
        n, rng = 20, random.Random(s * r)
        assert n * math.comb(n, s) > BITMAP_VERIFY_BITS
        edges = {e for e in itertools.combinations(range(n), r) if rng.random() < p}
        if hole:
            edges -= set(itertools.combinations(sorted(rng.sample(range(n), s)), r))
        H = UniformHypergraph(n, r, edges)
        searched = is_turan_system(H, s)
        monkeypatch.setattr(hypergraph, "BITMAP_VERIFY_BITS", n * math.comb(n, s))
        assert is_turan_system(H, s) == searched


def colex_s_sets(n, s):
    return sorted(itertools.combinations(range(n), s), key=lambda S: S[::-1])


def uncovered(S, edges):
    members = set(S)
    return not any(members.issuperset(e) for e in edges)


@st.composite
def random_systems(draw):
    """(n, s, r, edges) with n <= 11 and r < s, from empty to complete.

    Up to two random s-sets lose all their r-subsets, so that dense systems
    are uncovered too.
    """
    n = draw(st.integers(2, 11))
    r = draw(st.integers(1, n - 1))
    s = draw(st.integers(r + 1, n))
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {e for e in itertools.combinations(range(n), r) if rng.random() < p}
    for _ in range(draw(st.integers(0, 2))):
        hole = sorted(rng.sample(range(n), s))
        edges -= set(itertools.combinations(hole, r))
    return n, s, r, sorted(edges)


class TestVerifierAgainstBruteForce:
    @given(random_systems())
    @settings(max_examples=150, deadline=None)
    def test_exhaustive_matches_colex_scan(self, system):
        n, s, r, edges = system
        H = UniformHypergraph.from_edges(n, r, edges)
        expected = {"is_turan": True, "witness": None, "sets_checked": math.comb(n, s)}
        for checked, S in enumerate(colex_s_sets(n, s), 1):
            if uncovered(S, edges):
                expected = {"is_turan": False, "witness": list(S), "sets_checked": checked}
                break
        expected.update(
            mode="exhaustive", s=s, trials=None, seed=None, delta=None, uncovered_share_bound=None
        )
        assert is_turan_system(H, s).to_json_dict() == expected
        # These inputs all take the bitmap path; the search must agree too.
        witness = None if expected["is_turan"] else tuple(expected["witness"])
        assert _least_uncovered(H, s) == witness

    @pytest.mark.parametrize("n, bitmaps", [(19, True), (20, False)])
    @pytest.mark.parametrize("hole", [None, (1, 3, 5, 8, 11, 14, 17)])
    def test_both_sides_of_the_bitmap_limit(self, monkeypatch, n, bitmaps, hole):
        # Complete 3-graphs checked on 7-sets: 19 * C(19,7) = 957,372 bits
        # lie within the limit and 20 * C(20,7) = 1,550,400 beyond it.  A
        # hole without its triples is the only uncovered 7-set.
        s, r = 7, 3
        assert (n * math.comb(n, s) <= BITMAP_VERIFY_BITS) == bitmaps
        edges = set(itertools.combinations(range(n), r))
        if hole:
            edges -= set(itertools.combinations(hole, r))
        H = UniformHypergraph(n, r, edges)
        calls = []
        for name in ("cover_union", "_least_uncovered"):
            def record(*args, _name=name, _f=getattr(hypergraph, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(hypergraph, name, record)
        report = is_turan_system(H, s)
        assert calls == ["cover_union" if bitmaps else "_least_uncovered"]
        assert set(vars(H)) == {"n", "r", "masks"}
        assert report.witness == _least_uncovered(H, s) == hole
        checked = rank_colex(hole) + 1 if hole else math.comb(n, s)
        assert report.sets_checked == checked

    @given(random_systems(), st.integers(1, 60), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_sampled_matches_per_trial_check(self, system, trials, seed):
        n, s, r, edges = system
        H = UniformHypergraph.from_edges(n, r, edges)
        # sample_verify draws a uniform colex rank per trial from Random(seed).
        ranked = colex_s_sets(n, s)
        rng = random.Random(seed)
        expected = {"is_turan": True, "witness": None, "sets_checked": trials}
        for t in range(1, trials + 1):
            S = ranked[rng.randrange(len(ranked))]
            if uncovered(S, edges):
                expected = {"is_turan": False, "witness": list(S), "sets_checked": t}
                break
        # Only a clean run carries the bound on the uncovered share.
        clean = expected["is_turan"]
        expected.update(
            mode="sampled", s=s, trials=trials, seed=seed,
            delta=1e-3 if clean else None,
            uncovered_share_bound=1 - 1e-3 ** (1 / trials) if clean else None,
        )
        got = sample_verify(H, s, trials, seed).to_json_dict()
        if clean:
            assert got.pop("uncovered_share_bound") == pytest.approx(
                expected.pop("uncovered_share_bound"), rel=1e-12
            )
        assert got == expected


class TestLongSets:
    """An s-set longer than the materialization budget is refused, exit 4
    on the command line, before C(n,s) or any s-set is computed."""

    @pytest.fixture(autouse=True)
    def no_binomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binomial computed")

        monkeypatch.setattr(hypergraph, "binomial", refuse)

    @pytest.mark.parametrize("check", [
        lambda H, s: is_turan_system(H, s, budget=10**40),
        lambda H, s: sample_verify(H, s, trials=1, seed=1),
    ], ids=["exhaustive", "sampled"])
    def test_refused_before_any_work(self, check):
        H = UniformHypergraph(10**20, 1, [])
        for s in (hypergraph.DEFAULT_MATERIALIZE_BUDGET + 1, 10**20 - 1):
            with pytest.raises(BudgetExceededError, match=f"s = {s} exceeds"):
                check(H, s)

    def test_limit_admits_s_equal_to_the_budget(self, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(hypergraph, "DEFAULT_MATERIALIZE_BUDGET", 4)
        H = UniformHypergraph(6, 2, [])
        assert is_turan_system(H, 4).witness == (0, 1, 2, 3)
        assert not sample_verify(H, 4, trials=1, seed=0).is_turan
        for check in (lambda: is_turan_system(H, 5), lambda: sample_verify(H, 5, 1, 0)):
            with pytest.raises(BudgetExceededError, match="s = 5 exceeds"):
                check()

    def test_argument_errors_come_first(self):
        H = UniformHypergraph(10**20, 1, [])
        with pytest.raises(ValueError, match="budget"):
            is_turan_system(H, 10**20 - 1, budget=-1)
        with pytest.raises(ValueError, match="trials"):
            sample_verify(H, 10**20 - 1, trials=0, seed=1)


class TestSampleVerify:
    def test_cannot_contradict_exhaustive_truth(self):
        H = matching_4_3_2()
        assert is_turan_system(H, 3).is_turan
        assert sample_verify(H, 3, trials=10**4, seed=3).is_turan

    def test_empty_fails_in_one_trial(self):
        H = UniformHypergraph.from_edges(6, 2, [])
        report = sample_verify(H, 4, trials=1, seed=0)
        assert not report.is_turan and report.witness is not None

    def test_seed_determinism(self):
        H = UniformHypergraph.from_edges(7, 2, [(0, 1), (2, 3)])
        a = sample_verify(H, 4, trials=500, seed=42)
        b = sample_verify(H, 4, trials=500, seed=42)
        assert a == b


class TestDensity:
    def test_complete(self):
        H = UniformHypergraph.from_edges(5, 2, enumerate_subsets(5, 2))
        assert density(H) == (10, 10, 1.0)

    def test_empty(self):
        assert density(UniformHypergraph.from_edges(5, 2, []))[2] == 0.0

    def test_matching(self):
        num, den, val = density(matching_4_3_2())
        assert (num, den) == (2, 6) and val == pytest.approx(1 / 3)

    @pytest.mark.parametrize("n, r", [(2, 3), (0, 1)])
    def test_empty_binomial_rejected(self, n, r):
        # The loader accepts n < r with no edges, but C(n,r) = 0 has no density.
        with pytest.raises(ValueError, match=f"n={n}, r={r}"):
            density(UniformHypergraph(n, r, []))


class TestCountingBound:
    @given(st.integers(2, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_verified_system_respects_it(self, n, data):
        r = data.draw(st.integers(1, n - 1))
        s = data.draw(st.integers(r + 1, n))
        # The prefix system is always a Turán system; check the bound on it.
        from turan_systems.constructions import trivial_prefix_system

        H = trivial_prefix_system(n, s, r)
        assert is_turan_system(H, s).is_turan
        assert len(H) >= counting_lower_T(n, s, r)


class TestSerialization:
    def test_json_roundtrip_bit_exact(self):
        H = matching_4_3_2()
        assert UniformHypergraph.from_json(H.to_json()) == H
        assert UniformHypergraph.from_json(H.to_json()).to_json() == H.to_json()

    def test_edges_serialized_in_colex(self):
        H = UniformHypergraph.from_edges(5, 2, [(3, 4), (0, 1), (0, 4)])
        assert H.edges == ((0, 1), (0, 4), (3, 4))

    def test_duplicate_edges_collapse(self):
        H = UniformHypergraph.from_edges(4, 2, [(1, 0), (0, 1)])
        assert len(H) == 1

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            UniformHypergraph.from_edges(4, 2, [(0, 5)])
        with pytest.raises(ValueError):
            UniformHypergraph.from_edges(4, 2, [(0, 1, 2)])

    @pytest.mark.parametrize("n, r", [(4.0, 2), (4, 2.0), ("4", 2), (True, 1), (4, 0), (-1, 2)])
    def test_bad_parameters_rejected(self, n, r):
        with pytest.raises(ValueError):
            UniformHypergraph.from_edges(n, r, [])


def reference_from_edges(n, r, edges):
    """(edges, masks) from a loader that sorts, checks and masks one edge at
    a time; the one-pass loader must give the same."""
    normalized = {tuple(sorted(e)) for e in edges}
    for e in normalized:
        check_subset(e, n, r)
    by_mask = {sum(1 << v for v in e): e for e in normalized}
    masks = tuple(sorted(by_mask))
    return tuple(by_mask[m] for m in masks), masks


def as_container(kind, items):
    if kind == "list":
        return list(items)
    if kind == "tuple":
        return tuple(items)
    return (x for x in items)


@st.composite
def loader_inputs(draw):
    """(n, r, edges): r-subsets of range(n), n <= 40, each edge in shuffled
    order, some edges repeated in another order."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, n))
    edge = st.permutations(range(n)).map(lambda p: p[:r])
    edges = draw(st.lists(edge, max_size=40))
    for e in draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []:
        edges.append(draw(st.permutations(e)))
    return n, r, draw(st.permutations(edges))


# Each turns one valid edge (a list) into an invalid one.
CORRUPTIONS = {
    "short": lambda e, n: e[:-1],
    "long": lambda e, n: e + [next(v for v in range(n + 1) if v not in e)],
    "repeated": lambda e, n: e[:-1] + e[:1],
    "negative": lambda e, n: e[:-1] + [-1],
    "too large": lambda e, n: e[:-1] + [n],
    "float": lambda e, n: e[:-1] + [float(e[-1])],
    "half": lambda e, n: e[:-1] + [e[-1] + 0.5],
    "str": lambda e, n: e[:-1] + [str(e[-1])],
    # True == 1 and False == 0: only the type tells a bool apart.
    "bool": lambda e, n: e[:-1] + [e[-1] == 1],
    "none": lambda e, n: e[:-1] + [None],
    "not iterable": lambda e, n: e[0],
}


class TestLoaderAgainstReference:
    @given(loader_inputs(), st.sampled_from(["list", "tuple", "generator"]),
           st.sampled_from(["list", "tuple", "generator"]))
    @settings(max_examples=300, deadline=None)
    def test_same_edges_and_masks(self, system, outer, inner):
        n, r, edges = system
        expected = reference_from_edges(n, r, edges)
        H = UniformHypergraph.from_edges(
            n, r, as_container(outer, (as_container(inner, e) for e in edges))
        )
        assert (H.edges, H.masks) == expected
        # The constructor is the loader that from_edges calls.
        G = UniformHypergraph(n, r, as_container(outer, (as_container(inner, e) for e in edges)))
        assert G == H and G.masks == H.masks

    @given(loader_inputs(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_invalid_edge_raises_value_error(self, system, kind, data):
        n, r, edges = system
        assume(edges and not (kind == "repeated" and r == 1))
        i = data.draw(st.integers(0, len(edges) - 1))
        edges = [list(e) for e in edges]
        edges[i] = CORRUPTIONS[kind](edges[i], n)
        with pytest.raises(ValueError):
            UniformHypergraph.from_edges(n, r, edges)
        with pytest.raises(ValueError):
            UniformHypergraph(n, r, edges)


@st.composite
def wide_inputs(draw):
    """(n, r, edges): as loader_inputs, but n reaches past one 64-bit word
    and r stays small; edges are lists of r distinct vertices in shuffled
    order, some repeated in another order, possibly none at all."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(65, 130)))
    r = draw(st.integers(1, min(n, 5)))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(edge, max_size=30))
    for e in draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []:
        edges.append(draw(st.permutations(e)))
    return n, r, edges


class TestMasksAreTheState:
    @given(wide_inputs())
    @example((130, 1, [[129], [0], [64], [129]]))
    @example((130, 3, [[129, 0, 64], [64, 129, 0], [1, 2, 3]]))
    @example((70, 2, []))
    @settings(max_examples=300, deadline=None)
    def test_decoded_edges_match_eager_normalisation(self, system):
        n, r, edges = system
        expected_edges, expected_masks = reference_from_edges(n, r, edges)
        H = UniformHypergraph(n, r, edges)
        assert H.masks == expected_masks and len(H) == len(expected_masks)
        # Edges are decoded on first read, for every input, even an empty one.
        assert "edges" not in vars(H)
        assert H.edges == expected_edges
        assert vars(H)["edges"] is H.edges
        # Increasing tuples take the same path.
        rows = [tuple(sorted(e)) for e in edges]
        G = UniformHypergraph(n, r, rows)
        assert "edges" not in vars(G)
        assert G.edges == expected_edges and G.masks == expected_masks

    @pytest.mark.parametrize("edges, increasing", [
        ([(2, 3), (0, 1), (0, 1)], True),  # increasing tuples out of order
        ([(1, 0), (2, 3)], False),  # a decreasing tuple
        ([[3, 2], [1, 0]], False),  # shuffled lists
        ([(0, 1), (2, 3)], True),  # increasing tuples in colex order
    ])
    def test_increasing_tuples_are_kept(self, edges, increasing):
        # Every kind of row takes the one loader path: the same masks, and
        # edges decoded from them on first read.  Increasing tuples are kept
        # as values only: each is an edge, but no edge is the row object.
        H = UniformHypergraph(4, 2, edges)
        assert "edges" not in vars(H)
        assert H.masks == (0b0011, 0b1100)
        assert H.edges == ((0, 1), (2, 3))
        assert all(row in H.edges for row in edges) == increasing
        assert all(e is not row for e in H.edges for row in edges)

    @given(wide_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_follow_edge_sets(self, system, data):
        n, r, edges = system
        H = UniformHypergraph(n, r, edges)
        same = [data.draw(st.permutations(e)) for e in data.draw(st.permutations(edges))]
        other = data.draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
        for rows in (same, other):
            G = UniformHypergraph(n, r, rows)
            assert (G == H) == (set(G.edges) == set(H.edges))
            if G == H:
                assert hash(G) == hash(H)
        assert UniformHypergraph(n + 1, r, edges) != H

    @pytest.mark.parametrize("s", [3, 5])
    def test_verification_reads_no_edges(self, s):
        # s = 3 looks the r-subsets up in the masks; s = 5 has more
        # r-subsets than edges and reads the index.
        text = UniformHypergraph.from_edges(6, 2, [(0, 1), (2, 3), (4, 5)]).to_json()
        H = UniformHypergraph.from_json(text)
        is_turan_system(H, s)
        sample_verify(H, s, trials=50, seed=1)
        density(H)
        assert "edges" not in vars(H)


class TestMaskEntry:
    @given(wide_inputs())
    @example((70, 2, []))
    @settings(max_examples=200, deadline=None)
    def test_same_system_as_the_loader(self, system):
        n, r, edges = system
        H = UniformHypergraph(n, r, edges)
        G = UniformHypergraph._from_masks(n, r, list(H.masks))
        assert "edges" not in vars(G)
        assert G == H and hash(G) == hash(H)
        assert G.edges == H.edges and G.to_json() == H.to_json()

    @pytest.mark.parametrize("n, r, masks", [
        (4, 2, [0b1100, 0b0011]),  # descending
        (4, 2, [0b0011, 0b0011]),  # repeated
        (4, 2, [0b0011, 0b0111]),  # three bits
        (4, 2, [0b0001]),  # one bit
        (4, 2, [0b0011, 0b10001]),  # vertex 4 is outside range(4)
        (4, 2, [-0b0011, 0b0011]),  # negative
        (4, 2, [3.0]),
        (4, 2, [True]),
        (4, 0, [0]),
        (-1, 2, []),
        (4.0, 2, [0b0011]),
    ])
    def test_invalid_masks_raise_value_error(self, n, r, masks):
        with pytest.raises(ValueError):
            UniformHypergraph._from_masks(n, r, masks)


class TestLoaderMessages:
    # Rows whose vertices cannot be compared reach the type check: nothing
    # sorts an edge before its vertices are known to be ints.
    # A vertex is checked against the range when its bit is first built, so
    # the rows below also pin faults met late, or hidden behind an equal int
    # (True == 1 and 3.0 == 3): the message is the one over all rows.
    @pytest.mark.parametrize("edges, message", [
        ([[None, 1]], "vertices must be integers, got NoneType"),
        ([["a", 1]], "vertices must be integers, got str"),
        ([[0, [1]]], "vertices must be integers, got list"),
        ([[0, 1], [None, [1]]], "vertices must be integers, got NoneType, list"),
        ([[None, 1, 2]], "every edge needs 2 vertices, got sizes [3]"),
        ([1, 2], "edges must be iterables of vertices: 'int' object is not iterable"),
        ([[3, 1], [2, 2]], "edge (2, 2) repeats a vertex"),
        ([[0, 1], [True, 2]], "vertices must be integers, got bool"),
        ([[3, 1], [3.0, 2]], "vertices must be integers, got float"),
        ([[0, 9], [-1, 2]], "vertices must lie in range(4), got -1 to 9"),
        ([[0, 1], [-1, 2]], "vertices must lie in range(4), got -1 to 2"),
        ([[3, 1], [2, 2], [0, 7]], "vertices must lie in range(4), got 0 to 7"),
    ])
    def test_pinned(self, edges, message):
        with pytest.raises(ValueError) as info:
            UniformHypergraph(4, 2, edges)
        assert str(info.value) == message


def shuffled_rows(n, r, count, seed, repeats=0):
    """count distinct r-subsets of range(n) as lists in shuffled vertex
    order, plus `repeats` of them again in another order, all shuffled."""
    rng = random.Random(seed)
    picked = set()
    while len(picked) < count:
        picked.add(tuple(sorted(rng.sample(range(n), r))))
    rows = [rng.sample(e, r) for e in picked]
    rows += [rng.sample(e, r) for e in rng.sample(sorted(picked), repeats)]
    rng.shuffle(rows)
    return rows


class TestLeanLoader:
    @pytest.mark.parametrize("n, r", [(40, 4), (25, 6)])
    def test_peak_memory_per_edge(self, n, r):
        # Above the parsed rows the loader holds its mask list and the kept
        # tuple, about 59 bytes per edge; a flat vertex list and a dict of
        # the masks took it to 137-152.
        count = 20_000
        rows = json.loads(json.dumps(shuffled_rows(n, r, count, seed=1)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            H = UniformHypergraph(n, r, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(H) == count
        assert (peak - base) / count <= 72

    @pytest.mark.parametrize("n, r, repeats", [(40, 4, 1_500), (25, 6, 500), (12, 3, 200)])
    def test_shuffled_repeats_give_the_reference_masks(self, n, r, repeats):
        count = min(2_000, math.comb(n, r))
        rows = shuffled_rows(n, r, count, seed=2, repeats=repeats)
        H = UniformHypergraph(n, r, rows)
        assert len(H) == count
        assert (H.edges, H.masks) == reference_from_edges(n, r, rows)

    def test_vertex_limit(self):
        # The limit is on the largest vertex, not on n, and it is checked
        # after the range: a vertex at the limit would make a mask of more
        # than MASK_BITS_MAX bits.  1 << 10**19 cannot be built, so its
        # ValueError shows that the refusal comes before any bit.
        top = hypergraph.MASK_BITS_MAX - 1
        H = UniformHypergraph(10**20, 2, [[top, 0]])
        assert H.masks == (1 << top | 1,) and UniformHypergraph.from_json(H.to_json()) == H
        for v in (top + 1, 10**19):
            with pytest.raises(ValueError, match="below the mask limit 5000000"):
                UniformHypergraph(10**20, 2, [[0, 1], [v, 0]])
        with pytest.raises(ValueError, match=r"must lie in range\(4\)"):
            UniformHypergraph(4, 2, [[0, 10**19]])
        # A vertex beyond the mask limit met before one outside the range
        # still gives the range message, as the range is checked first.
        with pytest.raises(ValueError) as info:
            UniformHypergraph(10**20, 2, [[0, 1], [10**19, 0], [-1, 2]])
        assert str(info.value) == f"vertices must lie in range({10**20}), got -1 to {10**19}"

    def test_mask_bit_budget(self, monkeypatch):
        # |E| edges up to vertex h - 1 may take |E| * h bits: 215 edges at
        # the top vertex would take 1,075,000,000 bits, above 2^30, so they
        # are refused before any bit; repeats count too.
        top = hypergraph.MASK_BITS_MAX - 1
        with pytest.raises(ValueError, match="215 masks of 5000000 bits"):
            UniformHypergraph(10**20, 2, [[i, top] for i in range(215)])
        rows = [[0, 1], [1, 2], [1, 2]]
        monkeypatch.setattr(hypergraph, "COVER_BITS_BUDGET", 8)
        with pytest.raises(ValueError, match="exceed the bit budget"):
            UniformHypergraph(3, 2, rows)
        monkeypatch.setattr(hypergraph, "COVER_BITS_BUDGET", 9)
        assert UniformHypergraph(3, 2, rows).masks == (0b11, 0b110)


class TestFromJsonCollector:
    TEXTS = {
        "valid": '{"n": 4, "r": 2, "edges": [[1, 0], [2, 3]]}',
        "bad JSON": "{oops",
        "nested too deep": "[" * 100_000 + "]" * 100_000,
        "invalid edge": '{"n": 4, "r": 2, "edges": [[0, 4]]}',
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("kind", TEXTS)
    def test_collector_state_is_restored(self, kind, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if kind == "valid":
                assert len(UniformHypergraph.from_json(self.TEXTS[kind])) == 2
            else:
                with pytest.raises(ValueError):
                    UniformHypergraph.from_json(self.TEXTS[kind])
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()
