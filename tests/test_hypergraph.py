import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turan_systems.bounds import counting_lower_T
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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        n, _, r, edges = data.draw(random_systems())
        H = UniformHypergraph.from_edges(n, r, edges)
        k = data.draw(st.integers(r, n))
        S = tuple(sorted(data.draw(st.permutations(range(n)))[:k]))
        assert contains_edge(H, S) == (not uncovered(S, edges))

    def test_index_built_on_first_use_and_kept(self):
        H = UniformHypergraph.from_json(matching_4_3_2().to_json())
        assert "_masks_by_least_vertex" not in vars(H)
        assert contains_edge(H, (0, 1, 2))
        index = vars(H)["_masks_by_least_vertex"]
        assert not contains_edge(H, (0, 2))
        assert vars(H)["_masks_by_least_vertex"] is index
        assert index == ((0b11,), (), (0b1100,), ())


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
        # Every s-set misses at most one vertex, so each branch ends in a
        # forced tail {0,...,v}; it is covered once v reaches 0, the top of
        # the colex-least edge, and needs no walk down to vertex 0.
        n, s = 6000, 5999
        H = UniformHypergraph.from_edges(n, 1, [(0,), (1,)])
        report = is_turan_system(H, s)
        assert report.is_turan and report.sets_checked == n


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
        expected.update(mode="exhaustive", s=s, trials=None, seed=None)
        assert is_turan_system(H, s).to_json_dict() == expected
        # These inputs all take the bitmap path; the search must agree too.
        witness = None if expected["is_turan"] else tuple(expected["witness"])
        assert _least_uncovered(H, s) == witness

    @pytest.mark.parametrize("n, bitmaps", [(19, True), (20, False)])
    @pytest.mark.parametrize("hole", [None, (1, 3, 5, 8, 11, 14, 17)])
    def test_both_sides_of_the_bitmap_limit(self, n, bitmaps, hole):
        # Complete 3-graphs checked on 7-sets: 19 * C(19,7) = 957,372 bits
        # lie within the limit and 20 * C(20,7) = 1,550,400 beyond it.  A
        # hole without its triples is the only uncovered 7-set.
        s, r = 7, 3
        assert (n * math.comb(n, s) <= BITMAP_VERIFY_BITS) == bitmaps
        edges = set(itertools.combinations(range(n), r))
        if hole:
            edges -= set(itertools.combinations(hole, r))
        H = UniformHypergraph(n, r, edges)
        report = is_turan_system(H, s)
        # Only the search reads the index by least vertex.
        assert ("_masks_by_least_vertex" in vars(H)) == (not bitmaps)
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
        expected.update(mode="sampled", s=s, trials=trials, seed=seed)
        assert sample_verify(H, s, trials, seed).to_json_dict() == expected


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
        # Rows given as lists are never the edges (an empty system is).
        assert ("edges" in vars(H)) == (not edges)
        assert H.edges == expected_edges
        assert vars(H)["edges"] is H.edges
        # Increasing tuples are kept, in colex order, not decoded.
        rows = [tuple(sorted(e)) for e in edges]
        G = UniformHypergraph(n, r, rows)
        assert vars(G)["edges"] == expected_edges and G.masks == expected_masks

    @pytest.mark.parametrize("edges, kept", [
        ([(2, 3), (0, 1), (0, 1)], True),
        ([(1, 0), (2, 3)], False),
        ([[0, 1], [2, 3]], False),
        ([(0, 1), (2, 3)], True),
    ])
    def test_increasing_tuples_are_kept(self, edges, kept):
        # Increasing tuples, in any order and repeated, are the edges: they
        # are put in colex order, not decoded; in colex order already, they
        # are kept as they come.  Other rows are decoded.
        H = UniformHypergraph(4, 2, edges)
        assert ("edges" in vars(H)) == kept
        assert H.edges == ((0, 1), (2, 3))
        if kept:
            assert all(any(e is row for row in edges) for e in H.edges)

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
    @pytest.mark.parametrize("edges, message", [
        ([[None, 1]], "vertices must be integers, got NoneType"),
        ([["a", 1]], "vertices must be integers, got str"),
        ([[0, [1]]], "vertices must be integers, got list"),
        ([[0, 1], [None, [1]]], "vertices must be integers, got NoneType, list"),
        ([[None, 1, 2]], "every edge needs 2 vertices, got sizes [3]"),
        ([1, 2], "edges must be iterables of vertices: 'int' object is not iterable"),
        ([[3, 1], [2, 2]], "edge (2, 2) repeats a vertex"),
    ])
    def test_pinned(self, edges, message):
        with pytest.raises(ValueError) as info:
            UniformHypergraph(4, 2, edges)
        assert str(info.value) == message
