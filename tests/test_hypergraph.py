import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.bounds import counting_lower_T
from turan_systems.combinatorics import enumerate_subsets
from turan_systems.hypergraph import (
    BudgetExceededError,
    UniformHypergraph,
    contains_edge,
    density,
    is_turan_system,
    sample_verify,
    verify_report_sound,
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


class TestExhaustiveVerify:
    def test_matching_covers_triples(self):
        report = is_turan_system(matching_4_3_2(), 3)
        assert report.is_turan and report.sets_checked == 4

    def test_empty_system_least_witness(self):
        H = UniformHypergraph.from_edges(6, 2, [])
        report = is_turan_system(H, 4)
        assert not report.is_turan
        assert report.witness == (0, 1, 2, 3)

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
        assert verify_report_sound(H, report)
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

    def test_text_roundtrip(self):
        H = UniformHypergraph.from_edges(5, 3, [(0, 1, 2), (0, 3, 4)])
        again = UniformHypergraph.from_text(H.to_text(), 5, 3)
        assert again == H and again.to_text() == H.to_text()

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
