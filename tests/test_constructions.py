import dataclasses
import itertools
import math
import random
from operator import lshift

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.combinatorics import (
    ConstructionError,
    binomial,
    colex_masks,
    enumerate_subsets,
    rank_colex,
)
from turan_systems import combinatorics
from turan_systems.constructions import (
    _colour_draws,
    _draw,
    _extension_masks,
    blowup,
    expected_recursive_size,
    moser_tardos_color,
    recursive_system,
    trivial_prefix_system,
)
from turan_systems.hypergraph import (
    BudgetExceededError,
    UniformHypergraph,
    is_turan_system,
)
from turan_systems.solver import solve_min_turan


class TestPrefixSystem:
    def test_5_4_3(self):
        H = trivial_prefix_system(5, 4, 3)
        assert len(H) == 4 == binomial(4, 3)
        assert is_turan_system(H, 4).is_turan

    def test_6_4_2(self):
        H = trivial_prefix_system(6, 4, 2)
        assert len(H) == 6
        assert is_turan_system(H, 4).is_turan

    def test_n_equals_s(self):
        H = trivial_prefix_system(6, 6, 2)
        assert len(H) == binomial(2, 2) == 1
        assert is_turan_system(H, 6).is_turan

    def test_budget_refusal(self, monkeypatch):
        # The (8,4,3) prefix has C(7,3) = 35 edges, the (7,4,3) one C(6,3) = 20.
        monkeypatch.setattr(combinatorics, "DEFAULT_MATERIALIZE_BUDGET", 30)
        with pytest.raises(BudgetExceededError, match=r"C\(7,3\)"):
            trivial_prefix_system(8, 4, 3)
        assert len(trivial_prefix_system(7, 4, 3)) == 20

    def test_bit_budget_refusal(self, monkeypatch):
        # The (7,4,3) prefix is C(6,3) = 20 masks of 6 bits, 120 bits.
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 119)
        with pytest.raises(BudgetExceededError, match=r"C\(6,3\) masks of 6 bits"):
            trivial_prefix_system(7, 4, 3)
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 120)
        assert len(trivial_prefix_system(7, 4, 3)) == 20

    @pytest.mark.parametrize("m, r", [(32768, 1), (1290, 2), (284, 3)])
    def test_first_prefix_beyond_bit_budget(self, m, r):
        # C(m, r) masks of m bits fit 2^30 bits and C(m+1, r) of m+1 do not,
        # though both are within 5,000,000 sets; nothing is built for either.
        assert binomial(m, r) * m <= 2**30 < binomial(m + 1, r) * (m + 1)
        combinatorics.refuse_beyond_budget(m, r)
        with pytest.raises(BudgetExceededError, match="masks of"):
            trivial_prefix_system(m + 2, r + 1, r)


class TestMoserTardos:
    def test_single_color_immediate(self):
        out = moser_tardos_color(6, 4, 3, 1, seed=0)
        assert out.success and out.rounds_used == 0
        assert len(out.least_class) == binomial(6, 3)

    def test_toy_success_classes_verify(self):
        out = moser_tardos_color(6, 4, 3, 2, seed=7)
        assert out.success
        for c in range(2):
            assert is_turan_system(out.color_class(c), 4).is_turan
        assert len(out.least_class) <= binomial(6, 3) / 2

    def test_seed_determinism(self):
        a = moser_tardos_color(6, 4, 3, 2, seed=13)
        b = moser_tardos_color(6, 4, 3, 2, seed=13)
        assert a.coloring == b.coloring and a.rounds_used == b.rounds_used

    def test_round_cap_failure_carries_witness(self):
        out = moser_tardos_color(6, 4, 3, 4, seed=1, max_rounds=30)
        assert not out.success and out.failed_s_set is not None
        assert out.least_color is None and out.least_class is None

    def test_least_class_is_built_on_read(self):
        out = moser_tardos_color(9, 5, 3, 3, seed=1)
        assert "least_class" not in {f.name for f in dataclasses.fields(out)}
        assert "least_class" not in out.to_json_dict()
        assert out.least_class == out.color_class(out.least_color)
        assert len(out.least_class) == out.class_sizes[out.least_color] == min(out.class_sizes)

    def test_class_sizes_partition(self):
        out = moser_tardos_color(6, 4, 3, 2, seed=3)
        assert sum(out.class_sizes) == binomial(6, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_rescan_reference(self, data):
        N = data.draw(st.integers(2, 10))
        s = data.draw(st.integers(2, N))
        r = data.draw(st.integers(1, s - 1))
        ell = data.draw(st.integers(1, min(4, binomial(s, r))))
        seed = data.draw(st.integers(0, 2**32))
        max_rounds = data.draw(st.integers(0, 60))
        out = moser_tardos_color(N, s, r, ell, seed, max_rounds=max_rounds)
        assert out.to_json_dict() == _moser_tardos_reference(N, s, r, ell, seed, max_rounds)

    # The benchmark's instances, which the property above rarely draws, and
    # one call stopped by its round cap.
    @pytest.mark.parametrize(
        "N, s, r, ell, seed, max_rounds",
        [(9, 5, 3, 3, seed, 20_000) for seed in (1, 7, 11)]
        + [(10, 6, 3, 4, seed, 20_000) for seed in (1, 3, 11)]
        + [(10, 6, 3, 4, 3, 2)],
    )
    def test_benchmark_instances_match_reference(self, N, s, r, ell, seed, max_rounds):
        out = moser_tardos_color(N, s, r, ell, seed, max_rounds=max_rounds)
        assert out.to_json_dict() == _moser_tardos_reference(N, s, r, ell, seed, max_rounds)
        assert out.success == (max_rounds > 2)

    # Larger instances that run out of rounds, so each round's scan resumes
    # mid-way; no rounds at all; and single-vertex r-sets.
    @pytest.mark.parametrize(
        "N, s, r, ell, seed, max_rounds",
        [(14, 6, 3, 5, 1, 50), (16, 5, 3, 3, 1, 50), (20, 5, 3, 3, 1, 50),
         (16, 5, 3, 3, 2, 0), (9, 4, 1, 3, 5, 50), (9, 4, 1, 4, 5, 50)],
    )
    def test_large_instances_match_reference(self, N, s, r, ell, seed, max_rounds):
        out = moser_tardos_color(N, s, r, ell, seed, max_rounds=max_rounds)
        assert out.to_json_dict() == _moser_tardos_reference(N, s, r, ell, seed, max_rounds)

    def test_more_colours_than_r_subsets_refused(self):
        # An s-set of (6,4,3) holds C(4,3) = 4 triples, so 4 colours at most.
        with pytest.raises(ValueError, match=r"C\(4,3\) = 4"):
            moser_tardos_color(6, 4, 3, 5, seed=1)
        with pytest.raises(ValueError, match=r"C\(4,3\) = 4"):
            moser_tardos_color(6, 4, 3, 10**30, seed=1)
        assert moser_tardos_color(6, 4, 3, 4, seed=1, max_rounds=0).rounds_used == 0

    def test_s_sets_beyond_materialization_budget_admitted(self):
        # C(25,12) = 5200300 s-sets exceed the materialization budget; the
        # 25 cover bitmaps of that many bits fit COVER_BITS_BUDGET.
        out = moser_tardos_color(25, 12, 1, 1, seed=1)
        assert out.success and out.rounds_used == 0

    def test_cover_bit_budget_refusal(self, monkeypatch):
        # (7,4,3) takes C(7,3) * C(7,4) = 1225 bits of cover bitmaps.
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1224)
        with pytest.raises(BudgetExceededError, match="cover bitmaps"):
            moser_tardos_color(7, 4, 3, 2, seed=1)
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1225)
        assert moser_tardos_color(7, 4, 3, 2, seed=1).success


def _moser_tardos_reference(N, s, r, ell, seed, max_rounds):
    """Resampling with one rank_colex per r-subset and a rescan from the
    first s-set after every round, as a JSON dict of the outcome."""
    rng = random.Random(seed)
    coloring = [rng.randrange(ell) for _ in range(binomial(N, r))]
    s_sets = list(enumerate_subsets(N, s))
    members = [
        [rank_colex(tuple(S[p] for p in pos)) for pos in enumerate_subsets(s, r)]
        for S in s_sets
    ]

    def violated():
        for i, ranks in enumerate(members):
            if len({coloring[j] for j in ranks}) < ell:
                return i
        return None

    rounds = 0
    bad = violated()
    while bad is not None and rounds < max_rounds:
        for j in members[bad]:
            coloring[j] = rng.randrange(ell)
        rounds += 1
        bad = violated()
    sizes = [coloring.count(c) for c in range(ell)]
    return {
        "success": bad is None,
        "N": N, "s": s, "r": r, "ell": ell, "seed": seed,
        "rounds_used": rounds,
        "least_color": None if bad is not None else min(range(ell), key=lambda c: (sizes[c], c)),
        "class_sizes": sizes,
        "coloring": coloring,
        "failed_s_set": None if bad is None else list(s_sets[bad]),
    }


class TestBlowup:
    def test_identity_blowup(self):
        A = solve_min_turan(4, 3, 2).witness
        B, report = blowup(A, 1)
        assert B.edges == A.edges and report.size == len(A)

    def test_matching_doubles(self):
        A = UniformHypergraph.from_edges(4, 2, [(0, 1), (2, 3)])
        B, report = blowup(A, 2)
        assert is_turan_system(B, 3).is_turan
        assert len(B) <= report.cap()

    def test_size_caps(self):
        A = solve_min_turan(5, 4, 3).witness
        B, report = blowup(A, 2)
        assert report.size_transversal_cap == 2**3 * len(A)
        assert report.size_degenerate_cap == 5 * binomial(2, 2) * binomial(8, 1)
        assert len(B) <= report.cap()
        assert is_turan_system(B, 4).is_turan

    def test_budget_refusal(self, monkeypatch):
        A = trivial_prefix_system(30, 10, 5)
        monkeypatch.setattr(combinatorics, "DEFAULT_MATERIALIZE_BUDGET", 10**4)
        with pytest.raises(BudgetExceededError):
            blowup(A, 3)

    def test_single_vertex_edges_rejected(self):
        # An s-set inside one non-edge part contains no edge when r = 1,
        # so the construction refuses.
        A = UniformHypergraph.from_edges(2, 1, [(0,)])
        with pytest.raises(ValueError):
            blowup(A, 2)

    @pytest.mark.parametrize("N, r, m", [(0, 2, 1), (0, 3, 3), (1, 2, 1), (1, 4, 1)])
    def test_below_two_vertices_is_empty(self, N, r, m):
        # mN < 2: no two vertices share a part, so the degenerate cap is 0
        # (its C(mN-2, r-2) is not taken) and no r-set exists.
        B, report = blowup(UniformHypergraph.from_edges(N, r, []), m)
        assert (B.n, B.r, B.masks) == (m * N, r, ())
        assert (report.size, report.size_transversal_cap, report.size_degenerate_cap) == (0, 0, 0)

    def test_matches_projection_rule_on_random_systems(self):
        # Any A, Turán or not: an r-set of [mN] is kept when it meets some
        # part twice or its parts form an edge of A.
        rng = random.Random(2035)
        cases = [(rng.randrange(10), rng.randrange(2, 5), rng.randrange(1, 4)) for _ in range(150)]
        cases += [(9, 4, 3), (9, 2, 2), (2, 4, 1), (1, 3, 2), (0, 2, 3)]  # N = 9; mN < r
        for N, r, m in cases:
            candidates = list(itertools.combinations(range(N), r))
            edges = rng.sample(candidates, rng.randrange(len(candidates) + 1))
            A = UniformHypergraph.from_edges(N, r, edges)
            B, report = blowup(A, m)
            kept = [e for e in itertools.combinations(range(m * N), r)
                    if len({v % N for v in e}) < r
                    or tuple(sorted(v % N for v in e)) in A.edges]
            assert B == UniformHypergraph(m * N, r, kept), (N, r, m, edges)
            assert report.size == len(kept) <= report.cap()


class TestRecursiveSystem:
    def test_p_one_gives_complete_graph(self):
        G, sample = recursive_system(8, 3, 1, 2, c=2.0, seed=4)
        assert sample.p == 1.0
        assert len(G) == binomial(8, 3)
        assert sample.size_uncovered == 0

    def test_c_zero_tail_only(self):
        G, sample = recursive_system(8, 3, 1, 2, c=0.0, seed=9)
        assert sample.size_sampled_star == 0
        assert is_turan_system(G, 4).is_turan

    def test_reference_instance(self):
        G, sample = recursive_system(8, 3, 1, 2, c=1.0, seed=11)
        assert is_turan_system(G, 4).is_turan
        assert sample.size_total <= sample.expected_size + 1e-9

    def test_determinism_bit_exact(self):
        G1, s1 = recursive_system(8, 3, 1, 2, c=1.0, seed=11)
        G2, s2 = recursive_system(8, 3, 1, 2, c=1.0, seed=11)
        assert G1.to_json() == G2.to_json()
        assert s1.to_json_dict() == s2.to_json_dict()

    def test_uncovered_count_matches_brute_force(self):
        for n, r, R, k, c, seed in [(8, 3, 1, 2, 1.0, 11), (10, 4, 2, 3, 1.5, 3),
                                    (9, 4, 1, 2, 0.5, 7), (11, 5, 2, 4, 2.0, 1)]:
            G, sample = recursive_system(n, r, R, k, c, seed)
            sampled = set(sample.sampled)
            unhit = sum(
                1 for Y in itertools.combinations(range(n), k)
                if not any(D in sampled for D in itertools.combinations(Y, k - R))
            )
            assert sample.size_uncovered == unhit
            star = sum(1 for e in G.edges if e[: k - R] in sampled)
            assert sample.size_sampled_star == star
            assert sample.size_extension_star == len(G) - star

    def test_budget_refusal(self, monkeypatch):
        # C(8,1) = 8 and C(8,2) = 28 fit a budget of 30, C(8,3) = 56 does not.
        monkeypatch.setattr(combinatorics, "DEFAULT_MATERIALIZE_BUDGET", 30)
        with pytest.raises(BudgetExceededError, match=r"C\(8,3\)"):
            recursive_system(8, 3, 1, 2, c=1.0, seed=11)
        G, _ = recursive_system(6, 3, 1, 2, c=1.0, seed=11)  # C(6,3) = 20
        assert is_turan_system(G, 4).is_turan

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            recursive_system(8, 3, 1, 3, c=1.0, seed=0)  # k > r-1
        with pytest.raises(ValueError):
            recursive_system(8, 3, 1, 2, c=5.0, seed=0)  # c > C(k,R)

    def test_k_equals_R_empty_segment(self):
        # k - R = 0: the only segment is the empty set; both branches of the
        # construction must still produce a valid system.
        for c in (0.0, 0.5, 1.0):
            G, _ = recursive_system(7, 3, 2, 2, c=c, seed=5)
            assert is_turan_system(G, 5).is_turan

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_valid_regardless_of_randomness(self, data):
        r = data.draw(st.integers(2, 4))
        R = data.draw(st.integers(1, min(2, r - 1)))
        n = data.draw(st.integers(r + R, 10))
        k = data.draw(st.integers(R, r - 1))
        c = data.draw(st.floats(0, binomial(k, R)))
        seed = data.draw(st.integers(0, 2**16))
        try:
            G, _ = recursive_system(n, r, R, k, c, seed)
        except ConstructionError:
            # The retry cap can be out of reach, as in the test below.
            return
        assert is_turan_system(G, r + R).is_turan

    def test_retry_cap_out_of_reach(self):
        # k = R and c just below C(k,R): all but about one draw in 10^5 has
        # |G| = 3 > E|G| = 2.99998, so 1000 retries fail.
        with pytest.raises(ConstructionError):
            recursive_system(3, 2, 1, 1, 0.99999, 0)


class TestExpectedSize:
    @pytest.mark.parametrize("n, r, R, k, c, message", [
        (10, 1, 1, 1, 0.5, "need r >= 2, R >= 1"),
        (4, 3, 2, 2, 1.0, "need n >= r \\+ R = 5"),
    ])
    def test_parameters_refused(self, n, r, R, k, c, message):
        with pytest.raises(ValueError, match=message):
            expected_recursive_size(n, r, R, k, c)

    def test_p_one_exact(self):
        expected, _ = expected_recursive_size(8, 3, 1, 2, c=2.0)
        assert expected == pytest.approx(binomial(8, 3))

    def test_p_zero_groups_by_maximum(self):
        # With p = 0 every k-set is uncovered; the grouped count of k-sets
        # by maximum must total C(n,k).
        n, k = 9, 3
        assert sum(binomial(v, k - 1) for v in range(k - 1, n)) == binomial(n, k)
        expected, _ = expected_recursive_size(n, 4, 1, k, c=0.0)
        direct = sum(
            binomial(v, k - 1) * (binomial((n - 1 - v) - 2 + 1, 1) if n - 1 - v >= 2 else 0)
            for v in range(k - 1, n)
        )
        assert expected == pytest.approx(direct)

    def test_matches_known_value(self):
        # (8,3,1,2,1): p=1/2, q=1/4; tails are (n',2,1)-systems of size n'-1.
        expected, _ = expected_recursive_size(8, 3, 1, 2, c=1.0)
        assert expected == pytest.approx(28 + 35 / 4)

    def test_retry_threshold_matches_construction(self):
        G, sample = recursive_system(8, 3, 1, 2, c=1.0, seed=2)
        expected, _ = expected_recursive_size(8, 3, 1, 2, c=1.0)
        assert sample.expected_size == pytest.approx(expected)

    def test_mean_agrees_with_formula(self):
        rng = random.Random(0)
        expected, _ = expected_recursive_size(8, 3, 1, 2, c=1.0)
        sizes = [
            _draw(8, 3, 1, 2, 1.0, rng)[3] for _ in range(300)
        ]
        mean = sum(sizes) / len(sizes)
        var = sum((x - mean) ** 2 for x in sizes) / (len(sizes) - 1)
        sem = math.sqrt(var / len(sizes))
        assert abs(mean - expected) <= 3 * sem


def loaded_again(G):
    """G through the edge loader, from its decoded edges."""
    return UniformHypergraph(G.n, G.r, G.edges)


def recursive_edges(n, r, R, k, sampled):
    """The edges of the recursion for the sampled segments, as tuples: S*,
    then T*."""
    sampled = set(sampled)
    unhit = [Y for Y in itertools.combinations(range(n), k)
             if sampled.isdisjoint(itertools.combinations(Y, k - R))]
    return [D + x for D in sampled
            for x in itertools.combinations(range(max(D, default=-1) + 1, n), r - k + R)] + [
        Y + Z for Y in unhit for Z in itertools.combinations(range(Y[-1] + 1, n - R), r - k)]


class TestMaskParity:
    """Every construction hands its masks to the mask entry; the system is
    the one that the edge loader builds from the same edges as tuples."""

    @pytest.mark.parametrize("n, s, r", [(20, 7, 4), (24, 8, 4), (6, 6, 2), (5, 2, 1)])
    def test_prefix(self, n, s, r):
        H = trivial_prefix_system(n, s, r)
        assert H.masks == loaded_again(H).masks
        assert H == UniformHypergraph(n, r, itertools.combinations(range(n - s + r), r))

    @pytest.mark.parametrize("N, s, r, ell, seed", [
        (9, 5, 3, 3, 1), (9, 5, 3, 3, 2), (10, 6, 3, 4, 3), (10, 6, 3, 4, 4), (6, 4, 3, 1, 0),
    ])
    def test_coloring_classes(self, N, s, r, ell, seed):
        o = moser_tardos_color(N, s, r, ell, seed)
        assert o.success
        for color in range(ell):
            C = o.color_class(color)
            assert C.masks == loaded_again(C).masks
            edges = [e for e in enumerate_subsets(N, r) if o.coloring[rank_colex(e)] == color]
            assert C == UniformHypergraph(N, r, edges)
        assert o.least_class == o.color_class(o.least_color)

    @pytest.mark.parametrize("n, s, r, m", [(7, 4, 3, 3), (6, 4, 3, 4), (4, 3, 2, 1), (5, 4, 3, 2)])
    def test_blowup(self, n, s, r, m):
        A = solve_min_turan(n, s, r).witness
        B, _ = blowup(A, m)
        assert B.masks == loaded_again(B).masks
        edges = [e for e in itertools.combinations(range(m * n), r)
                 if len({v % n for v in e}) < r or tuple(sorted({v % n for v in e})) in A.edges]
        assert B == UniformHypergraph(m * n, r, edges)

    @pytest.mark.parametrize("n, r, R, k, c, seed", [
        (12, 4, 1, 2, 1.0, 1), (12, 4, 1, 2, 1.0, 2), (14, 5, 2, 3, 1.5, 3),
        (9, 3, 2, 2, 1.0, 3), (9, 3, 2, 2, 0.5, 4), (10, 4, 2, 2, 0.3, 5),  # k = R
        (8, 3, 1, 2, 0.0, 9), (10, 4, 2, 3, 0.0, 1),  # c = 0: nothing is sampled
        (4, 3, 1, 2, 1.0, 0), (5, 3, 2, 2, 0.5, 1), (7, 4, 3, 3, 0.0, 2),  # n = r + R
    ])
    def test_recursive(self, n, r, R, k, c, seed):
        G, sample = recursive_system(n, r, R, k, c, seed)
        assert G.masks == loaded_again(G).masks
        assert G == UniformHypergraph(n, r, recursive_edges(n, r, R, k, sample.sampled))
        assert len(G) == sample.size_total


def _extension_masks_reference(n, r, R, k, sampled, unhit):
    """The per-set builder that _extension_masks replaced, verbatim."""
    masks: list[int] = []
    for sets, j, b, t in ((sampled, k - R, n, r - k + R), (unhit, k, n - R, r - k)):
        if not sets:
            continue
        head = colex_masks(b - j, t)
        for S in sets:
            top = S[-1] + 1 if S else 0
            tails = itertools.islice(head, math.comb(max(0, b - top), t))
            own = sum(map((1).__lshift__, S))
            masks.extend(map(own.__or__, map(lshift, tails, itertools.repeat(top))))
    masks.sort()
    return masks


@st.composite
def recursion_draws(draw):
    """(n, r, R, k, sampled, unhit): recursion sizes with a drawn set of
    sampled (k-R)-sets, as tuples in colex order, and the k-sets that
    contain none of them, in lex order as the per-set draw listed them."""
    r = draw(st.integers(2, 6))
    R = draw(st.integers(1, r - 1))
    k = draw(st.integers(R, r - 1))
    n = draw(st.integers(r + R, r + R + 5))
    d_sets = list(enumerate_subsets(n, k - R))
    sampled = tuple(D for D in d_sets if draw(st.booleans()))
    unhit = [Y for Y in itertools.combinations(range(n), k)
             if set(sampled).isdisjoint(itertools.combinations(Y, k - R))]
    return n, r, R, k, sampled, unhit


class TestBlockRecurrence:
    """The recursion's edges against the per-set builder they replaced, and
    the colourer's inline draw against Random.randrange."""

    @given(recursion_draws())
    @settings(max_examples=300, deadline=None)
    def test_extension_masks_match_per_set_builder(self, drawn):
        n, r, R, k, sampled, unhit = drawn
        got = _extension_masks(n, r, R, k, sampled, unhit)
        assert got == _extension_masks_reference(n, r, R, k, sampled, unhit)

    # k = R (the empty segment), c = 0 (nothing sampled), n = r + R, d >= 2,
    # and the whole of the (k-R)-sets sampled.
    @pytest.mark.parametrize("n, r, R, k, sampled", [
        (7, 3, 2, 2, [()]), (7, 3, 2, 2, []),
        (9, 4, 1, 2, []), (10, 5, 2, 4, []),
        (5, 3, 2, 2, [()]), (4, 3, 1, 2, [(0,), (2,)]), (8, 5, 3, 4, [(0,), (1,), (3,)]),
        (9, 5, 1, 4, [(0, 1, 2), (1, 3, 4), (2, 5, 6)]), (8, 4, 1, 3, [(0, 2), (1, 2), (3, 5)]),
        (8, 4, 2, 3, [(v,) for v in range(8)]),
    ])
    def test_extension_masks_edge_cases(self, n, r, R, k, sampled):
        sampled = tuple(sampled)
        unhit = [Y for Y in itertools.combinations(range(n), k)
                 if set(sampled).isdisjoint(itertools.combinations(Y, k - R))]
        got = _extension_masks(n, r, R, k, sampled, unhit)
        assert got == _extension_masks_reference(n, r, R, k, sampled, unhit)

    @pytest.mark.parametrize("ell", range(1, 21))
    def test_colour_draws_are_randrange(self, ell):
        # At a power of two, ell.bit_length() bits reach 2 * ell - 1, so about
        # half of the draws are rejected and drawn again.
        for seed in (0, 1, 7, 2**31 - 1, 10**12):
            rng, ref = random.Random(seed), random.Random(seed)
            draws = list(itertools.islice(_colour_draws(rng, ell), 1000))
            assert draws == [ref.randrange(ell) for _ in range(1000)]
            assert rng.getrandbits(32) == ref.getrandbits(32)

    def test_colour_draws_stop_with_zip(self):
        rng, ref = random.Random(5), random.Random(5)
        colours = _colour_draws(rng, 3)
        assert [c for _, c in zip(range(7), colours)] == [ref.randrange(3) for _ in range(7)]
        assert rng.random() == ref.random()
