import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.combinatorics import LogValue, binomial, enumerate_subsets, rank_colex
from turan_systems.constructions import (
    ConstructionError,
    blowup,
    construction_parameters,
    dependency_degree,
    dependency_term_ratios,
    expected_recursive_size,
    lll_certificate_for,
    lll_condition,
    log_binomial_outside,
    moser_tardos_color,
    recursive_system,
    sample_recursive_system,
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


class TestConstructionParameters:
    def test_exact_small_case(self):
        p = construction_parameters(4, 2)
        assert p.exact_path and p.N == 45
        # ell = floor(15 / ln(15^2 * C(39,2))) = floor(15 / ln 166725) = 1
        assert p.ell == 1 and not p.degenerate

    def test_degenerate_tiny(self):
        p = construction_parameters(2, 1)
        assert p.degenerate and p.N == 3  # N = s

    def test_degenerate_on_log_path(self):
        # N = floor(2 C(2002,2) / 4000) = 1001 <= s = 2002, with N floored.
        p = construction_parameters(2, 2000)
        assert not p.exact_path and p.degenerate
        assert p.degenerate_reason == "N = 1001 <= s = 2002"
        # N is about R/2 beyond 2^53, so it is carried as ln N.
        p = construction_parameters(2, 10**17)
        assert not p.exact_path and p.degenerate
        assert p.log_N == pytest.approx(math.log(10**17 / 2 + 1.5), rel=1e-12)
        assert p.degenerate_reason.endswith(f"<= s = {10**17 + 2}")

    def test_log_path_consistency_with_exact(self):
        # r=7, R=2 still fits the exact path; its log fields must agree
        # with the exact integers to float precision.
        p = construction_parameters(7, 2)
        assert p.exact_path
        assert p.log_N == pytest.approx(math.log(p.N), rel=1e-12)

    @pytest.mark.parametrize("r, R, value", [(10**4, 3, 177.294), (3000, 3, 152.017)])
    def test_log_path_denominator_matches_mpmath(self, r, R, value):
        # ln(C(s,R)^2 C(N-s,R)) at the floored N, from exact integers.
        p = construction_parameters(r, R)
        assert not p.exact_path
        s = r + R
        C = binomial(s, R)
        N = r * (r - 1) * C // (2 * R)
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.mpf(C**2 * binomial(N - s, R))))
        assert p.denominator_log == pytest.approx(want, rel=1e-12)
        assert p.denominator_log == pytest.approx(value, abs=1e-3)

    def test_true_scale_is_well_defined(self):
        p = construction_parameters(10**6, 10**3)
        assert not p.exact_path and not p.degenerate
        assert p.log_ell > 0 and p.denominator_log > 0


class TestDependencyDegree:
    def test_exact_small(self):
        # N=6, s=4, r=3: pairs of 4-sets sharing >= 3 vertices, loops included.
        assert dependency_degree(6, 4, 3) == binomial(4, 3) * binomial(2, 1) + 1

    def test_term_ratios_below_half_in_domain(self):
        s, R = 13, 3  # r = 10, N = C(s,3)
        N = binomial(s, 3)
        assert all(rho <= 0.5 for rho in dependency_term_ratios(N, s, 10))

    def test_upper_bound_when_valid(self):
        s, R, r = 13, 3, 10
        N = binomial(s, 3)
        delta = dependency_degree(N, s, r)
        assert delta <= 2 * binomial(s, R) * binomial(N - s, R)


class TestLogBinomialOutside:
    @pytest.mark.parametrize("N, s, R", [(600, 14, 10), (10**6, 20, 5), (10**15, 1003, 3)])
    def test_log_N_agrees_with_exact_N(self, N, s, R):
        from_log = log_binomial_outside(LogValue.from_int(N), s, R)
        assert from_log == pytest.approx(log_binomial_outside(N, s, R), rel=1e-12)

    def test_beyond_float_range(self):
        # N = e^1000: N - s - i equals N to float resolution.
        got = log_binomial_outside(LogValue(1000.0), 50, 7)
        assert got == pytest.approx(7 * 1000.0 - math.lgamma(8), rel=1e-15)


class TestLllCondition:
    def test_single_color_always_holds(self):
        cert = lll_condition(20, 4, 3, 1)
        assert cert.log_p_bound.is_zero and cert.condition_holds

    @pytest.mark.parametrize(
        "N, r, R, ell", [(8, 3, 1, 2), (300, 10, 3, 7), (5000, 20, 5, 40), (10**5, 50, 3, 10**20)]
    )
    def test_sharp_bound_matches_mpmath(self, N, r, R, ell):
        # ln(ell (1 - 1/ell)^C(s,R)) and C(s,R)/ell, from the exact integers.
        cert = lll_condition(N, r + R, r, ell)
        C = binomial(r + R, R)
        with mpmath.workdps(60):
            log_p = mpmath.log(ell) + C * mpmath.log1p(-mpmath.mpf(1) / ell)
            ratio = mpmath.mpf(C) / ell
        assert cert.log_p_bound.log_magnitude == pytest.approx(float(log_p), rel=1e-12)
        assert cert.ratio_C_over_ell == pytest.approx(float(ratio), rel=1e-12)

    def test_C_over_ell_beyond_float_range(self):
        # C(3000,1000)/3 is about e^1900: p underflows to 0 and the lemma holds.
        cert = lll_condition(5000, 3000, 2000, 3)
        assert cert.ratio_C_over_ell == math.inf
        assert cert.log_p_bound.log_magnitude == -math.inf
        assert cert.condition_holds and cert.exponential_condition_holds

    def test_exact_delta_at_toy_scale(self):
        cert = lll_condition(8, 4, 3, 2)
        assert cert.delta_exact == dependency_degree(8, 4, 3)
        assert not cert.delta_is_upper_bound

    def test_exponential_condition_implies_symmetric_condition(self):
        for (r, R) in [(10**6, 10**3), (10**4, 10**2)]:
            p = construction_parameters(r, R)
            if p.degenerate:
                continue
            cert = lll_certificate_for(p)
            if cert.exponential_condition_holds:
                assert cert.condition_holds

    def test_true_scale_certifications(self):
        for (r, R) in [(10**6, 10**3), (10**7, 10**4)]:
            cert = lll_certificate_for(construction_parameters(r, R))
            assert cert.exponential_condition_holds and cert.condition_holds
            assert cert.delta_is_upper_bound and cert.delta_upper_valid


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
        # ell = C(6,3) colours can never all appear among 4 triples.
        out = moser_tardos_color(6, 4, 3, 20, seed=1, max_rounds=30)
        assert not out.success and out.failed_s_set is not None

    def test_class_sizes_partition(self):
        out = moser_tardos_color(6, 4, 3, 2, seed=3)
        assert sum(out.class_sizes) == binomial(6, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_rescan_reference(self, data):
        N = data.draw(st.integers(2, 10))
        s = data.draw(st.integers(2, N))
        r = data.draw(st.integers(1, s - 1))
        ell = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32))
        max_rounds = data.draw(st.integers(0, 60))
        out = moser_tardos_color(N, s, r, ell, seed, max_rounds=max_rounds)
        assert out.to_json_dict() == _moser_tardos_reference(N, s, r, ell, seed, max_rounds)


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

    def test_budget_refusal(self):
        A = trivial_prefix_system(30, 10, 5)
        with pytest.raises(BudgetExceededError):
            blowup(A, 3, budget=10**4)

    def test_single_vertex_edges_rejected(self):
        # An s-set inside one non-edge part contains no edge when r = 1,
        # so the construction refuses.
        A = UniformHypergraph.from_edges(2, 1, [(0,)])
        with pytest.raises(ValueError):
            blowup(A, 2)

    def test_f_reported_with_ell(self):
        A = solve_min_turan(4, 3, 2).witness
        _, report = blowup(A, 2, ell=2)
        assert report.f == pytest.approx(0.5 + 2 * 1 / 8)


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
            _, sample = recursive_system(n, r, R, k, c, seed)
            sampled = set(sample.sampled)
            unhit = sum(
                1 for Y in itertools.combinations(range(n), k)
                if not any(D in sampled for D in itertools.combinations(Y, k - R))
            )
            assert sample.size_uncovered == unhit

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
            len(sample_recursive_system(8, 3, 1, 2, 1.0, rng)[0]) for _ in range(300)
        ]
        mean = sum(sizes) / len(sizes)
        var = sum((x - mean) ** 2 for x in sizes) / (len(sizes) - 1)
        sem = math.sqrt(var / len(sizes))
        assert abs(mean - expected) <= 3 * sem
