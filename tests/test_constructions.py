import hashlib
import itertools
import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.bounds import bound_reports, closing_chain_check
from turan_systems.cli import _dump
from turan_systems.combinatorics import (
    _json_value,
    binomial,
    enumerate_subsets,
    log_binomial,
    rank_colex,
)
from turan_systems import combinatorics, constructions
from turan_systems.constructions import (
    ConstructionError,
    _draw,
    blowup,
    construction_parameters,
    dependency_degree,
    expected_recursive_size,
    lll_certificate_for,
    lll_condition,
    log_binomial_outside,
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

    @pytest.mark.parametrize("R", [10**306, 10**309])
    def test_R_beyond_float_range_refused(self, R):
        # ln R! leaves float range for r >= 3; r = 2 stays degenerate.
        with pytest.raises(ValueError, match=r"10\*\*305"):
            construction_parameters(3, R)
        assert construction_parameters(2, R).degenerate

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


def _exact_path_cells():
    """Every (r, R) on the exact path; it grows with r and with R."""
    cells = []
    for r in itertools.count(2):
        if not construction_parameters(r, 1).exact_path:
            return cells
        for R in itertools.count(1):
            if not construction_parameters(r, R).exact_path:
                break
            cells.append((r, R))


def _mpmath_ell(r, R):
    """ell and its log denominator computed wholly in mpmath: the reference
    for the float path of construction_parameters."""
    s = r + R
    C = math.comb(s, R)
    N = r * (r - 1) * C // (2 * R)
    if N <= s:
        return None, None
    with mpmath.workdps(len(str(C)) + 30):
        denom = mpmath.log(mpmath.mpf(C) ** 2 * mpmath.mpf(math.comb(N - s, R)))
        q = mpmath.mpf(C) / denom
        fl = mpmath.floor(q)
        # Every quotient lies at least 2.0e-3 from an integer, the nearest
        # at (10, 1): far beyond the error of the float path.
        assert min(q - fl, fl + 1 - q) > mpmath.mpf("2e-3"), (r, R)
        return int(fl), float(denom)


class TestExactPathFloor:
    CELLS = _exact_path_cells()

    def test_domain(self):
        assert len(self.CELLS) == 1070
        assert max(r for r, _ in self.CELLS) == 10
        assert max(R for _, R in self.CELLS) == 1020

    def test_float_floor_matches_mpmath_everywhere(self):
        with_ell = 0
        for r, R in self.CELLS:
            p = construction_parameters(r, R)
            ell, denom_log = _mpmath_ell(r, R)
            assert (p.ell, p.denominator_log) == (ell, denom_log), (r, R)
            with_ell += ell is not None
        assert with_ell == 50


class TestDependencyDegree:
    def test_exact_small(self):
        # N=6, s=4, r=3: pairs of 4-sets sharing >= 3 vertices, loops included.
        assert dependency_degree(6, 4, 3) == binomial(4, 3) * binomial(2, 1) + 1

    def test_upper_bound_when_valid(self):
        s, R, r = 13, 3, 10
        N = binomial(s, 3)
        delta = dependency_degree(N, s, r)
        assert delta <= 2 * binomial(s, R) * binomial(N - s, R)


def _identity_grid():
    """(r, R) cells over both parameter paths, their switch and the
    degenerate cells: R up to 10^4 for r <= 40, true scale for large r,
    and R = 10^e up to 10^295."""
    for r in range(2, 41):
        for R in [*range(1, 60), 100, 300, 1000, 1020, 1021, 1022, 3000, 10**4]:
            yield r, R
    for r in [100, 300, 10**3, 3 * 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**12]:
        for R in [1, 2, 3, 5, 10, 30, 100, 1000, 10**5]:
            yield r, R
    for r in [2, 3, 5, 26, 1000]:
        for e in range(10, 296, 15):
            yield r, 10**e


class TestScheduleOutputsPinned:
    def test_grid_digest(self):
        # sha256 of what the schedule, chain check, certificate and bound
        # rows print at 2,803 cells: a change that moves a byte re-pins it
        # and names the cells that moved.
        h = hashlib.sha256()
        for r, R in _identity_grid():
            p = construction_parameters(r, R)
            h.update(_dump(p.to_json_dict()).encode())
            h.update(_dump(closing_chain_check(r, R).to_json_dict()).encode())
            if not p.degenerate:
                h.update(_dump(lll_certificate_for(p).to_json_dict()).encode())
            rows = [[b.name, b.kind, b.value, list(b.assumptions)] for b in bound_reports(r, R)]
            h.update(_dump({"rows": _json_value(rows)}).encode())
        assert h.hexdigest() == (
            "a2c767eda241e288013dfc3c14995d942c8f67cabd2fe5ccd18e3013092e89e3"
        )


class TestLogBinomialOutside:
    @pytest.mark.parametrize("N, s, R", [(600, 14, 10), (10**6, 20, 5), (10**15, 1003, 3)])
    def test_log_N_agrees_with_exact_N(self, N, s, R):
        from_log = log_binomial_outside(math.log(N), s, R)
        assert from_log == pytest.approx(log_binomial(N - s, R), rel=1e-12)

    def test_beyond_float_range(self):
        # N = e^1000: N - s - i equals N to float resolution.
        got = log_binomial_outside(1000.0, 50, 7)
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

    def test_explicit_N_below_s_refused(self):
        with pytest.raises(ValueError, match="N >= s = 5"):
            lll_condition(3, 5, 3, 2)

    @pytest.mark.parametrize("N, sum_runs", [(208, True), (220, False)])
    def test_delta_too_long_to_print_refused(self, monkeypatch, N, sum_runs):
        # With a 50-digit limit and s = 53: at N = 208 Delta has 51 digits
        # and its largest term 50, so only the check on the exact Delta sees
        # it; at N = 220 the largest term (i = 13) alone has 51 digits and is
        # refused before the sum, though the i = r term has 47.
        monkeypatch.setattr(constructions, "_int_str_digit_limit", lambda: 50)
        if not sum_runs:
            monkeypatch.setattr(constructions, "dependency_degree", None)
        with pytest.raises(ValueError, match="delta_exact would have more than 50 digits"):
            lll_condition(N, 53, 2, 2)

    def test_delta_at_digit_limit_kept(self, monkeypatch):
        monkeypatch.setattr(constructions, "_int_str_digit_limit", lambda: 50)
        cert = lll_condition(207, 53, 2, 2)
        assert len(str(cert.delta_exact)) == 50

    def test_digit_limit_absent_means_none(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert constructions._int_str_digit_limit() == 0

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
        out = moser_tardos_color(6, 4, 3, 4, seed=1, max_rounds=30)
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
