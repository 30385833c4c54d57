import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems import combinatorics
from turan_systems.combinatorics import (
    EXACT_LOG_N_MAX,
    BudgetExceededError,
    binomial,
    colex_masks,
    cover_masks,
    cover_union,
    enumerate_subsets,
    exp_or_inf,
    log_binomial,
    r_subset_ranks,
    rank_colex,
    unrank_colex,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(7, 0) == 1
        assert binomial(52, 5) == 2598960

    def test_k_above_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_pascal_identity(self):
        # Oracle: Pascal recurrence on the full n <= 30 triangle.
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestLogBinomial:
    def test_forced_values(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-12)
        assert log_binomial(17, 17) == 0.0
        assert log_binomial(9, 0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        for n, k in [(-1, 0), (3, -1)]:
            with pytest.raises(ValueError, match="must be nonnegative"):
                log_binomial(n, k)

    def test_matches_exact_up_to_60(self):
        for n in range(0, 61):
            for k in range(0, n + 1):
                ratio = math.exp(log_binomial(n, k)) / binomial(n, k)
                assert abs(ratio - 1) <= 1e-9

    @given(st.integers(0, 300), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_mpmath(self, exponent, data):
        # n in [10^e, 10^(e+1)] for a uniform e, so both sides of the exact
        # cutoff and every magnitude up to 10^301 get drawn.
        n = data.draw(st.integers(10**exponent, 10 ** (exponent + 1)))
        k = data.draw(st.integers(0, min(n, 10**4)))
        assert log_binomial(n, k) == pytest.approx(_ln_binomial_mpmath(n, k), rel=1e-12)

    @pytest.mark.parametrize("exponent", [400, 5000])
    def test_beyond_float_range(self, exponent):
        n = 10**exponent + 12345
        for k in (1, 3, 10**4):
            assert log_binomial(n, k) == pytest.approx(_ln_binomial_mpmath(n, k), rel=1e-12)

    @pytest.mark.parametrize("n", [EXACT_LOG_N_MAX - 1, EXACT_LOG_N_MAX, EXACT_LOG_N_MAX + 1])
    def test_continuous_across_the_cutoff(self, n):
        for k in range(0, n + 1, 97):
            with mpmath.workdps(40):
                want = mpmath.log(mpmath.mpf(math.comb(n, k)))
            assert log_binomial(n, k) == pytest.approx(float(want), rel=1e-14)

    def test_symmetric(self):
        for n, k in [(5000, 1), (10**30, 7), (4097, 2000)]:
            assert log_binomial(n, k) == log_binomial(n, n - k)


def test_exp_or_inf_cuts_at_709():
    for x in (-1.0, 0.0, 708.0, math.nextafter(709.0, 0.0)):
        assert exp_or_inf(x) == math.exp(x) < math.inf
    for x in (709.0, 709.78, 710.0, 1e300):
        assert exp_or_inf(x) == math.inf


def _ln_binomial_mpmath(n, k):
    with mpmath.workdps(n.bit_length() // 3 + 25):
        return float(
            mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
        )


class TestColex:
    def test_first_and_last(self):
        assert unrank_colex(0, 2, 5) == (0, 1)
        assert unrank_colex(binomial(5, 2) - 1, 2, 5) == (3, 4)

    def test_roundtrip_exhaustive(self):
        for n in range(0, 17):
            for k in range(0, n + 1):
                for i in range(binomial(n, k)):
                    assert rank_colex(unrank_colex(i, k, n)) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_colex(binomial(6, 3), 3, 6)

    def test_unrank_matches_upward_walk(self):
        # Reference: the earlier unrank, which walks each v up from i - 1.
        def unrank_upward(index, k, n):
            result = []
            remaining = index
            for i in range(k, 0, -1):
                v, c = i - 1, 0
                while binomial(v + 1, i) <= remaining:
                    v += 1
                    c = binomial(v, i)
                result.append(v)
                remaining -= c
            return tuple(reversed(result))

        for n in range(0, 13):
            for k in range(0, n + 1):
                for i in range(binomial(n, k)):
                    assert unrank_colex(i, k, n) == unrank_upward(i, k, n)

    def test_unrank_matches_downward_walk(self):
        # Reference: the walk that unrank_colex replaced, which steps each v
        # down by one from the previous v.
        def unrank_walk(index, k, n):
            result = [0] * k
            remaining = index
            v = n
            for i in range(k, 0, -1):
                v -= 1
                c = math.comb(v, i)
                while c > remaining:
                    v -= 1
                    c = math.comb(v, i)
                result[i - 1] = v
                remaining -= c
            return tuple(result)

        for n in range(0, 30):
            for k in range(0, n + 1):
                total = binomial(n, k)
                # Every rank up to 2^8 sets, a stride of ranks beyond.
                for i in range(0, total, max(1, total // 256)):
                    assert unrank_colex(i, k, n) == unrank_walk(i, k, n)
                assert unrank_colex(total - 1, k, n) == unrank_walk(total - 1, k, n)
        # Sampled ranks up to n = 300, where a bisection from the previous
        # vertex overtakes the walk, with both ends of each range.
        rng = random.Random(0)
        for n in (40, 100, 200, 300):
            for k in (1, 2, 8, n // 2, n - 1, n):
                total = binomial(n, k)
                for i in [0, total - 1] + [rng.randrange(total) for _ in range(40)]:
                    assert unrank_colex(i, k, n) == unrank_walk(i, k, n)

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_unrank_at_huge_n(self, k):
        # O(k log n) binomials: the walk down from n = 10^20 never ends.
        for n in (10**6, 10**20, 10**30):
            for i in (0, 1, binomial(n, k) // 3, binomial(n, k) - 1):
                S = unrank_colex(i, k, n)
                assert rank_colex(S) == i and S[-1] < n

    @given(st.integers(1, 14), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_monotone_in_colex(self, n, data):
        k = data.draw(st.integers(1, n))
        i = data.draw(st.integers(0, binomial(n, k) - 1))
        j = data.draw(st.integers(0, binomial(n, k) - 1))
        a, b = unrank_colex(i, k, n), unrank_colex(j, k, n)
        assert (i < j) == (tuple(reversed(a)) < tuple(reversed(b)))


class TestCheckSubset:
    def test_wrong_size_refused(self):
        combinatorics.check_subset((0, 1, 4), 5, 3)
        with pytest.raises(ValueError, match="expected a 3-subset"):
            combinatorics.check_subset((0, 1), 5, 3)


class TestEnumerate:
    def test_complete_listing(self):
        assert list(enumerate_subsets(3, 2)) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_set(self):
        assert list(enumerate_subsets(5, 0)) == [()]

    def test_count_12_choose_6(self):
        assert sum(1 for _ in enumerate_subsets(12, 6)) == 924

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
    def test_k_outside_0_to_n_refused(self, n, k):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            next(enumerate_subsets(n, k))

    def test_matches_unrank(self):
        for n, k in [(6, 3), (8, 2), (5, 5)]:
            assert list(enumerate_subsets(n, k)) == [
                unrank_colex(i, k, n) for i in range(binomial(n, k))
            ]


class TestRSubsetRanks:
    def test_matches_ranks_of_combinations(self):
        for n in range(2, 10):
            for s in range(2, n + 1):
                for r in range(1, s):
                    ranks = r_subset_ranks(n, s, r)
                    for i, S in enumerate(enumerate_subsets(n, s)):
                        expected = sorted(rank_colex(x) for x in itertools.combinations(S, r))
                        assert ranks(i) == expected, (n, s, r, i)


class TestCoverMasks:
    def test_matches_subset_test(self):
        for n in range(2, 9):
            for s in range(2, n + 1):
                s_sets = list(enumerate_subsets(n, s))
                for r in range(1, s):
                    expected = [
                        sum(1 << i for i, S in enumerate(s_sets) if set(R) <= set(S))
                        for R in enumerate_subsets(n, r)
                    ]
                    assert cover_masks(n, s, r) == expected, (n, s, r)

    def test_colex_masks_match_enumeration(self):
        for n in range(0, 10):
            for k in range(0, n + 1):
                masks = colex_masks(n, k)
                assert masks == [sum(1 << v for v in S) for S in enumerate_subsets(n, k)], (n, k)
                # The masks of the k-subsets of [m] come first.
                for m in range(k, n + 1):
                    assert masks[:math.comb(m, k)] == colex_masks(m, k), (n, k, m)

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
    def test_colex_masks_refuse_sizes_outside_range(self, n, k):
        with pytest.raises(ValueError):
            colex_masks(n, k)

    def test_refused_beyond_bit_budget(self, monkeypatch):
        # C(32768,16384) has more digits than str() prints: the message
        # gives its size instead.
        with pytest.raises(BudgetExceededError, match=r"take over 2\^32775 bits"):
            cover_masks(32768, 16384, 1)
        # (7,4,3) takes C(7,3) * C(7,4) = 35 * 35 = 1225 bits.
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1224)
        with pytest.raises(BudgetExceededError, match="1225 bits"):
            cover_masks(7, 4, 3)
        monkeypatch.setattr(combinatorics, "COVER_BITS_BUDGET", 1225)
        assert len(cover_masks(7, 4, 3)) == 35

    def test_refused_beyond_r_set_budget(self, monkeypatch):
        # (7,4,3) has C(7,3) = 35 r-sets; the refusal comes before any
        # vertex bitmap is built.
        monkeypatch.setattr(combinatorics, "DEFAULT_MATERIALIZE_BUDGET", 34)
        monkeypatch.setattr(combinatorics, "_vertex_masks", None)
        with pytest.raises(BudgetExceededError, match=r"C\(7,3\) exceeds"):
            cover_masks(7, 4, 3)
        monkeypatch.undo()
        monkeypatch.setattr(combinatorics, "DEFAULT_MATERIALIZE_BUDGET", 35)
        assert len(cover_masks(7, 4, 3)) == 35

    def test_sizes_checked(self):
        with pytest.raises(ValueError):
            cover_masks(6, 3, 3)


class TestCoverUnion:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_test(self, data):
        # Sets of mixed sizes, in any order: ascending order only shares
        # more partial ANDs.
        n = data.draw(st.integers(1, 9))
        s = data.draw(st.integers(1, n))
        subset = st.lists(st.integers(0, n - 1), max_size=s, unique=True)
        sets = data.draw(st.lists(subset, max_size=12))
        if data.draw(st.booleans()):
            sets.sort(key=lambda R: sum(1 << v for v in R))
        expected = sum(
            1 << i for i, S in enumerate(enumerate_subsets(n, s))
            if any(set(R) <= set(S) for R in sets)
        )
        masks = [sum(1 << v for v in R) for R in sets]
        assert cover_union(n, s, masks) == expected

    def test_stops_once_the_union_is_full(self):
        # Every s-set of the complete (19,7,3) system holds the triple of its
        # three least vertices, whose top vertex is at most n - s + r - 1 = 14,
        # and {12, ..., 18} holds none with a lower one: the union fills in
        # the block of top vertex 14.  The kernel reads the first mask of the
        # next block, which is how it sees the block end, and no mask after.
        n, s, r = 19, 7, 3
        last_top = n - s + r - 1

        def masks():
            for m in sorted(sum(1 << v for v in R) for R in itertools.combinations(range(n), r)):
                yield m
                assert m.bit_length() - 1 <= last_top, "read a mask after the union was full"

        assert cover_union(n, s, masks()) == (1 << binomial(n, s)) - 1
