import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan_systems.bounds import (
    bound_reports,
    counting_lower_T,
    decaen_lower_mu,
    large_gap_mu_bound,
    binomial_ratio_check,
    segment_split_plan,
    fixed_gap_mu_bound,
    recursion_rhs,
    RootResult,
    limit_alpha_root,
    gap_log_binomial_mu_bound,
    closing_chain_check,
    descent_certificate,
    descent_schedule,
)
from turan_systems.combinatorics import binomial, log_binomial
from turan_systems.solver import solve_min_turan


class TestSection1Bounds:
    def test_counting_lower(self):
        assert counting_lower_T(6, 4, 3) == 5
        assert counting_lower_T(7, 7, 3) == 1
        assert counting_lower_T(4, 3, 2) == 2 == solve_min_turan(4, 3, 2).optimum

    def test_decaen(self):
        assert decaen_lower_mu(5, 4) == pytest.approx(1.25)
        assert decaen_lower_mu(6, 3) == pytest.approx(2.0)
        # mu(r+1, r) >= (r+1)/r, i.e. t(r+1,r) >= 1/r.
        for r in (3, 7, 50):
            assert decaen_lower_mu(r + 1, r) == pytest.approx((r + 1) / r)

    def test_counting_lower_never_exceeds_solver(self):
        for (n, s, r) in [(5, 4, 3), (6, 4, 2), (7, 5, 3), (6, 5, 4)]:
            assert counting_lower_T(n, s, r) <= solve_min_turan(n, s, r).optimum


class TestRootFinding:
    def test_alpha_R1(self):
        res = limit_alpha_root(1)
        assert res.alpha == pytest.approx(4.911, abs=1e-3)
        assert res.c0 == pytest.approx(2.5129, abs=1e-3)

    def test_residual_tiny_over_range(self):
        for R in [1, 2, 5, 17, 100, 999, 10_000]:
            res = limit_alpha_root(R)
            assert res.residual <= 1e-9
            assert res.c0 > R  # the nontrivial root

    def test_defining_equation(self):
        res = limit_alpha_root(3)
        assert math.exp(res.c0) == pytest.approx((res.c0 + 1) ** 4, rel=1e-9)

    def test_same_float_as_the_bisection(self):
        far = [10**k + j for k in range(4, 16) for j in (0, 1, 7)]
        far += [10**k for k in (20, 50, 100, 200, 300, 305)]
        for R in list(range(1, 2001)) + far:
            assert limit_alpha_root(R) == _bisection_root(R), R

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_agrees_with_mpmath(self, exponent):
        R = round(10**exponent)
        res = limit_alpha_root(R)
        with mpmath.workdps(50):
            c0 = mpmath.findroot(lambda x: x - (R + 1) * mpmath.log1p(x), res.c0)
            alpha = mpmath.exp(R * mpmath.log1p(1 / c0) + mpmath.log1p(c0))
        assert res.c0 == pytest.approx(float(c0), rel=1e-14)
        assert res.alpha == pytest.approx(float(alpha), rel=1e-14)
        assert res.residual <= _bisection_root(R).residual

    def test_calls_g_a_quarter_as_often(self, monkeypatch):
        # The bisection takes about 60 logs, the Newton window path under 25.
        calls = []
        log1p = math.log1p
        monkeypatch.setattr(math, "log1p", lambda x: calls.append(x) or log1p(x))
        for R in (1, 10, 100, 10**6, 10**12):
            calls.clear()
            limit_alpha_root(R)
            assert len(calls) <= 25, (R, len(calls))

    def test_terminates_far_out(self):
        res = limit_alpha_root(10**12)
        assert res == _bisection_root(10**12)
        assert res.c0 > 10**12 and res.residual < 1e-2

    @pytest.mark.parametrize("R", [0, 10**306, 10**400], ids=["0", "1e306", "1e400"])
    def test_beyond_the_supported_range_rejected(self, R):
        with pytest.raises(ValueError, match=r"1 <= R <= 10\*\*305"):
            limit_alpha_root(R)


def _bisection_root(R: int) -> RootResult:
    """The plain 200-step bisection of [R, hi]: the reference whose float
    limit_alpha_root returns."""

    def g(x: float) -> float:
        return x - (R + 1) * math.log1p(x)

    lo = float(R)
    hi = max(2.0 * R, 2.0)
    while g(hi) <= 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    c0 = 0.5 * (lo + hi)
    residual = abs(math.expm1(g(c0)))
    log_alpha = R * math.log1p(1.0 / c0) + math.log1p(c0)
    return RootResult(R=R, c0=c0, alpha=math.exp(log_alpha), residual=residual)


class TestAsymptoticBounds:
    def test_large_gap_value(self):
        assert large_gap_mu_bound(100) == pytest.approx(
            100 * math.log(100) + 300 * math.log(math.log(100))
        )

    def test_large_gap_domain(self):
        with pytest.raises(ValueError):
            large_gap_mu_bound(2)

    def test_large_gap_ratio_tends_to_one(self):
        R = 2**20
        assert large_gap_mu_bound(R) / (R * math.log(R)) <= 1.6

    def test_fixed_gap(self):
        assert fixed_gap_mu_bound(10**6, 10) == pytest.approx(140 * math.log(10**6))
        assert fixed_gap_mu_bound(100, 3) < fixed_gap_mu_bound(200, 3)

    @pytest.mark.parametrize(
        "R", [10**153, 10**160, 10**306, 10**400], ids=["1e153", "1e160", "1e306", "1e400"]
    )
    def test_fixed_gap_beyond_float_range_is_inf(self, R):
        # R (R+4) passes float range from R of about 1.3e154.
        expected = math.inf if R > 10**154 else R * (R + 4) * math.log(3)
        assert fixed_gap_mu_bound(3, R) == expected

    def test_gap_log_binomial(self):
        assert gap_log_binomial_mu_bound(9, 1) == pytest.approx(math.log(10))
        assert gap_log_binomial_mu_bound(100, 10) == pytest.approx(10 * log_binomial(110, 10))

    def test_gap_log_binomial_dominates_RlnR_for_R_below_r(self):
        # C(r+R,R) >= 2^R for R <= r, so R ln C >= R^2 ln 2 >= R ln R for
        # moderate sizes; spot-check a grid.
        for r in (10, 50, 400):
            for R in range(2, r + 1, max(1, r // 7)):
                assert gap_log_binomial_mu_bound(r, R) >= R * math.log(R)


class TestRecursionRhs:
    def test_reference_value(self):
        # C(7,1) (1/C(3,1) + 4/(e C(4,1))) with mu(4,3) <= 4.
        assert recursion_rhs(6, 1, 3, 1.0, 4.0) == pytest.approx(
            7 * (1 / 3 + 4 / (math.e * 4)), rel=1e-12
        )

    def test_c_zero(self):
        r, R, k = 8, 2, 4
        want = binomial(r + R, R) * 3.0 / binomial(r - k + R, R)
        assert recursion_rhs(r, R, k, 0.0, 3.0) == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            recursion_rhs(6, 1, 6, 1.0, 2.0)  # k > r-1
        with pytest.raises(ValueError):
            recursion_rhs(6, 1, 3, -1.0, 2.0)
        with pytest.raises(ValueError):
            recursion_rhs(6, 1, 3, 1.0, 0.5)  # mu_inner < 1


class TestBinomialRatio:
    def test_reference(self):
        res = binomial_ratio_check(10, 8, 3)
        assert res.lhs == pytest.approx(120 / 56)
        assert res.rhs == pytest.approx((7 / 5) ** 3)
        assert res.holds

    def test_equality_case(self):
        res = binomial_ratio_check(9, 9, 4)
        assert res.lhs == pytest.approx(res.rhs) == pytest.approx(1.0)
        assert res.holds

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_always_holds(self, data):
        R = data.draw(st.integers(1, 40))
        r2 = data.draw(st.integers(R + 1, 300))
        r1 = data.draw(st.integers(r2, 600))
        assert binomial_ratio_check(r1, r2, R).holds


class TestSegmentSplit:
    def test_reference(self):
        res = segment_split_plan(1000, 10, 2.0)
        assert res.k == 844 and res.all_hold()

    def test_delta_equals_R(self):
        res = segment_split_plan(500, 5, 5.0)
        assert res.k == math.ceil(500 / 2) + 5 and res.all_hold()

    def test_boundary_delta(self):
        for (r, R) in [(200, 3), (1000, 7), (5000, 12)]:
            assert segment_split_plan(r, R, 18 * R * R / r).all_hold()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            segment_split_plan(100, 10, 0.5)  # below 18 R^2 / r

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_always_holds(self, data):
        R = data.draw(st.integers(1, 30))
        r = data.draw(st.integers(18 * R + 1, 10**6))
        delta = data.draw(st.floats(18 * R * R / r, float(R)))
        assert segment_split_plan(r, R, delta).all_hold()


class TestSchedule:
    def test_single_step_termination(self):
        # Small r relative to 18R^2/eps1: one entry and stop.
        trace = descent_schedule(2000, 5, 0.3)
        assert trace.t == 1 and len(trace.entries) == 1

    def test_large_descent(self):
        trace = descent_schedule(10**6, 3, 0.1)
        rs = [e.r_i for e in trace.entries]
        assert rs == sorted(rs, reverse=True) and len(set(rs)) == len(rs)
        assert trace.r_final < 18 * 9 / 0.1
        assert all(e.step_lower_bound_ok for e in trace.entries)

    def test_k_in_legal_window(self):
        trace = descent_schedule(10**6, 4, 0.2)
        for e in trace.entries:
            assert 4 <= e.k_i <= e.r_i - 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_termination_bound(self, data):
        R = data.draw(st.integers(1, 50))
        eps1 = data.draw(st.floats(0.01, 1.0))
        lo = int(18 * R * R / eps1) + 1
        r = data.draw(st.integers(min(lo, 10**6), 10**6))
        trace = descent_schedule(r, R, eps1)
        cap = math.ceil(math.log(max(r, 2)) / math.log(1 + eps1 / (2 * R))) + 1
        assert trace.t <= cap
        if r >= 18 * R * R / eps1:
            assert all(e.step_lower_bound_ok for e in trace.entries)


class TestCertificate:
    def test_single_step_is_one_lemma_application(self):
        trace = descent_certificate(2000, 5, 0.3)
        assert trace.t == 1
        assert trace.final_mu == trace.entries[0].mu_bound_i

    def test_default_base_finite_and_at_least_one(self):
        trace = descent_certificate(10**5, 3, 0.05)
        assert math.isfinite(trace.final_mu) and trace.final_mu >= 1.0

    def test_reference_regression(self):
        # Value fixed by this implementation's first certified run.
        trace = descent_certificate(10**5, 3, 0.05)
        assert trace.final_mu == pytest.approx(4335741.954328693, rel=1e-6)

    def test_R1_rejected(self):
        with pytest.raises(ValueError):
            descent_certificate(10**5, 1, 0.05)


class TestChainCheck:
    def test_true_scale_regressions(self):
        a = closing_chain_check(10**6, 10**3)
        assert not a.degenerate
        assert a.ratio == pytest.approx(1.0039127294808805, rel=1e-6)
        b = closing_chain_check(10**7, 10**4)
        assert b.ratio == pytest.approx(1.0003912288731949, rel=1e-6)

    def test_ratio_with_finite_target_is_one_division(self):
        a = closing_chain_check(3, 10**304)
        assert math.isfinite(a.target)
        assert a.ratio == a.lhs / a.target
        assert a.ratio == pytest.approx(0.3342408430900464, rel=1e-12)

    def test_ratio_past_float_range_of_target(self):
        # R ln C(R+3, 3) overflows at R = 10^305; the ratio must not become 0.
        a = closing_chain_check(3, 10**305)
        assert a.target == math.inf
        assert math.isfinite(a.ratio)
        assert a.ratio == pytest.approx(0.3342378651156368, rel=1e-12)

    def test_ratio_below_threshold(self):
        assert closing_chain_check(10**6, 10**3).ratio < 1.1

    def test_ratio_decreases_along_regime(self):
        ratios = []
        for r in (10**5, 10**6, 10**7):
            R = max(3, int(r / math.log(r) ** 2))
            ratios.append(closing_chain_check(r, R).ratio)
        assert ratios == sorted(ratios, reverse=True)

    def test_schedule_N_near_optimal(self):
        # Perturbing N by x2 or /2 must not beat the schedule's N by > 1%.
        import turan_systems.constructions as cons

        r, R = 10**6, 10**3
        params = cons.construction_parameters(r, R)
        base = closing_chain_check(r, R).lhs
        for shift in (math.log(2), -math.log(2)):
            log_N = params.log_N + shift
            log_C_Ns = R * log_N - math.lgamma(R + 1)
            denom = 2 * params.log_binom_sR + log_C_Ns
            second = math.exp(
                math.log(r * (r - 1) / 2.0) + params.log_binom_sR - log_N
            )
            assert denom + second >= base * 0.99


class TestBoundReports:
    def test_counting_lower_below_solver_truth(self):
        n, s, r = 7, 5, 3
        assert counting_lower_T(n, s, r) <= solve_min_turan(n, s, r).optimum

    def test_report_set_for_true_scale_cell(self):
        names = {rep.name for rep in bound_reports(10**6, 10**3)}
        assert {"decaen_lower", "limit_alpha", "R_log_binom", "chain_lhs_over_RlnC"} <= names

    def test_asymptotic_reports_flag_assumptions(self):
        for rep in bound_reports(100, 10):
            if rep.kind == "asymptotic-upper" and rep.name != "chain_lhs_over_RlnC":
                assert rep.assumptions
