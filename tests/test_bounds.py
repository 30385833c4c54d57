import hashlib
import itertools
import math
import sys

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
    construction_parameters,
    dependency_degree,
    descent_certificate,
    descent_schedule,
    lll_certificate_for,
    lll_condition,
    log_binomial_outside,
)
from turan_systems.cli import _dump
from turan_systems.combinatorics import _json_value, binomial, log_binomial
from turan_systems import bounds
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


class TestArgumentChecks:
    """The checks that refuse arguments outside each function's domain; no
    command line reaches them."""

    @pytest.mark.parametrize("call, message", [
        (lambda: decaen_lower_mu(3, 3), "need 0 < r < s"),
        (lambda: fixed_gap_mu_bound(2, 1), "need r >= 3"),
        (lambda: gap_log_binomial_mu_bound(3, 0), "need R >= 1"),
        (lambda: binomial_ratio_check(5, 6, 1), "need r1 >= r2 > R >= 1"),
        (lambda: descent_schedule(100, 2, 0.0), "eps1 > 0"),
        (lambda: descent_schedule(100, 2, -0.5), "eps1 > 0"),
        (lambda: lll_condition(10, 3, 3, 2), "need 0 < r < s"),
        (lambda: lll_certificate_for(construction_parameters(2, 1)), "degenerate parameters"),
    ], ids=["decaen", "fixed-gap", "gap-log-binomial", "binomial-ratio", "descent-eps1-zero",
            "descent-eps1-negative", "lll-condition", "lll-certificate-degenerate"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
        r, R = 10**6, 10**3
        params = construction_parameters(r, R)
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


class TestDependencyDegree:
    def test_exact_small(self):
        # N=6, s=4, r=3: pairs of 4-sets sharing >= 3 vertices, loops included.
        assert dependency_degree(6, 4, 3) == binomial(4, 3) * binomial(2, 1) + 1

    def test_upper_bound_when_valid(self):
        s, R, r = 13, 3, 10
        N = binomial(s, 3)
        delta = dependency_degree(N, s, r)
        assert delta <= 2 * binomial(s, R) * binomial(N - s, R)


class TestLogBinomialOutside:
    @pytest.mark.parametrize("N, s, R", [(600, 14, 10), (10**6, 20, 5), (10**15, 1003, 3)])
    def test_log_N_agrees_with_exact_N(self, N, s, R):
        from_log = log_binomial_outside(math.log(N), s, R)
        assert from_log == pytest.approx(log_binomial(N - s, R), rel=1e-12)

    def test_beyond_float_range(self):
        # N = e^1000: N - s - i equals N to float resolution.
        got = log_binomial_outside(1000.0, 50, 7)
        assert got == pytest.approx(7 * 1000.0 - math.lgamma(8), rel=1e-15)


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
        monkeypatch.setattr(bounds, "_int_str_digit_limit", lambda: 50)
        if not sum_runs:
            monkeypatch.setattr(bounds, "dependency_degree", None)
        with pytest.raises(ValueError, match="delta_exact would have more than 50 digits"):
            lll_condition(N, 53, 2, 2)

    def test_delta_at_digit_limit_kept(self, monkeypatch):
        monkeypatch.setattr(bounds, "_int_str_digit_limit", lambda: 50)
        cert = lll_condition(207, 53, 2, 2)
        assert len(str(cert.delta_exact)) == 50

    def test_digit_limit_absent_means_none(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert bounds._int_str_digit_limit() == 0

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
