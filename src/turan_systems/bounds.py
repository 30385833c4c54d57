"""Numeric evaluation of the density bounds and recursion schedules.

All values are on the mu scale, mu(s,r) = t(s,r) * C(s,r), unless a name
says otherwise.  Asymptotic bounds are evaluated as their leading terms
with the o-terms dropped; each report records that in its assumptions.

The colouring construction's (N, ell) schedule, where the one switch
between exact and log-space arithmetic for it lives, and its local-lemma
certificate are here too, beside the closing chain that reads them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .combinatorics import (
    FLOAT_R_MAX,
    JsonRecord,
    LogValue,
    binomial,
    check_sizes,
    exp_or_inf,
    log_binomial,
    log_binomial_series,
)

# construction_parameters takes N and ell as exact integers while
# ln N <= ln EXACT_N_BUDGET, and carries ell as ln ell beyond.  log_binomial
# has its own cutoff, EXACT_LOG_N_MAX.
EXACT_N_BUDGET = 512


@dataclass(frozen=True)
class BoundReport(JsonRecord):
    name: str
    kind: str  # "lower" | "upper" | "asymptotic-upper"
    value: float
    assumptions: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Elementary bounds
# ---------------------------------------------------------------------------


def counting_lower_T(n: int, s: int, r: int) -> int:
    """Double-counting lower bound ceil(C(n,r) / C(s,r)) on T(n,s,r)."""
    check_sizes(n, s, r)
    return -(-binomial(n, r) // binomial(s, r))


def decaen_lower_mu(s: int, r: int) -> float:
    """de Caen: t(s,r) >= 1/C(s-1,r-1), i.e. mu(s,r) >= s/r."""
    if not (0 < r < s):
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    return s / r


@dataclass(frozen=True)
class RootResult:
    """Largest real root of e^x = (x+1)^{R+1} and the constant alpha.

    residual is |exp(g(c0)) - 1| at the float c0, g(x) = x - (R+1) ln(1+x).
    It carries no information once ulp(c0) >= 1 (c0 >= 2^52, from about
    R = 1.3e14): g(c0) is then a difference of floats whose spacing is 1
    or more, so residual is 0.0 or at least 1 - 1/e however close c0 is
    to the root.
    """

    R: int
    c0: float
    alpha: float
    residual: float


# Relative half-width of the window around the Newton estimate x of c0
# outside which the bisection's signs are taken as certain.  Near c0 the
# float g errs by under 1.5 * 2^-52 x (log1p to 1 ulp, one product) and
# g' > 0.4, so the estimate is within 2^-49.8 x of c0 (that error over g',
# plus the square of a last step under 2^-26 x).  At the window's ends |g|
# is then above 2^-49.7 x, three times the rounding error, and g increases
# beyond R, so every float g outside the window has the sign of g.
_ROOT_WINDOW = 2.0**-48


def limit_alpha_root(R: int) -> RootResult:
    """Solve x = (R+1) ln(1+x) for its unique root beyond R.

    g(x) = x - (R+1) ln(1+x) vanishes at 0, decreases until x = R and
    increases after, so there is exactly one positive root > R; it is the
    largest real root of the original equation.  alpha =
    (c0+1)^{R+1}/c0^R is evaluated in log-space without cancellation.

    c0 is the float that the bisection of [R, hi] ends on, hi being the
    first of max(2R, 2) * 2^m with g(hi) > 0.  Newton steps from hi fall
    monotonically toward the root (g is convex) and find it to a few
    ulps, which settles the sign of every midpoint outside a window of
    relative half-width 2^-48 around the estimate.  The bisection's first
    k steps, whose midpoints are exact floats outside the window, are
    taken in one jump to the dyadic cell that holds it; the rest run as a
    plain bisection that calls g only inside the window.  So c0 is the
    bisection's float, bit for bit, for about a quarter of its calls of g.
    R must lie in [1, FLOAT_R_MAX]: beyond about R = 1.17e305 the
    bisection's bracket, and then c0 itself, leave float range.
    ValueError otherwise.  The residual says nothing from about
    R = 1.3e14 on (see RootResult).
    """
    if not 1 <= R <= FLOAT_R_MAX:
        raise ValueError(
            "limit_alpha_root supports 1 <= R <= 10**305; c0 leaves float range beyond"
        )
    # (R+1) * y converts the integer R+1 to its nearest float, k1, at every
    # call; converting once gives the same products.
    k1 = float(R + 1)
    log1p = math.log1p

    lo = float(R)
    # g(max(2R, 2)) < -0.19 for every R >= 1, far beyond rounding, so the
    # bisection's hi starts one doubling further.
    hi = max(4.0 * R, 4.0)
    g_hi = hi - k1 * log1p(hi)
    while g_hi <= 0:
        hi *= 2.0
        g_hi = hi - k1 * log1p(hi)
    x, g_x = hi, g_hi
    # After a relative step below 2^-26 the error is at rounding level.
    for _ in range(100):
        step = g_x / ((x - lo) / (1.0 + x))
        x -= step
        if step <= x * 2.0**-26:
            break
        g_x = x - k1 * log1p(x)
    a = x * (1.0 - _ROOT_WINDOW)
    b = x * (1.0 + _ROOT_WINDOW)
    if hi < 2.0**53:
        # lo and hi are integers, so the level-k points lo + j (hi-lo)/2^k
        # are exact floats while hi 2^k <= 2^53, and so are the bisection's
        # first k midpoints.  At the level whose cells are 2 to 4 windows
        # wide, at most one of them, p, lies in the window; the bisection
        # ends its k-th step on the cell beside p that g(p) points to, or on
        # the cell around the window if there is no p.
        width = hi - lo
        k = max(0, min(53 - (int(hi) - 1).bit_length(),
                       int(width / (2.0 * (b - a))).bit_length() - 1))
        if k:
            cell = math.ldexp(width, -k)
            p = lo + (b - lo) // cell * cell  # the last level-k point <= b
            if p < a or p - k1 * log1p(p) < 0:
                lo, hi = p, p + cell
            else:
                lo, hi = p - cell, p
    # The rest of the bisection: each step halves the bracket, until its
    # ends are adjacent floats.
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < a or (mid <= b and mid - k1 * log1p(mid) < 0):
            lo = mid
        else:
            hi = mid
    c0 = 0.5 * (lo + hi)
    log1p_c0 = log1p(c0)
    # Relative residual of e^{c0} vs (c0+1)^{R+1} equals |exp(g(c0)) - 1|.
    residual = abs(math.expm1(c0 - k1 * log1p_c0))
    # ln alpha = c0 - R ln c0 = R ln(1 + 1/c0) + ln(1 + c0), cancellation-free.
    log_alpha = R * log1p(1.0 / c0) + log1p_c0
    return RootResult(R, c0, math.exp(log_alpha), residual)


def large_gap_mu_bound(R: int) -> float:
    """Large-R corollary bound R ln R + 3 R ln ln R."""
    if R <= math.e:
        raise ValueError(f"R ln ln R undefined or negative for R = {R}")
    return R * math.log(R) + 3.0 * R * math.log(math.log(R))


def fixed_gap_mu_bound(r: int, R: int) -> float:
    """Leading term R (R+4) ln r of the fixed-R bound; inf beyond float range."""
    if r < 3:
        raise ValueError("need r >= 3")
    try:
        return float(R * (R + 4)) * math.log(r)
    except OverflowError:
        return math.inf


def gap_log_binomial_mu_bound(r: int, R: int) -> float:
    """Leading term R ln C(r+R, R)."""
    if R < 1:
        raise ValueError("need R >= 1")
    return R * log_binomial(r + R, R)


# ---------------------------------------------------------------------------
# Recursion lemma and supporting facts
# ---------------------------------------------------------------------------


def recursion_rhs_log(r: int, R: int, k: int, c: float, log_mu_inner: float) -> float:
    """ln of C(r+R,R) (c/C(k,R) + mu_inner / (e^c C(r-k+R,R)))."""
    if not (R <= k <= r - 1):
        raise ValueError(f"k must lie in [R, r-1] = [{R}, {r - 1}], got {k}")
    lk = log_binomial(k, R)
    if c < 0 or math.log(c if c > 0 else 1) > lk + 1e-12:
        raise ValueError(f"c must lie in [0, C({k},{R})], got {c}")
    if log_mu_inner < 0:
        raise ValueError("mu_inner must be >= 1")
    lB = log_binomial(r + R, R)
    terms = []
    if c > 0:
        terms.append(math.log(c) + lB - lk)
    terms.append(log_mu_inner + lB - c - log_binomial(r - k + R, R))
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def recursion_rhs(r: int, R: int, k: int, c: float, mu_inner: float) -> float:
    """Right side of the recursion bound on mu(r+R, r), log-space safe."""
    return math.exp(recursion_rhs_log(r, R, k, c, math.log(mu_inner)))


@dataclass(frozen=True)
class BinomialRatioResult:
    lhs: float
    rhs: float
    holds: bool


def binomial_ratio_check(r1: int, r2: int, R: int) -> BinomialRatioResult:
    """C(r1,R)/C(r2,R) <= ((r1-R)/(r2-R))^R; the verdict is exact, from
    the positive integers C(r1,R) (r2-R)^R and C(r2,R) (r1-R)^R."""
    if not (r1 >= r2 > R >= 1):
        raise ValueError(f"need r1 >= r2 > R >= 1, got ({r1}, {r2}, {R})")
    holds = binomial(r1, R) * (r2 - R) ** R <= binomial(r2, R) * (r1 - R) ** R
    lhs = math.exp(log_binomial(r1, R) - log_binomial(r2, R))
    rhs = math.exp(R * (math.log(r1 - R) - math.log(r2 - R)))
    return BinomialRatioResult(lhs=lhs, rhs=rhs, holds=holds)


@dataclass(frozen=True)
class SegmentSplitResult:
    k: int
    k_small_enough: bool  # k <= r - 1
    segment_ratio_ok: bool  # r/(k-R) <= 1 + delta/R
    tail_ratio_ok: bool  # r/(r-k) <= 3R/delta

    def all_hold(self) -> bool:
        return self.k_small_enough and self.segment_ratio_ok and self.tail_ratio_ok


def segment_split_plan(r: int, R: int, delta: float) -> SegmentSplitResult:
    """k = ceil(Rr/(R+delta)) + R and its three guaranteed inequalities."""
    if not (18 * R * R / r <= delta <= R):
        raise ValueError(
            f"delta must lie in [18R^2/r, R] = [{18 * R * R / r}, {R}], got {delta}"
        )
    k = math.ceil(R * r / (R + delta)) + R
    return SegmentSplitResult(
        k=k,
        k_small_enough=k <= r - 1,
        segment_ratio_ok=r / (k - R) <= 1 + delta / R + 1e-12,
        tail_ratio_ok=r / (r - k) <= 3 * R / delta + 1e-12 if k < r else False,
    )


# ---------------------------------------------------------------------------
# Intermediate-regime parameter schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry(JsonRecord):
    r_i: int
    k_i: int
    in_domain: bool  # r_i >= 18 R^2 / eps1
    step_lower_bound_ok: bool  # r_{i+1} >= eps1 r_i / (2 (R + eps1))
    c_i: float | None = None
    mu_bound_i: float | None = None


@dataclass
class RecursionTrace(JsonRecord):
    """The (r_i, k_i) descent schedule, optionally with mu values."""

    r: int
    R: int
    eps1: float
    entries: list[ScheduleEntry]
    t: int
    r_final: int  # r_{t+1}, below the 18 R^2 / eps1 threshold
    base_mu_log: float | None = None
    base_source: str | None = None
    final_mu: float | None = None
    ratio_to_RlnR: float | None = None


def descent_schedule(r: int, R: int, eps1: float) -> RecursionTrace:
    """Descent r_1 = r, k_i = ceil(R r_i/(R+eps1)) + R, r_{i+1} = r_i - k_i,
    stopping once r_{i+1} < 18 R^2 / eps1."""
    if R < 1 or eps1 <= 0:
        raise ValueError("need R >= 1 and eps1 > 0")
    threshold = 18 * R * R / eps1
    entries: list[ScheduleEntry] = []
    r_i = r
    while True:
        k_i = math.ceil(R * r_i / (R + eps1)) + R
        r_next = r_i - k_i
        entries.append(
            ScheduleEntry(
                r_i=r_i,
                k_i=k_i,
                in_domain=r_i >= threshold,
                step_lower_bound_ok=r_next >= eps1 * r_i / (2 * (R + eps1)),
            )
        )
        if r_next < threshold:
            return RecursionTrace(
                r=r, R=R, eps1=eps1, entries=entries, t=len(entries), r_final=r_next
            )
        r_i = r_next


def descent_certificate(r: int, R: int, eps1: float) -> RecursionTrace:
    """Backward evaluation of the recursion bound along the descent.

    The base bounds mu(r_final + R, r_final) at the level where the descent
    stops by the complete system, C(r_final + R, R).  The descent constant
    is c = R ln(3R/eps1) + ln(2 R ln R), which requires R >= 2.  The result
    is a concrete finite chain of inequalities, not an asymptotic
    statement; the achieved ratio to R ln R is reported as-is.
    """
    if R < 2:
        raise ValueError("the descent constant needs R >= 2 (ln(2 R ln R) > -inf)")
    trace = descent_schedule(r, R, eps1)
    c = R * math.log(3 * R / eps1) + math.log(2 * R * math.log(R))

    log_mu = log_binomial(trace.r_final + R, R)
    trace.base_mu_log = log_mu
    trace.base_source = f"complete system C({trace.r_final + R},{R})"

    valued: list[ScheduleEntry] = []
    for entry in reversed(trace.entries):
        log_mu = recursion_rhs_log(entry.r_i, R, entry.k_i, c, log_mu)
        valued.append(
            replace(
                entry,
                c_i=c,
                mu_bound_i=exp_or_inf(log_mu),
            )
        )
    trace.entries = list(reversed(valued))
    trace.final_mu = trace.entries[0].mu_bound_i
    trace.ratio_to_RlnR = trace.final_mu / (R * math.log(R))
    return trace


# ---------------------------------------------------------------------------
# Parameters of the random-coloring construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionParameters(JsonRecord):
    """N and ell for the coloring construction at given (r, R).

    N = floor(r(r-1) C(s,R) / (2R)) and
    ell = floor(C(s,R) / ln(C(s,R)^2 C(N-s,R))), with s = r + R.

    When magnitudes allow (N <= EXACT_N_BUDGET) both values are exact
    integers; otherwise they are carried in log-space.  There the floor in
    ell is dropped, and the floor in N is kept in ln C(N-s,R) until N
    reaches 2^53, beyond which its relative effect is below float
    resolution.  exact_path says which, and
    downstream code branches on it; N and ell are None off the exact path.
    """

    r: int
    R: int
    s: int
    exact_path: bool
    N: int | None
    ell: int | None
    log_N: float
    log_ell: float | None
    log_binom_sR: float
    # ln(C(s,R)^2 * C(N-s,R)) == the denominator of ell == a certified
    # lower bound on C(s,R)/ell.
    denominator_log: float | None
    degenerate: bool
    degenerate_reason: str | None


def construction_parameters(r: int, R: int) -> ConstructionParameters:
    """Evaluate the (N, ell) schedule of the coloring construction.

    This is the one place the schedule chooses between exact and log-space
    arithmetic.  On the exact path ell = floor(C / ln(C^2 C(N-s,R))) is
    taken in floats from the log of the exact integer; each of its 1070
    cells has the quotient at least 2.0e-3 from an integer (nearest: 1.00202
    at r = 10, R = 1), so the float floor is exact.  On the log path ln N is
    unfloored and ell is carried as ln ell.

    Needs r >= 2, R >= 1, r(r-1) within float range (r up to about 1.34e154)
    and for r >= 3 R <= FLOAT_R_MAX, beyond which ln R! leaves float range;
    ValueError otherwise.  r = 2 is degenerate (N <= s) at any R.
    """
    if r < 2 or R < 1:
        raise ValueError(f"need r >= 2 and R >= 1, got r={r}, R={R}")
    if r > 2 and R > FLOAT_R_MAX:
        raise ValueError(
            "the colouring schedule supports R <= 10**305 for r >= 3; "
            "its logs leave float range beyond"
        )
    if r * (r - 1) > sys.float_info.max:
        raise ValueError("r above about 1.34e154 takes r(r-1) out of float range")
    s = r + R
    log_C = log_binomial(s, R)
    log_N = math.log(r * (r - 1) / (2 * R)) + log_C
    exact = log_N <= math.log(EXACT_N_BUDGET) + 1e-9
    # The floored N, wherever the floor moves it by more than float
    # resolution; the exact path reports it and takes ln N from it.
    C = N = None
    if log_N < 53 * math.log(2):
        C = binomial(s, R)
        N = r * (r - 1) * C // (2 * R)
        if exact:
            log_N = math.log(N)
    reported_N = N if exact else None

    too_small = N <= s if N is not None else log_N <= math.log(s)
    if too_small:
        return ConstructionParameters(
            r, R, s, exact, reported_N, None, log_N, None, log_C, None, True,
            f"N = {f'exp({log_N})' if N is None else N} <= s = {s}",
        )
    # The denominator 2 ln C(s,R) + ln C(N-s,R) is positive, as C(s,R) >= s
    # and N - s >= R: N > s needs r >= 3, and then for R >= 3, C(s,R) >= C(s,3)
    # and R <= s-3 give N >= floor(s(s-1)(s-2)/(2R)) >= s(s-1)/2 >= 2s-3 >= s+R
    # (R = 1, 2 by hand: N = floor(r(r^2-1)/2), floor(r(r^2-1)(r+2)/8)).
    if exact:
        denom_log = math.log(C * C * binomial(N - s, R))
        ell = math.floor(C / denom_log)
        log_ell = math.log(ell) if ell >= 1 else None
    else:
        ell = None
        log_outside = log_binomial_outside(log_N, s, R) if N is None else log_binomial(N - s, R)
        denom_log = 2.0 * log_C + log_outside
        log_ell = log_C - math.log(denom_log)

    reason = None
    if log_ell is None or log_ell < 0:
        ell_text = "ell" if ell is None else f"ell = {ell}"
        reason = f"{ell_text} < 1 (single colour, construction vacuous)"
    return ConstructionParameters(
        r, R, s, exact, reported_N, ell, log_N, log_ell, log_C, denom_log,
        reason is not None, reason,
    )


# ---------------------------------------------------------------------------
# Local-lemma certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LllCertificate(JsonRecord):
    """Arithmetic of the symmetric local-lemma check for the bad events.

    p is the probability that a fixed s-set misses some colour, Delta the
    dependency degree (s-sets sharing >= r vertices, loops included).  The
    certificate evaluates both e*p*Delta < 1 with the sharp p bound
    ell*(1-1/ell)^C(s,r) and the sufficient form
    e^{C(s,R)/ell} > e*ell*Delta.
    """

    log_N: LogValue
    s: int
    r: int
    R: int
    log_ell: LogValue
    log_p_bound: LogValue
    log_delta: LogValue
    delta_exact: int | None
    delta_is_upper_bound: bool
    delta_upper_valid: bool
    condition_holds: bool
    exponential_condition_holds: bool
    ratio_C_over_ell: float


def log_binomial_outside(log_N: float, s: int, R: int) -> float:
    """ln C(N-s, R), the number of R-sets of [N] that miss a fixed s-set,
    for N carried as ln N.

    The Stirling series of log_binomial with ln(N-s) = ln N + ln(1 - s/N);
    once N is beyond float range that is R ln N - ln R!.
    """
    log_M = log_N + math.log1p(-s * math.exp(-log_N))
    return log_binomial_series(log_M, R * math.exp(-log_M), R)


def dependency_degree(N: int, s: int, r: int) -> int:
    """Exact Delta = sum_{i=r}^{s} C(s,i) C(N-s,s-i)."""
    return sum(binomial(s, i) * binomial(N - s, s - i) for i in range(r, s + 1))


def _int_str_digit_limit() -> int:
    """The longest int that str() converts, in digits; 0 means no limit.

    Python before 3.10.7 has no such limit and no sys.get_int_max_str_digits.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def _delta_too_long(digit_limit: int) -> str:
    return (
        f"delta_exact would have more than {digit_limit} digits, too many to print; "
        "an explicit N (certify-lll --n/--ell) computes Delta exactly, while the "
        "schedule path (no --n/--ell) bounds it in log space"
    )


def lll_condition(
    N: int,
    s: int,
    r: int,
    ell: int,
    ratio_C_over_ell: float | None = None,
) -> LllCertificate:
    """Evaluate the local-lemma condition at explicit integers N and ell.

    Delta is the exact dependency degree.  That needs N >= s and
    R <= sys.maxsize, since math.comb takes no larger terms, and a Delta
    short enough for str() to print; ell must be >= 1.  ValueError
    otherwise.

    ratio_C_over_ell, when given, is a certified lower bound on
    C(s,R)/ell; construction_parameters supplies its denominator for this
    so no catastrophic log cancellation occurs at true scale.
    """
    R = s - r
    if not (0 < r < s):
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    if R > sys.maxsize:
        raise ValueError(
            f"an explicit N supports R <= {sys.maxsize}; "
            "the exact dependency degree needs binomials beyond math.comb"
        )
    if N < s:
        raise ValueError(f"an explicit N needs N >= s = {s}, got N = {N}")
    digit_limit = _int_str_digit_limit()
    # Delta <= C(N,s) < 2^(s * N.bit_length()) and 10^L > 2^(3L), so a
    # Delta with at most 3L bits there is short enough to print.
    check_digits = digit_limit and s * N.bit_length() > 3 * digit_limit
    if check_digits:
        # Delta's largest term bounds it from below: refuse before the
        # s - r + 1 exact binomials when that term alone is too long to
        # print.  C(s,i) C(N-s,s-i) is unimodal in i, with its mode at
        # floor((s+1)^2/(N+2)) (the hypergeometric mode).
        i = max(r, (s + 1) ** 2 // (N + 2))
        log_term = log_binomial(s, i) + log_binomial(N - s, s - i)
        if log_term > digit_limit * math.log(10) * (1 + 1e-12):
            raise ValueError(_delta_too_long(digit_limit))
    if ell < 1:
        raise ValueError("ell must be >= 1")
    delta_exact = dependency_degree(N, s, r)
    if check_digits and delta_exact >= 10**digit_limit:
        raise ValueError(_delta_too_long(digit_limit))
    log_delta = math.log(delta_exact)
    return _certificate(math.log(N), s, r, math.log(ell), log_delta, delta_exact, ratio_C_over_ell)


def lll_certificate_for(params: ConstructionParameters) -> LllCertificate:
    """Certificate at the construction's own (N, ell) schedule.

    The certificate's one exact-or-log branch: an exact N gives the exact
    Delta through lll_condition, an N carried as ln N the bound
    Delta <= 2 C(s,R) C(N-s,R), valid when 3 <= R <= s/2 and N >= C(s,3)
    (the delta_upper_valid flag).  floor(ell) <= C/denominator, so the
    denominator is a certified lower bound on C(s,R)/ell, free of
    true-scale cancellation.
    """
    if params.degenerate:
        raise ValueError(f"degenerate parameters: {params.degenerate_reason}")
    s, r, R = params.s, params.r, params.R
    if params.exact_path:
        return lll_condition(params.N, s, r, params.ell, params.denominator_log)
    log_delta = math.log(2.0) + params.log_binom_sR + log_binomial_outside(params.log_N, s, R)
    return _certificate(
        params.log_N, s, r, params.log_ell, log_delta, None, params.denominator_log
    )


def _certificate(
    log_N: float, s: int, r: int, log_ell: float, log_delta: float,
    delta_exact: int | None, ratio_C_over_ell: float | None,
) -> LllCertificate:
    """The bad-event bound p, both conditions and the record, from logs."""
    R = s - r
    log_C = log_binomial(s, R)
    delta_upper_valid = 3 <= R <= s / 2 and log_N >= log_binomial(s, min(3, s)) - 1e-12

    C_over_ell = exp_or_inf(log_C - log_ell)
    # x: the certified lower bound on C(s,R)/ell when one is given.
    x = C_over_ell if ratio_C_over_ell is None else ratio_C_over_ell

    # Sharp bad-event probability bound ell (1 - 1/ell)^{C(s,R)}, whose log
    # is ln ell - (C/ell) g with g = -ell ln(1 - 1/ell); zero for one colour.
    if log_ell == 0.0:
        log_p = LogValue.zero()
        condition_holds = True
    else:
        u = math.exp(-log_ell)
        g = -math.log1p(-u) / u if u else 1.0
        log_p = LogValue(log_ell - C_over_ell * g)
        condition_holds = 1.0 + log_p.log_magnitude + log_delta < 0
    exponential_condition_holds = x > 1.0 + log_ell + log_delta

    return LllCertificate(
        log_N=LogValue(log_N),
        s=s,
        r=r,
        R=R,
        log_ell=LogValue(log_ell),
        log_p_bound=log_p,
        log_delta=LogValue(log_delta),
        delta_exact=delta_exact,
        delta_is_upper_bound=delta_exact is None,
        delta_upper_valid=delta_upper_valid,
        condition_holds=condition_holds,
        exponential_condition_holds=exponential_condition_holds,
        ratio_C_over_ell=x,
    )


# ---------------------------------------------------------------------------
# Closing chain of the coloring-construction bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCheckResult(JsonRecord):
    r: int
    R: int
    lhs: float  # C(s,R) * f with f = 1/ell + r(r-1)/(2N)
    majorant: float  # 2 ln C(s,R) + R ln N + r(r-1) C(s,R)/(2N)
    target: float  # R ln C(s,R)
    ratio: float
    degenerate: bool  # ell < 2, ratio unreliable


def closing_chain_check(r: int, R: int) -> ChainCheckResult:
    """Evaluate C(s,R) f against R ln C(s,R) at the construction's (N, ell).

    C(s,R)/ell is taken as the certified denominator ln(C^2 C(N-s,R)) from
    the parameter schedule (the floor only increases it), so the true-scale
    evaluation involves no large-log cancellation.
    """
    params = construction_parameters(r, R)
    log_C = params.log_binom_sR
    degenerate = params.degenerate or (params.ell is not None and params.ell < 2)

    if params.exact_path and not params.degenerate:
        C = binomial(params.s, R)
        c_over_ell = C / params.ell
        second = r * (r - 1) * C / (2.0 * params.N)
    else:
        c_over_ell = params.denominator_log if params.denominator_log else float("inf")
        # r(r-1) C(s,R) / (2N) with N = floor(r(r-1)C/(2R)): equals R up to
        # the floor, evaluated via logs.
        second = exp_or_inf(math.log(r * (r - 1) / 2.0) + log_C - params.log_N)

    # construction_parameters takes an R beyond float range only at r = 2,
    # where the cell is degenerate.
    R_float = float(R) if R <= sys.float_info.max else math.inf
    lhs = c_over_ell + second
    majorant = 2.0 * log_C + R_float * params.log_N + second
    target = R_float * log_C  # > 0: R >= 1 and C(s,R) >= 3, as r >= 2
    if math.isfinite(target):
        ratio = lhs / target
    else:
        # R ln C(s,R) beyond float range: divide in two steps.
        ratio = lhs / R_float / log_C
    return ChainCheckResult(
        r=r,
        R=R,
        lhs=lhs,
        majorant=majorant,
        target=target,
        ratio=ratio,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Aggregated report for the CLI
# ---------------------------------------------------------------------------


def bound_reports(r: int, R: int, eps1: float = 0.05) -> list[BoundReport]:
    """All applicable mu-scale bounds at (r, R).

    eps1 is unused: no bound here depends on it.  The parameter stays for
    callers that pass it positionally.
    """
    s = r + R
    # First, so that an R beyond the root's range is refused before any
    # other bound meets a float overflow.
    root = limit_alpha_root(R)
    reports = [
        BoundReport("trivial_lower", "lower", 1.0, ("mu >= 1 by definition",)),
        BoundReport("decaen_lower", "lower", decaen_lower_mu(s, r)),
    ]
    reports.append(
        BoundReport(
            "limit_alpha",
            "asymptotic-upper",
            root.alpha,
            ("limit value as r -> infinity at fixed R; o(1) dropped",),
        )
    )
    if R > math.e:
        reports.append(
            BoundReport(
                "large_gap_RlnR",
                "asymptotic-upper",
                large_gap_mu_bound(R),
                ("valid for sufficiently large R; o(1) dropped",),
            )
        )
    if r >= 3:
        reports.append(
            BoundReport(
                "fixed_gap",
                "asymptotic-upper",
                fixed_gap_mu_bound(r, R),
                ("leading term only; o_R(1) factor dropped",),
            )
        )
    reports.append(
        BoundReport(
            "R_log_binom",
            "asymptotic-upper",
            gap_log_binomial_mu_bound(r, R),
            ("leading term only; o(1) factor dropped",),
        )
    )
    # The colouring construction needs r >= 2.
    if r >= 2:
        chain = closing_chain_check(r, R)
        if not chain.degenerate:
            reports.append(
                BoundReport(
                    "chain_lhs_over_RlnC",
                    "asymptotic-upper",
                    chain.ratio,
                    (
                        "ratio of C(s,R) f to R ln C(s,R) at the construction's "
                        "(N, ell); dimensionless",
                    ),
                )
            )
    return reports
