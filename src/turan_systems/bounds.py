"""Numeric evaluation of the density bounds and recursion schedules.

All values are on the mu scale, mu(s,r) = t(s,r) * C(s,r), unless a name
says otherwise.  Asymptotic bounds are evaluated as their leading terms
with the o-terms dropped; each report records that in its assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .combinatorics import EXACT_LOG_N_MAX, binomial, log_binomial
from .constructions import ConstructionParameters, construction_parameters


@dataclass(frozen=True)
class BoundReport:
    name: str
    kind: str  # "lower" | "upper" | "asymptotic-upper"
    value: float
    assumptions: tuple[str, ...] = ()
    exact_path: bool = True

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "value": self.value,
            "assumptions": list(self.assumptions),
            "exact_path": self.exact_path,
        }


# ---------------------------------------------------------------------------
# Elementary bounds
# ---------------------------------------------------------------------------


def counting_lower_T(n: int, s: int, r: int) -> int:
    """Double-counting lower bound ceil(C(n,r) / C(s,r)) on T(n,s,r)."""
    if not (r < s <= n):
        raise ValueError(f"need r < s <= n, got r={r}, s={s}, n={n}")
    return -(-binomial(n, r) // binomial(s, r))


def decaen_lower_mu(s: int, r: int) -> float:
    """de Caen: t(s,r) >= 1/C(s-1,r-1), i.e. mu(s,r) >= s/r."""
    if not (0 < r < s):
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    return s / r


@dataclass(frozen=True)
class RootResult:
    """Largest real root of e^x = (x+1)^{R+1} and the constant alpha."""

    R: int
    c0: float
    alpha: float
    residual: float


def limit_alpha_root(R: int) -> RootResult:
    """Solve x = (R+1) ln(1+x) for its unique root beyond R.

    g(x) = x - (R+1) ln(1+x) vanishes at 0, decreases until x = R and
    increases after, so there is exactly one positive root > R; it is the
    largest real root of the original equation.  alpha =
    (c0+1)^{R+1}/c0^R is evaluated in log-space without cancellation.
    """
    if R < 1:
        raise ValueError("R must be >= 1")

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
    # Relative residual of e^{c0} vs (c0+1)^{R+1} equals |exp(g(c0)) - 1|.
    residual = abs(math.expm1(g(c0)))
    # ln alpha = c0 - R ln c0 = R ln(1 + 1/c0) + ln(1 + c0), cancellation-free.
    log_alpha = R * math.log1p(1.0 / c0) + math.log1p(c0)
    return RootResult(R=R, c0=c0, alpha=math.exp(log_alpha), residual=residual)


def large_gap_mu_bound(R: int) -> float:
    """Large-R corollary bound R ln R + 3 R ln ln R."""
    if R <= math.e:
        raise ValueError(f"R ln ln R undefined or negative for R = {R}")
    return R * math.log(R) + 3.0 * R * math.log(math.log(R))


def fixed_gap_mu_bound(r: int, R: int) -> float:
    """Leading term R (R+4) ln r of the fixed-R bound."""
    if r < 3:
        raise ValueError("need r >= 3")
    return R * (R + 4) * math.log(r)


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
    """C(r1,R)/C(r2,R) <= ((r1-R)/(r2-R))^R; verdict in exact arithmetic."""
    if not (r1 >= r2 > R >= 1):
        raise ValueError(f"need r1 >= r2 > R >= 1, got ({r1}, {r2}, {R})")
    lhs_exact = Fraction(binomial(r1, R), binomial(r2, R))
    rhs_exact = Fraction(r1 - R, r2 - R) ** R
    lhs = math.exp(log_binomial(r1, R) - log_binomial(r2, R))
    rhs = math.exp(R * (math.log(r1 - R) - math.log(r2 - R)))
    return BinomialRatioResult(lhs=lhs, rhs=rhs, holds=lhs_exact <= rhs_exact)


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
class LargeGapBranchParameters:
    r: int
    R: int
    eps1: float
    delta: float
    k: int
    c: float
    c_in_domain: bool  # c <= C(k, R)
    regime_ok: bool  # R >= ln r
    r_range_ok: bool  # R <= sqrt(18 r ln r)


def large_gap_branch_parameters(r: int, R: int, eps1: float) -> LargeGapBranchParameters:
    """The large-R branch: delta = max{eps1, 18R^2/r}, the segment-split k, and
    c = R ln(3R/delta) + ln(2R^3)."""
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    delta = max(eps1, 18 * R * R / r)
    k = math.ceil(R * r / (R + delta)) + R
    c = R * math.log(3 * R / delta) + math.log(2 * R**3)
    c_in_domain = (
        math.log(c) <= log_binomial(k, R) + 1e-12 if R <= k else False
    )
    return LargeGapBranchParameters(
        r=r,
        R=R,
        eps1=eps1,
        delta=delta,
        k=k,
        c=c,
        c_in_domain=c_in_domain,
        regime_ok=R >= math.log(r),
        r_range_ok=R <= math.sqrt(18 * r * math.log(r)),
    )


@dataclass(frozen=True)
class ScheduleEntry:
    r_i: int
    k_i: int
    case_tag: str
    in_domain: bool  # r_i >= 18 R^2 / eps1
    step_lower_bound_ok: bool  # r_{i+1} >= eps1 r_i / (2 (R + eps1))
    c_i: float | None = None
    mu_bound_i: float | None = None


@dataclass
class RecursionTrace:
    """The (r_i, k_i) descent schedule, optionally with mu values."""

    r: int
    R: int
    eps1: float
    entries: list[ScheduleEntry]
    t: int
    r_final: int  # r_{t+1}, below the 18 R^2 / eps1 threshold
    base_level: int | None = None
    base_mu_log: float | None = None
    base_source: str | None = None
    final_mu: float | None = None
    ratio_to_RlnR: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "eps1": self.eps1,
            "t": self.t,
            "r_final": self.r_final,
            "entries": [
                {
                    "r_i": e.r_i,
                    "k_i": e.k_i,
                    "case_tag": e.case_tag,
                    "in_domain": e.in_domain,
                    "step_lower_bound_ok": e.step_lower_bound_ok,
                    "c_i": e.c_i,
                    "mu_bound_i": e.mu_bound_i,
                }
                for e in self.entries
            ],
            "base_level": self.base_level,
            "base_mu_log": self.base_mu_log,
            "base_source": self.base_source,
            "final_mu": self.final_mu,
            "ratio_to_RlnR": self.ratio_to_RlnR,
        }


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
                case_tag="descent",
                in_domain=r_i >= threshold,
                step_lower_bound_ok=r_next >= eps1 * r_i / (2 * (R + eps1)),
            )
        )
        if r_next < threshold:
            return RecursionTrace(
                r=r, R=R, eps1=eps1, entries=entries, t=len(entries), r_final=r_next
            )
        r_i = r_next


def descent_certificate(
    r: int,
    R: int,
    eps1: float,
    base_mu: Callable[[int], float] | float | None = None,
) -> RecursionTrace:
    """Backward evaluation of the recursion bound along the descent.

    base_mu bounds mu(r_final + R, r_final) at the level where the descent
    stops; the default is the complete-system bound C(r_final + R, R).  The
    descent constant is c = R ln(3R/eps1) + ln(2 R ln R), which requires
    R >= 2.  The result is a concrete finite chain of inequalities, not an
    asymptotic statement; the achieved ratio to R ln R is reported as-is.
    """
    if R < 2:
        raise ValueError("the descent constant needs R >= 2 (ln(2 R ln R) > -inf)")
    trace = descent_schedule(r, R, eps1)
    c = R * math.log(3 * R / eps1) + math.log(2 * R * math.log(R))

    base_level = trace.r_final
    if base_mu is None:
        log_mu = log_binomial(base_level + R, R)
        source = f"complete system C({base_level + R},{R})"
    elif callable(base_mu):
        val = base_mu(base_level)
        if val < 1:
            raise ValueError(f"base mu bound must be >= 1, got {val}")
        log_mu = math.log(val)
        source = "caller-supplied"
    else:
        if base_mu < 1:
            raise ValueError(f"base mu bound must be >= 1, got {base_mu}")
        log_mu = math.log(base_mu)
        source = "caller-supplied"

    trace.base_level = base_level
    trace.base_mu_log = log_mu
    trace.base_source = source

    valued: list[ScheduleEntry] = []
    for entry in reversed(trace.entries):
        log_mu = recursion_rhs_log(entry.r_i, R, entry.k_i, c, log_mu)
        valued.append(
            ScheduleEntry(
                r_i=entry.r_i,
                k_i=entry.k_i,
                case_tag=entry.case_tag,
                in_domain=entry.in_domain,
                step_lower_bound_ok=entry.step_lower_bound_ok,
                c_i=c,
                mu_bound_i=math.exp(log_mu) if log_mu < 709 else float("inf"),
            )
        )
    trace.entries = list(reversed(valued))
    trace.final_mu = trace.entries[0].mu_bound_i
    trace.ratio_to_RlnR = trace.final_mu / (R * math.log(R))
    return trace


# ---------------------------------------------------------------------------
# Closing chain of the coloring-construction bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCheckResult:
    r: int
    R: int
    lhs: float  # C(s,R) * f with f = 1/ell + r(r-1)/(2N)
    majorant: float  # 2 ln C(s,R) + R ln N + r(r-1) C(s,R)/(2N)
    target: float  # R ln C(s,R)
    ratio: float
    degenerate: bool  # ell < 2, ratio unreliable
    params: ConstructionParameters = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "lhs": self.lhs,
            "majorant": self.majorant,
            "target": self.target,
            "ratio": self.ratio,
            "degenerate": self.degenerate,
        }


def closing_chain_check(r: int, R: int) -> ChainCheckResult:
    """Evaluate C(s,R) f against R ln C(s,R) at the construction's (N, ell).

    C(s,R)/ell is taken as the certified denominator ln(C^2 C(N-s,R)) from
    the parameter schedule (the floor only increases it), so the true-scale
    evaluation involves no large-log cancellation.
    """
    params = construction_parameters(r, R)
    log_C = params.log_binom_sR
    degenerate = False
    if params.degenerate:
        degenerate = True
    if params.ell is not None and params.ell < 2:
        degenerate = True

    if params.exact_path and params.N is not None and not params.degenerate:
        C = binomial(params.s, R)
        c_over_ell = C / params.ell if params.ell else float("inf")
        second = r * (r - 1) * C / (2.0 * params.N)
        log_N = math.log(params.N)
    else:
        c_over_ell = params.denominator_log if params.denominator_log else float("inf")
        # r(r-1) C(s,R) / (2N) with N = floor(r(r-1)C/(2R)): equals R up to
        # the floor, evaluated via logs.
        second = math.exp(
            math.log(r * (r - 1) / 2.0) + log_C - params.log_N
        )
        log_N = params.log_N

    lhs = c_over_ell + second
    majorant = 2.0 * log_C + R * log_N + second
    target = R * log_C
    return ChainCheckResult(
        r=r,
        R=R,
        lhs=lhs,
        majorant=majorant,
        target=target,
        ratio=lhs / target if target > 0 else float("inf"),
        degenerate=degenerate,
        params=params,
    )


# ---------------------------------------------------------------------------
# Aggregated report for the CLI
# ---------------------------------------------------------------------------


def bound_reports(r: int, R: int, eps1: float = 0.05) -> list[BoundReport]:
    """All applicable mu-scale bounds at (r, R)."""
    s = r + R
    reports = [
        BoundReport("trivial_lower", "lower", 1.0, ("mu >= 1 by definition",)),
        BoundReport("decaen_lower", "lower", decaen_lower_mu(s, r)),
    ]
    root = limit_alpha_root(R)
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
            exact_path=s <= EXACT_LOG_N_MAX,
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
                    exact_path=chain.params.exact_path,
                )
            )
    return reports
