"""Executable constructions of Turán systems.

Three families live here:

* the random-coloring construction (local-lemma style), run at toy scale
  with Moser-Tardos resampling and certified arithmetically at true scale
  in log-space,
* the blowup that lifts a system on [N] to [mN],
* the initial-segment recursion behind the mu(r+R, r) recursion bound.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, lshift

from .combinatorics import (
    FLOAT_R_MAX,
    JsonRecord,
    LogValue,
    binomial,
    check_sizes,
    colex_masks,
    cover_masks,
    enumerate_subsets,
    exp_or_inf,
    log_binomial,
    log_binomial_series,
    r_subset_ranks,
    refuse_beyond_budget,
    unrank_colex,
)
from .hypergraph import UniformHypergraph

# Draws that recursive_system takes before it gives up.
RECURSION_MAX_RETRIES = 1000

# construction_parameters takes N and ell as exact integers while
# ln N <= ln EXACT_N_BUDGET, and carries ell as ln ell beyond.  log_binomial
# has its own cutoff, EXACT_LOG_N_MAX.
EXACT_N_BUDGET = 512


class ConstructionError(RuntimeError):
    """A randomized construction failed within its retry/round caps."""


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def trivial_prefix_system(n: int, s: int, r: int) -> UniformHypergraph:
    """All r-subsets of the first n-(s-r) vertices.

    Any s-set misses at most s-r of those prefix vertices, hence meets the
    prefix in at least r points and contains an edge.  Size C(n-s+r, r).
    """
    check_sizes(n, s, r)
    refuse_beyond_budget(n - (s - r), r)
    return UniformHypergraph._from_masks(n, r, colex_masks(n - (s - r), r))


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
# Moser-Tardos coloring at toy scale
# ---------------------------------------------------------------------------


@dataclass
class ColoringOutcome(JsonRecord):
    success: bool
    N: int
    s: int
    r: int
    ell: int
    seed: int
    coloring: tuple[int, ...]  # colour of each r-set, indexed by colex rank
    rounds_used: int
    least_color: int | None
    least_class: UniformHypergraph | None = field(repr=False)
    class_sizes: tuple[int, ...]
    failed_s_set: tuple[int, ...] | None

    def color_class(self, color: int) -> UniformHypergraph:
        return _color_class(self.N, self.r, self.coloring, color)


def _color_class(N: int, r: int, coloring, color: int) -> UniformHypergraph:
    """The r-sets of [N] that coloring (indexed by colex rank) gives color."""
    masks = itertools.compress(colex_masks(N, r), map(color.__eq__, coloring))
    return UniformHypergraph._from_masks(N, r, masks)


def moser_tardos_color(
    N: int,
    s: int,
    r: int,
    ell: int,
    seed: int,
    max_rounds: int = 20_000,
) -> ColoringOutcome:
    """Random ell-coloring of all r-sets of [N] with resampling repair.

    Colours every r-set uniformly at random, then repeatedly picks the
    colex-least s-set missing some colour and redraws the colours of all
    its r-subsets, in colex order.  On success every colour class is a
    Turán (N,s,r)-system by definition of "no bad event".

    An s-set is good when every colour covers it: when its bit is set in
    the AND over the colours c of the OR of cover_masks(N, s, r) over the
    r-sets of colour c.  The scan merges the r-sets block by block, the
    block of vertex v being the r-sets whose largest vertex is v; after
    block v the colours of every r-set inside [v+1] are final, so it tests
    the first C(v+1, s) s-sets and stops at the lowest zero bit.

    ValueError for sizes outside 1 <= r < s <= N, max_rounds < 0 or ell
    outside 1 <= ell <= C(s,r), as an s-set shows at most C(s,r) colours;
    BudgetExceededError from cover_masks, before anything is drawn, when
    the C(N,r) r-sets exceed the materialization budget or their cover
    bitmaps COVER_BITS_BUDGET.
    """
    check_sizes(N, s, r)
    if not 1 <= ell <= binomial(s, r):
        raise ValueError(f"ell must be between 1 and C({s},{r}) = {binomial(s, r)}")
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    cover = cover_masks(N, s, r)
    redraw = r_subset_ranks(N, s, r)

    rng = random.Random(seed)
    num_r = len(cover)
    coloring = [rng.randrange(ell) for _ in range(num_r)]

    # blocks[v]: the ranks of the r-sets with largest vertex v, and the
    # number of s-sets inside [v+1].
    blocks = [
        (range(math.comb(v, r), math.comb(v + 1, r)), math.comb(v + 1, s)) for v in range(N)
    ]

    def violated() -> int | None:
        acc = [0] * ell  # per colour, the OR of its r-sets' cover bitmaps
        for ranks, num_s in blocks:
            for j in ranks:
                acc[coloring[j]] |= cover[j]
            good = reduce(and_, acc)
            i = (good ^ (good + 1)).bit_length() - 1  # lowest zero bit
            if i < num_s:
                return i
        return None

    rounds = 0
    bad = violated()
    while bad is not None and rounds < max_rounds:
        for j in redraw(bad):
            coloring[j] = rng.randrange(ell)
        rounds += 1
        bad = violated()

    sizes = [0] * ell
    for c in coloring:
        sizes[c] += 1

    success = bad is None
    least = min(range(ell), key=lambda c: (sizes[c], c)) if success else None
    return ColoringOutcome(
        success=success,
        N=N, s=s, r=r, ell=ell, seed=seed,
        coloring=tuple(coloring),
        rounds_used=rounds,
        least_color=least,
        least_class=_color_class(N, r, coloring, least) if success else None,
        class_sizes=tuple(sizes),
        failed_s_set=None if success else unrank_colex(bad, s, N),
    )


# ---------------------------------------------------------------------------
# Blowup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupReport(JsonRecord):
    m: int
    N: int
    r: int
    size: int
    size_transversal_cap: int  # m^r |A|
    size_degenerate_cap: int  # N C(m,2) C(mN-2, r-2)

    def cap(self) -> int:
        return self.size_transversal_cap + self.size_degenerate_cap


def blowup(A: UniformHypergraph, m: int) -> tuple[UniformHypergraph, BlowupReport]:
    """Blow each vertex of A into m clones (parts are residues mod N).

    The result on [mN] keeps every r-set that meets some part twice, plus
    every transversal r-set whose part projection is an edge of A.  If A is
    a Turán (N,s,r)-system the result is a Turán (mN,s,r)-system.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if A.r < 2:
        # With single-vertex edges an s-set inside one non-edge part would
        # contain no edge, so the construction only preserves the property
        # for r >= 2 (it relies on r-sets that meet a part twice).
        raise ValueError("blowup requires r >= 2")
    N, r = A.n, A.r
    n = m * N
    refuse_beyond_budget(n, r)
    # The projection of an r-set is the mask of its parts: it has fewer
    # than r bits when the set meets some part twice.  The r-sets come
    # lazily, as tuples of vertex bits in lex order, and the masks kept are
    # sorted into colex order once: a colex list would hold all C(n,r) of
    # them at once.
    edge_masks = set(A.masks)
    part = {1 << v: 1 << v % N for v in range(n)}  # vertex bit: part bit
    masks = []
    for e in itertools.combinations(part, r):
        projection = 0
        for b in e:
            projection |= part[b]
        if projection.bit_count() < r or projection in edge_masks:
            masks.append(sum(e))
    masks.sort()
    B = UniformHypergraph._from_masks(n, r, masks)
    report = BlowupReport(
        m=m,
        N=N,
        r=r,
        size=len(B),
        size_transversal_cap=m**r * len(A),
        size_degenerate_cap=N * binomial(m, 2) * binomial(n - 2, r - 2),
    )
    return B, report


# ---------------------------------------------------------------------------
# Initial-segment recursion
# ---------------------------------------------------------------------------

@dataclass
class RecursionSample(JsonRecord):
    n: int
    r: int
    R: int
    k: int
    c: float
    p: float
    seed: int
    retries: int
    sampled: tuple[tuple[int, ...], ...]  # the (k-R)-sets drawn into S
    size_sampled_star: int
    size_uncovered: int  # |T|
    size_extension_star: int
    size_total: int
    expected_size: float


def _validate_recursion_params(n: int, r: int, R: int, k: int, c: float) -> None:
    if R < 1 or r < 2:
        raise ValueError(f"need r >= 2, R >= 1, got r={r}, R={R}")
    if not (R <= k <= r - 1):
        raise ValueError(f"k must lie in [R, r-1] = [{R}, {r - 1}], got {k}")
    if not (0 <= c <= binomial(k, R)):
        raise ValueError(f"c must lie in [0, C({k},{R})] = [0, {binomial(k, R)}]")
    if n < r + R:
        raise ValueError(f"need n >= r + R = {r + R}, got {n}")


def expected_recursive_size(
    n: int, r: int, R: int, k: int, c: float
) -> tuple[float, float]:
    """Expected |G| of the recursion, plus the closed-form cap.

    The exact expectation is p C(n,r) plus, grouping uncovered k-sets by
    their maximum vertex v (0-based: C(v, k-1) of them, tail length
    n' = n-1-v), (1-p)^{C(k,R)} C(v,k-1) times the prefix tail size
    C(n'-s'+r', r') summed over v, with s' = r-k+R, r' = r-k (no tail when
    n' < s').  The cap is (c/C(k,R) + e^{-c} C(s',r') / C(s',R)) C(n,r).
    """
    _validate_recursion_params(n, r, R, k, c)
    s_inner, r_inner = r - k + R, r - k
    p = c / binomial(k, R)
    q = (1.0 - p) ** binomial(k, R)
    expected = p * binomial(n, r)
    for v in range(k - 1, n - s_inner):
        expected += q * binomial(v, k - 1) * binomial(n - 1 - v - R, r_inner)

    mu_inner = float(binomial(s_inner, r_inner))
    cap = (p + math.exp(-c) * mu_inner / binomial(s_inner, R)) * binomial(n, r)
    return expected, cap


def _draw(
    n: int,
    r: int,
    R: int,
    k: int,
    c: float,
    rng: random.Random,
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, ...]], int, int]:
    """One draw, sized without building it: (sampled, T, |S*|, |G|).

    T lists the k-sets that contain no sampled (k-R)-set.  S* extends each
    sampled D by every (r-k+R)-set past max D.  The tail past a k-set with
    maximum v is the prefix (n-1-v, r-k+R, r-k)-system: every (r-k)-subset
    of range(v+1, n-R).  S* and T* share no r-set (the first k-R vertices
    of an r-set are sampled in S* and lie in an unhit k-set in T*), and
    neither repeats one, so |G| = |S*| + |T*|.
    """
    d = k - R  # size of the sampled initial segments
    p = c / binomial(k, R)
    sampled = tuple(D for D in enumerate_subsets(n, d) if rng.random() < p)
    sampled_set = set(sampled)
    size_s_star = sum(math.comb(n - 1 - max(D, default=-1), r - d) for D in sampled)
    unhit = [
        Y for Y in itertools.combinations(range(n), k)
        if sampled_set.isdisjoint(itertools.combinations(Y, d))
    ]
    size_t_star = sum(math.comb(max(0, n - R - 1 - Y[-1]), r - k) for Y in unhit)
    return sampled, unhit, size_s_star, size_s_star + size_t_star


def _extension_masks(
    n: int, r: int, R: int, k: int,
    sampled: tuple[tuple[int, ...], ...], unhit: list[tuple[int, ...]],
) -> list[int]:
    """The edge masks of S* and T*, in ascending order.

    The t-subsets of range(v+1, b) are the first C(b-1-v, t) masks of
    colex_masks, shifted up by v+1: for a sampled D, v = max D (-1 for the
    empty D), b = n and t = r-k+R; for an unhit k-set Y, v = max Y, b = n-R
    and t = r-k.  Each is ORed with the mask of D or Y.  A j-set has its
    maximum at j-1 or above, so the first C(b-j, t) masks cover every set.
    """
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


def recursive_system(
    n: int,
    r: int,
    R: int,
    k: int,
    c: float,
    seed: int,
) -> tuple[UniformHypergraph, RecursionSample]:
    """Initial-segment recursion for a Turán (n, r+R, r)-system.

    Samples each (k-R)-set into S with probability c/C(k,R), keeps r-sets
    whose initial (k-R)-segment is sampled, and extends every unhit k-set
    by the prefix Turán (n', r-k+R, r-k)-system to its right.  Resamples
    until |G| is at most its expected value, for at most
    RECURSION_MAX_RETRIES draws.  Each draw makes one pass over the
    (k-R)-sets and one over the k-sets of [n], and keeps at most C(n,r)
    r-sets; each of those counts must lie within the materialization budget.
    """
    _validate_recursion_params(n, r, R, k, c)
    for size in (k - R, k, r):
        refuse_beyond_budget(n, size)
    expected, _ = expected_recursive_size(n, r, R, k, c)
    rng = random.Random(seed)
    smallest = math.inf
    for attempt in range(RECURSION_MAX_RETRIES):
        sampled, unhit, size_s_star, size = _draw(n, r, R, k, c, rng)
        if size <= expected + 1e-9:
            # Only the accepted draw's edges are built, as masks.
            G = UniformHypergraph._from_masks(n, r, _extension_masks(n, r, R, k, sampled, unhit))
            sample = RecursionSample(
                n=n, r=r, R=R, k=k, c=c,
                p=c / binomial(k, R),
                seed=seed,
                retries=attempt,
                sampled=sampled,
                size_sampled_star=size_s_star,
                size_uncovered=len(unhit),
                size_extension_star=size - size_s_star,
                size_total=size,
                expected_size=expected,
            )
            return G, sample
        smallest = min(smallest, size)
    raise ConstructionError(
        f"no sample with |G| <= {expected:.3f} within {RECURSION_MAX_RETRIES} retries "
        f"(best seen {smallest})"
    )
