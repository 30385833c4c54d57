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
from dataclasses import dataclass

import mpmath

from .combinatorics import (
    EXACT_N_BUDGET,
    LogValue,
    binomial,
    enumerate_subsets,
    log_binomial,
    log_binomial_series,
)
from .hypergraph import BudgetExceededError, UniformHypergraph

DEFAULT_MATERIALIZE_BUDGET = 5_000_000


class ConstructionError(RuntimeError):
    """A randomized construction failed within its retry/round caps."""


class FloorAmbiguousError(RuntimeError):
    """Interval arithmetic could not separate a floor from an integer boundary."""


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def trivial_prefix_system(n: int, s: int, r: int) -> UniformHypergraph:
    """All r-subsets of the first n-(s-r) vertices.

    Any s-set misses at most s-r of those prefix vertices, hence meets the
    prefix in at least r points and contains an edge.  Size C(n-s+r, r).
    """
    if not (r < s <= n):
        raise ValueError(f"need r < s <= n, got r={r}, s={s}, n={n}")
    return UniformHypergraph.from_edges(n, r, enumerate_subsets(n - (s - r), r))


# ---------------------------------------------------------------------------
# Parameters of the random-coloring construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionParameters:
    """N and ell for the coloring construction at given (r, R).

    N = floor(r(r-1) C(s,R) / (2R)) and
    ell = floor(C(s,R) / ln(C(s,R)^2 C(N-s,R))), with s = r + R.

    When magnitudes allow (N <= EXACT_N_BUDGET) both values are exact
    integers with interval-certified floors; otherwise they are carried in
    log-space.  There the floor in ell is dropped, and the floor in N is
    kept in ln C(N-s,R) until N reaches 2^53, beyond which its relative
    effect is below float resolution.
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

    def N_value(self) -> LogValue:
        return LogValue.from_int(self.N) if self.N is not None else LogValue(self.log_N)

    def ell_value(self) -> LogValue:
        if self.ell is not None:
            return LogValue.from_int(self.ell)
        if self.log_ell is None:
            raise ValueError("degenerate parameters carry no ell")
        return LogValue(self.log_ell)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "s": self.s,
            "exact_path": self.exact_path,
            "N": self.N,
            "ell": self.ell,
            "log_N": self.log_N,
            "log_ell": self.log_ell,
            "log_binom_sR": self.log_binom_sR,
            "denominator_log": self.denominator_log,
            "degenerate": self.degenerate,
            "degenerate_reason": self.degenerate_reason,
        }


def _guarded_floor(numerator: int, denominator: mpmath.mpf) -> int:
    """floor(numerator / denominator) with an integer-boundary guard."""
    with mpmath.workdps(len(str(numerator)) + 30):
        q = mpmath.mpf(numerator) / denominator
        fl = mpmath.floor(q)
        if q - fl < mpmath.mpf(10) ** (-10):
            raise FloorAmbiguousError(
                f"quotient {mpmath.nstr(q, 25)} too close to an integer boundary"
            )
        return int(fl)


def construction_parameters(r: int, R: int) -> ConstructionParameters:
    """Evaluate the (N, ell) schedule of the coloring construction."""
    if r < 2 or R < 1:
        raise ValueError(f"need r >= 2 and R >= 1, got r={r}, R={R}")
    s = r + R
    log_C = log_binomial(s, R)
    log_N_est = math.log(r * (r - 1) / (2 * R)) + log_C

    if log_N_est <= math.log(EXACT_N_BUDGET) + 1e-9:
        C = binomial(s, R)
        N = r * (r - 1) * C // (2 * R)
        log_N = math.log(N) if N > 0 else float("-inf")
        if N <= s:
            return ConstructionParameters(
                r, R, s, True, N, None, log_N, None, log_C, None, True,
                f"N = {N} <= s = {s}",
            )
        with mpmath.workdps(len(str(C)) + 30):
            denom = mpmath.log(
                mpmath.mpf(C) ** 2 * mpmath.mpf(binomial(N - s, R))
            )
            denom_log = float(denom)
            ell = _guarded_floor(C, denom)
        if ell < 1:
            return ConstructionParameters(
                r, R, s, True, N, ell, log_N, None, log_C, denom_log, True,
                f"ell = {ell} < 1 (single colour, construction vacuous)",
            )
        return ConstructionParameters(
            r, R, s, True, N, ell, log_N, math.log(ell), log_C, denom_log,
            False, None,
        )

    # Log-space path.  log_N is unfloored; C(N-s, R) takes the floored N
    # while the floor moves it by more than float resolution.
    log_N = log_N_est
    N_or_log: int | LogValue
    if log_N < 53 * math.log(2):
        N_or_log = r * (r - 1) * binomial(s, R) // (2 * R)
        too_small = N_or_log <= s
    else:
        N_or_log = LogValue(log_N)
        too_small = log_N <= math.log(s)
    if too_small:
        N_text = f"exp({log_N})" if isinstance(N_or_log, LogValue) else N_or_log
        return ConstructionParameters(
            r, R, s, False, None, None, log_N, None, log_C, None, True,
            f"N = {N_text} <= s = {s}",
        )
    denom_log = 2.0 * log_C + log_binomial_outside(N_or_log, s, R)
    if denom_log <= 0:
        return ConstructionParameters(
            r, R, s, False, None, None, log_N, None, log_C, denom_log, True,
            "nonpositive log denominator",
        )
    log_ell = log_C - math.log(denom_log)
    if log_ell < 0:
        return ConstructionParameters(
            r, R, s, False, None, None, log_N, log_ell, log_C, denom_log, True,
            "ell < 1 (single colour, construction vacuous)",
        )
    return ConstructionParameters(
        r, R, s, False, None, None, log_N, log_ell, log_C, denom_log, False, None
    )


# ---------------------------------------------------------------------------
# Local-lemma certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LllCertificate:
    """Arithmetic of the symmetric local-lemma check for the bad events.

    p is the probability that a fixed s-set misses some colour, Delta the
    dependency degree (s-sets sharing >= r vertices, loops included).  The
    certificate evaluates both e*p*Delta < 1 with the sharp p bound
    ell*(1-1/ell)^C(s,r) and the sufficient form
    e^{C(s,R)/ell} > e*ell*Delta.
    """

    N: LogValue
    s: int
    r: int
    R: int
    ell: LogValue
    log_p_bound: LogValue
    log_delta: LogValue
    delta_exact: int | None
    delta_is_upper_bound: bool
    delta_upper_valid: bool
    condition_holds: bool
    exponential_condition_holds: bool
    ratio_C_over_ell: float

    def to_json_dict(self) -> dict:
        return {
            "log_N": self.N.log_magnitude,
            "s": self.s,
            "r": self.r,
            "R": self.R,
            "log_ell": self.ell.log_magnitude,
            "log_p_bound": None if self.log_p_bound.is_zero else self.log_p_bound.log_magnitude,
            "log_delta": self.log_delta.log_magnitude,
            "delta_exact": self.delta_exact,
            "delta_is_upper_bound": self.delta_is_upper_bound,
            "delta_upper_valid": self.delta_upper_valid,
            "condition_holds": self.condition_holds,
            "exponential_condition_holds": self.exponential_condition_holds,
            "ratio_C_over_ell": self.ratio_C_over_ell,
        }


def log_binomial_outside(N: int | LogValue, s: int, R: int) -> float:
    """ln C(N-s, R), the number of R-sets of [N] that miss a fixed s-set.

    An exact N goes to log_binomial.  An N carried as ln N goes to the same
    Stirling series with ln(N-s) = ln N + ln(1 - s/N); once N is beyond
    float range that is R ln N - ln R!.
    """
    if isinstance(N, int):
        return log_binomial(N - s, R)
    log_M = N.log_magnitude + math.log1p(-s * math.exp(-N.log_magnitude))
    return log_binomial_series(log_M, R * math.exp(-log_M), R)


def dependency_degree(N: int, s: int, r: int) -> int:
    """Exact Delta = sum_{i=r}^{s} C(s,i) C(N-s,s-i)."""
    return sum(binomial(s, i) * binomial(N - s, s - i) for i in range(r, s + 1))


def dependency_term_ratios(N: int, s: int, r: int) -> list[float]:
    """Consecutive-term ratios (s-i)^2 / ((i+1)(N-2s+i+1)) for i in [r, s)."""
    return [
        (s - i) ** 2 / ((i + 1) * (N - 2 * s + i + 1)) for i in range(r, s)
    ]


def lll_condition(
    N: int | LogValue,
    s: int,
    r: int,
    ell: int | LogValue,
    ratio_C_over_ell: float | None = None,
) -> LllCertificate:
    """Evaluate the local-lemma condition for the coloring construction.

    Delta is computed exactly whenever N is an explicit integer, otherwise
    bounded by 2 C(s,R) C(N-s,R) (valid when 3 <= R <= s/2 and
    N >= C(s,3); the certificate carries that flag).

    ratio_C_over_ell, when given, is a certified lower bound on
    C(s,R)/ell; construction_parameters supplies its denominator for this
    so no catastrophic log cancellation occurs at true scale.
    """
    R = s - r
    if not (0 < r < s):
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    N_val = LogValue.from_int(N) if isinstance(N, int) else N
    ell_val = LogValue.from_int(ell) if isinstance(ell, int) else ell
    if ell_val.is_zero or ell_val.log_magnitude < 0:
        raise ValueError("ell must be >= 1")
    log_ell = ell_val.log_magnitude

    log_C = log_binomial(s, R)

    # Delta, exact when materializable.
    delta_exact: int | None = None
    if isinstance(N, int):
        delta_exact = dependency_degree(N, s, r)
        log_delta = LogValue.from_int(delta_exact)
    else:
        log_delta = LogValue(math.log(2.0) + log_C + log_binomial_outside(N, s, R))
    delta_upper_valid = 3 <= R <= s / 2 and (
        N_val.log_magnitude >= log_binomial(s, min(3, s)) - 1e-12
    )

    # C(s,R)/ell from logs; inf once it leaves float range (e^709.78).
    C_over_ell = math.exp(log_C - log_ell) if log_C - log_ell < 709 else math.inf
    # x: the certified lower bound on C(s,R)/ell when one is given.
    x = C_over_ell if ratio_C_over_ell is None else ratio_C_over_ell

    # Sharp bad-event probability bound ell (1 - 1/ell)^{C(s,R)}, whose log
    # is ln ell - (C/ell) g with g = -ell ln(1 - 1/ell); zero for one colour.
    if log_ell == 0.0:
        log_p = LogValue.zero()
    else:
        u = math.exp(-log_ell)
        g = -math.log1p(-u) / u if u else 1.0
        log_p = LogValue(log_ell - C_over_ell * g)

    if log_p.is_zero:
        condition_holds = True
    else:
        condition_holds = 1.0 + log_p.log_magnitude + log_delta.log_magnitude < 0
    exponential_condition_holds = x > 1.0 + log_ell + log_delta.log_magnitude

    return LllCertificate(
        N=N_val,
        s=s,
        r=r,
        R=R,
        ell=ell_val,
        log_p_bound=log_p,
        log_delta=log_delta,
        delta_exact=delta_exact,
        delta_is_upper_bound=delta_exact is None,
        delta_upper_valid=delta_upper_valid,
        condition_holds=condition_holds,
        exponential_condition_holds=exponential_condition_holds,
        ratio_C_over_ell=x,
    )


def lll_certificate_for(params: ConstructionParameters) -> LllCertificate:
    """Certificate at the construction's own (N, ell) schedule."""
    if params.degenerate:
        raise ValueError(f"degenerate parameters: {params.degenerate_reason}")
    N: int | LogValue = params.N if params.N is not None else params.N_value()
    ell: int | LogValue = params.ell if params.ell is not None else params.ell_value()
    # floor(ell) <= C/denominator, so the denominator is a certified lower
    # bound on C(s,R)/ell; it keeps the true-scale evaluation cancellation-free.
    return lll_condition(N, params.s, params.r, ell, ratio_C_over_ell=params.denominator_log)


# ---------------------------------------------------------------------------
# Moser-Tardos coloring at toy scale
# ---------------------------------------------------------------------------


@dataclass
class ColoringOutcome:
    success: bool
    N: int
    s: int
    r: int
    ell: int
    seed: int
    coloring: tuple[int, ...]  # colour of each r-set, indexed by colex rank
    rounds_used: int
    least_color: int | None
    least_class: UniformHypergraph | None
    class_sizes: tuple[int, ...]
    failed_s_set: tuple[int, ...] | None

    def color_class(self, color: int) -> UniformHypergraph:
        edges = [
            e
            for e, c in zip(enumerate_subsets(self.N, self.r), self.coloring)
            if c == color
        ]
        return UniformHypergraph.from_edges(self.N, self.r, edges)

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "N": self.N,
            "s": self.s,
            "r": self.r,
            "ell": self.ell,
            "seed": self.seed,
            "rounds_used": self.rounds_used,
            "least_color": self.least_color,
            "class_sizes": list(self.class_sizes),
            "coloring": list(self.coloring),
            "failed_s_set": list(self.failed_s_set) if self.failed_s_set else None,
        }


def moser_tardos_color(
    N: int,
    s: int,
    r: int,
    ell: int,
    seed: int,
    max_rounds: int = 20_000,
    budget: int = DEFAULT_MATERIALIZE_BUDGET,
) -> ColoringOutcome:
    """Random ell-coloring of all r-sets of [N] with resampling repair.

    Colours every r-set uniformly at random, then repeatedly picks the
    colex-least s-set missing some colour and redraws the colours of all
    its r-subsets, in colex order.  On success every colour class is a
    Turán (N,s,r)-system by definition of "no bad event".

    After a redraw the search for the next bad s-set restarts at the
    colex-least s-set that contains a redrawn r-set: every s-set before it
    held all colours and kept them, so the result is the same as a rescan
    from the first s-set.
    """
    if not (r < s <= N):
        raise ValueError(f"need r < s <= N, got r={r}, s={s}, N={N}")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if binomial(N, r) > budget:
        raise BudgetExceededError(f"C({N},{r}) exceeds materialization budget {budget}")

    rng = random.Random(seed)
    num_r = binomial(N, r)
    coloring = [rng.randrange(ell) for _ in range(num_r)]

    s_sets = list(enumerate_subsets(N, s))
    r_index = {e: j for j, e in enumerate(enumerate_subsets(N, r))}
    # Colex rank is monotone in colex order, so sorting the ranks of an
    # s-set's r-subsets puts them in the colex order of their positions.
    member_ranks = [
        sorted(map(r_index.__getitem__, itertools.combinations(S, r))) for S in s_sets
    ]
    # first_hit[j]: index of the colex-least s-set containing r-set j.
    first_hit: dict[int, int] = {}
    for i in range(len(s_sets) - 1, -1, -1):
        first_hit.update(dict.fromkeys(member_ranks[i], i))

    def violated(start: int) -> int | None:
        for i in range(start, len(s_sets)):
            if len(set(map(coloring.__getitem__, member_ranks[i]))) < ell:
                return i
        return None

    rounds = 0
    bad = violated(0)
    while bad is not None and rounds < max_rounds:
        for j in member_ranks[bad]:
            coloring[j] = rng.randrange(ell)
        rounds += 1
        bad = violated(min(map(first_hit.__getitem__, member_ranks[bad])))

    sizes = [0] * ell
    for c in coloring:
        sizes[c] += 1

    if bad is not None:
        return ColoringOutcome(
            success=False,
            N=N, s=s, r=r, ell=ell, seed=seed,
            coloring=tuple(coloring),
            rounds_used=rounds,
            least_color=None,
            least_class=None,
            class_sizes=tuple(sizes),
            failed_s_set=s_sets[bad],
        )

    least = min(range(ell), key=lambda c: (sizes[c], c))
    outcome = ColoringOutcome(
        success=True,
        N=N, s=s, r=r, ell=ell, seed=seed,
        coloring=tuple(coloring),
        rounds_used=rounds,
        least_color=least,
        least_class=None,
        class_sizes=tuple(sizes),
        failed_s_set=None,
    )
    outcome.least_class = outcome.color_class(least)
    return outcome


# ---------------------------------------------------------------------------
# Blowup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    m: int
    N: int
    r: int
    size: int
    size_transversal_cap: int  # m^r |A|
    size_degenerate_cap: int  # N C(m,2) C(mN-2, r-2)
    f: float | None  # 1/ell + r(r-1)/(2N) when ell is known

    def cap(self) -> int:
        return self.size_transversal_cap + self.size_degenerate_cap

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "N": self.N,
            "r": self.r,
            "size": self.size,
            "size_transversal_cap": self.size_transversal_cap,
            "size_degenerate_cap": self.size_degenerate_cap,
            "f": self.f,
        }


def blowup(
    A: UniformHypergraph,
    m: int,
    ell: int | None = None,
    budget: int = DEFAULT_MATERIALIZE_BUDGET,
) -> tuple[UniformHypergraph, BlowupReport]:
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
    if binomial(n, r) > budget:
        raise BudgetExceededError(
            f"C({n},{r}) exceeds materialization budget {budget}"
        )
    edge_set = A.edge_set()
    edges = []
    for e in enumerate_subsets(n, r):
        parts = tuple(sorted(v % N for v in e))
        if len(set(parts)) < r or parts in edge_set:
            edges.append(e)
    B = UniformHypergraph.from_edges(n, r, edges)
    report = BlowupReport(
        m=m,
        N=N,
        r=r,
        size=len(B),
        size_transversal_cap=m**r * len(A),
        size_degenerate_cap=N * binomial(m, 2) * binomial(n - 2, r - 2),
        f=(1.0 / ell + r * (r - 1) / (2.0 * N)) if ell else None,
    )
    return B, report


# ---------------------------------------------------------------------------
# Initial-segment recursion
# ---------------------------------------------------------------------------

@dataclass
class RecursionSample:
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "R": self.R,
            "k": self.k,
            "c": self.c,
            "p": self.p,
            "seed": self.seed,
            "retries": self.retries,
            "sampled": [list(d) for d in self.sampled],
            "size_sampled_star": self.size_sampled_star,
            "size_uncovered": self.size_uncovered,
            "size_extension_star": self.size_extension_star,
            "size_total": self.size_total,
            "expected_size": self.expected_size,
        }


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


def sample_recursive_system(
    n: int,
    r: int,
    R: int,
    k: int,
    c: float,
    rng: random.Random,
) -> tuple[set[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """One raw draw of the recursion: returns (edges of G, sampled S).

    The draw makes one pass over the k-sets, extending each unhit one by
    its tail system.  No retry filtering; used directly by the Monte Carlo comparison against
    expected_recursive_size.
    """
    _validate_recursion_params(n, r, R, k, c)
    edges, sampled, _ = _draw(n, r, R, k, c, rng)
    return edges, sampled


def _draw(
    n: int,
    r: int,
    R: int,
    k: int,
    c: float,
    rng: random.Random,
) -> tuple[set[tuple[int, ...]], tuple[tuple[int, ...], ...], int]:
    """One draw in a single pass over the k-sets: (edges, sampled, |T|).

    T is the set of k-sets that contain no sampled (k-R)-set.  The tail past
    a k-set with maximum v is the prefix (n-1-v, r-k+R, r-k)-system on the
    vertices after v: every (r-k)-subset of range(v+1, n-R), none when the
    tail is shorter than r-k+R.
    """
    d = k - R  # size of the sampled initial segments
    p = c / binomial(k, R)
    sampled = tuple(D for D in enumerate_subsets(n, d) if rng.random() < p)
    sampled_set = set(sampled)

    edges: set[tuple[int, ...]] = set()
    # S*: r-sets whose d smallest elements form a sampled set.
    extensions: dict[int, list[tuple[int, ...]]] = {}
    for D in sampled:
        lo = D[-1] if D else -1
        if lo not in extensions:
            extensions[lo] = list(itertools.combinations(range(lo + 1, n), r - d))
        edges.update(D + x for x in extensions[lo])
    # T*: k-sets not hit by S, extended by the tail system past their max.
    tails: dict[int, list[tuple[int, ...]]] = {}
    uncovered = 0
    for Y in itertools.combinations(range(n), k):
        if not sampled_set.isdisjoint(itertools.combinations(Y, d)):
            continue
        uncovered += 1
        v = Y[-1]
        if v not in tails:
            tails[v] = list(itertools.combinations(range(v + 1, n - R), r - k))
        edges.update(Y + Z for Z in tails[v])
    return edges, sampled, uncovered


def recursive_system(
    n: int,
    r: int,
    R: int,
    k: int,
    c: float,
    seed: int,
    max_retries: int = 1000,
) -> tuple[UniformHypergraph, RecursionSample]:
    """Initial-segment recursion for a Turán (n, r+R, r)-system.

    Samples each (k-R)-set into S with probability c/C(k,R), keeps r-sets
    whose initial (k-R)-segment is sampled, and extends every unhit k-set
    by the prefix Turán (n', r-k+R, r-k)-system to its right.  Resamples
    until |G| is at most its expected value.  Each draw makes one pass over
    the k-sets, which both builds the extensions and counts the unhit
    k-sets.
    """
    _validate_recursion_params(n, r, R, k, c)
    expected, _ = expected_recursive_size(n, r, R, k, c)
    rng = random.Random(seed)
    best: tuple[set[tuple[int, ...]], tuple[tuple[int, ...], ...]] | None = None
    for attempt in range(max_retries):
        edges, sampled, uncovered = _draw(n, r, R, k, c, rng)
        if best is None or len(edges) < len(best[0]):
            best = (edges, sampled)
        if len(edges) <= expected + 1e-9:
            d = k - R
            sampled_set = set(sampled)
            size_s_star = sum(1 for e in edges if e[:d] in sampled_set)
            G = UniformHypergraph.from_edges(n, r, edges)
            sample = RecursionSample(
                n=n, r=r, R=R, k=k, c=c,
                p=c / binomial(k, R),
                seed=seed,
                retries=attempt,
                sampled=sampled,
                size_sampled_star=size_s_star,
                size_uncovered=uncovered,
                size_extension_star=len(edges) - size_s_star,
                size_total=len(edges),
                expected_size=expected,
            )
            return G, sample
    assert best is not None
    raise ConstructionError(
        f"no sample with |G| <= {expected:.3f} within {max_retries} retries "
        f"(best seen {len(best[0])})"
    )
