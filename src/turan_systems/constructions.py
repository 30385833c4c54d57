"""Executable constructions of Turán systems.

Four constructions live here, each building a system:

* the prefix system, all r-subsets of the first n-(s-r) vertices,
* the random-coloring construction (local-lemma style), run at toy scale
  with Moser-Tardos resampling; its (N, ell) schedule and local-lemma
  certificate at true scale are arithmetic only and live in bounds,
* the blowup that lifts a system on [N] to [mN],
* the initial-segment recursion behind the mu(r+R, r) recursion bound.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterator

from .combinatorics import (
    ConstructionError,
    JsonRecord,
    _colex_blocks,
    binomial,
    check_sizes,
    colex_masks,
    cover_masks,
    enumerate_subsets,
    r_subset_ranks,
    refuse_beyond_budget,
    unrank_colex,
)
from .hypergraph import UniformHypergraph

# Draws that recursive_system takes before it gives up.
RECURSION_MAX_RETRIES = 1000


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
    class_sizes: tuple[int, ...]
    failed_s_set: tuple[int, ...] | None

    def color_class(self, color: int) -> UniformHypergraph:
        """The r-sets of [N] that the colouring gives color, built on each call."""
        masks = itertools.compress(colex_masks(self.N, self.r), map(color.__eq__, self.coloring))
        return UniformHypergraph._from_masks(self.N, self.r, masks)

    @property
    def least_class(self) -> UniformHypergraph | None:
        """The least colour class, the construction's system, or None on failure."""
        return None if self.least_color is None else self.color_class(self.least_color)


def _colour_draws(rng: random.Random, ell: int) -> Iterator[int]:
    """rng.randrange(ell) drawn again and again, at C level: as CPython's
    Random does, getrandbits(ell.bit_length()), drawn again while it is ell
    or more.  An iterator draws no further than it is read, so zip with it
    last draws once per item of the first iterable.
    """
    return filter(ell.__gt__, map(rng.getrandbits, itertools.repeat(ell.bit_length())))


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
    the first C(v+1, s) s-sets and stops at the lowest zero bit.  It keeps
    each colour's accumulator at every block start, and each round's scan
    resumes at the block of the least redrawn r-set: the blocks before it
    hold no redrawn r-set, and their s-sets were good.  The N snapshots
    hold at most N * ell bitmaps, and share each one that a block leaves
    unchanged.  Colours are drawn by _colour_draws, the stream of
    Random.randrange(ell).

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

    colours = _colour_draws(random.Random(seed), ell)
    coloring = list(itertools.islice(colours, len(cover)))

    # blocks[v]: the ranks of the r-sets with largest vertex v, and the
    # number of s-sets inside [v+1]; starts[v]: each colour's accumulator,
    # the OR of the cover bitmaps of its r-sets, at the start of block v in
    # the last scan that reached it.
    firsts = [math.comb(v, r) for v in range(N + 1)]
    blocks = [(range(firsts[v], firsts[v + 1]), math.comb(v + 1, s)) for v in range(N)]
    starts = [(0,) * ell] * N

    def violated(first: int) -> int | None:
        acc = list(starts[first])
        for v in range(first, N):
            starts[v] = tuple(acc)
            ranks, num_s = blocks[v]
            for j in ranks:
                acc[coloring[j]] |= cover[j]
            good = reduce(and_, acc)
            i = (good ^ (good + 1)).bit_length() - 1  # lowest zero bit
            if i < num_s:
                return i
        return None

    rounds = 0
    bad = violated(0)
    while bad is not None and rounds < max_rounds:
        ranks = redraw(bad)
        for j, c in zip(ranks, colours):
            coloring[j] = c
        rounds += 1
        # The scan resumes at the block of the least redrawn r-set.
        bad = violated(bisect_right(firsts, ranks[0]) - 1)

    sizes = list(map(coloring.count, range(ell)))
    success = bad is None
    least = sizes.index(min(sizes)) if success else None
    return ColoringOutcome(
        success=success,
        N=N, s=s, r=r, ell=ell, seed=seed,
        coloring=tuple(coloring),
        rounds_used=rounds,
        least_color=least,
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

    The block recurrence builds two tables over the r-sets of [mN] in colex
    order: each r-set's mask, from the vertex bits, and its projection,
    the mask of its parts, from the part bits 1 << v % N.  A projection of
    fewer than r bits is an r-set that meets some part twice; the r-sets
    whose projection is kept are taken from the first table in its order.
    When mN < r the result is the empty system, and when mN < 2 so is its
    degenerate cap.
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
    masks = _colex_blocks([0], r, n, or_, (1).__lshift__, masks=False)
    projections = _colex_blocks([0], r, n, or_, lambda v: 1 << v % N, masks=False)
    keep = set(A.masks).union(p for p in set(projections) if p.bit_count() < r)
    B = UniformHypergraph._from_masks(
        n, r, itertools.compress(masks, map(keep.__contains__, projections))
    )
    report = BlowupReport(
        m=m,
        N=N,
        r=r,
        size=len(B),
        size_transversal_cap=m**r * len(A),
        # No two vertices share a part when N = 0 or C(m,2) = 0.
        size_degenerate_cap=N * binomial(m, 2) * binomial(n - 2, r - 2) if n >= 2 else 0,
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

    Each part is the block recurrence of combinatorics started from the
    ascending masks of its sets: S* extends each sampled D by r-k+R
    vertices above max D, all below n, and T* each unhit k-set Y by r-k
    vertices above max Y, all below n-R.  Both parts come out ascending,
    and one sort merges them.
    """
    bit = [1 << v for v in range(n)].__getitem__
    masks = []
    for sets, t, top in ((sampled, r - k + R, n), (unhit, r - k, n - R)):
        start = sorted(map(sum, map(map, itertools.repeat(bit), sets)))
        masks += _colex_blocks(start, t, top, or_, (1).__lshift__)
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
