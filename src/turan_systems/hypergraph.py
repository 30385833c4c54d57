"""Uniform hypergraph data model and the Turán covering verifier.

A Turán (n,s,r)-system is an r-graph on n vertices in which every s-subset
of the vertices contains at least one edge.  The verifier here decides that
property exhaustively, by finding the colex-least s-set that contains no
edge (a deterministic first witness), or by seeded uniform sampling for
large n.  A system is held as its sorted edge masks, which is all the
verifier reads; the edges as vertex tuples are decoded only when something
reads them.  Edges from outside (files, callers, the solver's cache) come
in through one loader, the constructor, which checks vertices, then masks,
sorts and drops repeats; the masks that the package's constructions and
the solver build come in through one mask entry,
UniformHypergraph._from_masks, which checks the same invariants on the
masks.  Both end in the same step.

The loader holds nothing beside its input but the masks: its type and
mask passes stream the vertices out of the rows, and it drops repeats by
comparing neighbours of the sorted mask list, with no dict of masks, so it
peaks near 60 bytes per edge above the rows, 40 of them kept.  It checks
each vertex against the range and its two size limits (see MASK_BITS_MAX)
when it first builds that vertex's bit, and so before the bit; it scans
all vertices again only when one fails, to word the refusal.  from_json
pauses the cyclic garbage collector while it parses and loads: the parsed
JSON holds no cycles, and collections would traverse its lists again and
again.

The exhaustive check takes one of two paths.  When the n vertex bitmaps
over the C(n,s) s-sets hold at most BITMAP_VERIFY_BITS (2^20) bits, it ORs
the edges' cover bitmaps, each the AND of its vertices' bitmaps
(combinatorics.cover_union, on the vertex bitmaps that the solver's and
the colourer's cover_masks is built on), so an edge costs about one AND
and one OR.  Above the limit those bitmaps would grow with C(n,s), up to
n * 10^9 bits at the exhaustive budget, so a depth-first search runs
there over the partial s-sets that contain no edge: it indexes each edge
by its down-link, the edge minus its least vertex, once per call, and
carries the bitmap of vertices that would complete an edge.  One
covered-set test serves contains_edge and sampling: it looks r-subsets up
in the sorted masks, or scans all masks when a set has more r-subsets than
the system has edges.  A system holds nothing besides n, r and its masks
(and its edges, once read).
"""

from __future__ import annotations

import gc
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, compress, islice, repeat
from operator import and_, lt, ne, or_
from typing import Iterable

from .combinatorics import (
    COVER_BITS_BUDGET,
    DEFAULT_MATERIALIZE_BUDGET,
    BudgetExceededError,
    JsonRecord,
    binomial,
    check_sizes,
    check_subset,
    cover_union,
    log_binomial,
    rank_colex,
    unrank_colex,
)

DEFAULT_EXHAUSTIVE_BUDGET = 10**9

# is_turan_system ORs cover bitmaps when its n vertex bitmaps of C(n,s) bits
# hold at most this many bits in all (2^20 bits, 128 KiB), and searches depth
# first above it.
BITMAP_VERIFY_BITS = 2**20

# The loader refuses a vertex at or above this many bits (a 625 KB mask), and
# |E| edges up to vertex h when |E| * (h + 1) > COVER_BITS_BUDGET, before the
# vertex's bit.
# Each construction's [m] passes refuse_beyond_budget, so m is below this
# and C(m, r) * m within COVER_BITS_BUDGET: every system they write loads.
MASK_BITS_MAX = DEFAULT_MATERIALIZE_BUDGET

# Sampled reports bound the uncovered share of s-sets at confidence 1 - delta.
SAMPLE_DELTA = 1e-3


class _VertexBits(dict):
    """The loader's vertex bits: v -> 1 << v, each built on the first lookup
    of v once v passes the range and size limits.

    A failing vertex fails one of the limits over all rows, so the refusal
    scans the rows for their least and largest vertices and raises the first
    message of the checks over all rows, in their order: range, mask limit,
    bit budget.  No bit is built for a vertex before it passes.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list) -> None:
        super().__init__()
        self.n = n
        self.rows = rows

    def __missing__(self, v: int) -> int:
        n, rows = self.n, self.rows
        if not 0 <= v < min(n, MASK_BITS_MAX) or len(rows) * (v + 1) > COVER_BITS_BUDGET:
            low, high = min(chain.from_iterable(rows)), max(chain.from_iterable(rows))
            if not 0 <= low <= high < n:
                raise ValueError(f"vertices must lie in range({n}), got {low} to {high}")
            if high >= MASK_BITS_MAX:
                raise ValueError(
                    f"vertices must lie below the mask limit {MASK_BITS_MAX}, got {high}"
                )
            raise ValueError(f"{len(rows)} masks of {high + 1} bits exceed the bit budget")
        bit = self[v] = 1 << v
        return bit


@dataclass(frozen=True, init=False)
class UniformHypergraph(JsonRecord):
    """An r-graph on vertex set {0, ..., n-1}, held as its edge bitmasks.

    The state is n, r and ``masks``, the distinct edge bitmasks in
    ascending order (the colex order of the edges), because mask inclusion
    and lookup are all that verification reads.  Equality and hash compare
    (n, r, masks), the same relation as comparing edge sets.  ``edges``,
    the same edges as increasing vertex tuples in colex order, is always
    decoded from the masks on first read and kept.  Immutable.  The
    constructor is the one loader for outside edges; from_edges and
    from_json call it.  _from_masks is the one entry for masks built by the
    constructions and the solver, with the same invariants: r-uniform, in
    range, distinct and in colex order.
    """

    n: int
    r: int
    masks: tuple[int, ...]

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]]) -> None:
        """Check the edges and store their masks: this is the one loader.

        n and r are ints with n >= 0 and r >= 1.  Each edge is an iterable
        of r distinct int vertices in range(n), in any order; bools and
        other non-int vertices are rejected.  Repeated edges collapse into
        one.  Any violation raises ValueError; the checks run in the order
        sizes, types, range, repeats.  After the range, the size limits of
        MASK_BITS_MAX and COVER_BITS_BUDGET refuse before any bit is built
        for a vertex beyond them.

        Each check is one pass over all edges or all vertices in C-level
        maps and sets.  The range and both size limits are checked on each
        vertex when its bit is first built, in the one Python call per
        distinct vertex; all vertices are scanned again only on a failing
        vertex, for the least and largest vertex of the message, which is
        the one the checks over all rows give.  The type and mask passes
        each stream the vertices out of the rows, so no flat vertex list
        is built.  No edge is sorted, and only an edge without a length is
        copied: the order of the vertices in an edge does not change its
        mask.  The mask list is sorted in place and its repeats, now
        neighbours, dropped by comparing each mask with its predecessor, so
        loading holds the rows, the mask list and the kept tuple, and no
        dict: about 60 bytes per edge at its peak above the rows, of which
        the kept masks are 40 (an int below 2^60 and its tuple slot).
        ``edges`` is decoded from the masks on first read, whatever the
        input's form.
        """
        if type(n) is not int or type(r) is not int:
            raise ValueError(f"n and r must be integers, got n={n!r}, r={r!r}")
        if n < 0 or r < 1:
            raise ValueError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
        try:
            rows = list(edges)
            try:
                sizes = set(map(len, rows))
            except TypeError:
                # Edges without a length, such as generators, are read once.
                rows = list(map(tuple, rows))
                sizes = set(map(len, rows))
        except TypeError as exc:
            raise ValueError(f"edges must be iterables of vertices: {exc}") from None
        if sizes - {r}:
            raise ValueError(f"every edge needs {r} vertices, got sizes {sorted(sizes)}")
        # Each pass streams the vertices afresh: a flat list of all r * |E|
        # of them would be the loader's largest object.
        types = set(map(type, chain.from_iterable(rows))) - {int}
        if types:
            names = sorted(t.__name__ for t in types)
            raise ValueError(f"vertices must be integers, got {', '.join(names)}")
        # Bits only for the vertices that occur, each checked as its bit is
        # first built: a table over range(n) would take O(n^2) bits even for
        # a handful of edges.  zip over r references to one iterator groups
        # consecutive bits into edges.
        bit = _VertexBits(n, rows)
        masks = list(map(sum, zip(*[map(bit.__getitem__, chain.from_iterable(rows))] * r)))
        if set(map(int.bit_count, masks)) - {r}:
            bad = next(e for e, m in zip(rows, masks) if m.bit_count() != r)
            raise ValueError(f"edge {tuple(sorted(bad))} repeats a vertex")
        # Among sets of one size, colex order is the numeric order of masks.
        # Sorted in place (a canonical file lists its edges in colex order,
        # which the sort passes in one run), then a mask is kept where it
        # differs from its sorted predecessor: equal masks are neighbours.
        masks.sort()
        kept = chain((True,), map(ne, islice(masks, 1, None), masks))
        self._set_state(n, r, tuple(compress(masks, kept)))

    def _set_state(self, n: int, r: int, masks: tuple[int, ...]) -> None:
        """The last step of both entries: store n, r and the checked masks."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "masks", masks)

    @staticmethod
    def _from_masks(n: int, r: int, masks: Iterable[int]) -> "UniformHypergraph":
        """The r-graph on {0, ..., n-1} with the given edge masks: the entry
        for edges that the package's constructions build as masks.

        n and r are as the loader takes them.  The masks must be ints in
        strictly ascending order, hence distinct and in colex order, each
        with r bits and below 2^n: the loader's invariants, checked on the
        masks in C-level passes.  Any violation raises ValueError.
        ``edges`` is decoded on first read.
        """
        masks = tuple(masks)
        if type(n) is not int or type(r) is not int or n < 0 or r < 1:
            raise ValueError(f"need integers n >= 0 and r >= 1, got n={n!r}, r={r!r}")
        types = set(map(type, masks)) - {int}
        if types:
            names = sorted(t.__name__ for t in types)
            raise ValueError(f"edge masks must be integers, got {', '.join(names)}")
        if not all(map(lt, masks, islice(masks, 1, None))):
            raise ValueError("edge masks must be strictly ascending")
        if set(map(int.bit_count, masks)) - {r}:
            raise ValueError(f"every edge mask needs {r} bits")
        if masks and (masks[0] < 0 or masks[-1].bit_length() > n):
            raise ValueError(f"edge masks must lie below 2^{n}")
        H = object.__new__(UniformHypergraph)
        H._set_state(n, r, masks)
        return H

    @staticmethod
    def from_edges(
        n: int, r: int, edges: Iterable[Iterable[int]]
    ) -> "UniformHypergraph":
        """The r-graph on {0, ..., n-1} with the given edges."""
        return UniformHypergraph(n, r, edges)

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as increasing vertex tuples in colex order, decoded
        from the masks on first read and kept; verification never reads
        them."""
        edges = []
        for m in self.masks:
            edge = []
            while m:
                low = m & -m
                edge.append(low.bit_length() - 1)
                m ^= low
            edges.append(tuple(edge))
        return tuple(edges)

    # --- serialization (canonical JSON) ---

    def to_json_dict(self) -> dict:
        # By hand: one list per edge, with no per-field dispatch, is the fast
        # path for systems of millions of edges.
        return {"n": self.n, "r": self.r, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(obj: object) -> "UniformHypergraph":
        if not isinstance(obj, dict):
            raise ValueError(f"a system must be a JSON object, got {type(obj).__name__}")
        missing = {"n", "r", "edges"} - obj.keys()
        if missing:
            raise ValueError(f"a system needs the keys {sorted(missing)}")
        return UniformHypergraph.from_edges(obj["n"], obj["r"], obj["edges"])

    @staticmethod
    def from_json(text: str) -> "UniformHypergraph":
        """The system in JSON text, through the one loader.

        The cyclic garbage collector is paused while the text is parsed and
        loaded, and left enabled or disabled as it was found.  Parsed JSON
        holds no reference cycles, yet its one list per edge would trigger
        collections that traverse every list made so far.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                obj = json.loads(text)
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
            return UniformHypergraph.from_json_dict(obj)
        finally:
            if enabled:
                gc.enable()


@dataclass(frozen=True)
class VerifyReport(JsonRecord):
    """Outcome of a Turán-system check.

    An exhaustive report decides the property.  A sampled report that
    finds an uncovered s-set decides it too (is_turan False, with that
    witness); one that finds none shows only that no counterexample was
    found.  It then carries ``delta``, SAMPLE_DELTA, and
    ``uncovered_share_bound``, -expm1(ln delta / trials): with that many
    uniform trials all covered, the share of uncovered s-sets is below the
    bound at confidence 1 - delta.  Both are None on every other report.
    """

    is_turan: bool
    witness: tuple[int, ...] | None
    sets_checked: int
    mode: str  # "exhaustive" | "sampled"
    s: int
    trials: int | None = None
    seed: int | None = None
    delta: float | None = None
    uncovered_share_bound: float | None = None


def contains_edge(H: UniformHypergraph, S: tuple[int, ...]) -> bool:
    """True iff some edge of H is a subset of S (bitmask inclusion)."""
    S = tuple(S)
    check_subset(S, H.n)
    if len(S) < H.r:
        raise ValueError(f"set of size {len(S)} cannot contain an {H.r}-edge")
    return _covered(H, S)


def _covered(H: UniformHypergraph, S: tuple[int, ...]) -> bool:
    """True iff some edge of H lies inside the vertex set S.

    Where S has no more r-subsets than H has edges, each r-subset is looked
    up by bisection in the sorted masks; otherwise every edge mask is
    tested for inclusion in S, in one C-level scan.  A vertex of S above
    every edge lies in none, so its bit, which may not fit in memory at
    huge n, is never built.
    """
    masks = H.masks
    top = masks[-1].bit_length() if masks else 0
    bits = [1 << v for v in S if v < top]
    if binomial(len(S), H.r) <= len(masks):
        for sub in combinations(bits, H.r):
            m = sum(sub)
            i = bisect_left(masks, m)
            if i < len(masks) and masks[i] == m:
                return True
        return False
    m = sum(bits)
    return not all(map(ne, map(and_, repeat(m), masks), masks))


def _refuse_long_sets(s: int) -> None:
    """BudgetExceededError, before any work, when an s-set, a tuple of s
    vertices, would exceed DEFAULT_MATERIALIZE_BUDGET."""
    if s > DEFAULT_MATERIALIZE_BUDGET:
        raise BudgetExceededError(
            f"s = {s} exceeds materialization budget {DEFAULT_MATERIALIZE_BUDGET}"
        )


def is_turan_system(
    H: UniformHypergraph, s: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET
) -> VerifyReport:
    """Exhaustively decide whether H is a Turán (n,s,r)-system.

    The witness is the colex-least uncovered s-set, so failure reports are
    reproducible, and ``sets_checked`` is the number of s-sets up to and
    including it in colex order, or C(n,s) when there is none.

    When the n vertex bitmaps over the C(n,s) s-sets fit in
    BITMAP_VERIFY_BITS (2^20 bits), the edges' cover bitmaps are ORed
    (combinatorics.cover_union) and the witness is the s-set whose colex
    rank is the lowest zero bit of the union.  Above that limit a
    depth-first search over the partial s-sets that contain no edge finds
    it (_least_uncovered): the bitmaps would grow with C(n,s), up to 10^9
    bits each at the default budget, while the search holds the edges'
    down-link index and, per depth, the set it is building with its
    forbidden vertices.
    """
    check_sizes(H.n, s, H.r)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _refuse_long_sets(s)
    # ln C(n,s) errs by far less than 1, so a count beyond e times the budget
    # is refused without the exact C(n,s), which can take seconds to compute
    # and has too many digits to print; nearer the budget, C(n,s) decides.
    if (
        budget < 1
        or log_binomial(H.n, s) > math.log(budget) + 1
        or (total := binomial(H.n, s)) > budget
    ):
        raise BudgetExceededError(
            f"C({H.n},{s}) exceeds exhaustive budget {budget}; use sample_verify instead"
        )
    if H.n * total <= BITMAP_VERIFY_BITS:
        union = cover_union(H.n, s, H.masks)
        # The lowest zero bit of the union is the colex rank of the least
        # uncovered s-set, or C(n,s) when every s-set is covered.
        i = (~union & (union + 1)).bit_length() - 1
        witness = unrank_colex(i, s, H.n) if i < total else None
    else:
        witness = _least_uncovered(H, s)
    if witness is None:
        return VerifyReport(True, None, total, "exhaustive", s)
    return VerifyReport(False, witness, rank_colex(witness) + 1, "exhaustive", s)


def _least_uncovered(H: UniformHypergraph, s: int) -> tuple[int, ...] | None:
    """The colex-least s-set that contains no edge of H, or None, by a
    depth-first search over independent partial sets.

    Each edge e is indexed by its down-link q, e minus its least vertex w:
    down[q] is the bitmap of those w.  The largest vertex is chosen first
    and each depth tries, in ascending order, its unforbidden vertices with
    enough unforbidden below, so the first set completed is colex-least.
    Adding v below a partial set P forbids down[q] for each q in P | v
    headed by v, by scanning those q or looking up v plus each (r-2)-subset
    of P, whichever is fewer.  A depth skips its first candidate, which
    takes every unforbidden vertex below, when they hold the least edge.
    """
    down: dict[int, int] = {}
    for e in H.masks:
        w = e & -e
        down[e ^ w] = down.get(e ^ w, 0) | w
    heads: dict[int, list[tuple[int, int]]] = {}  # v -> (q, down[q]), v least in q
    for q, w in down.items():
        heads.setdefault((q & -q).bit_length() - 1, []).append((q, w))
    linked, least = reduce(or_, down, 0), H.masks[0] if H.masks else 0
    top = least.bit_length() or H.n + 1  # past the least edge, or past [n] with none
    # Per depth: its vertex, forbidden bitmap and chosen vertices in down-links.
    vertex, forbidden, inside, stack = [0] * s, [0] * s, [0] * s, [0] * s
    d, f, m = 0, down.get(0, 0), 0
    while True:
        # t, from past f's lowest run, is raised until k unforbidden lie below it
        k, b, t = s - d, f.bit_count(), s - d - 1 + (f ^ f + 1).bit_length()
        while (c := t - b + (f >> t).bit_count()) < k + (t >= top and not least & f):
            t += k - c or 1
        vertex[d], forbidden[d], inside[d] = t - 1, f, m
        while vertex[d] >= (vertex[d - 1] if d else H.n):
            if (d := d - 1) < 0:
                return None
            y = forbidden[d] >> vertex[d] + 1  # to the next unforbidden vertex
            vertex[d] += (y ^ (y + 1)).bit_length()
        if d == s - 1:
            return tuple(reversed(vertex))
        u, f, m = vertex[d], forbidden[d], inside[d]
        if linked >> u & 1:
            stack[p := m.bit_count()], m = 1 << u, m | 1 << u
            if (g := heads.get(u, ())) and math.comb(p, H.r - 2) < len(g):
                keys = [sum(Q, 1 << u) for Q in combinations(stack[:p], H.r - 2)]
                f |= reduce(or_, map(down.get, keys, repeat(0)), 0)
            else:
                f |= reduce(or_, [w for q, w in g if q | m == m], 0)
        d += 1


def sample_verify(
    H: UniformHypergraph, s: int, trials: int, seed: int
) -> VerifyReport:
    """Monte Carlo screen: uniform s-sets via unranking of uniform ranks.

    A clean run reports is_turan True with the bound on the uncovered
    share described in VerifyReport; it proves nothing.  The rank draw
    needs C(n,s) exactly, which is computed first, before any set is
    drawn, and can itself take a while: 1.1 to 1.6 s at n = 10^9,
    s = 10^5 (2 vCPUs, Python 3.11.7).
    """
    check_sizes(H.n, s, H.r)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _refuse_long_sets(s)
    total = binomial(H.n, s)
    rng = random.Random(seed)
    for t in range(trials):
        S = unrank_colex(rng.randrange(total), s, H.n)
        if not _covered(H, S):
            return VerifyReport(False, S, t + 1, "sampled", s, trials=trials, seed=seed)
    return VerifyReport(
        True, None, trials, "sampled", s, trials=trials, seed=seed,
        delta=SAMPLE_DELTA, uncovered_share_bound=-math.expm1(math.log(SAMPLE_DELTA) / trials),
    )


def density(H: UniformHypergraph) -> tuple[int, int, float]:
    """Edge density |H| / C(n,r) as an exact pair and as a float.

    Raises ValueError when C(n,r) = 0 (n < r), where no density exists.
    """
    denom = binomial(H.n, H.r)
    if denom == 0:
        raise ValueError(f"density needs C(n,r) > 0, got n={H.n}, r={H.r}")
    return len(H), denom, len(H) / denom


__all__ = [
    "BudgetExceededError",
    "UniformHypergraph",
    "VerifyReport",
    "contains_edge",
    "density",
    "is_turan_system",
    "sample_verify",
    "DEFAULT_EXHAUSTIVE_BUDGET",
]
