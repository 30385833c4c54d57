"""Uniform hypergraph data model and the Turán covering verifier.

A Turán (n,s,r)-system is an r-graph on n vertices in which every s-subset
of the vertices contains at least one edge.  The verifier here decides that
property exhaustively, by finding the colex-least s-set that contains no
edge (a deterministic first witness), or by seeded uniform sampling for
large n.  A system is held as its sorted edge masks, which is all the
verifier reads; the edges as vertex tuples are built only when something
reads them.  Edges from outside (files, callers, the solver) come in
through one loader, the constructor, which checks vertices; the masks that
the package's constructions build come in through one mask entry,
UniformHypergraph._from_masks, which checks the same invariants on the
masks.

The exhaustive check takes one of two paths.  When the n vertex bitmaps
over the C(n,s) s-sets hold at most BITMAP_VERIFY_BITS (2^20) bits, it ORs
the edges' cover bitmaps, each the AND of its vertices' bitmaps
(combinatorics.cover_union, on the vertex bitmaps that the solver's and
the colourer's cover_masks is built on), so an edge costs about one AND
and one OR.  Above the limit those bitmaps would grow with C(n,s), up to
n * 10^9 bits at the exhaustive budget, so a depth-first search runs
there, reading an index of the edge masks by least vertex, built once per
system on first use.  Sampling looks r-subsets up in the sorted masks, or
reads the same index when a set has more r-subsets than the system has
edges.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, islice
from operator import lt
from typing import Iterable

from .combinatorics import (
    BudgetExceededError,
    JsonRecord,
    binomial,
    check_sizes,
    check_subset,
    cover_union,
    rank_colex,
    unrank_colex,
)

DEFAULT_EXHAUSTIVE_BUDGET = 10**9

# is_turan_system ORs cover bitmaps when its n vertex bitmaps of C(n,s) bits
# hold at most this many bits in all (2^20 bits, 128 KiB), and searches depth
# first above it.
BITMAP_VERIFY_BITS = 2**20


@dataclass(frozen=True, init=False)
class UniformHypergraph(JsonRecord):
    """An r-graph on vertex set {0, ..., n-1}, held as its edge bitmasks.

    The state is n, r and ``masks``, the distinct edge bitmasks in
    ascending order (the colex order of the edges), because mask inclusion
    and lookup are all that verification reads.  Equality and hash compare
    (n, r, masks), the same relation as comparing edge sets.  ``edges``,
    the same edges as increasing vertex tuples in colex order, is decoded
    from the masks on first read and kept, unless the loader was given
    such tuples.  Immutable.  The constructor is the one loader for outside
    edges; from_edges and from_json call it.  _from_masks is the one entry
    for masks built by the constructions, with the same invariants:
    r-uniform, in range, distinct and in colex order.
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
        sizes, types, range, repeats.

        Each check is one pass over all edges or all vertices in C-level
        maps and sets; the only Python loop runs over the distinct
        vertices, to build their bits.  No edge is sorted, and only an edge
        without a length is copied: the order of the vertices in an edge
        does not change its mask.  Edges given as increasing tuples, as the
        solver builds its witnesses, are kept as ``edges``, in colex order;
        from any other input ``edges`` is decoded on first read.
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
        vertices = list(chain.from_iterable(rows))
        types = set(map(type, vertices)) - {int}
        if types:
            names = sorted(t.__name__ for t in types)
            raise ValueError(f"vertices must be integers, got {', '.join(names)}")
        present = set(vertices)
        if present and not 0 <= min(present) <= max(present) < n:
            raise ValueError(
                f"vertices must lie in range({n}), got {min(present)} to {max(present)}"
            )
        # Bits only for the vertices that occur: a table over range(n) would
        # take O(n^2) bits even for a handful of edges.  zip over r
        # references to one iterator groups consecutive bits into edges.
        bit = {v: 1 << v for v in present}
        masks = list(map(sum, zip(*[map(bit.__getitem__, vertices)] * r)))
        if set(map(int.bit_count, masks)) - {r}:
            bad = next(e for e, m in zip(rows, masks) if m.bit_count() != r)
            raise ValueError(f"edge {tuple(sorted(bad))} repeats a vertex")
        # Among sets of one size, colex order is the numeric order of masks.
        if set(map(type, rows)) <= {tuple} and all(
            all(map(lt, vertices[i::r], vertices[i + 1::r])) for i in range(r - 1)
        ):
            # Increasing tuples, as the solver builds its witnesses, are the
            # edges already: they are put in colex order rather than decoded,
            # and kept as they are when they come in colex order.
            if all(map(lt, masks, islice(masks, 1, None))):
                edges = tuple(rows)
            else:
                by_mask = dict(zip(masks, rows))
                masks = sorted(by_mask)
                edges = tuple(map(by_mask.__getitem__, masks))
            self.__dict__["edges"] = edges
        else:
            # Sorted before the repeats go: a canonical file lists its edges
            # in colex order, which the sort passes in one run.
            masks = dict.fromkeys(sorted(masks))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "masks", tuple(masks))

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
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "r", r)
        object.__setattr__(H, "masks", masks)
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

    @cached_property
    def _masks_by_least_vertex(self) -> tuple[tuple[int, ...], ...]:
        """Edge masks grouped by least vertex, in ascending order.

        Built on first use and kept, so the loader never pays for it; the
        exhaustive search, contains_edge and sampling all read it.
        """
        by_least: list[list[int]] = [[] for _ in range(self.n)]
        for em in self.masks:
            by_least[(em & -em).bit_length() - 1].append(em)
        return tuple(map(tuple, by_least))

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
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return UniformHypergraph.from_json_dict(obj)


def _mask(elements: tuple[int, ...]) -> int:
    m = 0
    for v in elements:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class VerifyReport(JsonRecord):
    """Outcome of a Turán-system check."""

    is_turan: bool
    witness: tuple[int, ...] | None
    sets_checked: int
    mode: str  # "exhaustive" | "sampled"
    s: int
    trials: int | None = None
    seed: int | None = None


def contains_edge(H: UniformHypergraph, S: tuple[int, ...]) -> bool:
    """True iff some edge of H is a subset of S (bitmask inclusion).

    Only edges whose least vertex lies in S can be inside it.
    """
    S = tuple(S)
    check_subset(S, H.n)
    if len(S) < H.r:
        raise ValueError(f"set of size {len(S)} cannot contain an {H.r}-edge")
    return _covered(H._masks_by_least_vertex, S)


def _covered(by_least: tuple[tuple[int, ...], ...], S: tuple[int, ...]) -> bool:
    """True iff an indexed edge lies inside the increasing vertex tuple S."""
    m = _mask(S)
    return any(em & m == em for v in S for em in by_least[v])


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
    depth-first search finds it: the bitmaps would grow with C(n,s), up to
    10^9 bits each at the default budget, and the search holds only the
    set it is building.
    """
    check_sizes(H.n, s, H.r)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    total = binomial(H.n, s)
    if total > budget:
        raise BudgetExceededError(
            f"C({H.n},{s}) = {total} exceeds exhaustive budget {budget}; "
            "use sample_verify instead"
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
    """The colex-least s-set that contains no edge of H, or None, by
    depth-first search.

    The search chooses the largest vertex first and tries each vertex in
    ascending order, so the first set found is the colex-least one.  A
    vertex v added below every vertex chosen so far can only complete an
    edge whose least vertex is v, so a partial set is pruned as soon as
    one of those edges lies inside it.
    """
    by_least = H._masks_by_least_vertex
    # Depth d holds the d largest vertices chosen so far: chosen[d-1] is the
    # smallest of them and union[d] their mask.  candidate[d] is the next
    # vertex to try at depth d; it leaves room for s-1-d vertices below it.
    # Vertex s-1-d leaves exactly that room, so it forces the tail
    # {0,...,s-1-d}, which contains the colex-least edge once it reaches
    # that edge's top vertex: depth d then starts one vertex higher.
    top = H.masks[0].bit_length() - 1 if H.masks else H.n
    first = [s - 1 - d + (s - 1 - d >= top) for d in range(s)]
    chosen = [0] * s
    union = [0] * (s + 1)
    candidate = [0] * s
    candidate[0] = first[0]
    d = 0
    while True:
        v = candidate[d]
        if v >= (chosen[d - 1] if d else H.n):
            if d == 0:
                return None
            d -= 1
            candidate[d] += 1
            continue
        m = union[d] | (1 << v)
        for em in by_least[v]:
            if em & m == em:
                candidate[d] = v + 1
                break
        else:
            chosen[d] = v
            if d == s - 1:
                return tuple(reversed(chosen))
            d += 1
            union[d] = m
            candidate[d] = first[d]


def sample_verify(
    H: UniformHypergraph, s: int, trials: int, seed: int
) -> VerifyReport:
    """Monte Carlo screen: uniform s-sets via unranking of uniform ranks."""
    check_sizes(H.n, s, H.r)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = binomial(H.n, s)
    # Look up the C(s,r) r-subsets of each sampled set by bisection in the
    # sorted masks where there are no more of them than edges; otherwise
    # test only the edges whose least vertex is in the set.
    masks = H.masks
    if binomial(s, H.r) <= len(masks):

        def covered(S: tuple[int, ...]) -> bool:
            for sub in combinations([1 << v for v in S], H.r):
                m = sum(sub)
                i = bisect_left(masks, m)
                if i < len(masks) and masks[i] == m:
                    return True
            return False

    else:
        covered = partial(_covered, H._masks_by_least_vertex)

    rng = random.Random(seed)
    for t in range(trials):
        S = unrank_colex(rng.randrange(total), s, H.n)
        if not covered(S):
            return VerifyReport(False, S, t + 1, "sampled", s, trials=trials, seed=seed)
    return VerifyReport(True, None, trials, "sampled", s, trials=trials, seed=seed)


def density(H: UniformHypergraph) -> tuple[int, int, float]:
    """Edge density |H| / C(n,r) as an exact pair and as a float."""
    denom = binomial(H.n, H.r)
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
