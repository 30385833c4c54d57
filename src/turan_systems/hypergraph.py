"""Uniform hypergraph data model and the Turán covering verifier.

A Turán (n,s,r)-system is an r-graph on n vertices in which every s-subset
of the vertices contains at least one edge.  The verifier here decides that
property exhaustively, by one depth-first search for the colex-least s-set
that contains no edge (a deterministic first witness), or by seeded uniform
sampling for large n.  The search indexes the edge masks by least vertex
once per call; sampling looks r-subsets up in the sorted masks.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .combinatorics import (
    binomial,
    check_subset,
    rank_colex,
    unrank_colex,
)

DEFAULT_EXHAUSTIVE_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive pass would exceed the configured budget."""


@dataclass(frozen=True)
class UniformHypergraph:
    """An r-graph on vertex set {0, ..., n-1}; edges kept in colex order.

    Immutable after construction; edge bitmasks are precomputed, in
    ascending order (the colex order of the edges), because mask inclusion
    and lookup are the hot paths of verification.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(repr=False, compare=False, default=())

    @staticmethod
    def from_edges(
        n: int, r: int, edges: Iterable[Iterable[int]]
    ) -> "UniformHypergraph":
        if n < 0 or r < 1:
            raise ValueError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
        normalized = {tuple(sorted(e)) for e in edges}
        for e in normalized:
            check_subset(e, n, r)
        # Among sets of one size, colex order is the numeric order of masks.
        by_mask = {_mask(e): e for e in normalized}
        masks = tuple(sorted(by_mask))
        return UniformHypergraph(
            n=n, r=r, edges=tuple(by_mask[m] for m in masks), masks=masks
        )

    def __len__(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    # --- serialization (canonical formats) ---

    def to_json_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict) -> "UniformHypergraph":
        return UniformHypergraph.from_edges(int(obj["n"]), int(obj["r"]), obj["edges"])

    @staticmethod
    def from_json(text: str) -> "UniformHypergraph":
        return UniformHypergraph.from_json_dict(json.loads(text))

    def to_text(self) -> str:
        """Plain-text format: one edge per line, ascending vertices."""
        return "".join(" ".join(str(v) for v in e) + "\n" for e in self.edges)

    @staticmethod
    def from_text(text: str, n: int, r: int) -> "UniformHypergraph":
        edges = [
            tuple(int(tok) for tok in line.split())
            for line in text.splitlines()
            if line.strip()
        ]
        return UniformHypergraph.from_edges(n, r, edges)


def _mask(elements: tuple[int, ...]) -> int:
    m = 0
    for v in elements:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a Turán-system check."""

    is_turan: bool
    witness: tuple[int, ...] | None
    sets_checked: int
    mode: str  # "exhaustive" | "sampled"
    s: int
    trials: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "is_turan": self.is_turan,
            "witness": list(self.witness) if self.witness is not None else None,
            "sets_checked": self.sets_checked,
            "mode": self.mode,
            "s": self.s,
            "trials": self.trials,
            "seed": self.seed,
        }


def contains_edge(H: UniformHypergraph, S: tuple[int, ...]) -> bool:
    """True iff some edge of H is a subset of S (bitmask inclusion)."""
    check_subset(tuple(S), H.n)
    if len(S) < H.r:
        raise ValueError(f"set of size {len(S)} cannot contain an {H.r}-edge")
    smask = _mask(tuple(S))
    for em in H.masks:
        if em & smask == em:
            return True
    return False


def _edges_by_least_vertex(H: UniformHypergraph) -> list[list[int]]:
    """Edge masks grouped by their least vertex."""
    by_least: list[list[int]] = [[] for _ in range(H.n)]
    for em in H.masks:
        by_least[(em & -em).bit_length() - 1].append(em)
    return by_least


def is_turan_system(
    H: UniformHypergraph, s: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET
) -> VerifyReport:
    """Exhaustively decide whether H is a Turán (n,s,r)-system.

    Searches depth first for an s-set that contains no edge, choosing the
    largest vertex first and trying each vertex in ascending order, so the
    first set found, the witness, is the colex-least uncovered s-set and
    failure reports are reproducible.  A vertex v added below every vertex
    chosen so far can only complete an edge whose least vertex is v, so a
    partial set is pruned as soon as one of those edges lies inside it.
    ``sets_checked`` is the number of s-sets up to and including the
    witness in colex order, or C(n,s) when there is none.
    """
    if not (H.r < s <= H.n):
        raise ValueError(f"need r < s <= n, got r={H.r}, s={s}, n={H.n}")
    total = binomial(H.n, s)
    if total > budget:
        raise BudgetExceededError(
            f"C({H.n},{s}) = {total} exceeds exhaustive budget {budget}; "
            "use sample_verify instead"
        )
    by_least = _edges_by_least_vertex(H)
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
                return VerifyReport(True, None, total, "exhaustive", s)
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
                witness = tuple(reversed(chosen))
                return VerifyReport(
                    False, witness, rank_colex(witness) + 1, "exhaustive", s
                )
            d += 1
            union[d] = m
            candidate[d] = first[d]


def sample_verify(
    H: UniformHypergraph, s: int, trials: int, seed: int
) -> VerifyReport:
    """Monte Carlo screen: uniform s-sets via unranking of uniform ranks."""
    if not (H.r < s <= H.n):
        raise ValueError(f"need r < s <= n, got r={H.r}, s={s}, n={H.n}")
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
        by_least = _edges_by_least_vertex(H)

        def covered(S: tuple[int, ...]) -> bool:
            m = _mask(S)
            return any(em & m == em for v in S for em in by_least[v])

    rng = random.Random(seed)
    for t in range(trials):
        S = unrank_colex(rng.randrange(total), s, H.n)
        if not covered(S):
            return VerifyReport(False, S, t + 1, "sampled", s, trials=trials, seed=seed)
    return VerifyReport(True, None, trials, "sampled", s, trials=trials, seed=seed)


def density(H: UniformHypergraph) -> tuple[int, int, float]:
    """Edge density |H| / C(n,r) as an exact pair and as a float."""
    denom = binomial(H.n, H.r)
    return len(H.edges), denom, len(H.edges) / denom


def verify_report_sound(H: UniformHypergraph, report: VerifyReport) -> bool:
    """Soundness gate: a present witness must really be uncovered."""
    if report.witness is None:
        return True
    return not contains_edge(H, report.witness)


__all__ = [
    "BudgetExceededError",
    "UniformHypergraph",
    "VerifyReport",
    "contains_edge",
    "density",
    "is_turan_system",
    "sample_verify",
    "verify_report_sound",
    "DEFAULT_EXHAUSTIVE_BUDGET",
]
