"""Ground-truth oracle: exact T(n,s,r) at desk scale.

Minimum Turán systems are minimum set covers: the C(n,s) s-sets must each
be covered by some r-set inside them.  The solver branches on the
colex-least uncovered s-set, which keeps node counts and witnesses
deterministic, and cross-checks r = 2 against the Turán graph.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass

from .combinatorics import binomial, enumerate_subsets
from .hypergraph import UniformHypergraph, is_turan_system

DEFAULT_NODE_BUDGET = 50_000_000
CACHE_ENV_VAR = "TURAN_CACHE"


@dataclass
class SolveResult:
    n: int
    s: int
    r: int
    optimum: int
    witness: UniformHypergraph
    nodes_explored: int
    proven_optimal: bool
    budget_exhausted: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "r": self.r,
            "optimum": self.optimum,
            "witness": self.witness.to_json_dict(),
            "nodes_explored": self.nodes_explored,
            "proven_optimal": self.proven_optimal,
            "budget_exhausted": self.budget_exhausted,
        }


def turan_r2_value(n: int, s: int) -> int:
    """T(n,s,2) from Turán's theorem.

    The complement of a minimum system is a maximum K_s-free graph, i.e. the
    balanced complete (s-1)-partite graph, so T(n,s,2) is the number of
    within-part pairs of the balanced partition of [n] into s-1 parts.
    """
    if not (2 < s <= n):
        raise ValueError(f"need 2 < s <= n, got s={s}, n={n}")
    parts = s - 1
    q, rem = divmod(n, parts)
    return rem * binomial(q + 1, 2) + (parts - rem) * binomial(q, 2)


def _prefix_edges(n: int, s: int, r: int) -> list[tuple[int, ...]]:
    return list(enumerate_subsets(n - (s - r), r))


def solve_min_turan(
    n: int, s: int, r: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact T(n,s,r) by branch-and-bound over covering r-sets.

    Intended for desk scale (roughly n <= 9 for r = 2, n <= 8 for r >= 3).
    Branches on the colex-least uncovered s-set with one child per r-subset
    of it; prunes a node with d edges when d + ceil(uncovered / C(n-r, s-r))
    reaches the incumbent.  That bound is kept as one threshold per depth:
    a child of a node with d - 1 edges survives only if it covers at least
    C(n,s) - (best - d - 1) * C(n-r, s-r) s-sets, so each node costs one OR
    and one popcount.  At the root, the branch is fixed to the single edge
    {0,...,r-1}, which is safe because the root subproblem is invariant
    under all vertex relabelings.  The search keeps its own stack, so a
    deep search ends at the node budget, not at the interpreter's
    recursion limit.
    """
    if not (r < s <= n):
        raise ValueError(f"need r < s <= n, got r={r}, s={s}, n={n}")

    s_sets = list(enumerate_subsets(n, s))
    r_rank: dict[tuple[int, ...], int] = {}
    r_sets: list[tuple[int, ...]] = []
    for e in enumerate_subsets(n, r):
        r_rank[e] = len(r_sets)
        r_sets.append(e)

    num_s = len(s_sets)
    positions = list(enumerate_subsets(s, r))
    # cover_mask[j]: bitmap over s-set indices covered by r-set j.  Each is
    # filled a byte at a time, so setup is linear in its output, and turned
    # into an int in place, so the bytes and the ints never all coexist.
    cover_mask: list = [bytearray(num_s // 8 + 1) for _ in r_sets]
    # children[i]: r-set indices inside s-set i, in colex order.
    children: list[list[int]] = []
    for i, S in enumerate(s_sets):
        # positions index into S; translate them to r-sets.
        subs = [r_rank[tuple(map(S.__getitem__, pos))] for pos in positions]
        children.append(subs)
        byte, bit = i >> 3, 1 << (i & 7)
        for j in subs:
            cover_mask[j][byte] |= bit
    for j, bits in enumerate(cover_mask):
        cover_mask[j] = int.from_bytes(bits, "little")
    per_edge = binomial(n - r, s - r)

    incumbent = _prefix_edges(n, s, r)
    incumbent_idx = [r_rank[e] for e in incumbent]
    best = len(incumbent)
    nodes = 0
    exhausted = False

    # Depth-first search with an explicit stack, so depth is not limited by
    # the interpreter's recursion limit.  stack[d] is an open node with d - 1
    # edges: its covered set, the iterator over its remaining children, which
    # have d edges, and the r-set that opened it.  A child that needs no
    # branching is finished inside the loop over its siblings.  The bottom
    # frame's one child is the root, via the r-set `none`, whose mask is
    # empty; the edges on the current path open stack[2:].
    #
    # A child at depth d survives only if it covers at least
    # need = num_s - (best - d - 1) * per_edge s-sets, the same test as
    # d + ceil(uncovered / per_edge) < best.  need moves by per_edge with
    # each push and pop and is reset when best falls; a child that covers
    # everything then only passes it if d < best.
    none = len(r_sets)
    cover_mask.append(0)
    root_branch = [r_rank[tuple(range(r))]]
    stack = [(0, iter([none]), none)]
    need = num_s - (best - 1) * per_edge
    while stack:
        base, rest, _ = stack[-1]
        for j in rest:
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                stack.clear()
                break
            covered = base | cover_mask[j]
            count = covered.bit_count()
            if count < need:
                continue
            if count == num_s:
                best = len(stack) - 1
                incumbent_idx = [frame[2] for frame in stack[2:]] + [j]
                need = num_s + per_edge
                continue
            # colex-least uncovered s-set: the lowest zero bit of covered.
            # Only the root's covered set is empty.
            i = (covered ^ (covered + 1)).bit_length() - 1
            stack.append((covered, iter(children[i] if covered else root_branch), j))
            need += per_edge
            break
        else:
            stack.pop()
            need -= per_edge

    witness = UniformHypergraph.from_edges(n, r, [r_sets[j] for j in incumbent_idx])
    return SolveResult(
        n=n,
        s=s,
        r=r,
        optimum=best,
        witness=witness,
        nodes_explored=nodes,
        proven_optimal=not exhausted,
        budget_exhausted=exhausted,
    )


class ValueCache:
    """JSON-backed cache of proven SolveResults keyed by (n,s,r).

    Entries are never trusted blindly: hits re-verify the stored witness
    exhaustively before reuse, so a tampered or stale file degrades to a
    cache miss.
    """

    def __init__(self, path: str | None = None):
        self.path = path or os.environ.get(CACHE_ENV_VAR) or os.path.join(
            os.path.expanduser("~"), ".turan_cache.json"
        )
        self._data: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("cache root must be an object")
            self._data = data
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            warnings.warn(f"ignoring corrupt cache {self.path}: {exc}")
            self._data = {}

    @staticmethod
    def _key(n: int, s: int, r: int) -> str:
        return f"{n},{s},{r}"

    def get(self, n: int, s: int, r: int) -> SolveResult | None:
        entry = self._data.get(self._key(n, s, r))
        if entry is None:
            return None
        try:
            witness = UniformHypergraph.from_edges(n, r, entry["edges"])
            optimum = int(entry["optimum"])
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(f"dropping malformed cache entry ({n},{s},{r}): {exc}")
            return None
        if len(witness) != optimum or not is_turan_system(witness, s).is_turan:
            warnings.warn(f"cache entry ({n},{s},{r}) failed re-verification; dropped")
            return None
        return SolveResult(
            n=n,
            s=s,
            r=r,
            optimum=optimum,
            witness=witness,
            nodes_explored=0,
            proven_optimal=True,
            budget_exhausted=False,
        )

    def store(self, result: SolveResult) -> None:
        if not result.proven_optimal:
            raise ValueError("only proven results may be cached")
        self._data[self._key(result.n, result.s, result.r)] = {
            "optimum": result.optimum,
            "edges": [list(e) for e in result.witness.edges],
            "verified_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        # Write a temporary file beside the cache and rename it over the
        # cache, so a crash or a concurrent writer never leaves it partial.
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(self.path)), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._data, fh, sort_keys=True, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            os.unlink(tmp_path)
            raise


def solve_with_cache(
    n: int,
    s: int,
    r: int,
    cache: ValueCache | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Cache-aware solve; proven results are persisted.

    A cache that cannot be written only warns: the result is still returned.
    """
    cache = cache if cache is not None else ValueCache()
    hit = cache.get(n, s, r)
    if hit is not None:
        return hit
    result = solve_min_turan(n, s, r, node_budget=node_budget)
    if result.proven_optimal:
        try:
            cache.store(result)
        except OSError as exc:
            warnings.warn(f"cannot write cache {cache.path}: {exc}")
    return result
