"""Ground-truth oracle: exact T(n,s,r) at desk scale.

Minimum Turán systems are minimum set covers: the C(n,s) s-sets must each
be covered by some r-set inside them.  The solver proves T(m,s,r) for
m = s, ..., n in turn: each level's lower bound comes from counting or
from averaging over the level below, and its first incumbent is the
smaller of the prefix system and a Turán construction.  A level where
that incumbent misses the bound also gets a greedy set cover, kept when
strictly smaller, and is searched only if the bound is still missed.  The
search branches on the colex-least uncovered s-set, which keeps node
counts and witnesses deterministic.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass

try:
    import fcntl
except ImportError:  # Windows: cache writes are not serialised
    fcntl = None

from .bounds import counting_lower_T
from .combinatorics import (
    JsonRecord,
    binomial,
    check_sizes,
    cover_masks,
    r_subset_ranks,
    rank_colex,
    unrank_colex,
)
from .hypergraph import UniformHypergraph, is_turan_system

DEFAULT_NODE_BUDGET = 50_000_000
CACHE_ENV_VAR = "TURAN_CACHE"


@dataclass
class SolveResult(JsonRecord):
    """The best (n,s,r) system found and how far it is proven.

    `lower_bound` is the root bound of level n, from `lower_bound_source`
    ("counting" or "averaging").  `proof` says how optimality was shown:
    "bound-met" when the optimum equals that bound, "exhausted" when the
    search tree was exhausted, None when the node budget ran out first.
    `nodes_explored` and the budget span every level searched.
    """

    n: int
    s: int
    r: int
    optimum: int
    witness: UniformHypergraph
    nodes_explored: int
    proven_optimal: bool
    budget_exhausted: bool
    lower_bound: int
    lower_bound_source: str
    proof: str | None


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


def _check_arguments(n: int, s: int, r: int, node_budget: int) -> None:
    check_sizes(n, s, r)
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")


def _balanced_parts(n: int, k: int) -> list[range]:
    """[n] cut into k consecutive blocks of sizes within one, larger first."""
    q, rem = divmod(n, k)
    cuts = itertools.accumulate((q + (i < rem) for i in range(k)), initial=0)
    return list(itertools.starmap(range, itertools.pairwise(cuts)))


def _turan_construction(n: int, s: int, r: int) -> list[tuple[int, ...]] | None:
    """Turán's (n,s,r) system where one is known, else None.

    r = 2: the complement of the balanced (s-1)-partite Turán graph, the
    pairs inside the parts; an s-set has two vertices in some part.
    (s,r) = (4,3): with [n] in three balanced parts V0, V1, V2, the
    triples inside a part and those with two vertices in Vi and one in
    V(i+1 mod 3); a 4-set has three vertices in a part or two in Vi and
    one or two in a neighbouring part, which closes one such triple.
    """
    if r == 2:
        return [e for part in _balanced_parts(n, s - 1) for e in itertools.combinations(part, 2)]
    if (s, r) != (4, 3):
        return None
    parts = _balanced_parts(n, 3)
    edges = []
    for i, part in enumerate(parts):
        edges += itertools.combinations(part, 3)
        edges += (
            tuple(sorted((a, b, c)))
            for a, b in itertools.combinations(part, 2)
            for c in parts[(i + 1) % 3]
        )
    return edges


def _first_incumbent(n: int, s: int, r: int) -> list[int] | range:
    """Colex ranks of the smaller of the prefix system and Turán's.

    The prefix system, every r-subset of the first n - s + r vertices, is
    exactly the colex-first C(n-s+r, r) r-sets; it is kept on a tie.
    """
    prefix = range(binomial(n - s + r, r))
    edges = _turan_construction(n, s, r)
    if edges is None or len(edges) >= len(prefix):
        return prefix
    return list(map(rank_colex, edges))


def _greedy_cover(cover_mask: list[int], num_s: int) -> list[int]:
    """Colex ranks of the greedy set cover of the num_s s-sets.

    Repeatedly takes the r-set that covers the most uncovered s-sets, the
    lowest colex rank on a tie.  Lazily: the heap holds each r-set keyed
    by its gain when last counted, an upper bound on its gain now, as
    rank - gain * C(n,r), so the larger gain and then the lower rank come
    first.  An r-set whose key is still current at the top beats every
    other, which is what a full scan would pick.  Every r-set starts with
    the same gain, C(n-r, s-r), so the first heap is the ranks in order.
    """
    num_r = len(cover_mask)
    gain = cover_mask[0].bit_count()
    heap = list(range(-gain * num_r, (1 - gain) * num_r))
    uncovered = (1 << num_s) - 1
    chosen = []
    while uncovered:
        j = heap[0] % num_r
        key = j - (cover_mask[j] & uncovered).bit_count() * num_r
        if key == heap[0]:
            heapq.heappop(heap)
            chosen.append(j)
            uncovered &= ~cover_mask[j]
        else:
            heapq.heapreplace(heap, key)
    return chosen


def _search(
    n: int,
    s: int,
    r: int,
    cover_mask: list[int],
    incumbent: list[int] | range,
    bound: int,
    node_budget: int,
) -> tuple[list[int] | range, int, bool]:
    """Branch and bound for an (n,s,r) system smaller than `incumbent`.

    `cover_mask` is cover_masks(n, s, r), which the search reads and does
    not change.  `incumbent` holds colex ranks of r-sets forming a Turán
    system.  The search stops when it exhausts its tree, when it finds a
    system of `bound` edges or fewer, or when it has visited more than
    `node_budget` nodes.  Returns the ranks of the best system found, the
    number of nodes visited and whether the budget ran out.

    Branches on the colex-least uncovered s-set with one child per
    r-subset of it, from r_subset_ranks on the first branch there; prunes
    a node with d edges when d + ceil(uncovered / C(n-r, s-r)) reaches the
    incumbent.  That bound is kept as one threshold per depth: a child of
    a node with d - 1 edges survives only if it covers at least
    C(n,s) - (best - d - 1) * C(n-r, s-r) s-sets, so each node costs one
    OR and one popcount.  At the root, the branch is fixed to the single
    edge {0,...,r-1}, colex rank 0, which is safe because the root
    subproblem is invariant under all vertex relabelings.  The search
    keeps its own stack, so a deep search ends at the node budget, not at
    the interpreter's recursion limit.
    """
    num_s = binomial(n, s)
    per_edge = binomial(n - r, s - r)
    best = len(incumbent)
    # The root, node 1, has no edges; it survives the threshold below when
    # ceil(num_s / per_edge) < best.
    need = num_s - (best - 1) * per_edge
    if node_budget < 1 or need > 0:
        return incumbent, 1, node_budget < 1
    nodes = 1
    exhausted = False

    subset_ranks = r_subset_ranks(n, s, r)
    # children[i]: r-set indices inside s-set i, in colex order, built on
    # first use.  Row 0 is the root's branch, edge {0,...,r-1} (rank 0): it
    # lies in s-set 0, so s-set 0 is covered at every node below the root.
    children = [[0]] + [None] * (num_s - 1)

    # Depth-first search with an explicit stack, so depth is not limited by
    # the interpreter's recursion limit.  stack[d] is an open node with d
    # edges: its covered set, the iterator over its remaining children,
    # which have d + 1 edges, and the r-set that opened it.  A child that
    # needs no branching is finished inside the loop over its siblings.
    # The bottom frame is the root, with mask 0; the edges on the current
    # path open stack[1:].
    #
    # A child at depth d survives only if it covers at least
    # need = num_s - (best - d - 1) * per_edge s-sets, the same test as
    # d + ceil(uncovered / per_edge) < best.  need moves by per_edge with
    # each push and pop and is reset when best falls; a child that covers
    # everything then only passes it if d < best.
    stack = [(0, iter(children[0]), None)]
    need += per_edge
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
                best = len(stack)
                incumbent = [frame[2] for frame in stack[1:]] + [j]
                if best <= bound:
                    stack.clear()
                    break
                need = num_s + per_edge
                continue
            # colex-least uncovered s-set: the lowest zero bit of covered.
            i = (covered ^ (covered + 1)).bit_length() - 1
            row = children[i]
            if not row:
                row = children[i] = subset_ranks(i)
            stack.append((covered, iter(row), j))
            need += per_edge
            break
        else:
            stack.pop()
            need -= per_edge
    return incumbent, nodes, exhausted


def solve_min_turan(
    n: int, s: int, r: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact T(n,s,r), level by level, by matching bounds and branch-and-bound.

    Intended for desk scale (roughly n <= 9 for r = 2, n <= 8 for r >= 3,
    and further where the bounds meet).  Level m = s, ..., n takes as lower
    bound the larger of ceil(C(m,r)/C(s,r)) and, by Katona, Nemetz and
    Simonovits, ceil(m T(m-1,s,r) / (m-r)): deleting a vertex of an (m,s,r)
    system leaves an (m-1,s,r) system, and each edge survives m - r of the
    m deletions.  T(m-1) is level m-1's optimum when it was proven, its
    lower bound otherwise.  A level whose first incumbent (`_first_incumbent`)
    meets its bound is closed with no setup.  On any other, while budget
    remains, `cover_masks` is built once: `_greedy_cover` reads it, and
    replaces the incumbent when strictly smaller; if greedy meets the bound
    the level is closed with no node, else `_search` reads the same masks
    until incumbent and bound meet or its tree is exhausted.  So a budget
    of 0 still proves the levels that greedy closes.  The levels share
    `node_budget`; once it has run out, the remaining levels take the bound
    only.  Nothing is kept between calls.
    """
    _check_arguments(n, s, r, node_budget)
    nodes = 0
    out_of_budget = False
    below = 0  # T(m-1), or its lower bound when level m-1 is unproven
    for m in range(s, n + 1):
        counting = counting_lower_T(m, s, r)
        averaging = -(-m * below // (m - r))
        bound, source = (averaging, "averaging") if averaging > counting else (counting, "counting")
        incumbent = _first_incumbent(m, s, r)
        if len(incumbent) > bound and not out_of_budget:
            cover_mask = cover_masks(m, s, r)
            greedy = _greedy_cover(cover_mask, binomial(m, s))
            if len(greedy) < len(incumbent):
                incumbent = greedy
            if len(incumbent) > bound:
                incumbent, used, out_of_budget = _search(
                    m, s, r, cover_mask, incumbent, bound, node_budget - nodes
                )
                nodes += used
        if len(incumbent) == bound:
            proof = "bound-met"
        else:
            proof = None if out_of_budget else "exhausted"
        below = bound if proof is None else len(incumbent)

    witness = UniformHypergraph.from_edges(n, r, [unrank_colex(j, r, n) for j in incumbent])
    return SolveResult(
        n=n,
        s=s,
        r=r,
        optimum=len(incumbent),
        witness=witness,
        nodes_explored=nodes,
        proven_optimal=proof is not None,
        budget_exhausted=proof is None,
        lower_bound=bound,
        lower_bound_source=source,
        proof=proof,
    )


class ValueCache:
    """JSON-backed cache of proven SolveResults keyed by (n,s,r).

    Entries are never trusted blindly: hits re-verify the stored witness
    exhaustively before reuse, so a tampered or stale file degrades to a
    cache miss.  An entry also records the proof of its optimum; one
    without it, or whose proof does not match its bound, is dropped.
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
            lower_bound = int(entry["lower_bound"])
            source, proof = entry["lower_bound_source"], entry["proof"]
            matching = "bound-met" if lower_bound == optimum else "exhausted"
            if source not in ("counting", "averaging") or lower_bound > optimum or proof != matching:
                raise ValueError("proof record does not match the optimum")
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
            lower_bound=lower_bound,
            lower_bound_source=source,
            proof=proof,
        )

    def store(self, result: SolveResult) -> None:
        """Add a proven result to the file.

        The write holds an exclusive flock on the sidecar file `path`.lock,
        and under it re-reads the file and merges this entry, so caches
        that store concurrently on one path keep each other's entries.
        Without fcntl (Windows) there is no lock and no re-read: the file
        gets this cache's entries only.
        """
        if not result.proven_optimal:
            raise ValueError("only proven results may be cached")
        entry = {
            "optimum": result.optimum,
            "edges": [list(e) for e in result.witness.edges],
            "lower_bound": result.lower_bound,
            "lower_bound_source": result.lower_bound_source,
            "proof": result.proof,
            "verified_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        lock = open(self.path + ".lock", "a") if fcntl else contextlib.nullcontext()
        with lock:
            if fcntl:
                fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
                self._load()
            self._data[self._key(result.n, result.s, result.r)] = entry
            # Write a temporary file beside the cache and rename it over the
            # cache, so a crash never leaves it partial.
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

    The arguments are checked before the cache is read, and `node_budget`
    covers all levels of a solve.  A cache that cannot be written only
    warns: the result is still returned.
    """
    _check_arguments(n, s, r, node_budget)
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
