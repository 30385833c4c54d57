"""Ground-truth oracle: exact T(n,s,r) at desk scale.

Minimum Turán systems are minimum set covers: the C(n,s) s-sets must each
be covered by some r-set inside them.  The solver proves T(m,s,r) for
m = s, ..., n in turn: each level's lower bound comes from counting or
from averaging over the level below, and its first incumbent is the
smaller of the prefix system and a Turán construction.  A level where
that incumbent misses the bound also gets a greedy set cover, kept when
strictly smaller, and is searched only if the bound is still missed.  The
search branches on the colex-least uncovered s-set, which keeps node
counts and witnesses deterministic, and credits a subtree equal to one it
has finished with that one's node count instead of walking it again.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import heapq
import itertools
import json
import operator
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from operator import length_hint
from typing import Iterator

try:
    import fcntl
except ImportError:  # Windows: cache writes are not serialised
    fcntl = None

from .bounds import counting_lower_T
from .combinatorics import (
    COVER_BITS_BUDGET,
    BudgetExceededError,
    JsonRecord,
    _colex_blocks,
    _vertex_masks,
    binomial,
    check_sizes,
    colex_masks,
    cover_masks,
    unrank_colex,
)
from .hypergraph import UniformHypergraph, is_turan_system

DEFAULT_NODE_BUDGET = 50_000_000
# The most entries that _search's memo of finished subtrees holds at once,
# a covered bitmap and a node count each, split evenly over its depths.
MEMO_ENTRIES = 1 << 15
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


def _turan_construction(n: int, s: int, r: int) -> list[int] | None:
    """The edge masks of Turán's (n,s,r) system where one is known, else None.

    r = 2: the complement of the balanced (s-1)-partite Turán graph, the
    pairs inside the parts; an s-set has two vertices in some part.
    (s,r) = (4,3): with [n] in three balanced parts V0, V1, V2, the
    triples inside a part and those with two vertices in Vi and one in
    V(i+1 mod 3); a 4-set has three vertices in a part or two in Vi and
    one or two in a neighbouring part, which closes one such triple.  A
    part with fewer than r vertex bits has no r-combination and adds none.
    """
    if r != 2 and (s, r) != (4, 3):
        return None
    parts = [[1 << v for v in part] for part in _balanced_parts(n, s - 1 if r == 2 else 3)]
    masks = [sum(e) for bits in parts for e in itertools.combinations(bits, r)]
    if r == 3:
        for bits, after in zip(parts, parts[1:] + parts[:1]):
            masks += (p + c for p in map(sum, itertools.combinations(bits, 2)) for c in after)
    return masks


def _first_size(n: int, s: int, r: int) -> int:
    """The size of _first_incumbent(n, s, r), counted from the parts of
    Turán's construction without building an edge."""
    size = binomial(n - s + r, r)  # the prefix system's
    if r == 2:
        size = min(size, turan_r2_value(n, s))
    elif (s, r) == (4, 3):
        # Each part's triples, and its pairs with a vertex of the next part.
        a = list(map(len, _balanced_parts(n, 3)))
        turan = sum(binomial(x, 3) + binomial(x, 2) * y for x, y in zip(a, a[1:] + a[:1]))
        size = min(size, turan)
    return size


def _first_incumbent(n: int, s: int, r: int) -> list[int]:
    """Edge masks of the smaller of the prefix system and Turán's.

    The prefix system, every r-subset of the first n - s + r vertices, is
    the masks colex_masks(n - s + r, r), which trivial_prefix_system holds;
    it is kept on a tie.
    """
    if _first_size(n, s, r) == binomial(n - s + r, r):
        return colex_masks(n - s + r, r)
    return _turan_construction(n, s, r)


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
    n: int, s: int, r: int, incumbent: list[int], bound: int, node_budget: int
) -> tuple[list[int], int, bool]:
    """Branch and bound for an (n,s,r) system smaller than `incumbent`.

    The search reads only the vertex bitmaps of _vertex_masks(n, s) and
    the vertices of the s-sets it branches on; it builds no table over
    the C(n,r) r-sets.  `incumbent` holds the edge masks of a Turán
    system, and only its length is read.  The search stops when it
    exhausts its tree, when it finds a system of `bound` edges or fewer,
    or when it has visited more than `node_budget` nodes.  Returns the edge masks of the best system
    found, the number of nodes visited and whether the budget ran out.

    Branches on the colex-least uncovered s-set with one child per
    r-subset of it, in colex order, built on the first branch there; prunes
    a node with d edges when d + ceil(uncovered / C(n-r, s-r)) reaches the
    incumbent.  That bound is kept as one threshold per depth: a child of
    a node with d - 1 edges survives only if it covers at least
    C(n,s) - (best - d - 1) * C(n-r, s-r) s-sets.  At the root, the branch
    is fixed to the single edge {0,...,r-1}, mask (1 << r) - 1, which is safe
    because the root subproblem is invariant under all vertex
    relabelings.  The search keeps its own stack, so a deep search ends at
    the node budget, not at the interpreter's recursion limit.

    The C(n-r, s-r) s-sets that contain the root's edge are covered at
    every node below the root, so the search's bitmaps leave their bits
    out: a bitmap holds the other C(n,s) - C(n-r, s-r) s-sets, in colex
    order, and counts and thresholds are taken over those.  Deleting bits
    keeps the order of those left, so the lowest zero bit is still the
    colex-least uncovered s-set.  This is for speed: CPython stores an int
    in 30-bit digits, and OR, popcount and comparison take a fast path on
    one digit, so (9,7,5)'s 36 s-sets become 30 bits, one digit.  The
    bits to delete are the AND of the root edge's r vertex bitmaps.  A
    row's cover masks are ANDs of the vertex bitmaps with those bits
    deleted, and its edge masks ORs of the same vertices' bits, both by
    one _colex_blocks call over the s-set's vertices, so both come in the
    colex order of the row's r-sets.

    A frame iterates the cover masks of its children, so a pruned child
    costs one OR, one popcount and one comparison, and nothing is counted
    per child.  The open frame, the one whose children are being
    visited, is held in locals and the frames below it on a list, so a
    push and a pop rebind a few names and read no frame back.  `upper` is
    the root plus the children of every frame opened so far and the nodes
    credited from the memo below, which is the node count once the open
    frames finish; the nodes visited so far are `upper` less the children
    that the open frames' iterators have left (`_unvisited`).  That is
    read only at a surviving child or a frame end, and only once `upper`
    passes the budget: the children visited since the last such point
    were pruned and changed nothing, so stopping there with
    `node_budget + 1` nodes is stopping at the child that passed the
    budget.  An incumbent's edge masks are read off the same positions,
    one per open frame, in the rows' lists of edge masks.

    The node count is that of the search tree, but a subtree equal to one
    already finished at the same depth and the same `best` is credited
    with that one's count and not walked.  A node's children are the row
    of its covered set's colex-least uncovered s-set, and which of them
    survive depends only on the depth and `best`, so the covered set and
    the depth fix the subtree while `best` holds.  A frame that ends with
    `best` unchanged since it opened stores its covered set at its depth
    with the nodes below it: `upper` at its end less `upper` before its
    children were added.  A surviving child found there adds that count
    to `upper` and is not pushed.  That is exact: the walk would find no
    improvement and end the subtree with the same `upper` and the same
    children unvisited in the frames below it.  A walk that passed the
    budget stopped at its first check past it with `node_budget + 1`
    nodes; the count at the subtree's end is past it too, so the check
    made at the credit, the one the walk makes at that frame end, returns
    the same.  An improvement changes the thresholds, so it clears the
    memo, and a frame open across one does not store.  The memo holds at
    most MEMO_ENTRIES entries, whatever the budget, split evenly over the
    best - 1 depths at entry; a depth whose share is full stores no more
    and is still read.  Each entry is a bitmap of C(n,s) - C(n-r, s-r)
    bits, a count and a dict slot; (9,7,5)'s memo peaks under 1 MB
    (`tracemalloc`).
    """
    per_edge = binomial(n - r, s - r)
    num_s = binomial(n, s) - per_edge  # the s-sets left in the bitmaps
    best = len(incumbent)
    # The root, node 1, has no edges, and its one child covers just the
    # s-sets left out: both survive the threshold below, for d = 1, when
    # ceil(C(n,s) / per_edge) < best.
    need = num_s - (best - 2) * per_edge
    if node_budget < 1 or need > 0:
        return incumbent, 1, node_budget < 1
    full = (1 << num_s) - 1
    # memos[d]: the covered sets of finished frames with d + 1 edges, each
    # with the nodes below it, since best last fell; room is each depth's
    # share of MEMO_ENTRIES.
    memos = [{} for _ in range(best - 1)]
    room = MEMO_ENTRIES // len(memos)

    vertex = _vertex_masks(n, s)
    left_out = functools.reduce(operator.and_, vertex[:r])
    vertex = [_delete_bits(v, left_out) for v in vertex]
    # Bit i is s-set i + bisect_right(kept_below, i), where kept_below[j]
    # counts the s-sets kept below the j-th one left out.
    gone = [k for k, d in enumerate(reversed(bin(left_out))) if d == "1"]
    kept_below = [k - j for j, k in enumerate(gone)]
    # rows[i]: the cover masks and edge masks of the r-sets inside the
    # s-set of bit i, in colex order, built on first use.
    rows = [None] * num_s

    # Depth-first search with an explicit stack, so depth is not limited by
    # the interpreter's recursion limit.  The open node, with d edges, is
    # base (its covered set), rest (the iterator over the cover masks of
    # its remaining children, which have d + 1 edges), edges (those
    # children's edge masks) and memo (memos[d], where those children are
    # looked up); stack holds the same four for each node below it, the
    # root first, so stack[k] has k edges, and then upper when the node
    # above it was opened.  A child that needs no branching, or whose
    # subtree is in memo, is finished inside the loop over its siblings.
    # The first open node is the root, with mask 0, whose one child, the
    # root's edge (edge mask (1 << r) - 1), has cover mask 0 too: it covers
    # only the s-sets left out.
    #
    # A child at depth d survives only if it covers at least
    # need = num_s - (best - d - 1) * per_edge of the s-sets in the bitmaps,
    # the same test as d + ceil(uncovered / per_edge) < best.  need moves
    # by per_edge with each push and pop and is reset when best falls; a
    # child that covers everything then only passes it if d < best.
    base, rest, edges, memo = 0, iter((0,)), [(1 << r) - 1], memos[0]
    stack = []
    upper = 2  # the root and its one child
    improved = 0  # upper at the last improvement
    while True:
        for m in rest:
            if (base | m).bit_count() < need:
                continue
            if upper > node_budget and upper - _unvisited(stack, rest) > node_budget:
                return incumbent, node_budget + 1, True
            covered = base | m
            if covered == full:
                best = len(stack) + 1
                incumbent = [e[-1 - length_hint(it)] for _, it, e, _, _ in stack]
                incumbent.append(edges[-1 - length_hint(rest)])
                if best <= bound:
                    return incumbent, upper - _unvisited(stack, rest), False
                need = num_s + per_edge
                for stored in memos:
                    stored.clear()
                improved = upper
                continue
            if covered in memo:
                # Credited as if walked: the walk's own check at that
                # subtree's frame end would read this upper and these
                # unvisited children.
                upper += memo[covered]
                if upper > node_budget and upper - _unvisited(stack, rest) > node_budget:
                    return incumbent, node_budget + 1, True
                continue
            # colex-least uncovered s-set: the lowest zero bit of covered.
            i = (covered ^ (covered + 1)).bit_length() - 1
            row = rows[i]
            if row is None:
                sset = unrank_colex(i + bisect.bisect_right(kept_below, i), s, n)
                inside = [vertex[v] for v in sset]
                bits = [1 << v for v in sset]
                row = rows[i] = (
                    _colex_blocks([full], r, s, operator.and_, inside.__getitem__, masks=False),
                    _colex_blocks([0], r, s, operator.or_, bits.__getitem__, masks=False),
                )
            stack.append((base, rest, edges, memo, upper))
            base, rest, edges = covered, iter(row[0]), row[1]
            memo = memos[len(stack)]
            upper += len(edges)
            need += per_edge
            break
        else:
            # The root's one child always survives, so the root's frame
            # ends right after that child or its frame, where the budget
            # was read with the same count.
            if not stack:
                return incumbent, upper, False
            covered = base
            base, rest, edges, memo, opened = stack.pop()
            # A frame opened before the last improvement saw two values of
            # best, and its count is not one subtree's: it was opened below
            # upper at the improvement, and every later one at or above it.
            if opened >= improved and len(memo) < room:
                memo[covered] = upper - opened
            need -= per_edge
            if upper > node_budget and upper - _unvisited(stack, rest) > node_budget:
                return incumbent, node_budget + 1, True


def _delete_bits(mask: int, gone: int) -> int:
    """mask with the bits that are set in gone taken out: the bits above
    each one move down, so the bits kept stay in order.  One shift per run
    of set bits in gone, from the top run down, so no run moves another."""
    while gone:
        top = gone.bit_length()
        # One past the highest bit below the top run that gone leaves clear.
        low = (gone ^ ((1 << top) - 1)).bit_length()
        mask = mask >> top << low | mask & ((1 << low) - 1)
        gone &= (1 << low) - 1
    return mask


def _unvisited(
    stack: list[tuple[int, Iterator[int], list[int], dict[int, int], int]], rest: Iterator[int]
) -> int:
    """The children that `_search` has left to visit: those of its open
    frame, whose iterator is `rest`, and of the frames below it on `stack`."""
    return length_hint(rest) + sum(length_hint(frame[1]) for frame in stack)


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
    lower bound otherwise.  A level whose first incumbent meets its bound is
    closed with no setup: the incumbent's size is counted (`_first_size`),
    and `_first_incumbent` builds its edge masks only where greedy or the
    search reads it, and for level n's witness.  On any other level, while
    budget remains, greedy reads `cover_masks`, which is freed when it
    returns; the ranks it chose are turned into edge masks by
    `unrank_colex`, one call per edge, and replace the incumbent when
    strictly smaller.  If greedy meets the bound the level is closed with
    no node, else `_search`, which builds no C(m,r) table, runs until
    incumbent and bound meet or its tree is exhausted.  So a budget
    of 0 still proves the levels that greedy closes.  The levels share
    `node_budget`; once it has run out, the remaining levels take the bound
    only.  Nothing is kept between calls.  Systems are edge masks
    throughout, and the witness is built from them as they are.
    """
    _check_arguments(n, s, r, node_budget)
    nodes = 0
    out_of_budget = False
    below = 0  # T(m-1), or its lower bound when level m-1 is unproven
    for m in range(s, n + 1):
        counting = counting_lower_T(m, s, r)
        averaging = -(-m * below // (m - r))
        bound, source = (averaging, "averaging") if averaging > counting else (counting, "counting")
        optimum, incumbent = _first_size(m, s, r), None
        if optimum > bound and not out_of_budget:
            incumbent = _first_incumbent(m, s, r)
            greedy = _greedy_cover(cover_masks(m, s, r), binomial(m, s))
            if len(greedy) < len(incumbent):
                incumbent = [sum(map((1).__lshift__, unrank_colex(j, r, m))) for j in greedy]
            if len(incumbent) > bound:
                incumbent, used, out_of_budget = _search(
                    m, s, r, incumbent, bound, node_budget - nodes
                )
                nodes += used
            optimum = len(incumbent)
        if optimum == bound:
            proof = "bound-met"
        else:
            proof = None if out_of_budget else "exhausted"
        below = bound if proof is None else optimum

    # The loader's bit budget, as work refused before level n's is built.
    if optimum * n > COVER_BITS_BUDGET:
        raise BudgetExceededError(f"{optimum} witness masks of {n} bits exceed the budget")
    if incumbent is None:
        incumbent = _first_incumbent(n, s, r)
    witness = UniformHypergraph._from_masks(n, r, sorted(incumbent))
    return SolveResult(
        n=n,
        s=s,
        r=r,
        optimum=optimum,
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
    without it, or whose proof does not match its bound, is dropped.  The
    counting bound is recomputed: an entry is dropped when its source is
    counting and its bound differs from it, or its source is averaging and
    its bound is not above it, as the solver names averaging only then.
    What is still taken from the file is an averaging bound's value and
    an exhausted proof, which would take the levels below to re-derive.
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
        except (OSError, ValueError, RecursionError) as exc:
            # JSONDecodeError is a ValueError; text nested too deeply for the
            # parser raises RecursionError, and is corrupt all the same.
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
            counting = counting_lower_T(n, s, r)
            if lower_bound < counting or (lower_bound == counting) != (source == "counting"):
                raise ValueError(
                    f"lower bound {lower_bound} from {source} does not fit "
                    f"the recomputed counting bound {counting}"
                )
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
