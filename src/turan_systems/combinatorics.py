"""Exact and log-space counting primitives plus colex subset ordering.

Everything downstream (verification, constructions, bound formulas) goes
through this module, so the conventions here are global: vertices are
0-based contiguous integers, subsets are strictly increasing tuples, and
colexicographic order is the single canonical order for ranking,
enumeration and serialization.  LogValue carries a nonnegative real as
its natural log and does no arithmetic; the choice between exact and log
values is made by the callers (construction_parameters for the colouring
schedule, lll_certificate_for for its certificate, EXACT_LOG_N_MAX for
ln C).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

# log_binomial takes the log of the exact integer C(n, k) up to this n and
# Stirling's series beyond it.  This is the one exact-or-log cutoff for ln C.
EXACT_LOG_N_MAX = 4096

# The largest gap R that the float-valued bounds and the colouring schedule
# accept: beyond about 1.17e305 the root behind alpha(R) leaves float range,
# and so does the schedule's ln R! for r >= 3.
FLOAT_R_MAX = 10**305

# The most sets that a construction, or cover_masks, materializes one by one;
# read by refuse_beyond_budget only.
DEFAULT_MATERIALIZE_BUDGET = 5_000_000

# cover_masks refuses an (n, s, r) whose C(n,r) bitmaps of C(n,s) bits would
# hold more than this many bits (2^30 bits, 128 MiB), before it builds any.
COVER_BITS_BUDGET = 2**30


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive pass would exceed the configured budget."""


class JsonRecord:
    """Base of the dataclass records that are printed as JSON.

    to_json_dict maps each field shown in repr to its _json_value.  A
    field marked repr=False is left out.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self) if f.repr}


def _json_value(value):
    """value in strict JSON form: lists for tuples and lists, dicts for dicts
    and records, None for a non-finite float or a zero LogValue, and a
    LogValue's log_magnitude by the float rule."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, JsonRecord):
        return value.to_json_dict()
    if isinstance(value, LogValue):
        return None if value.is_zero else _json_value(value.log_magnitude)
    return value


def check_sizes(n: int, s: int, r: int) -> None:
    """The domain 1 <= r < s <= n of a Turán (n,s,r)-system; ValueError otherwise."""
    if not 1 <= r < s <= n:
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}")


def refuse_beyond_budget(n: int, k: int) -> None:
    """BudgetExceededError when C(n,k) exceeds DEFAULT_MATERIALIZE_BUDGET."""
    if binomial(n, k) > DEFAULT_MATERIALIZE_BUDGET:
        raise BudgetExceededError(
            f"C({n},{k}) exceeds materialization budget {DEFAULT_MATERIALIZE_BUDGET}"
        )


def exp_or_inf(x: float) -> float:
    """e^x below 709, inf from 709 on: the one float-overflow cutoff, a
    little below ln of the largest float (709.78)."""
    return math.exp(x) if x < 709 else math.inf


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for integers n >= k >= 0, n of any size.

    Up to EXACT_LOG_N_MAX this is the log of the exact integer, one
    floating rounding.  Beyond it, see log_binomial_series.
    """
    if n < 0 or k < 0:
        raise ValueError(f"log_binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise ValueError(f"log_binomial requires k <= n, got ({n}, {k})")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    if n <= EXACT_LOG_N_MAX:
        return math.log(math.comb(n, k))
    # Integer true division stays correct when n is beyond float range.
    return log_binomial_series(math.log(n), k / n, k)


def log_binomial_series(log_n: float, t: float, k: int) -> float:
    """ln C(n, k) from ln n and t = k/n, for real n >= 2k and integer k >= 1.

    Stirling's series for ln n! - ln m! (m = n - k) with its 1/(12x) term,
    and the exact lgamma(k + 1):

        k (ln n - 1) - (m + 1/2) ln(1 - t) - ln k! - (1/m - 1/n)/12,

    written through g = -ln(1 - t)/t, which tends to 1, so no term grows
    with n and nothing cancels; at t = 0 it is k ln n - ln k!.  The error
    is below (1/m^3 - 1/n^3)/360, under 1e-15 relative for n > 4096.
    """
    g = -math.log1p(-t) / t if t else 1.0
    return (
        k * (log_n - 1.0)
        + (k - t * (k - 0.5)) * g
        - math.lgamma(k + 1)
        - t * t / (12.0 * k * (1.0 - t))
    )


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real carried on natural-log scale.

    The local-lemma certificate's output fields use it for quantities
    like N and Delta whose magnitudes dwarf floating range at the full
    construction-scale parameters.  It only carries a value: arithmetic
    is done on log_magnitude by the caller.
    """

    log_magnitude: float
    is_zero: bool = False

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(float("-inf"), True)


def check_subset(elements: tuple[int, ...], n: int, k: int | None = None) -> None:
    """Validate a strictly increasing 0-based k-subset of [n]."""
    if k is not None and len(elements) != k:
        raise ValueError(f"expected a {k}-subset, got {elements}")
    prev = -1
    for v in elements:
        if v <= prev:
            raise ValueError(f"subset must be strictly increasing, got {elements}")
        prev = v
    if elements and (elements[0] < 0 or elements[-1] >= n):
        raise ValueError(f"subset {elements} not within ground set of size {n}")


def rank_colex(elements: tuple[int, ...]) -> int:
    """Colex rank of a strictly increasing subset: sum of C(e_i, i+1)."""
    return sum(map(math.comb, elements, range(1, len(elements) + 1)))


def unrank_colex(index: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of rank_colex on [0, C(n,k))."""
    if index < 0 or index >= binomial(n, k):
        raise ValueError(f"rank {index} out of range for C({n},{k})")
    result = [0] * k
    remaining = index
    v = n
    for i in range(k, 0, -1):
        # Largest v with C(v, i) <= remaining: it lies below the previous v,
        # so walk down from there.
        v -= 1
        c = math.comb(v, i)
        while c > remaining:
            v -= 1
            c = math.comb(v, i)
        result[i - 1] = v
        remaining -= c
    return tuple(result)


def enumerate_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield the k-subsets of [n] in colex order."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    current = list(range(k))
    for _ in range(binomial(n, k)):
        yield tuple(current)
        # Colex successor: bump the first position that has headroom.
        for i in range(k):
            limit = current[i + 1] if i + 1 < k else n
            if current[i] + 1 < limit:
                current[i] += 1
                for j in range(i):
                    current[j] = j
                break


def colex_masks(n: int, k: int) -> list[int]:
    """The bitmasks of the k-subsets of [n] in ascending order, which is
    their colex order; the first C(m, k) of them are those of [m].

    Built at C level by the block recurrence of cover_masks: the j-sets
    with largest vertex v are the (j-1)-subsets of [v] with v added, and
    level j needs only the j-subsets of [n - k + j].
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    masks = [0]  # the empty set
    for j in range(1, k + 1):
        masks = list(itertools.chain.from_iterable(
            map((1 << v).__or__, itertools.islice(masks, math.comb(v, j - 1)))
            for v in range(j - 1, n - k + j)
        ))
    return masks


def r_subset_ranks(n: int, s: int, r: int) -> Callable[[int], list[int]]:
    """The map from the colex rank of an s-subset of [n] to the ascending
    colex ranks of its r-subsets: the solver's branching rows and the
    colourer's redraws.  The combinations of a decreasing s-set come in
    descending colex order, so each list, reversed, needs no sort.
    """
    descending = itertools.combinations(range(n - 1, -1, -1), r)
    rank = dict(zip(descending, range(binomial(n, r) - 1, -1, -1))).__getitem__

    def ranks(i: int) -> list[int]:
        row = list(map(rank, itertools.combinations(unrank_colex(i, s, n)[::-1], r)))
        row.reverse()
        return row

    return ranks


def _vertex_masks(n: int, s: int) -> list[int]:
    """For each vertex t of [n], the bitmap over colex ranks of the s-subsets
    of [n] that contain t.

    The k-subsets of [m+1] are those of [m], followed by the (k-1)-subsets
    of [m] with m added, so V_t(m+1, k) = V_t(m, k) | V_t(m, k-1) << C(m, k)
    for t < m, and V_m(m+1, k) is the block of C(m, k-1) ones at C(m, k).
    rows[k] holds V_t(m, k) for the current m, for the k from 1 to m+1
    that the s-subsets of [n] still need.
    """
    rows: list[list[int]] = [[] for _ in range(s + 1)]
    for m in range(n):
        for k in range(min(s, m + 1), max(0, s - n + m), -1):
            # [m] has no (m+1)-set: then V_t(m, k) is 0 and the shift is 0.
            shift = math.comb(m, k)
            below = rows[k - 1]
            grown = [a | b << shift for a, b in zip(rows[k], below)] if shift else below[:m]
            grown.append(((1 << math.comb(m, k - 1)) - 1) << shift)
            rows[k] = grown
        rows[0].append(0)  # the empty set contains no vertex
    return rows[s]


def cover_union(n: int, s: int, masks: Iterable[int]) -> int:
    """The bitmap over colex ranks of the s-subsets of [n] that contain at
    least one of the given sets, each given as its bitmask: the OR of the
    sets' cover bitmaps, each the AND of its vertices' masks.

    The exhaustive verifier's kernel.  Each set is decoded top vertex
    first.  Two sets share the vertices above the highest bit where their
    masks differ, and ands[d] keeps the AND over the d top vertices of the
    set before, so each set starts from the AND of the vertices it shares
    with the one before.  In ascending (colex) order, consecutive sets
    share most of their top vertices.  A set that shares none with the one
    before starts a new block of top vertex; there, the union is compared
    with the full bitmap and the masks left unread once it is full, so
    ascending masks cost at most n such compares.
    """
    vertex = _vertex_masks(n, s)
    full = (1 << math.comb(n, s)) - 1
    ands = [full] * (n + 1)
    union = prev = 0
    for m in masks:
        split = (m ^ prev).bit_length()
        d = (m >> split).bit_count()
        if not d and union == full:
            break
        acc = ands[d]
        rest = m & ((1 << split) - 1)
        while rest:
            v = rest.bit_length() - 1
            acc &= vertex[v]
            d += 1
            ands[d] = acc
            rest ^= 1 << v
        union |= acc
        prev = m
    return union


def cover_masks(n: int, s: int, r: int) -> list[int]:
    """For each r-subset of [n] in colex order, the bitmap over colex ranks
    of the s-subsets of [n] that contain it.

    This is the one s-set/r-set incidence kernel: the solver's set cover
    and the Moser-Tardos colourer both read it, and the exhaustive
    verifier's cover_union is built on the same vertex masks.  An r-set's
    mask is the AND of its vertices' masks.  The k-sets with largest
    vertex v are the (k-1)-subsets of [v] with v added, so each level k is
    one AND per k-set with level k-1; level k needs only the k-subsets of
    [n - r + k], the first C(n-r+k, k), which hold the k least vertices of
    every r-set.  Needs 1 <= r < s <= n; BudgetExceededError, before
    anything is built, when the C(n,r) bitmaps exceed the materialization
    budget or their C(n,r) * C(n,s) bits exceed COVER_BITS_BUDGET.
    """
    check_sizes(n, s, r)
    refuse_beyond_budget(n, r)
    bits = binomial(n, r) * binomial(n, s)
    if bits > COVER_BITS_BUDGET:
        raise BudgetExceededError(
            f"C({n},{r}) cover bitmaps of C({n},{s}) bits take {bits} bits, "
            f"beyond the budget of {COVER_BITS_BUDGET}"
        )
    vertex = _vertex_masks(n, s)
    masks = [(1 << math.comb(n, s)) - 1]  # the empty set lies in every s-set
    for k in range(1, r + 1):
        masks = list(itertools.chain.from_iterable(
            map(vertex[v].__and__, itertools.islice(masks, math.comb(v, k - 1)))
            for v in range(k - 1, n - r + k)
        ))
    return masks
