"""Exact and log-space counting primitives plus colex subset ordering.

Everything downstream (verification, constructions, bound formulas) goes
through this module, so the conventions here are global: vertices are
0-based contiguous integers, subsets are strictly increasing tuples, and
colexicographic order is the single canonical order for ranking,
enumeration and serialization.  LogValue carries a nonnegative real as
its natural log and does no arithmetic; the choice between exact and log
values is made by the callers (bounds.construction_parameters for the
colouring schedule, bounds.lll_certificate_for for its certificate,
EXACT_LOG_N_MAX for ln C).  The errors that the CLI maps to exit codes
live here too, so mapping them loads no other module.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
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
# read by refuse_beyond_budget only, which also caps their n-bit masks' bits.
DEFAULT_MATERIALIZE_BUDGET = 5_000_000

# The most bits (2^30, 128 MiB) that cover_masks' bitmaps, the C(n,k) n-bit
# masks of refuse_beyond_budget, or the loader's masks hold, refused unbuilt.
COVER_BITS_BUDGET = 2**30


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive pass would exceed the configured budget."""


class ConstructionError(RuntimeError):
    """A randomized construction failed within its retry/round caps."""


class JsonRecord:
    """Base of the dataclass records that are printed as JSON.

    to_json_dict maps each field to its _json_value.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


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
    """BudgetExceededError when C(n,k) exceeds DEFAULT_MATERIALIZE_BUDGET,
    or when C(n,k) masks of n bits exceed COVER_BITS_BUDGET."""
    count = binomial(n, k)
    if count > DEFAULT_MATERIALIZE_BUDGET:
        raise BudgetExceededError(
            f"C({n},{k}) exceeds materialization budget {DEFAULT_MATERIALIZE_BUDGET}"
        )
    if count * n > COVER_BITS_BUDGET:
        raise BudgetExceededError(f"C({n},{k}) masks of {n} bits exceed the bit budget")


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
    if any(map(operator.ge, elements, elements[1:])):
        raise ValueError(f"subset must be strictly increasing, got {elements}")
    if elements and (elements[0] < 0 or elements[-1] >= n):
        raise ValueError(f"subset {elements} not within ground set of size {n}")


def rank_colex(elements: tuple[int, ...]) -> int:
    """Colex rank of a strictly increasing subset: sum of C(e_i, i+1)."""
    return sum(map(math.comb, elements, range(1, len(elements) + 1)))


def unrank_colex(index: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of rank_colex on [0, C(n,k))."""
    if index < 0 or index >= binomial(n, k):
        raise ValueError(f"rank {index} out of range for C({n},{k})")
    comb = math.comb
    result = [0] * k
    remaining, hi = index, n
    for i in range(k, 0, -1):
        # Bisect the largest v with C(v, i) <= remaining, O(log n) binomials:
        # C(i-1, i) = 0 fits, and C(hi, i) > remaining at the previous vertex.
        v, c = i - 1, 0
        while hi - v > 1:
            mid = (v + hi) >> 1
            c_mid = comb(mid, i)
            if c_mid <= remaining:
                v, c = mid, c_mid
            else:
                hi = mid
        result[i - 1] = hi = v
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


def _colex_blocks(
    level: list[int], k: int, top: int, op: Callable, operand: Callable, masks: bool = True,
) -> list[int]:
    """Each set of level extended by k vertices above its largest, all below
    top: one value per extended set, in colex order, from one value per set
    of level, in colex order.

    The block recurrence: the sets of level j+1 with largest vertex v are
    the sets of level j inside [v], a prefix of level j, with v added.  So
    level j+1 is op(x, operand(v)) over those values x, for v from the
    least such vertex up to top-k+j (v leaves room for the k-j-1 vertices
    above it): one C-level map per level.  When masks is true, the values
    are the sets' masks, ascending, and v's prefix ends where v's bit
    bisects level j.  Otherwise level is the value of the empty set alone,
    and v's prefix of level j holds C(v, j) values.
    """
    for j in range(k):
        first = level[0].bit_length() if masks and level else j
        vertices = range(first, top - k + j + 1)
        if masks:
            bits = map((1).__lshift__, vertices)
            cuts = list(map(bisect.bisect_left, itertools.repeat(level), bits))
        else:
            cuts = list(map(math.comb, vertices, itertools.repeat(j)))
        xs = itertools.chain.from_iterable(map(itertools.islice, itertools.repeat(level), cuts))
        bs = itertools.chain.from_iterable(map(itertools.repeat, map(operand, vertices), cuts))
        level = list(map(op, xs, bs))
    return level


def colex_masks(n: int, k: int) -> list[int]:
    """The bitmasks of the k-subsets of [n] in ascending order, which is
    their colex order; the first C(m, k) of them are those of [m].

    The block recurrence from the empty set's mask, ORing in each vertex's bit.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _colex_blocks([0], k, n, operator.or_, (1).__lshift__)


def r_subset_ranks(n: int, s: int, r: int) -> Callable[[int], list[int]]:
    """The map from the colex rank of an s-subset of [n] to the ascending
    colex ranks of its r-subsets: the colourer's redraws.  The
    combinations of a decreasing s-set come in descending colex order, so
    each list, reversed, needs no sort.
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
    mask is the AND of its vertices' masks, built by the block recurrence
    from the empty set's full mask, one C-level map of AND per level.
    Needs 1 <= r < s <= n;
    BudgetExceededError, before anything is built, when the C(n,r) sets
    fail refuse_beyond_budget or their C(n,r) * C(n,s) bits exceed
    COVER_BITS_BUDGET.
    """
    check_sizes(n, s, r)
    refuse_beyond_budget(n, r)
    bits = binomial(n, r) * binomial(n, s)
    if bits > COVER_BITS_BUDGET:
        # A count of over 4300 digits is too long for str(): its size is given.
        size = bits if bits.bit_length() <= 64 else f"over 2^{bits.bit_length() - 1}"
        raise BudgetExceededError(
            f"C({n},{r}) cover bitmaps of C({n},{s}) bits take {size} bits, "
            f"beyond the budget of {COVER_BITS_BUDGET}"
        )
    # The empty set lies in every s-set.
    full = (1 << math.comb(n, s)) - 1
    return _colex_blocks([full], r, n, operator.and_, _vertex_masks(n, s).__getitem__, masks=False)
