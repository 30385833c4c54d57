"""Reference values the benchmark checks the package against.

Nothing here imports turan_systems: each value is computed from its
definition (brute force, closed forms, or mpmath at high precision), so a
fault in the package cannot hide by also being in its reference.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

import mpmath

DPS = 60


def uncovered_ssets(n: int, s: int, edges, limit: int = 1) -> list[tuple[int, ...]]:
    """Up to `limit` s-subsets of range(n) that contain no edge, by brute force.

    Every s-set is tested against every r-subset of it, so the cost is
    C(n,s) * C(s,r) set lookups.
    """
    edge_set = {tuple(sorted(e)) for e in edges}
    r = len(next(iter(edge_set))) if edge_set else 1
    found = []
    for S in combinations(range(n), s):
        if not any(sub in edge_set for sub in combinations(S, r)):
            found.append(S)
            if len(found) >= limit:
                break
    return found


def is_turan(n: int, s: int, edges) -> bool:
    return not uncovered_ssets(n, s, edges)


def prefix_edges(n: int, s: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of the first n - (s - r) vertices."""
    return list(combinations(range(n - (s - r)), r))


def colex_rank(subset: tuple[int, ...]) -> int:
    return sum(math.comb(v, i + 1) for i, v in enumerate(subset))


def coloring_classes_turan(N: int, s: int, r: int, ell: int, coloring) -> bool:
    """True iff every s-set of [N] sees all ell colours among its r-subsets.

    `coloring` is indexed by colex rank of the r-set, so this says each
    colour class is a Turán (N,s,r)-system.
    """
    for S in combinations(range(N), s):
        if len({coloring[colex_rank(e)] for e in combinations(S, r)}) < ell:
            return False
    return True


def blowup_size(N: int, r: int, m: int, size_A: int) -> int:
    """|blowup(A, m)| = C(mN,r) - m^r (C(N,r) - |A|).

    Every r-set of [mN] is kept except the transversals (one vertex in each
    of r distinct parts) whose part projection is a non-edge of A; each
    non-edge has m^r transversals over it.
    """
    return math.comb(m * N, r) - m**r * (math.comb(N, r) - size_A)


def turan_graph_complement_size(n: int, s: int) -> int:
    """T(n,s,2): pairs inside parts of the balanced (s-1)-partition of [n]."""
    parts = [0] * (s - 1)
    for v in range(n):
        parts[v % (s - 1)] += 1
    return sum(p * (p - 1) // 2 for p in parts)


def expected_recursive_size(n: int, r: int, R: int, k: int, c: float) -> Fraction:
    """E-bound of the initial-segment recursion with prefix tail systems.

    p C(n,r) for the r-sets whose (k-R)-segment is sampled, plus, for each
    maximum vertex v of a k-set, (1-p)^C(k,R) C(v,k-1) times the size of the
    prefix (n-1-v, r-k+R, r-k)-system to its right (empty when too short).
    Exact rational arithmetic in c as given.
    """
    s_in, r_in = r - k + R, r - k
    p = Fraction(c) / math.comb(k, R)
    q = (1 - p) ** math.comb(k, R)
    total = p * math.comb(n, r)
    for v in range(k - 1, n):
        tail_n = n - 1 - v
        tail = math.comb(tail_n - s_in + r_in, r_in) if tail_n >= s_in else 0
        total += q * math.comb(v, k - 1) * tail
    return total


def ln_binomial(M: int, R: int) -> mpmath.mpf:
    """ln C(M,R) as sum_{i<R} ln(M-i) - ln R!, at DPS digits.

    mpmath.binomial and loggamma differences lose every digit once M is far
    beyond 1e20; the sum of R logs keeps them.
    """
    with mpmath.workdps(DPS):
        return mpmath.fsum(mpmath.log(mpmath.mpf(M - i)) for i in range(R)) - mpmath.log(
            mpmath.factorial(R)
        )


@functools.cache
def alpha_root(R: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(c0, alpha) with c0 > R the root of e^x = (x+1)^(R+1) and
    alpha = (c0+1)^(R+1) / c0^R, by bisection at DPS digits."""
    with mpmath.workdps(DPS):
        def g(x):
            return x - (R + 1) * mpmath.log1p(x)

        lo, hi = mpmath.mpf(R), mpmath.mpf(2 * R + 2)
        while g(hi) <= 0:
            hi *= 2
        for _ in range(260):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        c0 = (lo + hi) / 2
        return c0, mpmath.exp((R + 1) * mpmath.log(c0 + 1) - R * mpmath.log(c0))


def rel_close(value: float, ref, tol: float) -> bool:
    ref = float(ref)
    return abs(value - ref) <= tol * max(abs(ref), 1.0)
