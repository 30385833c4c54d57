"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s to see them on success).  Numeric tolerances are stated
inline next to each check.
"""

import math
import random
import sys

from turan_systems.bounds import (
    large_gap_mu_bound,
    binomial_ratio_check,
    segment_split_plan,
    limit_alpha_root,
    closing_chain_check,
    descent_certificate,
    descent_schedule,
)
from turan_systems.combinatorics import binomial
from turan_systems.constructions import (
    _draw,
    blowup,
    construction_parameters,
    expected_recursive_size,
    lll_certificate_for,
    moser_tardos_color,
    recursive_system,
)
from turan_systems.hypergraph import BudgetExceededError, is_turan_system
from turan_systems.solver import solve_min_turan, turan_r2_value


def _report(criterion: int, label: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_exact_values():
    ok = all(solve_min_turan(n, n, r).optimum == 1 for n, r in [(4, 2), (5, 3), (6, 4)])
    for (n, s, r, want) in [(4, 3, 2, 2), (5, 3, 2, 4), (5, 4, 3, 3)]:
        res = solve_min_turan(n, s, r)
        ok = ok and res.optimum == want and res.proven_optimal
        ok = ok and is_turan_system(res.witness, s).is_turan
        ok = ok and len(res.witness) == want
    _report(1, "exact solver values with verified witnesses", ok)


def test_criterion_02_graph_cross_check():
    ok = True
    for n in range(3, 9):
        for s in range(3, n + 1):
            ok = ok and solve_min_turan(n, s, 2).optimum == turan_r2_value(n, s)
    _report(2, "graph-case optimum matches the balanced-partition formula", ok)


def test_criterion_03_root_constant():
    res = limit_alpha_root(1)
    ok = abs(res.alpha - 4.911) <= 1e-3  # tolerance +-0.001
    worst = max(limit_alpha_root(R).residual for R in range(1, 10_001))
    ok = ok and worst <= 1e-9
    _report(3, f"alpha(1)={res.alpha:.6f}, max residual {worst:.3e}", ok)


def test_criterion_04_large_R_corollary_sweep():
    ok = True
    R = 100
    while R <= 10**6:
        ok = ok and limit_alpha_root(R).alpha <= large_gap_mu_bound(R)
        R = max(R + 1, int(R * 1.25))
    _report(4, "alpha(R) below R ln R + 3R lnln R on a log grid of [1e2,1e6]", ok)


def test_criterion_05_support_facts_random_sweep():
    rng = random.Random(20260826)
    ok = True
    for _ in range(10_000):
        R = rng.randint(1, 40)
        r2 = rng.randint(R + 1, 500)
        r1 = rng.randint(r2, 1000)
        ok = ok and binomial_ratio_check(r1, r2, R).holds
    for _ in range(10_000):
        R = rng.randint(1, 30)
        r = rng.randint(18 * R + 1, 10**6)
        delta = rng.uniform(18 * R * R / r, R)
        ok = ok and segment_split_plan(r, R, delta).all_hold()
    _report(5, "10^4 random in-domain draws per supporting fact, zero violations", ok)


def test_criterion_06_recursive_construction_validity():
    rng = random.Random(7)
    ok = True
    for _ in range(200):
        r = rng.randint(2, 4)
        R = rng.randint(1, min(2, r - 1))
        n = rng.randint(r + R, 12)
        k = rng.randint(R, r - 1)
        c = rng.uniform(0.0, binomial(k, R))
        seed = rng.randrange(2**32)
        G, _ = recursive_system(n, r, R, k, c, seed)
        ok = ok and is_turan_system(G, r + R).is_turan
    expected, _ = expected_recursive_size(8, 3, 1, 2, c=1.0)
    draw_rng = random.Random(0)
    sizes = [
        _draw(8, 3, 1, 2, 1.0, draw_rng)[3] for _ in range(300)
    ]
    mean = sum(sizes) / len(sizes)
    var = sum((x - mean) ** 2 for x in sizes) / (len(sizes) - 1)
    sem = math.sqrt(var / len(sizes))
    ok = ok and abs(mean - expected) <= 3 * sem
    _report(
        6,
        f"200 random instances verify; mean size {mean:.2f} vs expected "
        f"{expected:.2f} (3*sem={3 * sem:.2f})",
        ok,
    )


def test_criterion_07_blowup_validity():
    ok = True
    cells = 0
    for N in range(3, 7):
        for r in range(2, N):
            for s in range(r + 1, N + 1):
                A = solve_min_turan(N, s, r).witness
                for m in (2, 3):
                    try:
                        B, report = blowup(A, m)
                    except BudgetExceededError:
                        continue
                    cells += 1
                    ok = ok and is_turan_system(B, s).is_turan
                    ok = ok and len(B) <= report.cap()
    _report(7, f"{cells} blowups of optimal bases verify within the size cap", ok)


def test_criterion_08_true_scale_certificates():
    ok = True
    pinned = {(10**6, 10**3): 1.0039127294808805, (10**7, 10**4): 1.0003912288731949}
    for (r, R), want in pinned.items():
        cert = lll_certificate_for(construction_parameters(r, R))
        ok = ok and cert.condition_holds and cert.exponential_condition_holds
        chain = closing_chain_check(r, R)
        ok = ok and chain.ratio < 1.1
        ok = ok and abs(chain.ratio - want) <= 1e-6 * want  # pinned regression
    _report(8, "log-space local-lemma certificates and closing-chain ratios", ok)


def test_criterion_09_toy_resampling():
    ok = True
    successes = 0
    for seed in range(50):
        out = moser_tardos_color(6, 4, 3, 2, seed=seed, max_rounds=2000)
        if out.success:
            successes += 1
            for c in range(2):
                ok = ok and is_turan_system(out.color_class(c), 4).is_turan
            ok = ok and len(out.least_class) <= binomial(6, 3) // 2
        else:
            ok = ok and out.failed_s_set is not None  # only round-cap failures
    ok = ok and successes > 0
    _report(9, f"{successes}/50 seeds succeed; every class verifies", ok)


def test_criterion_10_monotone_ratio():
    ok = True
    for (s, r, n_max) in [(3, 2, 8), (4, 2, 8), (4, 3, 7), (5, 3, 8), (5, 4, 8)]:
        prev = 0.0
        for n in range(s, n_max + 1):
            res = solve_min_turan(n, s, r)
            ok = ok and res.proven_optimal
            ratio = res.optimum / binomial(n, r)
            ok = ok and ratio >= prev - 1e-12
            prev = ratio
    _report(10, "T(n,s,r)/C(n,r) non-decreasing on all proven ranges", ok)


def test_criterion_11_descent_schedule_and_certificate():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        R = rng.randint(1, 50)
        eps1 = rng.uniform(0.01, 1.0)
        lo = int(18 * R * R / eps1) + 1
        if lo > 10**6:
            R = rng.randint(1, 10)
            lo = int(18 * R * R / eps1) + 1
        r = rng.randint(min(lo, 10**6), 10**6)
        trace = descent_schedule(r, R, eps1)
        rs = [e.r_i for e in trace.entries]
        ok = ok and rs == sorted(rs, reverse=True) and len(set(rs)) == len(rs)
        if r >= 18 * R * R / eps1:
            ok = ok and all(e.step_lower_bound_ok for e in trace.entries)
    cert = descent_certificate(10**5, 3, 0.05)
    ok = ok and math.isfinite(cert.final_mu) and cert.final_mu >= 1.0
    _report(
        11,
        f"100 random schedules descend correctly; certificate mu={cert.final_mu:.4g}",
        ok,
    )
