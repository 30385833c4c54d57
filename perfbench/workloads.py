"""The four benchmark workloads: verify, solve, construct and bounds-grid.

A workload is a fixed list of operations built from the seed before any
timing starts.  An operation makes one or a few calls into the package
through a Tracer; its output is then checked against `reference`, outside
the timed region.  A check returns None when the output is right, returns
a reason when the operation failed because of a known fault in the package
(those operations count as failed), and raises CheckError when the output
is wrong.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import mpmath

import reference as ref
from tracing import Tracer
from turan_systems import (
    UniformHypergraph,
    blowup,
    bound_reports,
    construction_parameters,
    descent_certificate,
    enumerate_subsets,
    is_turan_system,
    limit_alpha_root,
    lll_certificate_for,
    log_binomial,
    moser_tardos_color,
    recursive_system,
    sample_verify,
    solve_min_turan,
    trivial_prefix_system,
    unrank_colex,
)


class CheckError(AssertionError):
    """An output disagrees with its reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], str | None]
    # Units of work the output stands for (s-sets, nodes, edges, cells).
    work: Callable[[Any], int]
    # The call whose time the work rate divides by; None means the whole op.
    rate_call: str | None = None


@dataclass
class Workload:
    work_unit: str
    ops: list[Op]
    # (records of one traced pass, first outputs) -> per-layer metrics;
    # a record is op name -> (op seconds, call name -> seconds).
    layer_metrics: Callable[[dict, dict], dict[str, float]]
    # Extra layer timings made only in traced passes.
    probes: Callable[[Tracer], dict[str, float]] = field(default=lambda t: {})


def _sum_calls(records: dict, ops: list[Op], call: str, kind: str | None = None) -> float:
    return sum(
        records[op.name][1].get(call, 0.0)
        for op in ops
        if op.name in records and (kind is None or op.kind == kind)
    )


def _timed_loop(tracer: Tracer, name: str, body: Callable[[], None], calls: int) -> float:
    """Time `body` as one span covering `calls` calls; seconds per call."""
    tracer.call(name, body, calls=calls)
    return tracer.op_calls[name] / calls


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Positive exhaustive checks on prefix systems and on blowups of solver
# witnesses, negative checks on prefix systems missing one edge, and a
# sampled check on a prefix system too large to enumerate.
# No input takes much over 0.3 s, so a 20 s run makes a dozen passes and
# calibration runs often enough to follow the machine's speed.
VERIFY_PREFIX = [(14, 6, 3), (15, 6, 3), (16, 6, 3)]
VERIFY_BLOWUP = [((7, 4, 3), 3), ((6, 4, 3), 4), ((8, 5, 4), 2), ((7, 5, 3), 3)]
VERIFY_NEGATIVE = [(15, 6, 3), (16, 6, 3)]
VERIFY_SAMPLED = (40, 8, 4)
VERIFY_TRIALS = 600


def _system_json(n: int, r: int, edges, rng: random.Random) -> str:
    """System file text with edges and the vertices inside them shuffled."""
    shuffled = [rng.sample(list(e), len(e)) for e in edges]
    rng.shuffle(shuffled)
    return json.dumps({"n": n, "r": r, "edges": shuffled})


def _verify_op(kind: str, n: int, s: int, r: int, edges, rng: random.Random,
               expect_witness: tuple[int, ...] | None = None) -> Op:
    text = _system_json(n, r, edges, rng)
    edge_set = {tuple(sorted(e)) for e in edges}

    def run(t: Tracer):
        H = t.call("hypergraph.from_json", UniformHypergraph.from_json, text)
        return H, t.call("hypergraph.is_turan_system", is_turan_system, H, s)

    def check(out) -> None:
        H, rep = out
        expect((H.n, H.r) == (n, r) and set(H.edges) == edge_set, "from_json changed the system")
        if expect_witness is None:
            expect(ref.is_turan(n, s, edge_set), f"reference finds {kind} input not Turán")
            expect(rep.is_turan and rep.witness is None, f"{kind} system reported not Turán")
        else:
            expect(ref.uncovered_ssets(n, s, edge_set, limit=2) == [expect_witness],
                   "reference disagrees on the only uncovered s-set")
            expect(not rep.is_turan and tuple(rep.witness) == expect_witness,
                   f"witness {rep.witness}, expected {expect_witness}")

    return Op(
        name=f"{kind}({n},{s},{r})",
        kind=kind,
        run=run,
        check=check,
        work=lambda out: math.comb(n, s) if expect_witness is None else 0,
        rate_call="hypergraph.is_turan_system",
    )


def build_verify(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [_verify_op("prefix", n, s, r, ref.prefix_edges(n, s, r), rng)
           for n, s, r in VERIFY_PREFIX]
    for (n, s, r), m in VERIFY_BLOWUP:
        B, _ = blowup(solve_min_turan(n, s, r).witness, m)
        ops.append(_verify_op("blowup", m * n, s, r, B.edges, rng))
    for n, s, r in VERIFY_NEGATIVE:
        edges = ref.prefix_edges(n, s, r)
        removed = edges.pop(rng.randrange(len(edges)))
        witness = removed + tuple(range(n - (s - r), n))
        ops.append(_verify_op("negative", n, s, r, edges, rng, expect_witness=witness))

    n, s, r = VERIFY_SAMPLED
    text = _system_json(n, r, ref.prefix_edges(n, s, r), rng)
    sample_seed = rng.randrange(2**31)
    # Ranks drawn as sample_verify draws them, uniform over [0, C(n,s)),
    # for timing unrank_colex on its own in traced passes.
    draw = random.Random(sample_seed)
    ranks = [draw.randrange(math.comb(n, s)) for _ in range(VERIFY_TRIALS)]
    prefix_set = set(ref.prefix_edges(n, s, r))

    def run_sampled(t: Tracer):
        H = t.call("hypergraph.from_json", UniformHypergraph.from_json, text)
        return H, t.call("hypergraph.sample_verify", sample_verify, H, s, VERIFY_TRIALS, sample_seed)

    def check_sampled(out) -> None:
        H, rep = out
        expect((H.n, H.r) == (n, r) and set(H.edges) == prefix_set, "from_json changed the system")
        # A prefix system is Turán (every s-set meets the prefix in >= r
        # vertices), so no sampled s-set may be reported uncovered.
        expect(rep.is_turan and rep.mode == "sampled" and rep.trials == VERIFY_TRIALS,
               "sampled check of a prefix system failed")

    ops.append(Op(f"sampled({n},{s},{r})", "sampled", run_sampled, check_sampled, lambda out: 0))

    exhaustive_ns = sorted({(n, s) for n, s, _ in VERIFY_PREFIX + VERIFY_NEGATIVE}
                           | {(m * n, s) for (n, s, _), m in VERIFY_BLOWUP})

    def probes(t: Tracer) -> dict[str, float]:
        sets = sum(math.comb(a, b) for a, b in exhaustive_ns)

        def enumerate_all():
            for a, b in exhaustive_ns:
                for _ in enumerate_subsets(a, b):
                    pass

        def unrank_all():
            for x in ranks:
                unrank_colex(x, s, n)

        return {
            "combinatorics.enumerate_ns_per_set":
                1e9 * _timed_loop(t, "combinatorics.enumerate_subsets", enumerate_all, sets),
            "combinatorics.unrank_us":
                1e6 * _timed_loop(t, "combinatorics.unrank_colex", unrank_all, len(ranks)),
        }

    def layer_metrics(records: dict, outputs: dict) -> dict[str, float]:
        exh = "hypergraph.is_turan_system"
        return {
            "hypergraph.from_json_s": _sum_calls(records, ops, "hypergraph.from_json"),
            "hypergraph.exhaustive_prefix_s": _sum_calls(records, ops, exh, "prefix"),
            "hypergraph.exhaustive_blowup_s": _sum_calls(records, ops, exh, "blowup"),
            "hypergraph.exhaustive_negative_s": _sum_calls(records, ops, exh, "negative"),
            "hypergraph.sample_trial_us":
                1e6 * _sum_calls(records, ops, "hypergraph.sample_verify") / VERIFY_TRIALS,
        }

    return Workload("s-sets", ops, layer_metrics, probes)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# No instance takes over a second, so a 20 s run makes about nine passes;
# (9,6,3), 2.18M nodes in 1.4 s, left runs too few passes to be steady.
SOLVE_PROVEN = [(9, 7, 5), (10, 5, 2), (11, 6, 2), (7, 4, 3), (8, 5, 4)]
# Inside the solver's documented range, but not proven within this budget.
SOLVE_BUDGETED = ((8, 4, 3), 1_000_000)
# Published values: T(7,4,3) = 12 and T(8,4,3) = 20 (Sidorenko, "What we
# know and what we do not know about Turán numbers", Graphs Combin. 1995).
PUBLISHED_T = {(7, 4, 3): 12, (8, 4, 3): 20}


def _solve_op(n: int, s: int, r: int, budget: int | None) -> Op:
    kwargs = {} if budget is None else {"node_budget": budget}

    def run(t: Tracer):
        return t.call("solver.solve_min_turan", solve_min_turan, n, s, r, **kwargs)

    def check(res) -> str | None:
        lower = -(-math.comb(n, r) // math.comb(s, r))
        upper = math.comb(n - s + r, r)
        W = res.witness
        expect((res.n, res.s, res.r) == (n, s, r), "result for another instance")
        expect(lower <= res.optimum <= upper, f"optimum {res.optimum} outside [{lower}, {upper}]")
        expect(len(W) == res.optimum and (W.n, W.r) == (n, r), "witness size differs from optimum")
        expect(ref.is_turan(n, s, W.edges), "witness is not a Turán system")
        if not res.proven_optimal:
            return f"unproven after {res.nodes_explored} nodes (best {res.optimum})"
        if r == 2:
            expect(res.optimum == ref.turan_graph_complement_size(n, s), "differs from Turán's theorem")
        if (n, s, r) in PUBLISHED_T:
            expect(res.optimum == PUBLISHED_T[(n, s, r)], "differs from the published value")
        return None

    return Op(f"{n}-{s}-{r}", "solve", run, check, lambda res: res.nodes_explored)


def build_solve(seed: int) -> Workload:
    ops = [_solve_op(n, s, r, None) for n, s, r in SOLVE_PROVEN]
    (n, s, r), budget = SOLVE_BUDGETED
    ops.append(_solve_op(n, s, r, budget))
    # The instances are fixed; the seed only sets the order they run in.
    random.Random(seed).shuffle(ops)

    def layer_metrics(records: dict, outputs: dict) -> dict[str, float]:
        out = {}
        for op in ops:
            out[f"solver.solve_s.{op.name}"] = records[op.name][1]["solver.solve_min_turan"]
            if op.name in outputs:  # not when the solve raised
                out[f"solver.nodes.{op.name}"] = outputs[op.name].nodes_explored
        total = sum(out[f"solver.solve_s.{op.name}"] for op in ops)
        out["solver.nodes_per_s"] = sum(o.nodes_explored for o in outputs.values()) / total
        return out

    return Workload("nodes", ops, layer_metrics)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

CONSTRUCT_PREFIX = [(20, 7, 4), (24, 8, 4)]
# Randomized constructions, each with its number of seeded draws per pass.
# Their rounds and retries depend on the draw; many cheap draws keep the
# pass time nearly the same for every workload seed.
CONSTRUCT_COLORING = [((9, 5, 3, 3), 32), ((10, 6, 3, 4), 32)]  # (N, s, r, ell), need resampling
CONSTRUCT_BLOWUP = [((7, 4, 3), 3), ((6, 4, 3), 4)]
CONSTRUCT_RECURSIVE = [((12, 4, 1, 2, 1.0), 96), ((14, 5, 2, 3, 1.5), 8)]  # (n, r, R, k, c)


def build_construct(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []

    for n, s, r in CONSTRUCT_PREFIX:
        def run(t, n=n, s=s, r=r):
            return t.call("constructions.trivial_prefix_system", trivial_prefix_system, n, s, r)

        def check(H, n=n, s=s, r=r):
            expect(H.n == n and set(H.edges) == set(ref.prefix_edges(n, s, r)), "not the prefix system")

        ops.append(Op(f"prefix({n},{s},{r})", "prefix", run, check, len))

    for (N, s, r, ell), draws in CONSTRUCT_COLORING:
        for _ in range(draws):
            sub = rng.randrange(2**31)

            def run(t, N=N, s=s, r=r, ell=ell, sub=sub):
                return t.call("constructions.moser_tardos_color", moser_tardos_color, N, s, r, ell, sub)

            def check(o, N=N, s=s, r=r, ell=ell):
                total = math.comb(N, r)
                expect(o.success and len(o.coloring) == total, "resampling did not finish")
                sizes = [o.coloring.count(c) for c in range(ell)]
                expect(list(o.class_sizes) == sizes, "class sizes do not match the colouring")
                expect(ref.coloring_classes_turan(N, s, r, ell, o.coloring), "a colour class is not Turán")
                least = o.least_class
                expect(len(least) == min(sizes) <= total // ell, "least class too large")
                expect(all(o.coloring[ref.colex_rank(e)] == o.least_color for e in least.edges),
                       "least class is not a colour class")

            ops.append(Op(f"coloring({N},{s},{r},{ell})#{sub}", "coloring", run, check,
                          lambda o, N=N, r=r: math.comb(N, r)))

    for (n, s, r), m in CONSTRUCT_BLOWUP:
        base = solve_min_turan(n, s, r).witness
        perm = list(range(n))
        rng.shuffle(perm)
        A = UniformHypergraph.from_edges(n, r, [[perm[v] for v in e] for e in base.edges])

        def run(t, A=A, m=m):
            return t.call("constructions.blowup", blowup, A, m)

        def check(out, A=A, m=m, s=s):
            B, report = out
            expect(ref.is_turan(A.n, s, A.edges), "blowup input is not Turán")
            expect(len(B) == report.size == ref.blowup_size(A.n, A.r, m, len(A)), "blowup size off")
            expect(ref.is_turan(B.n, s, B.edges), "blowup is not Turán")

        ops.append(Op(f"blowup({n},{s},{r},m={m})", "blowup", run, check, lambda out: len(out[0])))

    for (n, r, R, k, c), draws in CONSTRUCT_RECURSIVE:
        expected = ref.expected_recursive_size(n, r, R, k, c)
        for _ in range(draws):
            sub = rng.randrange(2**31)

            def run(t, n=n, r=r, R=R, k=k, c=c, sub=sub):
                return t.call("constructions.recursive_system", recursive_system, n, r, R, k, c, sub)

            def check(out, n=n, r=r, R=R, expected=expected):
                G, sample = out
                expect(ref.rel_close(sample.expected_size, expected, 1e-9), "expected size off")
                expect(len(G) == sample.size_total and len(G) <= expected + Fraction(1, 10**9),
                       f"|G| = {len(G)} above its expectation {float(expected)}")
                expect(ref.is_turan(n, r + R, G.edges), "recursive system is not Turán")

            ops.append(Op(f"recursive({n},{r},{R},{k},{c})#{sub}", "recursive", run, check,
                          lambda out: len(out[0])))

    def layer_metrics(records: dict, outputs: dict) -> dict[str, float]:
        def kind_s(kind):
            return sum(records[op.name][0] for op in ops if op.kind == kind)

        return {
            "constructions.prefix_s": kind_s("prefix"),
            "constructions.coloring_s": kind_s("coloring"),
            "constructions.coloring_rounds":
                sum(o.rounds_used for name, o in outputs.items() if name.startswith("coloring")),
            "constructions.blowup_s": kind_s("blowup"),
            "constructions.recursive_s": kind_s("recursive"),
            "constructions.recursive_attempts":
                sum(o[1].retries + 1 for name, o in outputs.items() if name.startswith("recursive")),
        }

    return Workload("edges", ops, layer_metrics)


# ---------------------------------------------------------------------------
# bounds-grid
# ---------------------------------------------------------------------------

EPS1 = 0.05
# The fixed part of the grid spans the exact-integer path (N <= 512) up to
# r = 1e8 with ln N > 500.  Cells here may fail by the log_binomial fault.
GRID_R = [10, 30, 100, 300, 1000, 3000, 10**4, 10**5, 10**6, 10**7, 10**8]
GRID_BIG_R = [1, 2, 3, 5, 10, 30, 100]
# Seeded cells come from regions where every ln C(a,b) the package takes
# has a <= 4096, so no seed can draw a cell that hits the fault.
SEEDED_PER_REGION = 16
LOGBIN_TOL = 1e-12
VALUE_TOL = 1e-9


def _seeded_regions() -> list[list[tuple[int, int]]]:
    exact, small_log, large_log = [], [], []
    grid = set(_grid_cells())
    for r in range(3, 21):
        for R in range(1, 20):
            s = r + R
            C = math.comb(s, R)
            N = r * (r - 1) * C // (2 * R)
            if N <= s or (r, R) in grid:
                continue
            if r * (r - 1) * C <= 512 * 2 * R:
                exact.append((r, R))
            elif N - s <= 4096:
                small_log.append((r, R))
    # ln N >= 510 with s <= 4096: the package takes R ln N - ln R! for
    # ln C(N-s,R) and an exact log for ln C(s,R).
    for r in range(1500, 4000, 25):
        for R in range(80, 300, 5):
            s = r + R
            if s <= 4096 and math.log(r * (r - 1) / (2 * R)) + math.log(math.comb(s, R)) >= 510:
                large_log.append((r, R))
    return [exact, small_log, large_log]


def _grid_cells() -> list[tuple[int, int]]:
    return [(r, R) for r in GRID_R for R in GRID_BIG_R]


@dataclass
class CellReference:
    """mpmath values for one (r, R) cell, and the ln C(a,b) it relies on."""

    r: int
    R: int
    logbin_args: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        r, R = self.r, self.R
        s = self.s = r + R
        self.C = math.comb(s, R)
        self.lnC = ref.ln_binomial(s, R)
        self.N = r * (r - 1) * self.C // (2 * R)
        self.logbin_args.append((s, R))
        if self.N - s >= R:
            self.lnC_Ns = ref.ln_binomial(self.N - s, R)
            # The package takes ln C(N-s,R) by log_binomial on the log-space
            # path while ln N <= 500, and as R ln N - ln R! beyond.
            if self.N > 512 and math.log(self.N) <= 500:
                self.logbin_args.append((self.N - s, R))
        self.descends = R >= 2 and r >= 18 * R * R / EPS1
        if self.descends:
            self._descent()

    def _descent(self):
        r, R = self.r, self.R
        eps = Fraction(EPS1)
        threshold = Fraction(18 * R * R) / eps
        steps = []
        r_i = r
        while True:
            k_i = math.ceil(Fraction(R * r_i) / (R + eps)) + R
            steps.append((r_i, k_i))
            r_i -= k_i
            if r_i < threshold:
                break
        self.steps, self.r_final = steps, r_i
        with mpmath.workdps(ref.DPS):
            c = R * mpmath.log(3 * R / mpmath.mpf(EPS1)) + mpmath.log(2 * R * mpmath.log(R))
            self.descent_c = c
            log_mu = ref.ln_binomial(self.r_final + R, R)
            self.logbin_args.append((self.r_final + R, R))
            for r_i, k_i in reversed(steps):
                terms = [
                    mpmath.log(c) + ref.ln_binomial(r_i + R, R) - ref.ln_binomial(k_i, R),
                    log_mu + ref.ln_binomial(r_i + R, R) - c - ref.ln_binomial(r_i - k_i + R, R),
                ]
                self.logbin_args += [(r_i + R, R), (k_i, R), (r_i - k_i + R, R)]
                log_mu = mpmath.log(mpmath.fsum(mpmath.exp(x) for x in terms))
            self.descent_log_mu = log_mu

    def logbin_off(self) -> bool:
        """Whether the package's log_binomial misses the reference at any
        argument this cell uses (the cancellation fault)."""
        return any(not ref.rel_close(log_binomial(a, b), ref.ln_binomial(a, b), LOGBIN_TOL)
                   for a, b in self.logbin_args)


def _check_cell(cell: CellReference, out) -> str | None:
    """Structural errors raise; log-space mismatches are collected and count
    as the log_binomial fault when that function is off at the cell's
    arguments, and as wrong output otherwise."""
    params, cert, reports, root, descent = out
    r, R, s = cell.r, cell.R, cell.s
    off: list[str] = []
    denom = ell = log_ell = None

    def close(name, value, reference):
        if value is None or not ref.rel_close(value, reference, VALUE_TOL):
            off.append(f"{name}={value} ref={float(reference):.12g}")

    with mpmath.workdps(ref.DPS):
        expect((params.r, params.R, params.s) == (r, R, s), "parameters for another cell")
        close("log_binom_sR", params.log_binom_sR, cell.lnC)
        degenerate = cell.N <= s
        if not degenerate:
            denom = 2 * cell.lnC + cell.lnC_Ns
            close("denominator_log", params.denominator_log, denom)
        if params.exact_path:
            expect(params.N == cell.N, f"N = {params.N}, expected {cell.N}")
            close("log_N", params.log_N, mpmath.log(cell.N))
            if not degenerate:
                ell = int(mpmath.floor(cell.C / denom))
                degenerate = ell < 1
                expect(params.ell == ell, f"ell = {params.ell}, expected {ell}")
                log_ell = mpmath.log(ell) if ell >= 1 else None
        else:
            expect(params.N is None, "log-space parameters carry an exact N")
            close("log_N", params.log_N,
                  mpmath.log(r) + mpmath.log(r - 1) + cell.lnC - mpmath.log(2 * R))
            ell = None
            log_ell = cell.lnC - mpmath.log(denom)
            degenerate = denom <= 0 or log_ell < 0
            if not degenerate:
                close("log_ell", params.log_ell, log_ell)
        if params.degenerate != degenerate:
            off.append(f"degenerate={params.degenerate} ref={degenerate}")
        elif not degenerate:
            _check_certificate(cell, params, cert, denom, ell, log_ell, close, off)
        _check_reports(cell, params, reports, degenerate, denom if not degenerate else None,
                       ell, close)
        c0, alpha = ref.alpha_root(R)
        expect(ref.rel_close(root.c0, c0, VALUE_TOL) and ref.rel_close(root.alpha, alpha, VALUE_TOL),
               f"alpha root ({root.c0}, {root.alpha}) off reference")
        if cell.descends:
            got = [(e.r_i, e.k_i) for e in descent.entries]
            expect(got == cell.steps and descent.r_final == cell.r_final,
                   "descent schedule differs from the reference")
            expect(all(ref.rel_close(e.c_i, cell.descent_c, VALUE_TOL) for e in descent.entries),
                   "descent constant c off")
            mu = mpmath.exp(cell.descent_log_mu) if cell.descent_log_mu < 709 else mpmath.inf
            if mu == mpmath.inf:
                expect(descent.final_mu == math.inf, "final mu should overflow")
            else:
                close("descent_final_mu", descent.final_mu, mu)
        else:
            expect(descent is None, "descent evaluated outside its domain")
    if not off:
        return None
    if cell.logbin_off():
        return "log_binomial cancellation: " + "; ".join(off)
    raise CheckError("log-space values off with log_binomial exact: " + "; ".join(off))


def _check_certificate(cell, params, cert, denom, ell, log_ell, close, off) -> None:
    R, s, lnC = cell.R, cell.s, cell.lnC
    expect(cert.ratio_C_over_ell == params.denominator_log, "certificate ignores the denominator")
    if ell is not None:
        delta = sum(math.comb(s, i) * math.comb(cell.N - s, s - i) for i in range(cell.r, s + 1))
        expect(cert.delta_exact == delta, "dependency degree differs from its sum")
        log_delta = mpmath.log(delta)
        log_p = None if ell == 1 else mpmath.log(ell) + cell.C * mpmath.log1p(-mpmath.mpf(1) / ell)
    else:
        # An upper bound 2 C(s,R) C(N-s,R) taken at N rounded from the
        # unfloored log N, so between its values at N and N + 1.
        log_delta = mpmath.log(2) + lnC + cell.lnC_Ns
        slack = R * mpmath.log1p(mpmath.mpf(1) / (cell.N + 1 - s - R))
        got = cert.log_delta.log_magnitude
        if not (ref.rel_close(got, log_delta, VALUE_TOL) or log_delta <= got <= log_delta + slack):
            off.append(f"log_delta={got} ref=[{float(log_delta):.12g}, +{float(slack):.3g}]")
        log_p = log_ell - denom
    margins = {
        "condition_holds": None if log_p is None else -(1 + log_p + log_delta),
        "exponential_condition_holds": denom - (1 + log_ell + log_delta),
    }
    for name, margin in margins.items():
        verdict = getattr(cert, name)
        if margin is None:
            expect(verdict, f"{name} must hold with one colour class")
        elif abs(margin) > 1e-6 + (slack if ell is None else 0) and verdict != (margin > 0):
            off.append(f"{name}={verdict} ref margin {float(margin):.6g}")


def _check_reports(cell, params, reports, degenerate, denom, ell, close) -> None:
    r, R, s = cell.r, cell.R, cell.s
    values = {rep.name: rep.value for rep in reports}
    expected = {
        "trivial_lower": 1,
        "decaen_lower": mpmath.mpf(s) / r,
        "limit_alpha": ref.alpha_root(R)[1],
        "R_log_binom": R * cell.lnC,
    }
    if R > math.e:
        expected["large_gap_RlnR"] = R * mpmath.log(R) + 3 * R * mpmath.log(mpmath.log(R))
    if r >= 3:
        expected["fixed_gap"] = R * (R + 4) * mpmath.log(r)
    chain_ok = not degenerate and not (ell is not None and ell < 2)
    if chain_ok:
        if ell is not None:
            lhs = mpmath.mpf(cell.C) / ell + mpmath.mpf(r * (r - 1) * cell.C) / (2 * cell.N)
        else:
            lhs = denom + R
        expected["chain_lhs_over_RlnC"] = lhs / (R * cell.lnC)
    # Which reports appear depends only on (r, R) and the degenerate flag.
    if set(values) != set(expected) and params.degenerate == degenerate:
        raise CheckError(f"bound reports {sorted(values)}, expected {sorted(expected)}")
    for name, value in expected.items():
        if name in values:
            close(name, values[name], value)


def build_bounds_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    cells = _grid_cells()
    for region in _seeded_regions():
        cells += rng.sample(region, SEEDED_PER_REGION)
    rng.shuffle(cells)
    ops = []
    logbin_args = set()
    for r, R in cells:
        cell = CellReference(r, R)
        logbin_args.update(cell.logbin_args)

        def run(t: Tracer, r=r, R=R, descends=cell.descends):
            params = t.call("constructions.construction_parameters", construction_parameters, r, R)
            cert = None if params.degenerate else t.call(
                "constructions.lll_certificate_for", lll_certificate_for, params)
            reports = t.call("bounds.bound_reports", bound_reports, r, R, EPS1)
            root = t.call("bounds.limit_alpha_root", limit_alpha_root, R)
            descent = t.call("bounds.descent_certificate", descent_certificate, r, R, EPS1) \
                if descends else None
            return params, cert, reports, root, descent

        ops.append(Op(f"cell({r},{R})", "cell", run,
                      lambda out, cell=cell: _check_cell(cell, out), lambda out: 1))

    def probes(t: Tracer) -> dict[str, float]:
        def all_args():
            for a, b in logbin_args:
                log_binomial(a, b)

        return {"combinatorics.log_binomial_ns":
                1e9 * _timed_loop(t, "combinatorics.log_binomial", all_args, len(logbin_args))}

    def layer_metrics(records: dict, outputs: dict) -> dict[str, float]:
        def per_call_us(call):
            calls = [rec[1][call] for rec in records.values() if call in rec[1]]
            return 1e6 * sum(calls) / len(calls) if calls else 0.0

        return {
            "constructions.parameters_us": per_call_us("constructions.construction_parameters"),
            "constructions.lll_us": per_call_us("constructions.lll_certificate_for"),
            "bounds.reports_us": per_call_us("bounds.bound_reports"),
            "bounds.alpha_root_us": per_call_us("bounds.limit_alpha_root"),
            "bounds.descent_us": per_call_us("bounds.descent_certificate"),
        }

    return Workload("cells", ops, layer_metrics, probes)


BUILDERS = {
    "verify": build_verify,
    "solve": build_solve,
    "construct": build_construct,
    "bounds-grid": build_bounds_grid,
}
