"""Benchmark of the turan_systems package: one workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it in a checkout: the package is imported from the checkout's `src`.
Inputs are built from --seed before timing starts, then the workload's
operations run in whole passes, one after another in this single thread,
until --seconds have gone by.  Every output is checked
against perfbench/reference.py.  The last line printed is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
`--workload all` runs each workload in its own process and prints each
workload's metrics.  Details of each run, and the spans of a traced run,
go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

from calibration import STARTUP_NOMINAL_S, STARTUP_REFERENCE, Calibration
from tracing import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ["verify", "solve", "construct", "bounds-grid"]
SETUP_RUNS = 11
LAYERS = ["combinatorics", "hypergraph", "solver", "constructions", "bounds", "bench"]

# A fresh interpreter imports the CLI and asks it for its version.
SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import turan_systems.cli as cli\n"
    "sys.stderr.write(repr(time.perf_counter() - t))\n"
    "cli.main(['--version'])\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(version: str) -> tuple[list[float], list[float]]:
    """Scaled wall times of SETUP_RUNS fresh CLI start-ups, and of their imports.

    Each start-up is scaled by STARTUP_NOMINAL_S over the wall time of the
    reference start-up run just before it.  One unmeasured pair runs
    first, to warm the file cache and write byte-code caches where Python
    is allowed to.
    """
    def spawn(code: str) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        return perf_counter() - t0, proc

    walls, imports = [], []
    for i in range(SETUP_RUNS + 1):
        reference, _ = spawn(STARTUP_REFERENCE)
        wall, proc = spawn(SETUP_CHILD)
        if proc.returncode != 0 or proc.stdout.strip() != version:
            raise RuntimeError(f"CLI start-up failed: {proc.stderr.strip()}")
        if i:
            f = STARTUP_NOMINAL_S / reference
            walls.append(wall * f)
            imports.append(float(proc.stderr) * f)
    return walls, imports


class Run:
    """Runs a workload's operations in passes and checks each output.

    Untraced passes keep, per operation, its raw seconds, the raw seconds
    of the call its work rate uses (if not the whole operation), and the
    calibration index, in flat arrays, so the benchmark's own memory
    barely grows with the number of passes.  Traced passes keep whole records: op name -> (seconds, call
    name -> seconds).  Times are scaled by the calibration in `finish`.
    """

    def __init__(self, workload, tracer, cal: Calibration) -> None:
        self.wl = workload
        self.tracer = tracer
        self.cal = cal
        self.first: dict[str, object] = {}
        self.status: dict[str, str | None] = {}
        self.wrong: list[str] = []
        self.raised: list[str] = []
        self.attempted = self.failed = 0
        self.samples = {op.name: (array("d"), array("d"), array("I")) for op in workload.ops}
        self.raw_traced: list[tuple[int, dict, dict, int]] = []  # (pass, records, probes, cal)

    def one_pass(self, recording: bool) -> None:
        t = self.tracer
        t.recording = recording
        records = {}
        for op in self.wl.ops:
            ci = self.cal.tick()
            t0 = perf_counter()
            t.begin_op(op.name, t0)
            try:
                out, exc = op.run(t), None
            except Exception as e:  # an operation that raises counts as failed
                out, exc = None, e
            t1 = perf_counter()
            t.end_op(t1)
            if recording:
                records[op.name] = (t1 - t0, t.op_calls, ci)
            else:
                seconds, rate, cis = self.samples[op.name]
                seconds.append(t1 - t0)
                if op.rate_call:
                    rate.append(t.op_calls.get(op.rate_call, 0.0))
                cis.append(ci)
            self.attempted += 1
            self._account(op, out, exc)
        if recording:
            ci = self.cal.tick(force=True)
            self.raw_traced.append((t.pass_no, records, self.wl.probes(t), ci))
        t.pass_no += 1

    def _account(self, op, out, exc) -> None:
        if exc is not None:
            if op.name not in self.status:
                self.status[op.name] = f"raised {exc!r}"
                self.raised.append(f"{op.name}: " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
            self.failed += 1
            return
        if op.name not in self.first:
            self.first[op.name] = out
            try:
                self.status[op.name] = op.check(out)
            except AssertionError as e:
                self.status[op.name] = None
                self.wrong.append(f"{op.name}: wrong output: {e}")
        elif out != self.first[op.name]:
            self.wrong.append(f"{op.name}: output changed between passes")
        if self.status[op.name] is not None:
            self.failed += 1

    def finish(self) -> None:
        """Median scaled and raw times per operation; scaled traced records."""
        self.cal.tick(force=True)
        f = self.cal.factor
        self.op_median = {}  # op name -> (scaled s, scaled rate-call s, raw s)
        for name, (seconds, rate, cis) in self.samples.items():
            if seconds:
                self.op_median[name] = (
                    statistics.median(x * f(ci) for x, ci in zip(seconds, cis)),
                    statistics.median(x * f(ci) for x, ci in zip(rate or seconds, cis)),
                    statistics.median(seconds),
                )
        self.traced = []
        for pass_no, records, probes, ci in self.raw_traced:
            scaled = {
                name: (seconds * f(c), {k: v * f(c) for k, v in calls.items()})
                for name, (seconds, calls, c) in records.items()
            }
            self.traced.append((pass_no, scaled, {k: v * f(ci) for k, v in probes.items()}))


def end_to_end(run: Run, setup_walls: list[float]) -> dict[str, float]:
    work = rate_time = 0.0
    for op in run.wl.ops:
        w = op.work(run.first[op.name]) if op.name in run.first else 0
        if w:
            work += w
            rate_time += run.op_median[op.name][1]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": sum(m[0] for m in run.op_median.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": work / rate_time,
    }


def per_layer(run: Run, imports: list[float]) -> dict[str, float]:
    spans = run.tracer.spans
    by_pass: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        by_pass.setdefault(sp.pass_no, []).append(i)
    raw_totals = {pass_no: sum(rec[0] for rec in recs.values())
                  for pass_no, recs, _, _ in run.raw_traced}
    samples: dict[str, list[float]] = {}
    for pass_no, records, probes in run.traced:
        total = sum(rec[0] for rec in records.values())
        values = dict(run.wl.layer_metrics(records, run.first))
        values.update(probes)
        # Spans are raw; scale them by the pass's mean calibration factor.
        f = total / raw_totals[pass_no]
        totals = layer_totals(spans, by_pass[pass_no])
        for layer in LAYERS:
            self_s, calls = totals.get(layer, (0.0, 0))
            values[f"{layer}.self_s"] = self_s * f
            if layer != "bench":
                values[f"{layer}.calls"] = calls
        values["trace.spans"] = len(by_pass[pass_no])
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
    traced_total = sum(statistics.median(records[op.name][0] for _, records, _ in run.traced)
                       for op in run.wl.ops)
    untraced_total = sum(m[0] for m in run.op_median.values())
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_pct"] = 100 * (traced_total / untraced_total - 1)
    return metrics


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import turan_systems

    if Path(turan_systems.__file__).resolve().parent != SRC / "turan_systems":
        print(f"imported turan_systems from {turan_systems.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import BUILDERS

    cal = Calibration()
    setup_walls, imports = measure_setup(turan_systems.__version__)
    workload = BUILDERS[args.workload](args.seed)
    run = Run(workload, Tracer(), cal)
    start = perf_counter()
    min_passes = 2 if args.trace else 1
    while run.tracer.pass_no < min_passes or perf_counter() - start < args.seconds:
        # A traced run alternates untraced and traced passes, so the two
        # share the machine's state and their gap is the tracing overhead.
        run.one_pass(recording=bool(args.trace) and run.tracer.pass_no % 2 == 1)
    run.finish()

    if args.trace:
        metrics = per_layer(run, imports)
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # A layer metric reads 0 on a workload that makes no such call.
        metrics.update({k: 0.0 for k in names.keys() - metrics.keys()})
    else:
        metrics = end_to_end(run, setup_walls)
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if metrics.keys() != names.keys():
        print(f"metrics {sorted(metrics.keys() ^ names.keys())} not as in BENCHMARK.json",
              file=sys.stderr)
        return 2

    for e in run.wrong + run.raised:
        print(e, file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": run.tracer.pass_no, "work_unit": workload.work_unit,
        "failed_ops": {k: v for k, v in run.status.items() if v},
        "wrong": run.wrong,
        "raised": run.raised,
        "calibration_s": cal.times,
        "op_median_s": {name: m[0] for name, m in run.op_median.items()},
        "op_median_raw_s": {name: m[2] for name, m in run.op_median.items()},
        "metrics": metrics,
    }
    if args.trace:
        detail["spans"] = [
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "calls": sp.calls, "pass": sp.pass_no}
            for sp in run.tracer.spans if sp.pass_no == run.tracer.spans[0].pass_no
        ]
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {args.workload}: {run.tracer.pass_no} passes, details in {out_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {names[name]}")
    print(f"{args.workload:12s} attempted {run.attempted} failed {run.failed}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": names[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and results."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "turan_systems" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    os.environ["TURAN_CACHE"] = os.path.join(tmp, "cache.json")
    os.environ["TMPDIR"] = tmp
    try:
        return run_workload(args, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
