"""Command-line entry point.

Exit codes: 0 success / verified, 1 verified-false, 2 usage error,
3 construction failure, 4 budget refusal.  Subcommands return 0 or 1
(and 4 for a solve that runs out of budget) and raise on every failure;
main maps the exception to its code and prints it as one stderr line.
Every randomized subcommand requires an explicit --seed so reruns are
byte-identical; each construct run writes a manifest side file recording
the full parameter map.

Start-up loads no package module: each subcommand imports what it runs,
when it runs.  --version, --help and usage errors load none; verify loads
combinatorics and hypergraph; construct those and constructions; bounds,
table and certify-lll those and bounds; solve all five.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .hypergraph import UniformHypergraph

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_BUDGET = 4


def _exit_code(exc: Exception) -> int | None:
    """The exit code of an exception a subcommand raised, or None for one
    that main does not map (any other RuntimeError)."""
    # Imported only on failure: both subclass RuntimeError, which main
    # catches, so a command that succeeds never loads constructions for them.
    from .combinatorics import BudgetExceededError
    from .constructions import ConstructionError

    # First match wins.
    for kind, code in (
        (BudgetExceededError, EXIT_BUDGET),
        (ConstructionError, EXIT_CONSTRUCTION),
        (ValueError, EXIT_USAGE),
        (OSError, EXIT_USAGE),
    ):
        if isinstance(exc, kind):
            return code
    return None


def _dump(obj: dict) -> str:
    """Strict JSON of obj, already in combinatorics._json_value form: a
    non-finite float left in it raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_manifest(args: argparse.Namespace, text: str) -> None:
    """The manifest beside args.out, with the digest of the text written there."""
    # Imported here: only construct writes a manifest, and hashlib costs
    # every other command a few milliseconds of start-up.
    import hashlib

    from .combinatorics import _json_value

    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in {"func", "out"}
    }
    manifest = {
        "subcommand": args.command,
        "parameters": _json_value(params),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {args.out: hashlib.sha256(text.encode()).hexdigest()},
    }
    with open(args.out + ".manifest.json", "w") as fh:
        fh.write(_dump(manifest))


def _load_system(path: str) -> UniformHypergraph:
    """The system in a JSON file; an unreadable or malformed file is one
    ValueError whose message starts with "cannot parse"."""
    from .hypergraph import UniformHypergraph

    try:
        with open(path) as fh:
            return UniformHypergraph.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None


# --- construct ---


# Options each construction needs; argparse cannot require an option for
# one positional choice only.
_CONSTRUCT_REQUIRED = {
    "prefix": ("n", "s", "r"),
    "coloring": ("n", "s", "r", "ell", "seed"),
    "blowup": ("input", "m"),
    "recursive": ("n", "r", "big_r", "k", "c", "seed"),
}


def cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import (
        ConstructionError,
        blowup,
        moser_tardos_color,
        recursive_system,
        trivial_prefix_system,
    )

    missing = [
        "--" + name.replace("_", "-")
        for name in _CONSTRUCT_REQUIRED[args.kind]
        if getattr(args, name) is None
    ]
    if missing:
        raise ValueError(f"construct {args.kind} requires {', '.join(missing)}")
    if args.kind == "prefix":
        system = trivial_prefix_system(args.n, args.s, args.r)
    elif args.kind == "coloring":
        outcome = moser_tardos_color(args.n, args.s, args.r, args.ell, args.seed, args.max_rounds)
        if not outcome.success:
            raise ConstructionError(
                f"resampling cap reached; last violated s-set {outcome.failed_s_set}"
            )
        system = outcome.least_class
    elif args.kind == "blowup":
        system, _report = blowup(_load_system(args.input), args.m)
    else:
        system, _sample = recursive_system(args.n, args.r, args.big_r, args.k, args.c, args.seed)
    text = _dump(system.to_json_dict())
    _write_output(text, args.out)
    if args.out is not None:
        _write_manifest(args, text)
    return EXIT_OK


# --- verify ---


def cmd_verify(args: argparse.Namespace) -> int:
    from .hypergraph import DEFAULT_EXHAUSTIVE_BUDGET, is_turan_system, sample_verify

    H = _load_system(args.input)
    if args.mode == "exhaustive":
        budget = DEFAULT_EXHAUSTIVE_BUDGET if args.budget is None else args.budget
        report = is_turan_system(H, args.s, budget=budget)
    elif args.seed is None:
        raise ValueError("sample mode requires --seed")
    else:
        report = sample_verify(H, args.s, args.trials, args.seed)
    sys.stdout.write(_dump(report.to_json_dict()))
    return EXIT_OK if report.is_turan else EXIT_FALSE


# --- solve ---


def cmd_solve(args: argparse.Namespace) -> int:
    from .solver import DEFAULT_NODE_BUDGET, ValueCache, solve_with_cache

    node_budget = DEFAULT_NODE_BUDGET if args.node_budget is None else args.node_budget
    # Cache warnings (unreadable or unwritable file, dropped entries) do not
    # change the result; each becomes one line on stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve_with_cache(
            args.n, args.s, args.r, cache=ValueCache(), node_budget=node_budget
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    sys.stdout.write(_dump(result.to_json_dict()))
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET


# --- bounds ---

_CSV_COLUMNS = ["r", "R", "bound_name", "kind", "value", "assumptions"]


def _bounds_rows(r: int, R: int) -> list[dict]:
    from .bounds import bound_reports

    return [
        {
            "r": r,
            "R": R,
            "bound_name": rep.name,
            "kind": rep.kind,
            "value": rep.value,
            "assumptions": "; ".join(rep.assumptions),
        }
        for rep in bound_reports(r, R)
    ]


def _emit_rows(rows: list[dict], fmt: str) -> None:
    from .combinatorics import _json_value

    if fmt == "json":
        sys.stdout.write(_dump({"rows": _json_value(rows)}))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def cmd_bounds(args: argparse.Namespace) -> int:
    _emit_rows(_bounds_rows(args.r, args.big_r), args.format)
    return EXIT_OK


# --- certify-lll ---


def cmd_certify_lll(args: argparse.Namespace) -> int:
    from .bounds import closing_chain_check
    from .constructions import (
        ConstructionError,
        construction_parameters,
        lll_certificate_for,
        lll_condition,
    )

    if (args.n is None) != (args.ell is None):
        raise ValueError("certify-lll: --n and --ell go together; give both or neither")
    if args.n is not None:
        cert = lll_condition(args.n, args.r + args.big_r, args.r, args.ell)
        chain = None
    else:
        params = construction_parameters(args.r, args.big_r)
        if params.degenerate:
            raise ConstructionError(f"degenerate parameters: {params.degenerate_reason}")
        chain = closing_chain_check(args.r, args.big_r)
        cert = lll_certificate_for(params)
    payload = {"certificate": cert.to_json_dict()}
    if chain is not None:
        payload["chain_check"] = chain.to_json_dict()
    sys.stdout.write(_dump(payload))
    return EXIT_OK if cert.condition_holds else EXIT_FALSE


# --- table ---


def _parse_grid(spec: str) -> tuple[list[int], list[int]]:
    """Grid spec "r=4,5,6;R=1,2" -> (r values, R values)."""
    values: dict[str, list[int]] = {}
    for part in spec.split(";"):
        name, _, items = part.partition("=")
        name = name.strip()
        if name not in {"r", "R"} or not items:
            raise ValueError(f"bad grid component {part!r}; expected r=... or R=...")
        if name in values:
            raise ValueError(f"grid names {name} twice; give each of r and R once")
        values[name] = [int(tok) for tok in items.split(",")]
    if "r" not in values or "R" not in values:
        raise ValueError("grid must define both r and R, e.g. 'r=4,5,6;R=1,2'")
    return values["r"], values["R"]


def cmd_table(args: argparse.Namespace) -> int:
    r_values, R_values = _parse_grid(args.grid)
    rows = [row for r in r_values for R in R_values for row in _bounds_rows(r, R)]
    _emit_rows(rows, args.format)
    return EXIT_OK


# --- parser ---


class _Parser(argparse.ArgumentParser):
    """Usage errors as one stderr line, exit 2; subparsers share the class."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turan", description="Turán system construction and bound toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a system and write canonical JSON")
    p.add_argument("kind", choices=["prefix", "coloring", "blowup", "recursive"])
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--big-r", type=int, dest="big_r", help="the gap R = s - r")
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--m", type=int, help="blowup multiplicity")
    p.add_argument("--ell", type=int, help="number of colours")
    p.add_argument("--input", help="input system for blowup")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-rounds", type=int, default=20_000)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the Turán property of a system file")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact T(n,s,r) by branch and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--node-budget", type=int, dest="node_budget",
        help="search nodes allowed over all levels",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="all mu-scale bounds at one (r, R)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--big-r", type=int, dest="big_r", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("certify-lll", help="local-lemma certificate at (r, R)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--big-r", type=int, dest="big_r", required=True)
    p.add_argument("--n", type=int, help="override N instead of the schedule value")
    p.add_argument("--ell", type=int, help="override ell")
    p.set_defaults(func=cmd_certify_lll)

    p = sub.add_parser("table", help="bound table over a grid of (r, R) cells")
    p.add_argument("--grid", required=True, help="e.g. 'r=100,1000;R=3,10'")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(exc, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
