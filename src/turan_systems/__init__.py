"""Construction, verification and bound certification for Turán systems.

The namespace is lazy (PEP 562): importing the package loads none of its
modules, and each public name below imports its module on first access
and is then kept in the package globals.  So ``turan --version`` loads
only the package and ``cli``, and each ``turan`` subcommand loads the
modules it runs: verify combinatorics and hypergraph; construct those and
constructions; bounds, table and certify-lll those and bounds; solve all
five.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_HOME = {
    name: module
    for module, names in (
        ("combinatorics", (
            "LogValue",
            "binomial",
            "enumerate_subsets",
            "log_binomial",
            "rank_colex",
            "unrank_colex",
        )),
        ("hypergraph", (
            "UniformHypergraph",
            "VerifyReport",
            "contains_edge",
            "density",
            "is_turan_system",
            "sample_verify",
        )),
        ("constructions", (
            "ColoringOutcome",
            "ConstructionParameters",
            "LllCertificate",
            "RecursionSample",
            "blowup",
            "construction_parameters",
            "expected_recursive_size",
            "lll_certificate_for",
            "lll_condition",
            "moser_tardos_color",
            "recursive_system",
            "trivial_prefix_system",
        )),
        ("bounds", (
            "BoundReport",
            "RecursionTrace",
            "RootResult",
            "bound_reports",
            "counting_lower_T",
            "decaen_lower_mu",
            "large_gap_mu_bound",
            "binomial_ratio_check",
            "segment_split_plan",
            "fixed_gap_mu_bound",
            "recursion_rhs",
            "limit_alpha_root",
            "gap_log_binomial_mu_bound",
            "closing_chain_check",
            "descent_certificate",
            "descent_schedule",
        )),
        ("solver", (
            "SolveResult",
            "ValueCache",
            "solve_min_turan",
            "solve_with_cache",
            "turan_r2_value",
        )),
    )
    for name in names
}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
