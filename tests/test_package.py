import importlib
import os
import subprocess
import sys

import pytest

import turan_systems

# The public names of the package, by the module that defines each.
PUBLIC = {
    "combinatorics": [
        "LogValue", "binomial", "enumerate_subsets", "log_binomial", "rank_colex",
        "unrank_colex",
    ],
    "hypergraph": [
        "UniformHypergraph", "VerifyReport", "contains_edge", "density",
        "is_turan_system", "sample_verify",
    ],
    "constructions": [
        "ColoringOutcome", "ConstructionParameters", "LllCertificate", "RecursionSample",
        "blowup", "construction_parameters", "expected_recursive_size",
        "lll_certificate_for", "lll_condition", "moser_tardos_color", "recursive_system",
        "trivial_prefix_system",
    ],
    "bounds": [
        "BoundReport", "RecursionTrace", "RootResult", "bound_reports", "counting_lower_T",
        "decaen_lower_mu", "large_gap_mu_bound", "binomial_ratio_check",
        "segment_split_plan", "fixed_gap_mu_bound", "recursion_rhs", "limit_alpha_root",
        "gap_log_binomial_mu_bound", "closing_chain_check", "descent_certificate",
        "descent_schedule",
    ],
    "solver": [
        "SolveResult", "ValueCache", "solve_min_turan", "solve_with_cache", "turan_r2_value",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_forty_five_public_names():
    assert len(NAMES) == 45
    assert sorted(turan_systems.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_module_attribute(module, name):
    home = importlib.import_module(f"turan_systems.{module}")
    assert getattr(turan_systems, name) is getattr(home, name)
    assert name in dir(turan_systems)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from turan_systems import *", namespace)
    for module, name in NAMES:
        home = importlib.import_module(f"turan_systems.{module}")
        assert namespace[name] is getattr(home, name)
    assert set(namespace) - {"__builtins__"} == set(turan_systems.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        turan_systems.nope
    with pytest.raises(ImportError):
        exec("from turan_systems import nope", {})


def test_name_loads_only_its_module():
    # In a fresh interpreter: the package alone loads no module of its own
    # and lists every public name; the first read of a name loads its
    # module (and what that imports) and keeps the value in the package.
    code = (
        "import sys, turan_systems as t\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('turan_systems.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert set(t.__all__) <= set(dir(t))\n"
        "assert 'binomial' not in vars(t)\n"
        "t.binomial\n"
        "assert loaded() == ['turan_systems.combinatorics'], loaded()\n"
        "assert vars(t)['binomial'] is sys.modules['turan_systems.combinatorics'].binomial\n"
        "t.is_turan_system\n"
        "assert loaded() == ['turan_systems.combinatorics', 'turan_systems.hypergraph'], loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(turan_systems.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
