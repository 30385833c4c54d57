import ast
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
        "ColoringOutcome", "RecursionSample", "blowup", "expected_recursive_size",
        "moser_tardos_color", "recursive_system", "trivial_prefix_system",
    ],
    "bounds": [
        "ConstructionParameters", "LllCertificate", "construction_parameters",
        "lll_certificate_for", "lll_condition", "BoundReport", "RecursionTrace", "RootResult", "bound_reports", "counting_lower_T",
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


def test_sources_parse_as_python_3_10():
    # 3.10 is the requires-python floor; ast checks the grammar of every
    # file against it on whatever Python runs the suite.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [
        os.path.join(folder, name)
        for top in ("src", "tests", "scripts", "perfbench")
        for folder, _, names in os.walk(os.path.join(root, top))
        for name in names
        if name.endswith(".py")
    ]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
