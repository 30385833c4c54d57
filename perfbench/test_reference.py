"""Hand-worked cases for the benchmark's references and span accounting.

    python3 -m pytest perfbench -q
"""

import math

import mpmath

import reference as ref
from tracing import Span, layer_totals


def test_uncovered_ssets_on_a_single_edge():
    # {0,1} lies in the triples 012 and 013 only.
    assert ref.uncovered_ssets(4, 3, [(0, 1)], limit=5) == [(0, 2, 3), (1, 2, 3)]
    assert not ref.is_turan(4, 3, [(0, 1)])
    # Two disjoint pairs: every triple of [4] takes both vertices of one.
    assert ref.is_turan(4, 3, [(0, 1), (2, 3)])


def test_prefix_edges_and_colex_rank():
    assert ref.prefix_edges(5, 4, 3) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert [ref.colex_rank(e) for e in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)]] == [
        0, 1, 2, 3, 4]


def test_coloring_classes_turan():
    # All pairs of [3] in one colour: the one triple sees it.  With two
    # colours, the triple must see both.
    assert ref.coloring_classes_turan(3, 3, 2, 1, [0, 0, 0])
    assert ref.coloring_classes_turan(3, 3, 2, 2, [0, 1, 0])
    assert not ref.coloring_classes_turan(3, 3, 2, 2, [1, 1, 1])


def test_blowup_size_of_one_edge():
    # A = {01} on [3], m = 2: parts {0,3},{1,4},{2,5}; the 3 pairs inside a
    # part plus the 4 pairs across parts 0 and 1.
    assert ref.blowup_size(3, 2, 2, 1) == 7


def test_turan_graph_complement_size():
    assert ref.turan_graph_complement_size(5, 3) == 4  # parts 3, 2
    assert ref.turan_graph_complement_size(6, 4) == 3  # parts 2, 2, 2
    assert ref.turan_graph_complement_size(7, 4) == 5  # parts 3, 2, 2


def test_expected_recursive_size():
    # n=4, r=2, R=1, k=1: tails are prefix (n', 2, 1)-systems of size n'-1.
    # Unhit 1-sets {0},{1} carry tails of size 2 and 1, so E = 6p + 3(1-p).
    assert ref.expected_recursive_size(4, 2, 1, 1, 0.0) == 3
    assert ref.expected_recursive_size(4, 2, 1, 1, 0.5) == 4.5
    assert ref.expected_recursive_size(4, 2, 1, 1, 1.0) == 6


def test_ln_binomial():
    assert ref.rel_close(math.log(120), ref.ln_binomial(10, 3), 1e-15)
    with mpmath.workdps(ref.DPS):
        exact = mpmath.log(mpmath.mpf(10**30) * (10**30 - 1) / 2)
        assert abs(ref.ln_binomial(10**30, 2) - exact) < mpmath.mpf(10) ** -40


def test_alpha_root():
    # R = 1: e^x = (x+1)^2 at x = 2.5129..., alpha = (x+1)^2 / x = 4.911...
    c0, alpha = ref.alpha_root(1)
    with mpmath.workdps(ref.DPS):
        assert abs(mpmath.exp(c0) - (c0 + 1) ** 2) < mpmath.mpf(10) ** -40
    assert abs(alpha - 4.911) < 1e-3


def test_layer_totals_subtracts_children():
    spans = [
        Span("op:x", 0.0, 10.0, None),
        Span("hypergraph.is_turan_system", 1.0, 4.0, 0),
        Span("combinatorics.enumerate_subsets", 5.0, 6.0, 0, calls=100),
    ]
    assert layer_totals(spans, [0, 1, 2]) == {
        "bench": (6.0, 0),
        "hypergraph": (3.0, 1),
        "combinatorics": (1.0, 100),
    }
