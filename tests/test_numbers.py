"""The one number rule: what every constructor and entry point takes as a number."""

import math

import numpy as np
import pytest

import ctqw.cli
from ctqw import (
    CirculantSpec,
    CouplingSeries,
    DirectedGraph,
    HermitianOperator,
    NonFiniteOperatorError,
    StarClosedForm,
    TimeGrid,
    WalkResult,
    arrival_time,
    build_star,
    check_mirror_symmetries,
    check_transport_suppression,
    fourier_basis,
    half_pi_spectrum_shift,
    localized_state,
    moebius_spec,
    parse_phase,
    random_bipartite_graph,
    random_directed_graph,
    random_polynomial_series,
    read_edge_list,
    ring_closed_form_support,
    ring_hamiltonian_closed_form,
    ring_spec,
    run_walk,
    star_frequency_polynomial,
    star_probability_field,
    validate_state,
)

EXP = CouplingSeries.exp()
GRID = TimeGrid(0.0, 1.0, 3)
RESULT = run_walk(build_star(3), 0.1, EXP, 0, GRID)


def _cli_check(**check):
    """A verify check through the CLI's parse step: its property and the function that runs it."""
    return ctqw.cli._parse_check(check, GRID, None)


# Not real numbers, or not finite floats: every entry point rejects them.
NOT_REAL = (True, np.True_, "1", None, math.nan, math.inf, -math.inf, 10**400)
# A phase may be a string token, so it is tried with one that overflows instead, and
# with spellings that int and float read but the rule does not: "_" and non-ASCII digits.
NOT_PHASE = tuple(v for v in NOT_REAL if not isinstance(v, str)) + (
    "1e400", "1_0", "2_0pi", "pi/1_0", "\u0663pi/4", "0.\u0665",
)

REAL_ENTRIES = {
    "TimeGrid-start": lambda v: TimeGrid(v, 1.0, 3),
    "TimeGrid-end": lambda v: TimeGrid(0.0, v, 3),
    "CouplingSeries-coefficient": lambda v: CouplingSeries.polynomial([0.0, v]),
    "CirculantSpec-coefficient": lambda v: CirculantSpec((0.0, v, 0.0)),
    "mirror-delta": lambda v: check_mirror_symmetries(ring_spec(4), EXP, [v], 0, GRID),
    "arrival_time-threshold": lambda v: arrival_time(RESULT, 0, v),
    "StarClosedForm-alpha": lambda v: StarClosedForm(2, True, v),
    "star_frequency_polynomial-alpha": lambda v: star_frequency_polynomial(2, EXP, v),
    "ring_hamiltonian_closed_form-alpha": lambda v: ring_hamiltonian_closed_form(6, v, [1.0]),
    "ring_hamiltonian_closed_form-coefficient": (
        lambda v: ring_hamiltonian_closed_form(6, 0.1, [1.0, v])
    ),
    "half_pi_spectrum_shift-delta": lambda v: half_pi_spectrum_shift(ring_spec(6), EXP, v),
    "cli-number": lambda v: _cli_check(property="suppression-random", tolerance=v),
}

# entry point -> (call, a valid whole number for it)
WHOLE_ENTRIES = {
    "TimeGrid-steps": (lambda v: TimeGrid(0.0, 1.0, v), 3),
    "DirectedGraph-n": (lambda v: DirectedGraph(v, frozenset({(0, 1)})), 3),
    "DirectedGraph-endpoint": (lambda v: DirectedGraph(4, frozenset({(0, v)})), 3),
    "build_star": (build_star, 2),
    "ring_spec": (ring_spec, 6),
    "moebius_spec": (moebius_spec, 6),
    "localized_state": (lambda v: localized_state(4, v), 3),
    "run_walk-initial": (lambda v: run_walk(build_star(3), 0.1, EXP, v, GRID).probabilities, 3),
    "arrival_time-node": (lambda v: arrival_time(RESULT, v, 1e-3), 3),
    "suppression-partition": (
        lambda v: check_transport_suppression(build_star(3), EXP, GRID, [v]),
        0,
    ),
    "StarClosedForm-size": (lambda v: StarClosedForm(v, True, 0.1), 2),
    "StarClosedForm-node": (lambda v: StarClosedForm(2, True, 0.1).probability(v, 1.0), 1),
    "star_frequency_polynomial-size": (lambda v: star_frequency_polynomial(v, EXP, 0.1), 2),
    "star_probability_field-size": (lambda v: star_probability_field(v, True, 0.1, [0.0, 1.0]), 2),
    "ring_closed_form_support-size": (lambda v: ring_closed_form_support(v, 2), 6),
    "ring_closed_form_support-order": (lambda v: ring_closed_form_support(6, v), 2),
    "ring_hamiltonian_closed_form-size": (
        lambda v: ring_hamiltonian_closed_form(v, 0.1, [1.0]).matrix,
        6,
    ),
    "random_bipartite_graph-max_nodes": (
        lambda v: random_bipartite_graph(np.random.default_rng(3), v),
        5,
    ),
    "random_directed_graph-max_nodes": (
        lambda v: random_directed_graph(np.random.default_rng(3), v),
        5,
    ),
    "random_polynomial_series-max_degree": (
        lambda v: random_polynomial_series(np.random.default_rng(3), v),
        2,
    ),
    "cli-int": (
        lambda v: _cli_check(property="suppression-random", count=v, max_nodes=4, max_degree=1)[1](),
        3,
    ),
}

NUMBER_RULE_CASES = [
    *((name, call, NOT_REAL) for name, call in REAL_ENTRIES.items()),
    ("parse_phase", parse_phase, NOT_PHASE),
    # a whole number is also an array length or index, so none may pass sys.maxsize
    *((name, call, NOT_REAL + (1.5, 2**63, 1e30)) for name, (call, _) in WHOLE_ENTRIES.items()),
]


@pytest.mark.parametrize(
    "call, bad_values",
    [case[1:] for case in NUMBER_RULE_CASES],
    ids=[case[0] for case in NUMBER_RULE_CASES],
)
def test_number_rule_rejects_non_numbers(call, bad_values):
    # bools, strings, None, NaN, infinities, ints beyond the float range and,
    # where a whole number is taken, fractions and values beyond sys.maxsize all
    # raise ValueError, never a TypeError, IndexError, OverflowError, a numeric
    # failure or an allocation sized by the value
    for bad in bad_values:
        try:
            call(bad)
        except ValueError:
            continue
        pytest.fail(f"accepted {bad!r}")


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize(
    "call, k", list(WHOLE_ENTRIES.values()), ids=list(WHOLE_ENTRIES)
)
def test_whole_numbers_take_integral_floats_and_numpy_ints(call, k):
    expected = call(k)
    for value in (float(k), np.int64(k), np.int32(k)):
        assert _same(call(value), expected), value


def test_directed_graph_stores_python_ints():
    g = DirectedGraph(np.int64(4), frozenset({(np.int64(0), 2.0), (1, np.int32(3)), (2, 1)}))
    assert type(g.n) is int
    assert g == DirectedGraph(4, frozenset({(0, 2), (1, 3), (2, 1)}))
    assert {type(v) for edge in g.edges for v in edge} == {int}
    # the adjacency scatter fills exactly the cells the edge set names
    rng = np.random.default_rng(14)
    for graph in (random_directed_graph(rng, 30), DirectedGraph(3, frozenset()), g):
        reference = np.zeros((graph.n, graph.n))
        for i, j in graph.edges:
            reference[i, j] = 1.0
        assert np.array_equal(graph.adjacency(), reference)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_directed_graph_numpy_int_edges_equal_python_int_edges(dtype):
    reference = random_directed_graph(np.random.default_rng(15), 30)
    heads = np.array(sorted(reference.edges), dtype=dtype)
    for edges in (heads, frozenset(map(tuple, heads))):
        g = DirectedGraph(reference.n, edges)
        assert g == reference
        assert {type(v) for edge in g.edges for v in edge} == {int}
        assert np.array_equal(g.adjacency(), reference.adjacency())


@pytest.mark.parametrize(
    "edges, match",
    [({(-1, 2)}, "must lie in"), ({(0, 1, 2)}, "pairs"), ({(0, 1, 2), (3,)}, "pairs")],
    ids=["negative", "triple", "ragged"],
)
def test_directed_graph_rejects_malformed_edges(edges, match):
    with pytest.raises(ValueError, match=match):
        DirectedGraph(4, frozenset(edges))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_fails_alike_on_the_fourier_engine(alpha):
    # a library walk's phase is not held to the number rule: as on the dense
    # engine, a non-finite one is a non-finite operator, not a normalization failure
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteOperatorError, match="non-finite"):
        run_walk(ring_spec(6), alpha, EXP, 0, GRID)


def _edge_list(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "token, value",
    [
        (" -1e-3 ", -1e-3),
        ("+0.5", 0.5),
        ("1E-3", 1e-3),
        (" +pi/2 ", math.pi / 2),
        ("-3pi/4", -3 * math.pi / 4),
    ],
)
def test_phase_keeps_signs_exponents_and_spaces(token, value):
    assert parse_phase(token) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("text", ["n 3\n0 2\n", "n +3\n+0 2\n", " n  3 \n 0\t2 \n"])
def test_edge_list_keeps_signs_and_spaces(tmp_path, text):
    assert read_edge_list(_edge_list(tmp_path, text)) == DirectedGraph(3, frozenset({(0, 2)}))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda tmp: read_edge_list(_edge_list(tmp, "n 3\n0 1 2\n")), "malformed edge line"),
        (lambda tmp: read_edge_list(_edge_list(tmp, "n 12\n0 1_0\n")), "no '_'"),
        (lambda tmp: read_edge_list(_edge_list(tmp, "n 1_2\n0 1\n")), "no '_'"),
        (lambda tmp: read_edge_list(_edge_list(tmp, "n 4\n0 \u0663\n")), "'ascii' codec"),
        (lambda tmp: HermitianOperator(np.zeros((2, 3))), "must be square"),
        (
            lambda tmp: check_transport_suppression(build_star(3), EXP, GRID, [7]),
            "nonempty subset",
        ),
        (lambda tmp: check_mirror_symmetries(ring_spec(4), EXP, [], 0, GRID), "at least one delta"),
        (lambda tmp: validate_state(np.eye(2), 2), "must be a vector"),
        (lambda tmp: WalkResult("x", 0.0, [0.0, 1.0], [[1.0, 0.0]]), "matching the time grid"),
        (lambda tmp: ring_closed_form_support(6, 0), "order must be >= 1"),
        (lambda tmp: ring_hamiltonian_closed_form(6, 0.3, []), "at least the linear coefficient"),
        (lambda tmp: fourier_basis(0), "needs n >= 1"),
    ],
    ids=[
        "edge-list-line",
        "edge-list-underscore-node",
        "edge-list-underscore-count",
        "edge-list-non-ascii-digit",
        "non-square-operator",
        "partition-out-of-range",
        "empty-deltas",
        "matrix-state",
        "walk-result-shape",
        "closed-form-support-order",
        "closed-form-no-coefficients",
        "empty-fourier-basis",
    ],
)
def test_malformed_library_inputs_raise_value_error(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
