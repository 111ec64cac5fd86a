"""Graph builders, bipartitions, circulant specs, and edge-list files."""

import numpy as np
import pytest

from ctqw import (
    CirculantSpec,
    DirectedGraph,
    bipartition,
    build_moebius_ladder,
    build_ring,
    build_star,
    moebius_spec,
    read_edge_list,
    weakly_connected_components,
    write_edge_list,
)


def brute_force_bipartite(g: DirectedGraph) -> bool:
    # Independent oracle: try every 2-coloring.
    for mask in range(2 ** g.n):
        if all(((mask >> i) & 1) != ((mask >> j) & 1) for i, j in g.edges):
            return True
    return False


def test_directed_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(0, frozenset())
    with pytest.raises(ValueError):
        DirectedGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        DirectedGraph(3, frozenset({(1, 1)}))


def test_adjacency_and_symmetry():
    g = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    assert np.array_equal(g.adjacency(), expected)
    assert not g.is_symmetric
    assert DirectedGraph(2, frozenset({(0, 1), (1, 0)})).is_symmetric


def test_build_star_edges():
    assert build_star(2).edges == frozenset({(0, 1), (0, 2)})
    undirected = build_star(2, directed=False)
    assert undirected.edges == frozenset({(0, 1), (0, 2), (1, 0), (2, 0)})
    with pytest.raises(ValueError):
        build_star(0)


def test_ring_matches_circulant_spec():
    g = build_ring(4)
    assert np.array_equal(g.adjacency(), CirculantSpec((0, 1, 0, 0)).matrix())
    gu = build_ring(4, directed=False)
    assert np.array_equal(gu.adjacency(), CirculantSpec((0, 1, 0, 1)).matrix())
    with pytest.raises(ValueError):
        build_ring(2)


def test_moebius_ladder_structure():
    g = build_moebius_ladder(6)
    # directed outer ring plus bidirected rungs i <-> i+3
    expected = {(i, (i + 1) % 6) for i in range(6)} | {(i, (i + 3) % 6) for i in range(6)}
    assert g.edges == frozenset(expected)
    assert np.array_equal(g.adjacency(), moebius_spec(6).matrix())
    for bad in (5, 4, 7):
        with pytest.raises(ValueError):
            build_moebius_ladder(bad)


def test_moebius_bipartite_iff_half_odd():
    for n in (6, 10, 14):
        assert bipartition(build_moebius_ladder(n)) is not None
    for n in (8, 12, 16):
        assert bipartition(build_moebius_ladder(n)) is None


def test_bipartition_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        edges = {
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4
        }
        g = DirectedGraph(n, frozenset(edges))
        assert (bipartition(g) is not None) == brute_force_bipartite(g)


def test_bipartition_blocks_and_anchor():
    g = build_star(3)
    parts = bipartition(g)
    assert parts.even == (0,)
    assert parts.odd == (1, 2, 3)
    # even-first reordering puts the adjacency into off-diagonal block form
    a = g.adjacency()
    order = list(parts.even) + list(parts.odd)
    reordered = a[np.ix_(order, order)]
    ne = len(parts.even)
    assert np.array_equal(reordered[:ne, ne:], np.ones((1, 3)))
    assert np.array_equal(reordered[ne:, :ne], np.zeros((3, 1)))
    assert not reordered[:ne, :ne].any()
    assert not reordered[ne:, ne:].any()


def test_bipartition_disconnected_anchors_each_component():
    g = DirectedGraph(4, frozenset({(0, 1), (2, 3)}))
    assert weakly_connected_components(g) == [[0, 1], [2, 3]]
    parts = bipartition(g)
    assert parts.even == (0, 2)
    assert parts.odd == (1, 3)


def test_odd_cycle_rejected():
    assert bipartition(build_ring(5)) is None
    assert bipartition(build_ring(6)) is not None


def test_circulant_spec_validation_and_matrix():
    with pytest.raises(ValueError):
        CirculantSpec(())
    with pytest.raises(ValueError):
        CirculantSpec((0.0, float("nan")))
    c = CirculantSpec((0.0, 1.0, 2.0))
    assert np.array_equal(
        c.matrix(), np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=float)
    )
    assert not c.is_reversal_symmetric
    assert CirculantSpec((0.0, 1.0, 1.0)).is_reversal_symmetric


@pytest.mark.parametrize(
    "bad", [True, np.True_, "1", np.str_("1")], ids=["bool", "numpy-bool", "str", "numpy-str"]
)
def test_circulant_spec_rejects_booleans_and_strings(bad):
    with pytest.raises(ValueError, match="real numbers"):
        CirculantSpec((0, bad, 0, 0))


def test_circulant_spec_accepts_numpy_numbers():
    c = CirculantSpec((0, np.int64(1), np.float32(0.5), np.float64(2.0), 3))
    assert c.coefficients == (0.0, 1.0, 0.5, 2.0, 3.0)
    assert all(type(v) is float for v in c.coefficients)
    assert CirculantSpec(np.array([0.0, 1.0, 1.0])) == CirculantSpec((0.0, 1.0, 1.0))


def test_circulant_to_graph():
    g = CirculantSpec((0.0, 1.0, 0.0, 1.0)).to_graph()
    assert g.edges == frozenset(
        {(i, (i + 1) % 4) for i in range(4)} | {(i, (i + 3) % 4) for i in range(4)}
    )
    with pytest.raises(ValueError):
        CirculantSpec((1.0, 1.0)).to_graph()
    with pytest.raises(ValueError):
        CirculantSpec((0.0, 0.5)).to_graph()


def test_edge_list_round_trip(tmp_path):
    g = build_moebius_ladder(6)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    first = path.read_text().splitlines()[0]
    assert first == "n 6"


def test_edge_list_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("m 3\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("n 3\n0 1\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_edge_list(path)
