"""Property harness: suppression, mirrors, stationarity, edge cancellation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ctqw.spectral
import ctqw.walk
from ctqw import (
    CirculantSpec,
    CouplingSeries,
    DirectedGraph,
    EigenSystem,
    NormalizationError,
    PropertyReport,
    TimeGrid,
    bipartition,
    build_moebius_ladder,
    build_ring,
    build_star,
    check_bidirected_edge_cancellation,
    check_mirror_symmetries,
    check_stationary_at_half_pi,
    check_transport_suppression,
    moebius_spec,
    random_bipartite_graph,
    random_directed_graph,
    random_polynomial_series,
    ring_spec,
    run_walk,
    weakly_connected_components,
)
from ctqw.properties import _half_pi_eligible

EXP = CouplingSeries.exp()
TINY_GRID = TimeGrid(0.0, 0.0, 1)


def test_property_report_line_format():
    # binary-exact deviation keeps the 17g round trip readable
    rep = PropertyReport("suppression", "ring-n6", 0.03125, 1.0)
    assert rep.passed
    assert rep.line() == "suppression,ring-n6,0.03125,1,pass"
    assert not PropertyReport("x", "y", 2e-10, 1e-10).passed
    assert PropertyReport("x", "y", 2e-10, 1e-10).line().endswith(",fail")


def test_suppression_on_bipartite_families():
    for instance in (build_star(5), ring_spec(6), moebius_spec(10)):
        rep = check_transport_suppression(instance, EXP)
        assert rep.passed, rep.line()
        assert rep.deviation < 1e-14


def test_suppression_rejects_non_bipartite_without_partition():
    with pytest.raises(ValueError):
        check_transport_suppression(build_ring(5), EXP)


def test_suppression_with_explicit_partition_on_non_bipartite_graph():
    # 8-ring plus bidirected diameters: odd cycles exist, but all
    # same-side edges come in i->j / j->i pairs, which is enough
    spec = CirculantSpec((0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    graph = spec.to_graph()
    assert bipartition(graph) is None
    rep = check_transport_suppression(graph, EXP, partition=(0, 2, 4, 6))
    assert rep.passed, rep.line()


def test_suppression_rejects_one_way_intra_partition_edge():
    g = DirectedGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)}))
    with pytest.raises(ValueError):
        check_transport_suppression(g, EXP, partition=(0, 2))


def test_mirror_symmetry_dense_branch():
    rep = check_mirror_symmetries(
        build_star(4), EXP, deltas=(0.2, 0.9), initial=1, half_pi_branch=False
    )
    assert rep.passed
    assert rep.deviation < 1e-11


def test_mirror_symmetry_full_branch_on_bipartite_circulant():
    rep = check_mirror_symmetries(
        ring_spec(6), EXP, deltas=(0.1, 0.5, 1.0), initial=0, half_pi_branch=True
    )
    assert rep.passed, rep.line()
    assert rep.deviation < 1e-9


def test_mirror_half_branch_requires_suitable_instance():
    # odd rings are not bipartite, on either engine
    for instance in (build_ring(5), ring_spec(5)):
        with pytest.raises(ValueError):
            check_mirror_symmetries(instance, EXP, deltas=(0.2,), initial=0, half_pi_branch=True)
        # a NumPy bool is checked as its Python bool; any other value is no switch at all
        with pytest.raises(ValueError, match="bipartite"):
            check_mirror_symmetries(instance, EXP, deltas=(0.2,), half_pi_branch=np.True_)
        for bad in (1, "no"):
            with pytest.raises(ValueError, match="None or a bool"):
                check_mirror_symmetries(instance, EXP, deltas=(0.2,), half_pi_branch=bad)
        off = check_mirror_symmetries(instance, EXP, deltas=(0.2,), half_pi_branch=False)
        assert check_mirror_symmetries(instance, EXP, (0.2,), half_pi_branch=np.False_) == off
    # auto mode quietly runs the plain mirror only
    rep = check_mirror_symmetries(ring_spec(5), EXP, deltas=(0.2,), initial=0)
    assert rep.passed


def old_state_parity(initial, n):
    """The index-parity rule the pi/2 mirror branch used before it asked the graph."""
    if isinstance(initial, (int, np.integer)):
        return int(initial) % 2
    support = np.nonzero(np.abs(np.asarray(initial)) > 0.0)[0]
    parities = {int(i) % 2 for i in support}
    return parities.pop() if len(parities) == 1 else None


def old_is_bipartite_spec(c):
    """The even-n, odd-offsets-only rule the pi/2 mirror branch used on circulants."""
    return c.n % 2 == 0 and all(c.coefficients[k] == 0.0 for k in range(0, c.n, 2))


@pytest.mark.parametrize("n", range(1, 11))
def test_half_pi_eligibility_keeps_every_circulant_case(n):
    # every 0/1 spec with c_0 = 0, every single-node start and every two-node
    # superposition: what the parity rule accepted stays eligible, and a spec
    # and its graph agree
    eye = np.eye(n, dtype=complex)
    pairs = itertools.combinations(range(n), 2)
    starts = list(eye) + [(eye[i] + eye[j]) / math.sqrt(2) for i, j in pairs]
    for bits in itertools.product((0.0, 1.0), repeat=n - 1):
        spec = CirculantSpec((0.0, *bits))
        graph = spec.to_graph()
        for psi in starts:
            eligible = _half_pi_eligible(spec, psi)
            assert eligible == _half_pi_eligible(graph, psi), (spec, psi)
            if old_is_bipartite_spec(spec) and old_state_parity(psi, n) is not None:
                assert eligible, (spec, psi)


def test_half_pi_eligibility_on_every_support_of_disconnected_digraphs():
    # Reference: eligible iff some 2-colouring puts psi's support on one colour per
    # component.  Flipping whole components keeps a colouring proper, so that holds iff
    # some proper colouring (every edge joins the colours) puts all of the support on 0.
    rng = np.random.default_rng(2016)
    seen = set()
    for _ in range(40):
        n = int(rng.integers(3, 11))
        # edges only join nodes of one label, so two labels in use mean two components
        label = rng.integers(0, int(rng.integers(2, 5)), size=n)
        present = (rng.random((n, n)) < rng.uniform(0.1, 0.5)) & (label[:, None] == label)
        np.fill_diagonal(present, False)
        g = DirectedGraph(n, frozenset(zip(*(idx.tolist() for idx in np.nonzero(present)))))
        codes = np.arange(2**n)
        proper = codes[[all((c >> i ^ c >> j) & 1 for i, j in g.edges) for c in codes]]
        parts = bipartition(g)
        odd = sum(1 << i for i in parts.odd) if parts else 0
        for support in range(1, 2**n):
            psi = (support >> np.arange(n)) & 1
            eligible = bool(((proper & support) == 0).any())
            assert _half_pi_eligible(g, psi) == eligible, (g, support)
            seen.add((eligible, parts is not None, bool(support & odd) and bool(support & ~odd)))
    # a support on both sides of the bipartition is eligible when its sides lie in different
    # components, and refused when one component holds both; non-bipartite graphs refuse all
    assert seen == {(True, True, False), (True, True, True), (False, True, True)} | {(False,) * 3}


NODES_0_1 = np.array([1, 1, 0, 0, 0, 0]) / math.sqrt(2)


@pytest.mark.parametrize(
    "instance, psi",
    [
        # 6-ring: the motivating case, a spec's graph takes the branch too
        (ring_spec(6).to_graph(), 0),
        # i -> i + 4 on 8 nodes: four one-edge components, an even offset
        (CirculantSpec((0, 0, 0, 0, 1, 0, 0, 0)), 5),
        # i <-> i + 3 on 6 nodes: nodes 0 and 1 lie in different components
        (CirculantSpec((0, 0, 0, 1, 0, 0)), NODES_0_1),
        (CirculantSpec((0, 0, 0, 1, 0, 0)).to_graph(), NODES_0_1),
        # weights do not matter, only which offsets are nonzero
        (CirculantSpec((0, 0.5, 0, -2.0, 0, 0.75)), 1),
        (build_star(4), 0),
        (random_bipartite_graph(np.random.default_rng(13), 12), 0),
    ],
    ids=["ring6-graph", "offset4", "offset3-spec", "offset3-graph", "weighted", "star", "random"],
)
def test_mirror_half_branch_holds_where_the_graph_allows_it(instance, psi):
    cubic = CouplingSeries.polynomial([0.3, 1.0, -0.7, 0.2])
    for series in (EXP, cubic):
        rep = check_mirror_symmetries(
            instance, series, deltas=(0.1, 0.5, 1.0), initial=psi, half_pi_branch=True
        )
        assert rep.passed, rep.line()


def test_mirror_half_branch_skips_self_looped_circulants():
    # c_0 = 1 adds 2 cos(alpha) I to A_H, which flips sign across pi/2 and,
    # under a nonlinear J, breaks the mirror although the offsets are bipartite
    spec = CirculantSpec((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    walks = [run_walk(spec, math.pi / 2 + d, EXP, 0).probabilities for d in (0.3, -0.3)]
    assert np.max(np.abs(walks[0] - walks[1])) > 0.1
    with pytest.raises(ValueError):
        check_mirror_symmetries(spec, EXP, deltas=(0.3,), half_pi_branch=True)
    assert check_mirror_symmetries(spec, EXP, deltas=(0.3,)).passed


def test_mirror_mixed_parity_state_blocks_half_branch():
    psi = np.zeros(6)
    psi[0] = psi[1] = 1 / math.sqrt(2)
    with pytest.raises(ValueError):
        check_mirror_symmetries(
            ring_spec(6), EXP, deltas=(0.2,), initial=psi, half_pi_branch=True
        )


def _traced_peak(call):
    call()  # first-call imports and caches are not the call's scratch
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mirror_frees_each_deltas_fields_before_the_next_delta():
    # beyond one walk, the check holds P(+delta) while P(-delta) is computed; one
    # delta's two fields still held during the next delta's walks would be three
    n, steps = 60, 400
    g = DirectedGraph(n, frozenset((i, (i + k) % n) for i in range(n) for k in (1, 7)))
    grid = TimeGrid(0.0, 5.0, steps)
    walk = _traced_peak(lambda: run_walk(g, 0.1, EXP, 0, grid))
    mirror = _traced_peak(lambda: check_mirror_symmetries(g, EXP, [0.1, 0.5], 0, grid, False))
    assert mirror < walk + 2 * steps * n * 8


def test_stationary_at_half_pi():
    rep = check_stationary_at_half_pi(ring_spec(8, directed=False), EXP, 0)
    assert rep.passed
    assert rep.deviation < 1e-12
    with pytest.raises(ValueError):
        check_stationary_at_half_pi(ring_spec(8), EXP, 0)
    with pytest.raises(ValueError):
        check_stationary_at_half_pi(build_ring(5), EXP, 0)


def test_bidirected_edge_cancellation():
    rep = check_bidirected_edge_cancellation(ring_spec(6), moebius_spec(6), EXP, 0)
    assert rep.passed, rep.line()
    assert rep.deviation < 1e-12


def test_cancellation_rejects_one_way_difference():
    base = build_ring(6)
    extra = DirectedGraph(6, base.edges | {(0, 3)})
    with pytest.raises(ValueError):
        check_bidirected_edge_cancellation(base, extra, EXP, 0)
    with pytest.raises(ValueError):
        check_bidirected_edge_cancellation(build_ring(6), build_ring(8), EXP, 0)


def old_cancellation_accepts(g1, g2):
    """The pair loop cancellation used: edges unique to one graph come in bidirected pairs."""
    for only in (g1.edges - g2.edges, g2.edges - g1.edges):
        if any((j, i) not in only for i, j in only):
            return False
    return True


def old_partition_accepts(g, side):
    """The intra-side loop suppression used: same-side edges are bidirected."""
    return all((i in side) != (j in side) or (j, i) in g.edges for i, j in g.edges)


def _accepts(check):
    try:
        check()
    except ValueError:
        return False
    return True


def test_cancellation_accepts_what_the_pair_loop_accepted():
    # the second graph toggles both directions of a few node pairs of the
    # first and, half the time, one more ordered pair
    rng = np.random.default_rng(160600992)
    outcomes = set()
    for _ in range(600):
        g1 = random_directed_graph(rng, max_nodes=8)
        edges = set(g1.edges)
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.choice(g1.n, size=2, replace=False).tolist()
            edges ^= {(i, j), (j, i)}
        if rng.random() < 0.5:
            i, j = rng.choice(g1.n, size=2, replace=False).tolist()
            edges ^= {(i, j)}
        g2 = DirectedGraph(g1.n, frozenset(edges))
        accepted = old_cancellation_accepts(g1, g2)
        run = lambda: check_bidirected_edge_cancellation(g1, g2, EXP, grid=TINY_GRID)
        assert _accepts(run) == accepted, (g1, g2)
        outcomes.add(accepted)
    assert outcomes == {False, True}


def test_partition_accepts_what_the_intra_side_loop_accepted():
    rng = np.random.default_rng(160600993)
    outcomes = set()
    for _ in range(300):
        g = random_directed_graph(rng, max_nodes=6)
        side = tuple(np.flatnonzero(rng.random(g.n) < 0.5).tolist()) or (0,)
        accepted = old_partition_accepts(g, set(side))
        run = lambda: check_transport_suppression(g, EXP, TINY_GRID, side)
        assert _accepts(run) == accepted, (g, side)
        outcomes.add(accepted)
    assert outcomes == {False, True}


def test_cancellation_differs_away_from_half_pi():
    # sanity: the rungs do matter at alpha = 0
    from ctqw import TimeGrid, run_walk

    grid = TimeGrid(0.0, 5.0, 40)
    a = run_walk(ring_spec(6), 0.0, EXP, 0, grid)
    b = run_walk(moebius_spec(6), 0.0, EXP, 0, grid)
    assert np.max(np.abs(a.probabilities - b.probabilities)) > 1e-3


@pytest.mark.parametrize("n", [6, 10, 14])
def test_suppression_diagonalizes_once_for_all_starts(monkeypatch, n):
    # exp coupling: one eigh of A_H for J, one of H; none per start node
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rep = check_transport_suppression(build_moebius_ladder(n), EXP, TimeGrid(0.0, 5.0, 20))
    assert rep.passed, rep.line()
    assert calls == [(n, n), (n, n)]


def test_polynomial_suppression_diagonalizes_only_h(monkeypatch):
    # a cubic J(A_H) comes from Horner products, so the one eigensolve left is H's
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.dtype)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cubic = CouplingSeries.polynomial([0.0, 1.0, 0.5, 1.0 / 6.0])
    rep = check_transport_suppression(build_moebius_ladder(10), cubic, TimeGrid(0.0, 5.0, 20))
    assert rep.passed, rep.line()
    assert calls == [np.float64]


@pytest.mark.parametrize(
    "instance",
    [
        build_moebius_ladder(10),
        moebius_spec(10),
        random_bipartite_graph(np.random.default_rng(2024), max_nodes=16),
    ],
    ids=["dense-moebius10", "fourier-moebius10", "random-bipartite"],
)
def test_suppression_matches_a_walk_per_start(instance):
    # the starts share each chunk's phase block; each one alone must see the same field
    grid = TimeGrid(0.0, 12.0, 150)
    parts = bipartition(instance.to_graph() if isinstance(instance, CirculantSpec) else instance)
    per_start = max(
        float(run_walk(instance, math.pi / 2, EXP, start, grid).probabilities[:, parts.odd].max())
        for start in parts.even
    )
    rep = check_transport_suppression(instance, EXP, grid)
    assert abs(rep.deviation - per_start) <= 1e-15


def test_suppression_gates_each_start_on_its_own(monkeypatch):
    # Rows of V are scaled, so at t = 0 only the walks from those nodes lose
    # their norm.  The ladder has 75 starts, more than one TIME_CHUNK group,
    # and one grid row puts each group's starts in one batch.  The skewed
    # starts are the last of them, one in the middle of a batch, and two in
    # one batch, where the lower one is named.
    graph = build_moebius_ladder(150)
    even = bipartition(graph).even
    solve = ctqw.walk.hamiltonian_eigensystem
    for skewed, named in [
        ((even[-1],), even[-1]),
        ((even[30],), even[30]),
        ((even[40], even[20]), even[20]),
    ]:

        def skew(g, alpha, series, skewed=skewed):
            es = solve(g, alpha, series)
            scale = np.where(np.isin(np.arange(g.n), skewed), 1.001, 1.0)
            return EigenSystem(es.values, es.vectors * scale[:, None])

        monkeypatch.setattr(ctqw.walk, "hamiltonian_eigensystem", skew)
        with pytest.raises(NormalizationError, match=f"walk from node {named}:"):
            check_transport_suppression(graph, EXP, TimeGrid(0.0, 0.0, 1))


def test_suppression_rejects_a_growing_fourier_mode(monkeypatch):
    spectrum = ctqw.spectral.circulant_hamiltonian_spectrum
    monkeypatch.setattr(
        ctqw.spectral,
        "circulant_hamiltonian_spectrum",
        lambda c, alpha, series: spectrum(c, alpha, series) + 1e-3j * (np.arange(c.n) == 1),
    )
    with pytest.raises(NormalizationError, match="walk from node"):
        check_transport_suppression(moebius_spec(10), EXP)


def test_suppression_scratch_is_a_few_chunks():
    # 51 starts on the 102-node directed Moebius ladder share each phase block,
    # on both engines; holding every start's chunk at once would take about 23 MiB
    for instance in (build_moebius_ladder(102), moebius_spec(102)):
        check_transport_suppression(instance, EXP)
        tracemalloc.start()
        try:
            rep = check_transport_suppression(instance, EXP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed, rep.line()
        assert peak < 4 * 2**20


def test_random_bipartite_graph_generator():
    rng = np.random.default_rng(123)
    seen_sizes = set()
    for _ in range(50):
        g = random_bipartite_graph(rng, max_nodes=10)
        seen_sizes.add(g.n)
        assert bipartition(g) is not None
        assert len(weakly_connected_components(g)) == 1
    assert len(seen_sizes) > 3
    # determinism under a fixed seed
    g1 = random_bipartite_graph(np.random.default_rng(7))
    g2 = random_bipartite_graph(np.random.default_rng(7))
    assert g1 == g2


def scalar_bipartite_graph(rng, max_nodes):
    """The one-uniform-per-call rejection loop that random_bipartite_graph must match."""
    n = int(rng.integers(2, max_nodes + 1))
    p = int(rng.integers(1, n))
    for _ in range(10000):
        edges = set()
        for i in range(p):
            for j in range(p, n):
                if rng.random() < 0.5:
                    edges.add((i, j))
                if rng.random() < 0.5:
                    edges.add((j, i))
        g = DirectedGraph(n, frozenset(edges))
        if len(weakly_connected_components(g)) == 1:
            return g
    raise ValueError("failed to draw a connected bipartite graph")


def scalar_directed_graph(rng, max_nodes):
    """The one-uniform-per-call loop that random_directed_graph must match."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5}
    return DirectedGraph(n, frozenset(edges))


def _plain(state):
    # MT19937 keeps its key as an array; lists compare whole
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _draw(sampler, rng, max_nodes):
    """The graph drawn (or the ValueError's message) and the generator state after it."""
    try:
        outcome = sampler(rng, max_nodes)
    except ValueError as exc:
        outcome = str(exc)
    return outcome, _plain(rng.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize(
    "sampler, reference, sizes",
    [
        (random_bipartite_graph, scalar_bipartite_graph, (2, 3, 5, 16, 32)),
        (random_directed_graph, scalar_directed_graph, (2, 3, 10, 24)),
    ],
    ids=["bipartite", "directed"],
)
def test_random_graphs_read_the_scalar_stream(bit_generator, sampler, reference, sizes):
    # same graph, and the generator left where the one-uniform-per-call loop
    # leaves it, so the draws that follow (the CLI's random polynomial) agree too
    for seed in range(40):
        for max_nodes in sizes:
            drawn = _draw(sampler, np.random.Generator(bit_generator(seed)), max_nodes)
            expected = _draw(reference, np.random.Generator(bit_generator(seed)), max_nodes)
            assert drawn == expected, (seed, max_nodes)


def test_random_generators_reject_sizes_below_their_floor():
    rng = np.random.default_rng(7)
    state = _plain(rng.bit_generator.state)
    for sampler in (random_bipartite_graph, random_directed_graph):
        with pytest.raises(ValueError, match="max_nodes >= 2"):
            sampler(rng, 1)
    with pytest.raises(ValueError, match="max_degree >= 0"):
        random_polynomial_series(rng, -1)
    # a rejected size draws nothing; degree 0 is a constant
    assert _plain(rng.bit_generator.state) == state
    assert len(random_polynomial_series(rng, 0).coefficients) == 1


def test_exhausted_bipartite_draw_reads_the_scalar_stream_in_bounded_scratch():
    # (39, 1) draws a 30/1 split of 31 nodes, and all 10000 tries are disconnected
    expected = _draw(scalar_bipartite_graph, np.random.default_rng((39, 1)), 32)
    assert expected[0] == "failed to draw a connected bipartite graph"
    rng = np.random.default_rng((39, 1))
    tracemalloc.start()
    try:
        drawn = _draw(random_bipartite_graph, rng, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn == expected
    # the 600 000 uniforms of all tries at once would take 4.6 MiB
    assert peak < 2**20


def test_random_directed_graph_generator():
    rng = np.random.default_rng(5)
    g = random_directed_graph(rng, max_nodes=8)
    assert 2 <= g.n <= 8
    assert all(0 <= i < g.n and 0 <= j < g.n for i, j in g.edges)


def test_random_polynomial_series_generator():
    rng = np.random.default_rng(9)
    for _ in range(20):
        series = random_polynomial_series(rng, max_degree=5)
        assert series.kind == "polynomial"
        assert 1 <= len(series.coefficients) <= 6
        assert all(-1.0 <= c <= 1.0 for c in series.coefficients)


def test_suppression_random_instances_small():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        g = random_bipartite_graph(rng, max_nodes=8)
        series = random_polynomial_series(rng)
        rep = check_transport_suppression(g, series)
        assert rep.passed, rep.line()
