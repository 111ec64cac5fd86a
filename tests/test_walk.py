"""Walk driver: grids, states, evolution routes, arrivals, CSV round trips."""

import math
import tracemalloc

import numpy as np
import pytest

import ctqw.operators
from ctqw import (
    CouplingSeries,
    DirectedGraph,
    NonFiniteOperatorError,
    NormalizationError,
    TimeGrid,
    WalkResult,
    arrival_time,
    build_ring,
    check_bidirected_edge_cancellation,
    localized_state,
    moebius_spec,
    propagate,
    propagator,
    read_walk_csv,
    ring_spec,
    run_walk,
    validate_state,
    write_walk_csv,
)
from ctqw.operators import TIME_CHUNK, _offset_table


def test_time_grid_contract():
    grid = TimeGrid(0.0, 2.0, 5)
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    single = TimeGrid(1.0, 1.0, 1)
    assert np.allclose(single.times(), [1.0])
    whole = TimeGrid(0, np.int64(25), 5.0)
    assert whole == TimeGrid(0.0, 25.0, 5)
    assert [type(v) for v in (whole.t_start, whole.t_end, whole.steps)] == [float, float, int]
    for bad in (
        (0.0, -1.0, 5),
        (0.0, 1.0, 0),
        (float("nan"), 1.0, 5),
        (0, 25, True),
        (False, 1.0, 3),
        (0, 25, 2.5),
        ("0", 25, 5),
        (0, 25, float("nan")),
        (0, 10**400, 5),
    ):
        with pytest.raises(ValueError):
            TimeGrid(*bad)


def test_time_grid_points_rise_strictly():
    # equal endpoints or a span below the points' spacing would repeat a time, and
    # a walk CSV merges equal times, so only a one-step grid may have t_start == t_end
    for bad in ((1.0, 1.0, 3), (1.0, np.nextafter(1.0, 2.0), 3)):
        with pytest.raises(ValueError, match="rise strictly"):
            TimeGrid(*bad)
    for t in (0.0, 1.0, 3.1):
        assert TimeGrid(t, t, 1).times().tolist() == [t]
    assert TimeGrid(1.0, np.nextafter(1.0, 2.0), 2).times().tolist() == [1.0, np.nextafter(1.0, 2.0)]


def test_time_grid_span_must_be_finite():
    # -1e308 to 1e308 are finite, their span is not: the grid's own error, not numpy's
    # overflow warnings and then "rise strictly"
    for steps in (1, 3):
        with pytest.raises(ValueError, match="span t_end - t_start = inf is not finite"):
            TimeGrid(-1e308, 1e308, steps)
    assert TimeGrid(-1e307, 1e307, 3).times().tolist() == [-1e307, 0.0, 1e307]


def test_state_builders():
    psi = localized_state(4, 2)
    assert np.array_equal(psi, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        localized_state(4, 4)
    with pytest.raises(ValueError):
        localized_state(4, True)
    with pytest.raises(ValueError):
        validate_state(np.array([1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        validate_state(localized_state(3, 0), 4)


def test_evolve_basics():
    amplitudes = propagator(build_ring(6), 0.4, CouplingSeries.exp())
    psi0 = localized_state(6, 0)
    assert np.max(np.abs(amplitudes(psi0, TimeGrid(0.0, 0.0, 1))[0] - psi0)) < 1e-12
    psi = amplitudes(psi0, TimeGrid(3.1, 3.1, 1))[0]
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_run_walk_routes_agree():
    # fast circulant route and dense eigensolver route must coincide
    grid = TimeGrid(0.0, 5.0, 60)
    for spec, series in (
        (ring_spec(6), CouplingSeries.exp()),
        (moebius_spec(6), CouplingSeries.polynomial([0.3, 1.0, -0.5])),
        (ring_spec(7, directed=False), CouplingSeries.cosh()),
    ):
        for alpha in (0.0, 0.4, math.pi / 2):
            fast = run_walk(spec, alpha, series, 1, grid)
            dense = run_walk(spec.to_graph(), alpha, series, 1, grid)
            assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) < 1e-11
            assert np.max(np.abs(fast.probabilities - dense.probabilities)) < 1e-11


_UNDIRECTED_SPECS = [
    *(ring_spec(n, directed=False) for n in (7, 10, 200)),
    *(moebius_spec(n, outer_directed=False) for n in (10, 200)),
]


@pytest.mark.parametrize(
    "spec", _UNDIRECTED_SPECS, ids=["ring7", "ring10", "ring200", "moebius10", "moebius200"]
)
def test_undirected_dense_route_matches_fourier_engine(spec):
    # the one real eigensolve of S = A + A^T against the independent Fourier
    # engine, at acceptance criterion 6's tolerance (a Moebius ladder needs an
    # even node count)
    graph = spec.to_graph()
    assert not graph.one_way_edges
    grid = TimeGrid(0.0, 10.0, 80)
    series_kinds = (
        CouplingSeries.exp(),
        CouplingSeries.sinh(),
        CouplingSeries.cosh(),
        CouplingSeries.polynomial([0.2, 1.0, -0.5, 0.3]),
    )
    for series in series_kinds:
        for alpha in (0.0, 0.7, math.pi / 2, -2.5, 3.0):
            fast = run_walk(spec, alpha, series, 1, grid).amplitudes
            dense = run_walk(graph, alpha, series, 1, grid).amplitudes
            assert np.max(np.abs(fast - dense)) <= 1e-9, (series, alpha)


@pytest.mark.parametrize("steps", [1, TIME_CHUNK - 1, TIME_CHUNK, TIME_CHUNK + 1])
def test_dense_walk_matches_complex_eigh_reference(steps):
    # Inline reference: complex Hermitian eigensolves of A_H and of
    # H = J(A_H) + J(A_H)^T, with no real-symmetric shortcut and no chunking.
    rng = np.random.default_rng(steps)
    n, alpha = 24, 0.9
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.15}
    g = DirectedGraph(n, frozenset(edges))
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(1.5, 6.0, steps)
    a = g.adjacency()
    w, v = np.linalg.eigh(np.exp(1j * alpha) * a + np.exp(-1j * alpha) * a.T)
    j = (v * np.exp(w)) @ v.conj().T
    w, v = np.linalg.eigh(j + j.T)
    phases = np.exp(-1j * np.outer(w, grid.times()))
    reference = (v @ (phases * (v.conj().T @ psi0)[:, None])).T
    amps = run_walk(g, alpha, CouplingSeries.exp(), psi0, grid).amplitudes
    assert amps.shape == (steps, n)
    assert np.max(np.abs(amps - reference)) < 1e-12


def test_dense_walk_scratch_stays_below_one_complex_matrix():
    # Real eigenvectors map chunks back with a real gemm; casting V to
    # complex (per call or per chunk) alone would take a complex N x N.
    n = 500
    amplitudes = propagator(build_ring(n), 0.4, CouplingSeries.exp())
    psi0 = localized_state(n, 3)
    grid = TimeGrid(0.0, 5.0, 8 * TIME_CHUNK)
    tracemalloc.start()
    try:
        amps = amplitudes(psi0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - amps.nbytes < n * n * 16


@pytest.mark.parametrize("spec", [ring_spec(9), moebius_spec(10)], ids=["ring9", "moebius10"])
@pytest.mark.parametrize("dense", [False, True], ids=["fourier", "dense"])
def test_streamed_states_match_single_walks(spec, dense):
    # a stack of states shares each chunk's phase block; every state's chunks
    # must be the rows its own walk returns
    alpha, series = 0.7, CouplingSeries.polynomial([0.2, 1.0, -0.3])
    amplitudes = propagator(spec.to_graph() if dense else spec, alpha, series)
    grid = TimeGrid(0.5, 9.0, 2 * TIME_CHUNK + 5)
    rng = np.random.default_rng(spec.n)
    states = rng.normal(size=(3, spec.n)) + 1j * rng.normal(size=(3, spec.n))
    states /= np.linalg.norm(states, axis=1)[:, None]
    streamed = np.full((3, grid.steps, spec.n), np.nan, dtype=complex)

    def keep(first, rows, block):
        streamed[first : first + len(block), rows] = block

    assert amplitudes(states, grid, keep) is None
    for state, field in zip(states, streamed):
        assert np.max(np.abs(field - amplitudes(state, grid))) <= 1e-15


# (scratch cap, states, grid steps, expected batch size B, expected visits) on
# moebius_spec(10), N = 10; visits = chunks x ceil(states / B)
BATCH_CASES = {
    "fewer-states-than-a-batch": (4 * TIME_CHUNK * 10, 3, 2 * TIME_CHUNK, 4, 2),
    "partial-last-batch": (4 * TIME_CHUNK * 10, 9, 2 * TIME_CHUNK, 4, 2 * 3),
    "one-state-per-batch": (TIME_CHUNK * 10 - 1, 3, 2 * TIME_CHUNK, 1, 2 * 3),
    "short-last-chunk": (4 * TIME_CHUNK * 10, 5, 2 * TIME_CHUNK + 5, 4, 3 * 2),
    "grid-shorter-than-a-chunk": (4 * TIME_CHUNK * 10, 9, 20, 12, 1),
}


@pytest.mark.parametrize("case", BATCH_CASES)
@pytest.mark.parametrize("dense", [False, True], ids=["fourier", "dense"])
def test_streamed_batches_respect_the_scratch_cap(monkeypatch, case, dense):
    # B = max(1, cap // (rows * N)) states go per (chunk, batch), rows being the
    # first chunk's; every state must still see its own walk
    cap, count, steps, batch, visits = BATCH_CASES[case]
    monkeypatch.setattr(ctqw.operators, "_SCRATCH_CELLS", cap)
    spec = moebius_spec(10)
    amplitudes = propagator(spec.to_graph() if dense else spec, 0.7, CouplingSeries.exp())
    grid = TimeGrid(0.0, 9.0, steps)
    rng = np.random.default_rng(count)
    states = rng.normal(size=(count, spec.n)) + 1j * rng.normal(size=(count, spec.n))
    states /= np.linalg.norm(states, axis=1)[:, None]
    streamed = np.full((count, steps, spec.n), np.nan, dtype=complex)
    seen = []

    def keep(first, rows, block):
        seen.append((first, rows.start, block.shape))
        streamed[first : first + len(block), rows] = block

    amplitudes(states, grid, keep)
    assert len(seen) == visits
    for first, start, shape in seen:
        rows = min(TIME_CHUNK, steps - start)
        assert first % batch == 0 and shape == (min(batch, count - first), rows, spec.n)
    for state, field in zip(states, streamed):
        assert np.max(np.abs(field - amplitudes(state, grid))) <= 1e-15


@pytest.mark.parametrize("steps", [1, TIME_CHUNK + 3])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("node_major", [False, True], ids=["time-major", "node-major"])
def test_blocks_come_in_the_map_back_layout(node_major, count, steps):
    # a last-axis FFT takes time-major blocks and a gemm node-major ones, neither with a copy
    n = 7
    layouts = []

    def to_nodes(block, out):
        for b in (block, out):
            memory = b.transpose(2, 0, 1) if node_major else b
            layouts.append((b.shape[0], b.shape[2], memory.flags.c_contiguous))
        out[...] = block

    phi, grid = np.eye(n, dtype=complex)[:count], TimeGrid(0.0, 2.0, steps)
    propagate(np.linspace(-1.0, 1.0, n), phi, grid, to_nodes, lambda *_: None, node_major)
    assert layouts == [(count, n, True)] * 2 * -(-steps // TIME_CHUNK)


@pytest.mark.parametrize("steps", [1, TIME_CHUNK - 1, TIME_CHUNK, TIME_CHUNK + 1])
@pytest.mark.parametrize("node_major", [False, True], ids=["time-major", "node-major"])
def test_offset_table_matches_direct_exponentials(node_major, steps):
    # the doubled table against one exponential per entry, on the grid step propagate uses
    grid = TimeGrid(-3.5, 6.25, steps)
    rows = min(TIME_CHUNK, steps)
    dt = (grid.t_end - grid.t_start) / max(steps - 1, 1)
    w = np.concatenate([np.linspace(-1e4, 1e4, 41), np.random.default_rng(steps).normal(0, 50, 40)])
    table = _offset_table(w, dt, rows, node_major)
    direct = np.exp(-1j * np.outer(np.arange(rows) * dt, w))
    assert table.shape == (rows, w.size)
    assert (table.T if node_major else table).flags.c_contiguous
    # Row j is the product of one factor exp(-i fl(w k dt)) per set bit k of j, at
    # most log2(TIME_CHUNK) of them, with k dt exact; the direct entry is one more
    # exponential.  Each of these is within eps of the exponential of its rounded
    # phase, and each complex product adds at most sqrt(5) eps / 2: under 3 eps
    # per factor.  The factors' rounded phases sum to within eps |w| j dt / 2 of
    # w j dt and the direct phase fl(w fl(j dt)) is within eps |w| j dt of it:
    # under 2 eps max|w| (rows - 1) dt.
    eps = np.finfo(float).eps
    factors = int(math.log2(TIME_CHUNK)) + 1
    bound = eps * (3 * factors + 2 * np.max(np.abs(w)) * (rows - 1) * dt)
    assert np.max(np.abs(table - direct)) <= bound
    # row 0 and the rows of one factor are exact, bit for bit
    single = [0] + [2**b for b in range(int(math.log2(TIME_CHUNK))) if 2**b < rows]
    assert np.array_equal(table[single], direct[single])


@pytest.mark.parametrize("dense", [False, True], ids=["fourier", "dense"])
def test_stack_without_visit_is_rejected(dense):
    # one (T, N) field cannot hold the walks of several states
    spec = ring_spec(6)
    instance = spec.to_graph() if dense else spec
    amplitudes = propagator(instance, 0.4, CouplingSeries.exp())
    grid = TimeGrid(0.0, 2.0, 5)
    with pytest.raises(ValueError, match="stack of 3 states needs visit"):
        amplitudes(np.eye(6)[:3], grid)
    # a one-row stack, real or complex, is the walk of its one state
    walk = run_walk(instance, 0.4, CouplingSeries.exp(), 2, grid).amplitudes
    assert np.array_equal(amplitudes(np.eye(6)[2:3], grid), walk)
    assert np.array_equal(amplitudes(np.eye(6, dtype=complex)[2], grid), walk)


@pytest.mark.parametrize("dense", [False, True], ids=["fourier", "dense"])
def test_empty_stack_visits_nothing(dense):
    spec = ring_spec(6)
    amplitudes = propagator(spec.to_graph() if dense else spec, 0.4, CouplingSeries.exp())
    grid = TimeGrid(0.0, 2.0, 70)  # two chunks
    empty = np.zeros((0, 6), dtype=complex)
    seen = []
    assert amplitudes(empty, grid, lambda *args: seen.append(args)) is None
    assert seen == []
    # without visit the result holds exactly one walk, never an unfilled field
    with pytest.raises(ValueError, match="stack of 0 states needs visit; give exactly one state"):
        amplitudes(empty, grid)


def test_walk_result_contract():
    grid = TimeGrid(0.0, 3.0, 40)
    res = run_walk(ring_spec(8), 0.3, CouplingSeries.exp(), 0, grid)
    assert res.n == 8
    assert res.probabilities.shape == (40, 8)
    assert res.normalization_defect < 1e-12
    bad = res.amplitudes.copy()
    bad[5] *= 2.0
    with pytest.raises(NormalizationError):
        WalkResult(res.label, res.alpha, res.times, bad)
    # a NaN row has a NaN defect, which must not pass the gate
    with pytest.raises(NormalizationError):
        WalkResult("x", 0.0, [0.0], [[np.nan, 1.0]])


def test_directed_ring_is_chiral_but_probability_mirrors():
    # a single-phase walk on the directed ring keeps the left/right mirror
    # at the probability level
    n, start = 11, 5
    res = run_walk(ring_spec(n), 0.9, CouplingSeries.exp(), start, TimeGrid(0, 4, 50))
    p = res.probabilities
    for k in range(1, n // 2 + 1):
        assert np.max(np.abs(p[:, (start + k) % n] - p[:, (start - k) % n])) < 1e-11


def test_uniform_state_is_stationary_on_circulant():
    res = run_walk(
        ring_spec(9), 0.7, CouplingSeries.exp(), np.full(9, 1 / 3, dtype=complex), TimeGrid(0, 6, 30)
    )
    assert np.max(np.abs(res.probabilities - 1 / 9)) < 1e-12


def test_parity_confinement_on_even_directed_ring():
    res = run_walk(
        ring_spec(200), math.pi / 2, CouplingSeries.exp(), 100, TimeGrid(0, 25, 120)
    )
    odd_nodes = np.arange(1, 200, 2)
    assert np.max(res.probabilities[:, odd_nodes]) < 1e-12


def test_arrival_time():
    grid = TimeGrid(0.0, 25.0, 500)
    res = run_walk(ring_spec(200), math.pi / 4, CouplingSeries.exp(), 100, grid)
    assert arrival_time(res, 100, threshold=0.5) == 0.0
    t_opp = arrival_time(res, 0, threshold=0.01)
    assert t_opp is not None and 0.0 < t_opp <= 25.0
    assert arrival_time(res, 1, threshold=0.9999) is None
    with pytest.raises(ValueError):
        arrival_time(res, 200)
    with pytest.raises(ValueError):
        arrival_time(res, 0, threshold=0.0)
    with pytest.raises(ValueError):
        arrival_time(res, 0, threshold=1.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_phase_fails_when_either_engine_builds_its_walk(alpha):
    # each engine computes its spectrum once, in propagator(), before any state is given
    for instance in (ring_spec(6), build_ring(6)):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteOperatorError, match="non-finite"):
            propagator(instance, alpha, CouplingSeries.exp())


def test_run_walk_rejects_unknown_topology():
    with pytest.raises(TypeError):
        run_walk(np.eye(3), 0.0, CouplingSeries.exp(), 0, TimeGrid(0, 1, 2))
    # the property checks take the same two kinds of instance
    with pytest.raises(TypeError, match="expected DirectedGraph or CirculantSpec"):
        check_bidirected_edge_cancellation(build_ring(6), "ring", CouplingSeries.exp())


def test_csv_round_trip(tmp_path):
    res = run_walk(ring_spec(5), 0.2, CouplingSeries.exp(), 0, TimeGrid(0, 2, 8))
    path = tmp_path / "walk.csv"
    write_walk_csv(res, path, header_lines=["alpha 0.2"])
    times, probs = read_walk_csv(path)
    assert np.array_equal(times, res.times)
    assert np.array_equal(probs, res.probabilities)
    text = path.read_text()
    assert text.startswith("# alpha 0.2\n")
    assert "t,node,probability" in text


def test_csv_with_amplitudes(tmp_path):
    res = run_walk(ring_spec(4), 0.1, CouplingSeries.exp(), 0, TimeGrid(0, 1, 3))
    path = tmp_path / "walk.csv"
    write_walk_csv(res, path, include_amplitudes=True)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,node,probability,re,im"
    assert len(lines) == 1 + 3 * 4
    row = lines[1].split(",")
    re, im = float(row[3]), float(row[4])
    assert re * re + im * im == pytest.approx(float(row[2]), abs=1e-15)


def test_read_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,node,probability\n0.0,0\n")
    with pytest.raises(ValueError):
        read_walk_csv(path)


def test_dense_graph_walk_norm_and_start():
    g = DirectedGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)}))
    res = run_walk(g, 0.6, CouplingSeries.sinh(), 3, TimeGrid(0, 3, 25))
    assert res.probabilities[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert res.normalization_defect < 1e-11
