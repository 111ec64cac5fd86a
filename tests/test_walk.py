"""Walk driver: grids, states, evolution routes, arrivals, CSV round trips."""

import math
import tracemalloc

import numpy as np
import pytest

from ctqw import (
    CouplingSeries,
    DirectedGraph,
    NormalizationError,
    TimeGrid,
    WalkResult,
    arrival_time,
    build_ring,
    localized_state,
    moebius_spec,
    propagator,
    read_walk_csv,
    ring_spec,
    run_walk,
    validate_state,
    write_walk_csv,
)
from ctqw.operators import TIME_CHUNK


def test_time_grid_contract():
    grid = TimeGrid(0.0, 2.0, 5)
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    single = TimeGrid(1.0, 1.0, 1)
    assert np.allclose(single.times(), [1.0])
    for bad in ((0.0, -1.0, 5), (0.0, 1.0, 0), (float("nan"), 1.0, 5)):
        with pytest.raises(ValueError):
            TimeGrid(*bad)


def test_state_builders():
    psi = localized_state(4, 2)
    assert np.array_equal(psi, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        localized_state(4, 4)
    with pytest.raises(ValueError):
        validate_state(np.array([1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        validate_state(localized_state(3, 0), 4)


def test_evolve_basics():
    amplitudes = propagator(build_ring(6), 0.4, CouplingSeries.exp())
    psi0 = localized_state(6, 0)
    assert np.max(np.abs(amplitudes(psi0, [0.0])[0] - psi0)) < 1e-12
    psi = amplitudes(psi0, [3.1])[0]
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
    times = np.linspace(0.0, 5.0, 8 * TIME_CHUNK)
    tracemalloc.start()
    try:
        amps = amplitudes(psi0, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - amps.nbytes < n * n * 16


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


def test_run_walk_rejects_unknown_topology():
    with pytest.raises(TypeError):
        run_walk(np.eye(3), 0.0, CouplingSeries.exp(), 0, TimeGrid(0, 1, 2))


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
