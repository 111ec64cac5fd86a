"""Fourier-basis diagonalization of circulant walks against dense linear algebra."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctqw.spectral
from ctqw import (
    CirculantSpec,
    CouplingSeries,
    TimeGrid,
    assemble_hamiltonian,
    circulant_ah_spectrum,
    circulant_amplitudes,
    circulant_column,
    circulant_hamiltonian_spectrum,
    fourier_basis,
    hermitian_adjacency,
    hermitian_eigendecomposition,
    localized_state,
    moebius_spec,
    propagator,
    ring_spec,
)
from ctqw.operators import TIME_CHUNK


def test_fourier_basis_frozen_column():
    s = fourier_basis(4)
    assert np.allclose(s[:, 1], np.array([1, 1j, -1, -1j]) / 2)
    assert np.allclose(s, s.T)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64))
def test_fourier_basis_unitary(n):
    s = fourier_basis(n)
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-12


def test_ring_ah_spectrum_frozen():
    d = circulant_ah_spectrum(ring_spec(4), 0.0)
    assert np.allclose(d, [2.0, 0.0, -2.0, 0.0], atol=1e-15)
    alpha = 0.3
    expected = [2 * math.cos(alpha - 2 * math.pi * m / 4) for m in range(4)]
    assert np.allclose(circulant_ah_spectrum(ring_spec(4), alpha), expected)


def _random_spec(rng, n):
    coeffs = np.zeros(n)
    nnz = int(rng.integers(1, min(4, n)))
    hops = rng.choice(np.arange(1, n), size=nnz, replace=False)
    coeffs[hops] = 1.0
    return CirculantSpec(tuple(coeffs))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32))
def test_ah_spectrum_matches_dense_eigenvalues(seed, n):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, n)
    alpha = float(rng.uniform(0, 2 * math.pi))
    d = circulant_ah_spectrum(spec, alpha)
    dense = np.linalg.eigvalsh(hermitian_adjacency(spec.to_graph(), alpha).matrix)
    assert np.max(np.abs(np.sort(d) - dense)) < 1e-10


def test_ah_spectrum_is_real_and_reversal_even():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 24))
        spec = _random_spec(rng, n)
        alpha = float(rng.uniform(0, 2 * math.pi))
        d = circulant_ah_spectrum(spec, alpha)
        assert np.isrealobj(d)
        dh = circulant_hamiltonian_spectrum(spec, alpha, CouplingSeries.exp())
        # mode n - m carries the phase-reversed value, so the coupled
        # spectrum is symmetric under index reversal (to relative precision;
        # exp amplifies the angle roundoff)
        scale = max(1.0, float(np.max(np.abs(dh))))
        assert np.max(np.abs(dh - dh[(-np.arange(n)) % n])) < 1e-13 * scale


def test_hamiltonian_spectrum_frozen_example():
    # ring4 at alpha=0: adjacency modes (2, 0, -2, 0), doubled through exp
    d = circulant_hamiltonian_spectrum(ring_spec(4), 0.0, CouplingSeries.exp())
    expected = [2 * math.e**2, 2.0, 2 * math.e**-2, 2.0]
    assert np.allclose(d, expected, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24))
def test_hamiltonian_spectrum_matches_dense(seed, n):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, n)
    alpha = float(rng.uniform(0, 2 * math.pi))
    series = CouplingSeries.polynomial(rng.uniform(-1, 1, int(rng.integers(1, 6))))
    d = circulant_hamiltonian_spectrum(spec, alpha, series)
    h = assemble_hamiltonian(spec.to_graph(), alpha, series)
    dense = np.linalg.eigvalsh(h.matrix)
    assert np.max(np.abs(np.sort(d) - dense)) < 1e-9


def _propagator_matrix(graph_or_spec, alpha, series, t):
    """U(t) through the engine's own propagator: the N basis states streamed at one time."""
    n = graph_or_spec.n
    u = np.empty((n, n), dtype=complex)

    def keep(first, _, block):
        # block[b, 0] is U(t) applied to basis state first + b: a column of U
        u[:, first : first + len(block)] = block[:, 0].T

    propagator(graph_or_spec, alpha, series)(np.eye(n, dtype=complex), TimeGrid(t, t, 1), keep)
    return u


def test_evolution_unitary_and_identity_at_zero():
    spec = ring_spec(6)
    series = CouplingSeries.exp()
    u0 = _propagator_matrix(spec, 0.4, series, 0.0)
    assert np.max(np.abs(u0 - np.eye(6))) < 1e-14
    u = _propagator_matrix(spec, 0.4, series, 2.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12


def test_evolution_matches_dense_exponential():
    spec = CirculantSpec((0.0, 1.0, 0.0, 0.0, 1.0, 0.0))
    alpha, t = 0.9, 1.3
    series = CouplingSeries.sinh()
    u = _propagator_matrix(spec, alpha, series, t)
    h = assemble_hamiltonian(spec.to_graph(), alpha, series)
    es = hermitian_eigendecomposition(h)
    dense = (es.vectors * np.exp(-1j * es.values * t)) @ es.vectors.conj().T
    assert np.max(np.abs(u - dense)) < 1e-12


def test_amplitudes_grid_matches_single_steps():
    spec = ring_spec(8)
    series = CouplingSeries.exp()
    alpha = math.pi / 4
    psi0 = localized_state(8, 2)
    grid = TimeGrid(0.0, 3.0, 7)
    amps = circulant_amplitudes(spec, alpha, series, psi0, grid)
    assert amps.shape == (7, 8)
    for k, t in enumerate(grid.times()):
        step = _propagator_matrix(spec, alpha, series, float(t)) @ psi0
        assert np.max(np.abs(amps[k] - step)) < 1e-12


def _dense_propagator(spec, alpha, series, t):
    s = fourier_basis(spec.n)
    d = circulant_hamiltonian_spectrum(spec, alpha, series)
    return (s * np.exp(-1j * d * t)) @ s.conj().T


def _spec_for(n):
    # hops 1 and the largest offset below n/2, plus a fractional weight so
    # the spectrum is not reversal-symmetric by accident
    coeffs = np.zeros(n)
    if n > 1:
        coeffs[1] = 1.0
        coeffs[max(1, (n - 1) // 2)] += 0.5
    return CirculantSpec(tuple(coeffs))


def _superposition(n):
    rng = np.random.default_rng(n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [1, 2, 3, 97, 1000])
def test_ah_spectrum_matches_cosine_table(n):
    spec = _spec_for(n)
    m = np.arange(n)
    for alpha in (0.0, 0.7, -2.3):
        table = 2.0 * np.cos(alpha - 2.0 * np.pi * np.outer(m, m) / n) @ spec.coefficients
        assert np.max(np.abs(circulant_ah_spectrum(spec, alpha) - table)) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 97, 1000])
@pytest.mark.parametrize("steps", [1, TIME_CHUNK - 1, TIME_CHUNK, TIME_CHUNK + 1])
def test_amplitudes_match_dense_fourier_oracle(n, steps):
    spec = _spec_for(n)
    series = CouplingSeries.exp()
    alpha = 0.7
    grid = TimeGrid(0.25, 3.0, steps)
    s = fourier_basis(n)
    d = circulant_hamiltonian_spectrum(spec, alpha, series)
    for psi0 in (localized_state(n, n // 2), _superposition(n)):
        amps = circulant_amplitudes(spec, alpha, series, psi0, grid)
        assert amps.shape == (steps, n)
        oracle = (s @ (np.exp(-1j * np.outer(d, grid.times())) * (s.conj().T @ psi0)[:, None])).T
        assert np.max(np.abs(amps - oracle)) < 1e-12


@pytest.mark.parametrize(
    "spec, series, grid",
    [
        (moebius_spec(64), CouplingSeries.exp(), TimeGrid(0.0, 1000.0, 4001)),
        (ring_spec(97), CouplingSeries.cosh(), TimeGrid(3.7, 400.0, 777)),
    ],
    ids=["moebius64-exp", "ring97-cosh"],
)
def test_phase_table_matches_direct_exp_on_long_grids(spec, series, grid):
    # propagate builds each chunk's phases as exp(-i w t_c) exp(-i w j dt); the
    # oracles evaluate exp(-i w t) at every grid time.  Both engines are held to
    # criterion 1's rounding floor of the phase, eps (1 + |x|) max|E| t_end, with
    # x the largest |eigenvalue| of A_H, the argument of J.
    alpha = 0.3
    eps = np.finfo(float).eps
    times = grid.times()
    psi0 = _superposition(spec.n)
    x = np.max(np.abs(circulant_ah_spectrum(spec, alpha)))
    d = circulant_hamiltonian_spectrum(spec, alpha, series)
    bound = eps * (1 + x) * np.max(np.abs(d)) * grid.t_end
    fourier = np.fft.ifft(np.exp(-1j * np.outer(times, d)) * np.fft.fft(psi0), axis=1)
    amps = circulant_amplitudes(spec, alpha, series, psi0, grid)
    assert np.max(np.abs(amps - fourier)) < bound
    graph = spec.to_graph()
    es = hermitian_eigendecomposition(assemble_hamiltonian(graph, alpha, series))
    v = es.vectors
    eigenbasis = (v @ (np.exp(-1j * np.outer(es.values, times)) * (v.T @ psi0)[:, None])).T
    assert np.max(np.abs(propagator(graph, alpha, series)(psi0, grid) - eigenbasis)) < bound


@pytest.mark.parametrize("n", [1, 2, 3, 97, 1000])
def test_evolution_matches_dense_fourier_oracle(n):
    spec = _spec_for(n)
    series = CouplingSeries.sinh()
    u = _propagator_matrix(spec, -1.1, series, 2.3)
    assert np.max(np.abs(u - _dense_propagator(spec, -1.1, series, 2.3))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 97])
def test_circulant_column_is_first_column_of_dense_circulant(n):
    rng = np.random.default_rng(n)
    spectra = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    s = fourier_basis(n)
    columns = circulant_column(spectra)
    assert columns.shape == (3, n)
    k = np.arange(n)
    for spectrum, column in zip(spectra, columns):
        dense = (s * spectrum) @ s.conj().T
        assert np.max(np.abs(dense[:, 0] - column)) < 1e-12
        assert np.max(np.abs(dense - column[np.subtract.outer(k, k) % n])) < 1e-12


def test_fourier_engine_runs_on_an_ifft_without_out(monkeypatch):
    # NumPy 1.x's ifft takes no ``out``; the engine must give the same fields with it
    spec, series, grid = moebius_spec(12), CouplingSeries.exp(), TimeGrid(0.0, 9.0, TIME_CHUNK + 5)
    states = np.eye(spec.n, dtype=complex)[[1, 4, 7]]
    column = ctqw.spectral.circulant_column
    outs = []

    def recording_column(spectrum, out=None):
        outs.append(out)
        return column(spectrum, out)

    monkeypatch.setattr(ctqw.spectral, "circulant_column", recording_column)

    def fields():
        outs.clear()
        walk = circulant_amplitudes(spec, 0.7, series, states[0], grid)
        # a single walk's chunks are mapped back straight into the rows of its result
        assert [out.shape for out in outs] == [(1, TIME_CHUNK, spec.n), (1, 5, spec.n)]
        assert all(out.base is walk for out in outs)
        streamed = np.full((len(states), grid.steps, spec.n), np.nan, dtype=complex)

        def keep(first, rows, block):
            streamed[first : first + len(block), rows] = block

        circulant_amplitudes(spec, 0.7, series, states, grid, keep)
        out = np.empty((2, spec.n), dtype=complex)
        assert column(states[:2], out=out) is out
        return walk, streamed, out

    expected = fields()
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, n=None, axis=-1, norm=None: ifft(a, n, axis, norm))
    monkeypatch.setattr(ctqw.spectral, "_IFFT_TAKES_OUT", False)
    for got, want in zip(fields(), expected):
        assert np.array_equal(got, want)


def test_amplitudes_scratch_memory_is_linear_in_n():
    # a single N x N complex table at N = 4096 would take 256 MiB
    n = 4096
    spec = ring_spec(n)
    psi0 = localized_state(n, 0)
    grid = TimeGrid(0.0, 1.0, 4)
    tracemalloc.start()
    try:
        circulant_amplitudes(spec, 0.4, CouplingSeries.exp(), psi0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_amplitudes_scratch_memory_is_bounded_by_the_chunk():
    # Over 16 chunks the scratch beyond the (T, N) result stays a few
    # chunk-sized buffers, since each chunk is mapped back into the result's
    # rows; one batched (T, N) transform would need several result-sized
    # ones (32 MiB each here).
    n = 2048
    grid = TimeGrid(0.0, 5.0, 16 * TIME_CHUNK)
    chunk_bytes = TIME_CHUNK * n * 16
    tracemalloc.start()
    try:
        amps = circulant_amplitudes(
            ring_spec(n), 0.4, CouplingSeries.exp(), localized_state(n, 0), grid
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 2.15-2.21 chunks: the offset table, one eigenbasis block and the FFT's
    # small working arrays; NumPy 1.x's ifft returns one more chunk before it is copied in
    chunks = 2.5 + (not ctqw.spectral._IFFT_TAKES_OUT)
    assert peak - amps.nbytes < chunks * chunk_bytes
