"""Analytic oracles: star oscillations, ring first-row forms, spectrum shifts."""

import math

import numpy as np
import pytest

from ctqw import (
    CirculantSpec,
    CouplingSeries,
    StarClosedForm,
    TimeGrid,
    assemble_hamiltonian,
    build_star,
    circulant_hamiltonian_spectrum,
    fourier_basis,
    half_pi_spectrum_shift,
    moebius_spec,
    ring_closed_form_support,
    ring_hamiltonian_closed_form,
    ring_spec,
    run_walk,
    star_frequency_polynomial,
    star_probability_field,
)
from ctqw import closed_forms


def test_star_frequency_pinned_forms():
    for n in (1, 4, 9):
        for alpha in (0.0, 0.4, math.pi / 2):
            base = 4 * math.sinh(math.sqrt(n)) * math.cos(alpha)
            assert StarClosedForm(n, True, alpha).omega == pytest.approx(base)
            # undirected: A_H = 2 cos(alpha) S, so the exponent doubles inside sinh
            undirected = 4 * math.sinh(2 * math.sqrt(n) * math.cos(alpha))
            assert StarClosedForm(n, False, alpha).omega == pytest.approx(undirected)


def test_star_probability_conserves_mass():
    form = StarClosedForm(5, True, 0.3)
    t = np.linspace(0, 8, 50)
    total = form.probability(0, t) + 5 * form.probability(1, t)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert np.allclose(form.probability(2, t), form.probability(5, t))
    with pytest.raises(ValueError):
        form.probability(6, 0.0)
    with pytest.raises(ValueError):
        StarClosedForm(0, True, 0.0)


def test_star_probability_field_shape():
    times = np.linspace(0, 4, 9)
    field = star_probability_field(3, True, 0.2, times)
    assert field.shape == (9, 4)
    assert np.allclose(field.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(field[:, 0], StarClosedForm(3, True, 0.2).probability(0, times))


def test_directed_star_walk_matches_closed_form():
    grid = TimeGrid(0.0, 10.0, 200)
    times = grid.times()
    for n in (1, 4, 16):
        for alpha in (0.0, 0.7, math.pi / 2):
            res = run_walk(build_star(n), alpha, CouplingSeries.exp(), 0, grid)
            oracle = star_probability_field(n, True, alpha, times)
            assert np.max(np.abs(res.probabilities - oracle)) < 1e-9


def test_undirected_star_walk_matches_two_level_reduction():
    # For the undirected star the phased adjacency is 2 cos(alpha) times the
    # plain one, whose only nonzero eigenvalues are +/- sqrt(N).  Exponential
    # coupling then leaves a two-level problem with splitting
    # 2 exp(2 sqrt(N) cos a) - 2 exp(-2 sqrt(N) cos a) = 4 sinh(2 sqrt(N) cos a).
    # That is the frequency the simulator must reproduce, and the one
    # StarClosedForm gives for the undirected star.  This test derives it
    # here by hand so the engine is checked independently of that oracle.
    grid = TimeGrid(0.0, 10.0, 200)
    times = grid.times()
    worst = 0.0
    for n in (1, 4, 16):
        for alpha in (0.0, 0.7, math.pi / 2):
            res = run_walk(
                build_star(n, directed=False), alpha, CouplingSeries.exp(), 0, grid
            )
            omega = 4 * math.sinh(2 * math.sqrt(n) * math.cos(alpha))
            hub = (1 + np.cos(omega * times)) / 2
            leaf = (1 - np.cos(omega * times)) / (2 * n)
            dev = max(
                np.max(np.abs(res.probabilities[:, 0] - hub)),
                np.max(np.abs(res.probabilities[:, 1] - leaf)),
            )
            worst = max(worst, float(dev))
    assert worst < 1e-9


def test_undirected_pinned_form_departs_from_dynamics():
    # 8 sinh(sqrt N) cos(alpha) shares only its small-argument slope with the
    # undirected frequency 4 sinh(2 sqrt(N) cos(alpha)) and does not follow
    # the dynamics; the oracle must.
    n, alpha = 4, 0.0
    grid = TimeGrid(0.0, 10.0, 200)
    times = grid.times()
    res = run_walk(build_star(n, directed=False), alpha, CouplingSeries.exp(), 0, grid)
    linearised = 8 * math.sinh(math.sqrt(n)) * math.cos(alpha)
    hub = (1 + np.cos(linearised * times)) / 2
    assert np.max(np.abs(res.probabilities[:, 0] - hub)) > 1e-3
    oracle = star_probability_field(n, False, alpha, times)
    assert np.max(np.abs(res.probabilities - oracle)) < 1e-9


def test_polynomial_star_frequency():
    # the two-level reduction works for any odd part of the series:
    # omega = 4 * J_odd(sqrt N) * cos(alpha)
    series = CouplingSeries.polynomial([0.2, 0.5, -0.3, 0.1])
    n, alpha = 5, 0.6
    omega = star_frequency_polynomial(n, series, alpha)
    root = math.sqrt(n)
    by_hand = 4 * (0.5 * root + 0.1 * root**3) * math.cos(alpha)
    assert omega == pytest.approx(by_hand)
    grid = TimeGrid(0.0, 6.0, 150)
    res = run_walk(build_star(n), alpha, series, 0, grid)
    hub = (1 + np.cos(omega * grid.times())) / 2
    assert np.max(np.abs(res.probabilities[:, 0] - hub)) < 1e-9


def test_ring_closed_form_identity_coupling():
    n, alpha = 5, 0.8
    h = ring_hamiltonian_closed_form(n, alpha, (1.0,))
    g = ring_spec(n).to_graph()
    a = g.adjacency()
    assert np.max(np.abs(h.matrix - 2 * math.cos(alpha) * (a + a.T))) < 1e-14


def test_ring_closed_form_matches_dense_polynomial():
    coeffs = (0.7, -0.2, 0.4, 0.05)
    for n in (6, 9):
        for alpha in (0.0, 0.3, math.pi / 2, 2.1):
            closed = ring_hamiltonian_closed_form(n, alpha, coeffs)
            series = CouplingSeries.polynomial((0.0,) + coeffs)
            dense = assemble_hamiltonian(ring_spec(n).to_graph(), alpha, series)
            assert np.max(np.abs(closed.matrix - dense.matrix)) < 1e-12


def test_ring_closed_form_wraps_modulo_n():
    # order-2 hop on a 3-ring lands on index -2 mod 3 = 1
    alpha = 0.5
    h = ring_hamiltonian_closed_form(3, alpha, (0.0, 1.0))
    expected = np.array(
        [
            [4.0, 2 * math.cos(2 * alpha), 2 * math.cos(2 * alpha)],
            [2 * math.cos(2 * alpha), 4.0, 2 * math.cos(2 * alpha)],
            [2 * math.cos(2 * alpha), 2 * math.cos(2 * alpha), 4.0],
        ]
    )
    assert np.max(np.abs(h.matrix - expected)) < 1e-14


def test_ring_closed_form_truncated_exponential():
    n, alpha = 6, 0.4
    order = 6
    coeffs = tuple(1 / math.factorial(p) for p in range(1, order + 1))
    closed = ring_hamiltonian_closed_form(n, alpha, coeffs)
    series = CouplingSeries.polynomial((1.0,) + coeffs)
    dense = assemble_hamiltonian(ring_spec(n).to_graph(), alpha, series)
    # the closed form drops the constant term 2*j0*I by construction
    assert np.max(np.abs(closed.matrix + 2 * np.eye(n) - dense.matrix)) < 1e-12


def test_ring_support_mask():
    mask = ring_closed_form_support(10, 3)
    assert set(np.flatnonzero(mask)) == {0, 1, 2, 3, 7, 8, 9}
    coeffs = (1.0, 0.5, 1 / 6)
    h = ring_hamiltonian_closed_form(10, 0.3, coeffs)
    assert np.array_equal(np.abs(h.matrix[0]) > 1e-12, mask)


def test_half_pi_shift_identities_hold():
    for spec in (ring_spec(6), moebius_spec(10)):
        report = half_pi_spectrum_shift(spec, CouplingSeries.exp(), 0.35, t=0.9)
        assert report.max_deviation < 1e-12
        assert report.spectrum < 1e-12
        assert report.hamiltonian < 1e-12
        assert report.evolution < 1e-12


def test_half_pi_shift_rejects_unsuitable_specs():
    with pytest.raises(ValueError):
        half_pi_spectrum_shift(ring_spec(5), CouplingSeries.exp(), 0.1)
    with pytest.raises(ValueError):
        half_pi_spectrum_shift(
            CirculantSpec((0.0, 0.0, 1.0, 0.0)), CouplingSeries.exp(), 0.1
        )
    # moebius with even half-size has an even-index hop and must be refused
    with pytest.raises(ValueError):
        half_pi_spectrum_shift(moebius_spec(12), CouplingSeries.exp(), 0.1)


def _dense_shift_deviations(c, series, delta, t, spectrum=circulant_hamiltonian_spectrum):
    # the full-matrix form: H = S diag(D) S^H, U = S exp(-i D t) S^H and the
    # sign pattern (-1)^(i+j) over every entry
    n = c.n
    d_plus = spectrum(c, math.pi / 2 + delta, series)
    d_minus = spectrum(c, math.pi / 2 - delta, series)
    s = fourier_basis(n)
    signs = np.where((np.add.outer(np.arange(n), np.arange(n)) % 2) == 0, 1.0, -1.0)
    h_plus = (s * d_plus) @ s.conj().T
    h_minus = (s * d_minus) @ s.conj().T
    u_plus = (s * np.exp(-1j * d_plus * t)) @ s.conj().T
    u_minus = (s * np.exp(-1j * d_minus * t)) @ s.conj().T
    return (
        float(np.max(np.abs(h_plus - signs * h_minus))),
        float(np.max(np.abs(u_plus - signs * u_minus))),
    )


def _odd_hop_spec(n, hops):
    coeffs = np.zeros(n)
    coeffs[list(hops)] = 1.0
    return CirculantSpec(tuple(coeffs))


@pytest.mark.parametrize("spec", [ring_spec(12), _odd_hop_spec(64, (1, 5))])
def test_half_pi_first_column_reduction_matches_dense(spec, monkeypatch):
    series, delta, t = CouplingSeries.exp(), 0.35, 0.9
    report = half_pi_spectrum_shift(spec, series, delta, t)
    dense_h, dense_u = _dense_shift_deviations(spec, series, delta, t)
    assert abs(report.hamiltonian - dense_h) < 1e-12
    assert abs(report.evolution - dense_u) < 1e-12

    # break the identity with a perturbation that is not reversal-even, so
    # the deviations are O(1) and the reduction is compared entry for entry
    # rather than both sides merely being small
    kick = np.random.default_rng(spec.n).uniform(-0.5, 0.5, spec.n)

    def perturbed(c, alpha, s):
        d = circulant_hamiltonian_spectrum(c, alpha, s)
        return d + kick if alpha > math.pi / 2 else d

    monkeypatch.setattr(closed_forms, "circulant_hamiltonian_spectrum", perturbed)
    report = half_pi_spectrum_shift(spec, series, delta, t)
    dense_h, dense_u = _dense_shift_deviations(spec, series, delta, t, perturbed)
    assert report.hamiltonian > 1e-3 and report.evolution > 1e-3
    assert abs(report.hamiltonian - dense_h) < 1e-12
    assert abs(report.evolution - dense_u) < 1e-12
