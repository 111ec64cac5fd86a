"""Phase handling, coupling series, and Hamiltonian assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import (
    CouplingSeries,
    EigendecompositionError,
    HermitianOperator,
    apply_coupling,
    assemble_hamiltonian,
    build_ring,
    build_star,
    hermitian_adjacency,
    hermitian_eigendecomposition,
    parse_phase,
)


def test_parse_phase_tokens():
    assert parse_phase("pi/2") == pytest.approx(math.pi / 2)
    assert parse_phase("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_phase("-pi") == pytest.approx(-math.pi)
    assert parse_phase("2pi") == pytest.approx(2 * math.pi)
    # phases are never reduced modulo 2 pi
    assert parse_phase("5pi/2") == pytest.approx(5 * math.pi / 2)
    assert parse_phase("0.5*pi") == pytest.approx(math.pi / 2)
    assert parse_phase("0.3") == pytest.approx(0.3)
    assert parse_phase(0.3) == pytest.approx(0.3)
    assert parse_phase(2) == pytest.approx(2.0)


def test_parse_phase_rejects_garbage():
    for bad in ("tau", "pi/0", "", "nan", float("inf"), True, None):
        with pytest.raises((ValueError, TypeError)):
            parse_phase(bad)


def test_hermitian_operator_contract():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    tiny = 1e-14
    op = HermitianOperator(np.array([[0.0, 1.0 + tiny * 1j], [1.0, 0.0]]))
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    assert op.matrix.dtype == np.complex128
    # real input stays real, so eigh runs the real symmetric solver
    assert HermitianOperator(np.array([[0, 1], [1, 0]])).matrix.dtype == np.float64
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_hermitian_adjacency_limits():
    g = build_star(3)
    a = g.adjacency()
    assert np.allclose(hermitian_adjacency(g, 0.0).matrix, a + a.T)
    assert np.allclose(hermitian_adjacency(g, math.pi / 2).matrix, 1j * (a - a.T))
    ah = hermitian_adjacency(g, 0.7).matrix
    assert np.allclose(hermitian_adjacency(g, -0.7).matrix, ah.conj())
    assert np.allclose(ah, ah.conj().T)


def test_star_hermitian_adjacency_spectrum():
    # one conjugate pair +/- sqrt(N), rest zero, independent of the phase
    for alpha in (0.0, 0.3, math.pi / 2):
        vals = np.linalg.eigvalsh(hermitian_adjacency(build_star(4), alpha).matrix)
        assert np.allclose(np.sort(vals), [-2.0, 0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_coupling_series_validation():
    with pytest.raises(ValueError):
        CouplingSeries("polynomial", None)
    with pytest.raises(ValueError):
        CouplingSeries("exp", (1.0, 2.0))
    with pytest.raises(ValueError):
        CouplingSeries("fourier", None)
    with pytest.raises(ValueError):
        CouplingSeries.polynomial([1.0, float("inf")])


@pytest.mark.parametrize(
    "bad",
    [True, np.bool_(False), "0.5", np.str_("1")],
    ids=["bool", "numpy-bool", "str", "numpy-str"],
)
def test_coupling_series_rejects_booleans_and_strings(bad):
    with pytest.raises(ValueError, match="real numbers"):
        CouplingSeries.polynomial([1.0, bad])
    with pytest.raises(ValueError, match="real numbers"):
        CouplingSeries("polynomial", (bad,))


def test_coupling_series_accepts_numpy_numbers():
    series = CouplingSeries.polynomial([1, np.int32(2), np.float32(0.5), np.float64(0.25)])
    assert series.coefficients == (1.0, 2.0, 0.5, 0.25)
    assert all(type(c) is float for c in series.coefficients)
    assert CouplingSeries.polynomial(np.array([0.0, 1.0])).coefficients == (0.0, 1.0)


def test_coupling_scalar_values():
    x = 0.8
    assert CouplingSeries.exp().scalar(x) == pytest.approx(math.exp(x))
    assert CouplingSeries.sinh().scalar(x) == pytest.approx(math.sinh(x))
    assert CouplingSeries.cosh().scalar(x) == pytest.approx(math.cosh(x))
    assert CouplingSeries.identity().scalar(x) == pytest.approx(x)
    poly = CouplingSeries.polynomial([2.0, -1.0, 0.5])
    assert poly.scalar(x) == pytest.approx(2.0 - x + 0.5 * x * x)


def test_coupling_parity_split():
    for series in (
        CouplingSeries.exp(),
        CouplingSeries.sinh(),
        CouplingSeries.cosh(),
        CouplingSeries.identity(),
        CouplingSeries.polynomial([0.3, 1.0, -0.2, 0.7]),
    ):
        for x in (0.0, 0.5, -1.3, 2.0):
            even = series.even_scalar(x)
            odd = series.odd_scalar(x)
            assert series.j0 + even + odd == pytest.approx(series.scalar(x), abs=1e-12)
            assert series.even_scalar(-x) == pytest.approx(even, abs=1e-12)
            assert series.odd_scalar(-x) == pytest.approx(-odd, abs=1e-12)


def test_j0_values():
    assert CouplingSeries.exp().j0 == 1.0
    assert CouplingSeries.cosh().j0 == 1.0
    assert CouplingSeries.sinh().j0 == 0.0
    assert CouplingSeries.identity().j0 == 0.0
    assert CouplingSeries.polynomial([4.0, 1.0]).j0 == 4.0


def _random_hermitian(rng, n):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), degree=st.integers(0, 5))
def test_apply_coupling_matches_matrix_powers(seed, n, degree):
    rng = np.random.default_rng(seed)
    m = _random_hermitian(rng, n)
    coeffs = rng.uniform(-1, 1, degree + 1)
    series = CouplingSeries.polynomial(coeffs)
    applied = apply_coupling(series, HermitianOperator(m)).matrix
    # oracle: sum_p j_p M^p by repeated multiplication
    oracle = np.zeros_like(m)
    power = np.eye(n, dtype=complex)
    for j in coeffs:
        oracle += j * power
        power = power @ m
    assert np.max(np.abs(applied - oracle)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_eigendecomposition_contract(seed, n):
    m = _random_hermitian(np.random.default_rng(seed), n)
    es = hermitian_eigendecomposition(HermitianOperator(m))
    v = es.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
    rebuilt = (v * es.values) @ v.conj().T
    assert np.max(np.abs(rebuilt - m)) < 1e-12 * max(1.0, np.abs(m).max()) * n * 10
    assert np.all(np.diff(es.values) >= -1e-12)


def test_identity_series_is_passthrough():
    op = HermitianOperator(_random_hermitian(np.random.default_rng(7), 4))
    assert apply_coupling(CouplingSeries.identity(), op) is op


def test_exp_coupling_matches_star_identity():
    # On the directed star, odd powers of the phased adjacency collapse to
    # N^k times itself, so exp reduces to I + c2*A^2 + c1*A with
    # c2 = (cosh(sqrt N) - 1)/N and c1 = sinh(sqrt N)/sqrt N.
    n = 4
    for alpha in (0.0, 0.45):
        ah = hermitian_adjacency(build_star(n), alpha)
        applied = apply_coupling(CouplingSeries.exp(), ah).matrix
        m = ah.matrix
        root = math.sqrt(n)
        oracle = (
            np.eye(n + 1)
            + (math.cosh(root) - 1) / n * (m @ m)
            + math.sinh(root) / root * m
        )
        assert np.max(np.abs(applied - oracle)) < 1e-12


def test_assemble_ring_identity_spectrum():
    h = assemble_hamiltonian(build_ring(4), 0.0, CouplingSeries.identity())
    vals = np.linalg.eigvalsh(h.matrix)
    assert np.allclose(vals, [-4.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_assemble_two_site_exp_closed_form():
    # star with one leaf: H = 2 cosh(1) I + 2 sinh(1) cos(alpha) X
    for alpha in (0.0, 0.6, math.pi / 2):
        h = assemble_hamiltonian(build_star(1), alpha, CouplingSeries.exp())
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        oracle = 2 * math.cosh(1) * np.eye(2) + 2 * math.sinh(1) * math.cos(alpha) * x
        assert np.max(np.abs(h.matrix - oracle)) < 1e-12


def test_assemble_is_real_symmetric():
    from ctqw import DirectedGraph

    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        edges = {
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4
        }
        edges.add((0, 1))
        g = DirectedGraph(n, frozenset(edges))
        alpha = rng.uniform(-math.pi, math.pi)
        h = assemble_hamiltonian(g, alpha, CouplingSeries.exp()).matrix
        assert np.max(np.abs(h.imag)) == 0.0
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        # 2 Re J is J + J^T bit for bit, because J is stored exactly Hermitian
        j = apply_coupling(CouplingSeries.exp(), hermitian_adjacency(g, alpha)).matrix
        assert np.array_equal(h, j + j.T)


def test_assemble_phase_sign_invariance():
    g = build_star(5)
    for alpha in (0.3, 1.1, math.pi / 2):
        hp = assemble_hamiltonian(g, alpha, CouplingSeries.exp()).matrix
        hm = assemble_hamiltonian(g, -alpha, CouplingSeries.exp()).matrix
        assert np.max(np.abs(hp - hm)) < 1e-13


def test_eigendecomposition_error_type():
    # solver failures surface as an ArithmeticError subclass callers can catch
    assert issubclass(EigendecompositionError, ArithmeticError)
