"""Phase handling, coupling series, and Hamiltonian assembly."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import (
    CouplingSeries,
    DirectedGraph,
    EigendecompositionError,
    HermitianOperator,
    NonFiniteOperatorError,
    TimeGrid,
    apply_coupling,
    assemble_hamiltonian,
    build_ring,
    build_star,
    hamiltonian_eigensystem,
    hermitian_adjacency,
    hermitian_eigendecomposition,
    parse_phase,
    random_directed_graph,
    random_polynomial_series,
    run_walk,
)
from ctqw import operators
from ctqw.operators import _hermitian_horner, _hermitize


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
    assert parse_phase(np.int64(2)) == 2.0


def test_parse_phase_rejects_garbage():
    for bad in ("tau", "pi/0", "", "nan", float("inf"), True, None, 10**400):
        with pytest.raises(ValueError):
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


def test_hermitian_operator_keeps_entries_near_the_float_maximum():
    # M + M^H overflows for finite entries above about 9e307; halving first does not
    big = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = HermitianOperator(np.diag([1e308, 1.0]))
        cplx = HermitianOperator(np.array([[big, big + big * 1j], [big - big * 1j, -big]]))
    assert np.array_equal(real.matrix, np.diag([1e308, 1.0]))
    assert np.isfinite(cplx.matrix).all()
    assert np.array_equal(cplx.matrix, cplx.matrix.conj().T)
    # halving is exact outside the subnormal range, so ordinary entries keep the
    # bits of (M + M^H)/2
    rng = np.random.default_rng(9)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert np.array_equal(_hermitize(m.copy()), (m + m.conj().T) / 2.0)
    assert np.array_equal(_hermitize(m.real.copy()), (m.real + m.real.T) / 2.0)


@pytest.mark.parametrize(
    "matrix",
    [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [math.inf, 1.0]],
        [[0.0, 1.0], [-math.inf, 0.0]],
    ],
    ids=["nan-diagonal", "symmetric-inf", "one-inf"],
)
def test_hermitian_operator_rejects_non_finite_entries(matrix):
    # a NaN defect is never above the tolerance, so it is caught on its own
    with pytest.raises(NonFiniteOperatorError, match="non-finite"):
        HermitianOperator(np.array(matrix))
    assert issubclass(NonFiniteOperatorError, ArithmeticError)
    assert not issubclass(NonFiniteOperatorError, ValueError)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "series",
    [CouplingSeries.exp(), CouplingSeries.polynomial([0.0, 1.0, 0.5])],
    ids=["exp", "quadratic"],
)
def test_non_finite_phase_raises_non_finite_operator_error(alpha, series):
    # a library caller's NaN or infinite phase gives a non-finite A_H, or on an
    # undirected graph non-finite eigenvalues of H, never a ValueError
    for graph in (build_ring(6), build_ring(6, directed=False)):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteOperatorError, match="non-finite"):
            run_walk(graph, alpha, series, 0, TimeGrid(0.0, 1.0, 3))


def test_hermitian_adjacency_limits():
    g = build_star(3)
    a = g.adjacency()
    # exp(i alpha) and its conjugate are scattered, so these hold bit for bit
    assert np.array_equal(hermitian_adjacency(g, 0.0).matrix, a + a.T)
    assert np.allclose(hermitian_adjacency(g, math.pi / 2).matrix, 1j * (a - a.T))
    ah = hermitian_adjacency(g, 0.7).matrix
    assert np.array_equal(hermitian_adjacency(g, -0.7).matrix, ah.conj())
    assert np.array_equal(ah, ah.conj().T)
    # on an undirected graph A_H(0) is real and bit for bit A + A^T, 2 on each two-way
    # pair: the S whose eigensolve serves every alpha in hamiltonian_eigensystem
    for g in (build_ring(7, directed=False), build_star(4, directed=False)):
        a = g.adjacency()
        s = hermitian_adjacency(g, 0.0).matrix
        assert np.array_equal(s.real, a + a.T) and not s.imag.any()
        assert np.array_equal(np.unique(s.real), [0.0, 2.0])
    # the scattered entries are bit for bit the defining sum, and exactly Hermitian
    rng = np.random.default_rng(300)
    present = rng.random((300, 300)) < 0.02
    np.fill_diagonal(present, False)
    i, j = np.nonzero(present)
    big = DirectedGraph(300, frozenset(zip(i.tolist(), j.tolist())))
    a = big.adjacency()
    alphas = [*rng.uniform(-7.0, 7.0, 200), 0.0, math.pi / 2, -math.pi / 2, math.pi, 1e-300]
    for alpha in alphas:
        ah = hermitian_adjacency(big, alpha).matrix
        assert np.array_equal(ah, np.exp(1j * alpha) * a + np.exp(-1j * alpha) * a.T), alpha
        assert np.array_equal(ah, ah.conj().T), alpha
    assert len(alphas) == 205
    # pi/2 is not special-cased: cos(fl(pi/2)) leaves the real plane non-zero
    assert np.max(np.abs(hermitian_adjacency(big, math.pi / 2).matrix.real)) > 0.0


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
            odd = series.odd_scalar(x)
            # what is left of J after its odd part is even
            even = series.scalar(x) - odd
            assert series.scalar(-x) + odd == pytest.approx(even, abs=1e-12)
            assert series.odd_scalar(-x) == pytest.approx(-odd, abs=1e-12)


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


def _clongdouble_polynomial(coefficients, x):
    """sum_k c_k X^k by repeated products in extended precision."""
    xl = x.astype(np.clongdouble)
    eye = np.eye(x.shape[0], dtype=np.clongdouble)
    acc = np.zeros_like(xl)
    for c in reversed(coefficients):
        acc = acc @ xl + np.longdouble(c) * eye
    return acc


def _criterion_3_cells():
    """Every (A_H, polynomial) cell of acceptance criterion 3's random digraphs."""
    for k in range(50):
        rng = np.random.default_rng((555001, k))
        graph = random_directed_graph(rng, max_nodes=10)
        series = random_polynomial_series(rng, max_degree=5)
        for alpha in (0.1, -0.1, 0.5, -0.5, 1.0, -1.0):
            yield hermitian_adjacency(graph, alpha), series


# (x - 1)^5: its terms cancel, and on criterion 3's cells its entries reach ~8000
_QUINTIC = CouplingSeries.polynomial((-1.0, 5.0, -10.0, 10.0, -5.0, 1.0))


def test_horner_coupling_is_hermitian_and_no_less_accurate_than_spectral():
    eps = np.finfo(float).eps
    worst_horner = worst_spectral = 0.0
    cells = 0
    for op, cell_series in _criterion_3_cells():
        x = op.matrix
        w, v = np.linalg.eigh(x)
        for series in (cell_series, _QUINTIC):
            raw = _hermitian_horner(series.coefficients, x)
            assert np.array_equal(raw, raw.conj().T)
            horner = apply_coupling(series, op).matrix
            spectral = (v * series.scalar(w)) @ v.conj().T
            oracle = _clongdouble_polynomial(series.coefficients, x)
            err_h = float(np.max(np.abs(horner - oracle)))
            err_s = float(np.max(np.abs(spectral - oracle)))
            # below one rounding of the largest entry neither route can be told apart
            floor = eps * float(np.max(np.abs(oracle)))
            assert err_h <= max(err_s, floor), (cells, series, err_h, err_s)
            worst_horner, worst_spectral = max(worst_horner, err_h), max(worst_spectral, err_s)
        cells += 1
    assert cells == 300
    assert worst_horner <= worst_spectral


def test_horner_cancelling_polynomial_within_a_priori_bound():
    # (x - 1)^5 on X = I + R/100: terms of size ~32 cancel to ~1e-10.
    coefficients = _QUINTIC.coefficients
    d = len(coefficients) - 1
    rng = np.random.default_rng(5)
    for n in (4, 10, 30):
        r = _random_hermitian(rng, n)
        op = HermitianOperator(np.eye(n) + r / (100 * np.abs(r).sum(axis=1).max()))
        x = op.matrix
        # Scalar Horner gives |p(x) - fl(p(x))| <= gamma_2d sum |c_k| |x|^k
        # (Higham, Accuracy and Stability, 5.1), gamma_m = m u / (1 - m u).
        # In a matrix step P X + c I the real and the imaginary part of an
        # entry of P X are real inner products of length 2n, each within
        # gamma_2n sum |p||x|, so the entry is within sqrt(2) gamma_2n <=
        # gamma_3n of its sum of moduli; the Hermitian
        # part and the added c_k cost one rounding each.  The first step
        # c_d X + c_{d-1} I costs two, and the d - 1 product steps 3n + 2
        # each.  Entrywise |X|^k is at most ||X||_inf^k.
        u = np.finfo(float).eps / 2
        m = 2 + (d - 1) * (3 * n + 2)
        gamma = m * u / (1 - m * u)
        norm = float(np.abs(x).sum(axis=1).max())
        bound = gamma * sum(abs(c) * norm**k for k, c in enumerate(coefficients))
        applied = apply_coupling(CouplingSeries.polynomial(coefficients), op).matrix
        oracle = _clongdouble_polynomial(coefficients, x)
        assert float(np.max(np.abs(applied - oracle))) <= bound


def test_horner_low_degrees_need_no_product():
    op = HermitianOperator(_random_hermitian(np.random.default_rng(8), 5))
    constant = apply_coupling(CouplingSeries.polynomial([0.7]), op).matrix
    assert np.array_equal(constant, 0.7 * np.eye(5))
    linear = apply_coupling(CouplingSeries.polynomial([0.7, -2.0]), op).matrix
    assert np.array_equal(linear, -2.0 * op.matrix + 0.7 * np.eye(5))


def _out_degree_2_adjacency(rng, n=200):
    """A_H at alpha 0.7 of an n-node digraph of out-degree 2, as in walk-mix."""
    heads = [rng.choice(np.delete(np.arange(n), i), 2, replace=False) for i in range(n)]
    graph = DirectedGraph(n, frozenset((i, int(j)) for i in range(n) for j in heads[i]))
    return hermitian_adjacency(graph, 0.7).matrix


@pytest.mark.parametrize("degree", [2, 3])
def test_walk_sum_is_exactly_hermitian_within_a_priori_bound(degree):
    # the walk terms of out-degree 2 stay few, so the Horner loop sums them and runs no product
    n = 200
    rng = np.random.default_rng(degree)
    x = _out_degree_2_adjacency(rng, n)
    coefficients = rng.uniform(-1, 1, degree + 1)
    walks = _hermitian_horner(coefficients, x)
    assert np.array_equal(walks, walks.conj().T)
    # A term is a product of at most d + 1 factors, one coefficient and at most d
    # entries of X; an entry of the result sums fewer than n^2 terms, and the
    # Hermitian part costs one more rounding.  Each term of entry (i, j) is at
    # most |c_k| (|X|^k)_ij, and |X|^k is entrywise at most ||X||_inf^k.
    u = np.finfo(float).eps / 2
    m = (degree + 1) + n * n + 1
    gamma = m * u / (1 - m * u)
    norm = float(np.abs(x).sum(axis=1).max())
    bound = gamma * sum(abs(c) * norm**k for k, c in enumerate(coefficients))
    assert float(np.max(np.abs(walks - _clongdouble_polynomial(coefficients, x)))) <= bound


def _horner_loop_bound(coefficients, x):
    """An a-priori bound on max|fl(p(X)) - p(X)| for the Horner loop, however it splits.

    A walk term is c_k times at most d entries of X: c_d X rounds each part
    once, and every later complex factor costs at most sqrt(2) gamma_2 <=
    gamma_3 (Higham, Accuracy and Stability, 3.5), so a term is within
    gamma_3d.  The terms are summed at most N^2 + N to an entry, its real
    and imaginary part each within gamma_K of their sum of moduli, so the
    entry within sqrt(2) gamma_K <= gamma_2K, K = N^2 + N; its Hermitian
    part costs one rounding.  Each dense step costs 3N + 2, as in
    ``test_horner_cancelling_polynomial_within_a_priori_bound``.  A walk
    passes at most all of these, and its terms of entry (i, j) are at most
    sum_k |c_k| (|X|^k)_ij <= sum_k |c_k| ||X||_inf^k.
    """
    n, d = len(x), len(coefficients) - 1
    u = np.finfo(float).eps / 2
    m = 3 * d + 2 * (n * n + n) + 1 + max(d - 1, 0) * (3 * n + 2)
    norm = float(np.abs(x).sum(axis=1).max())
    return m * u / (1 - m * u) * sum(abs(c) * norm**k for k, c in enumerate(coefficients))


def _count_hermitize(monkeypatch):
    """Calls of ``_hermitize``: the Horner loop makes one for its summed terms, one per product."""
    calls = []
    hermitize = operators._hermitize

    def counting_hermitize(m):
        calls.append(m.shape)
        return hermitize(m)

    monkeypatch.setattr(operators, "_hermitize", counting_hermitize)
    return calls


def test_horner_loop_densifies_in_place(monkeypatch):
    hermitized = _count_hermitize(monkeypatch)
    cubic, sextic = [0.3, -1.0, 0.5, 0.25], [0.3, -1.0, 0.5, 0.25, 0.1, -0.2, 0.05]
    cases = [
        # walk-mix's kind of A_H: the terms stay below N^2 to the end
        (_out_degree_2_adjacency(np.random.default_rng(4)), cubic, 0),
        # the directed 20-ring's A_H has 2 nonzeros a row: the terms go 60, 140, 300,
        # then 620 would pass the 400 entries, so the last three of five steps are products
        (hermitian_adjacency(build_ring(20), 0.4).matrix, sextic, 3),
        # a dense operator's terms would pass N^2 at the first step
        (_random_hermitian(np.random.default_rng(9), 8), sextic, 5),
        # a real operator gives a real sum
        (hermitian_adjacency(build_ring(20), 0.4).matrix.real, cubic, 0),
    ]
    for x, coefficients, products in cases:
        hermitized.clear()
        p = _hermitian_horner(coefficients, x)
        assert len(hermitized) == 1 + products
        assert p.dtype == x.dtype and np.array_equal(p, p.conj().T)
        error = float(np.max(np.abs(p - _clongdouble_polynomial(coefficients, x))))
        assert error <= _horner_loop_bound(coefficients, x)


def test_horner_routes_a_polynomial_by_its_degree():
    # the cubic padded with zeros to 9 coefficients is the same cubic: it takes the
    # Horner loop, not the spectral route, so its H is bitwise the cubic's
    n = 200
    tournament = DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    cubic = (0.0, 1.0, 0.5, 1.0 / 6.0)
    h = assemble_hamiltonian(tournament, 0.3, CouplingSeries.polynomial(cubic)).matrix
    padded = assemble_hamiltonian(tournament, 0.3, CouplingSeries.polynomial(cubic + (0.0,) * 5))
    assert padded.matrix.tobytes() == h.tobytes()
    # all-zero coefficients keep one, the zero polynomial
    x = hermitian_adjacency(tournament, 0.3)
    assert not apply_coupling(CouplingSeries.polynomial([0.0] * 9), x).matrix.any()


def _oriented_graph(rng, n, out_degree):
    """Up to ``out_degree`` out-edges per node, none of them the reverse of another."""
    edges = set()
    for i in range(n):
        for j in rng.choice(n - 1, size=int(rng.integers(0, out_degree + 1)), replace=False):
            j = int(j) + (j >= i)
            if (j, i) not in edges:
                edges.add((i, j))
    return DirectedGraph(n, frozenset(edges))


_U = np.finfo(float).eps / 2


def _gamma(m):
    return m * _U / (1 - m * _U)


def _oriented_counterparts():
    """Twelve seeded oriented digraphs G, each with its rng and U, G with every edge two-way.

    G is oriented, so A_H(0) = A + A^T = A_U, the adjacency of U; U's
    A_H(beta) = 2 cos(beta) A_U is A_U at beta = pi/3.  So G's walk at alpha 0
    and U's at pi/3 are one walk.
    """
    for k in range(12):
        rng = np.random.default_rng((2316, k))
        n = int(rng.integers(8, 65))
        g = _oriented_graph(rng, n, 2)
        yield k, rng, g, DirectedGraph(n, g.edges | {(j, i) for i, j in g.edges})


def _counterpart_gap_bound(n, t_end, hbar, dh_g, dh_u):
    """Largest |P_G - P_U| for H of 2-norm <= ``hbar``, perturbed by ``dh_g`` and ``dh_u``.

    An amplitude moves by t_end ||dH|| for the perturbed H, by 2 u t_end ||H||
    for the rounded phase arguments w t, by 2 q u for the two eigenvector
    factors, and by gamma_{2n+24} for the products: a basis start state, at
    most 8 complex factors per phase, and inner products of length n.  Then
    |P_G - P_U| = ||psi_G|^2 - |psi_U|^2| <= |psi_G - psi_U| (|psi_G| + |psi_U|).
    """
    q = n * n
    e = sum(t_end * (dh + 2 * _U * hbar) + 2 * q * _U + _gamma(2 * n + 24) for dh in (dh_g, dh_u))
    return e * (2 + e)


def test_polynomial_walks_match_their_undirected_counterpart(monkeypatch):
    # Both walk under H = 2 J(A_U): G by the Horner loop and a real eigensolve of H,
    # U by one real eigensolve of S = 2 A_U.  The two routes share no arithmetic.
    hermitized = _count_hermitize(monkeypatch)
    grid = TimeGrid(0.0, 25.0, 500)
    cubic = CouplingSeries.polynomial((0.0, 1.0, 0.5, 1.0 / 6.0))
    u = _U
    switched = 0
    for k, rng, g, undirected in _oriented_counterparts():
        n = g.n
        a = g.adjacency()
        rho = float((a + a.T).sum(axis=1).max())  # ||A_U||_inf >= ||A_U||_2
        for series in (cubic, random_polynomial_series(rng, 7)):
            c = series.coefficients
            d = len(c) - 1
            start = int(rng.integers(n))
            hermitized.clear()
            p_g = run_walk(g, 0.0, series, start, grid).probabilities
            switched += 0 < len(hermitized) - 1 < d - 1
            p_u = run_walk(undirected, math.pi / 3, series, start, grid).probabilities
            # First order in u.  |J(x)| <= jbar and |J'(x)| <= djbar for |x| <= rho, and
            # ||H|| <= 2 jbar.  A real symmetric eigensolve is backward stable: its
            # eigenvectors are orthonormal to within q u and they diagonalize M + E with
            # ||E||_2 <= q u ||M||_2, q = n^2 covering Householder tridiagonalization's
            # worst case (LAPACK Users' Guide, 4.7).
            jbar = sum(abs(ck) * rho**i for i, ck in enumerate(c))
            djbar = sum(i * abs(ck) * rho ** (i - 1) for i, ck in enumerate(c) if i)
            q = n * n
            # G: the Horner loop is entrywise within gamma_M sum |c_k| (A_U^k)_ij
            # (_horner_loop_bound), a nonnegative matrix of 2-norm <= jbar, and H
            # doubles it; then the eigensolve of H.
            m = 3 * d + 2 * (n * n + n) + 1 + max(d - 1, 0) * (3 * n + 2)
            dh_g = 2 * _gamma(m) * jbar + q * u * 2 * jbar
            # U: the eigensolve of S moves A_U by q u rho, so J(A_U) by djbar q u rho;
            # an eigenvalue x = cos(beta) l of A_U is off by |l| |cos(beta) - 1/2| and
            # one rounding, J(x) by djbar times that, and numpy's Horner polyval by
            # gamma_2d jbar; H doubles each.
            dc = abs(math.cos(math.pi / 3) - 0.5)
            dh_u = 2 * (djbar * q * u * rho + djbar * (2 * dc + u) * rho + _gamma(2 * d) * jbar)
            bound = _counterpart_gap_bound(n, grid.t_end, 2 * jbar, dh_g, dh_u)
            assert float(np.max(np.abs(p_g - p_u))) <= bound, (k, series)
    # some walks switch from their walk terms to dense products partway through the loop
    assert switched >= 3


@pytest.mark.parametrize(
    "series",
    [CouplingSeries.exp(), CouplingSeries.sinh(), CouplingSeries.cosh()],
    ids=["exp", "sinh", "cosh"],
)
def test_spectral_walks_match_their_undirected_counterpart(monkeypatch, series):
    # The polynomial identity above for the series the directed route applies
    # spectrally: G takes a complex eigensolve of A_H(0) = A_U, J = V f(w) V^H and
    # the real eigensolve of H = 2 Re J; U one real eigensolve of S = 2 A_U.
    eighs = _count_eigh(monkeypatch)
    grid = TimeGrid(0.0, 25.0, 500)
    u = _U
    for k, _, g, undirected in _oriented_counterparts():
        n = g.n
        a = g.adjacency()
        rho = float((a + a.T).sum(axis=1).max())  # ||A_U||_inf >= ||A_U||_2
        eighs.clear()
        p_g = run_walk(g, 0.0, series, 0, grid).probabilities
        p_u = run_walk(undirected, math.pi / 3, series, 0, grid).probabilities
        assert eighs == [np.complex128, np.float64, np.float64]
        # First order in u, with the eigensolves' q = n^2 of the polynomial test.
        # exp, sinh and cosh and their derivatives are at most fbar = e^rho for
        # |x| <= rho, and ||H|| <= 2 fbar.
        fbar = math.exp(rho)
        q = n * n
        # G: the complex eigensolve diagonalizes A_U + E, ||E||_2 <= q u rho, by
        # eigenvectors orthonormal to within q u.  By Duhamel's formula
        # ||e^(A+E) - e^A|| <= ||E|| e^(||A|| + ||E||), and sinh and cosh are half
        # sums of e^X and e^-X, so f(A_U + E) is within fbar q u rho of f(A_U); the
        # two factors V and V^H add 2 q u fbar.  f(w) is rounded within one ulp (2 u)
        # and hermitizing once more (u); the inner products of length n in V f(w) V^H
        # are within gamma_{n+4} |V| |f(w)| |V^H|, whose 2-norm is at most n fbar.
        # H doubles J; then the eigensolve of H.
        dj_g = fbar * q * u * rho + 2 * q * u * fbar + 3 * u * fbar + _gamma(n + 4) * n * fbar
        dh_g = 2 * dj_g + q * u * 2 * fbar
        # U: as in the polynomial test, with f(x) rounded within one ulp in place of
        # polyval's gamma_2d.
        dc = abs(math.cos(math.pi / 3) - 0.5)
        dh_u = 2 * (fbar * q * u * rho + fbar * (2 * dc + u) * rho + 2 * u * fbar)
        bound = _counterpart_gap_bound(n, grid.t_end, 2 * fbar, dh_g, dh_u)
        assert float(np.max(np.abs(p_g - p_u))) <= bound, k


def _realified_hamiltonian(g, alpha, f):
    """H = 2 Re f(A_H) from one real eigensolve of size 2N, with no complex arithmetic.

    A_H = X + iY, X = cos(alpha) (A + A^T) symmetric and Y = sin(alpha) (A - A^T)
    antisymmetric.  Its real representation M = [[X, -Y], [Y, X]] (Horn & Johnson,
    Matrix Analysis) is real symmetric, has every eigenvalue of A_H twice, and
    f(M) = [[Re f(A_H), -Im f(A_H)], [Im f(A_H), Re f(A_H)]], so H = 2 f(M)[:N, :N].
    """
    a = g.adjacency()
    x, y = math.cos(alpha) * (a + a.T), math.sin(alpha) * (a - a.T)
    values, vectors = np.linalg.eigh(np.block([[x, -y], [y, x]]))
    return 2.0 * ((vectors[: g.n] * f(values)) @ vectors[: g.n].T)


def _realified_cases():
    """30 random digraphs, each at a phase drawn uniformly in [-3, 3], then transitive tournaments."""
    rng = np.random.default_rng(3)
    draws = [(random_directed_graph(rng, 40), float(rng.uniform(-3.0, 3.0))) for _ in range(30)]
    for k, (g, alpha) in enumerate(draws):
        for name in ("exp", "sinh", "cosh"):
            yield pytest.param(g, alpha, name, id=f"draw{k}-{name}")
    for n in (13, 14, 20, 30):
        tournament = DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
        for alpha in (0.0, 0.3):
            yield pytest.param(tournament, alpha, "exp", id=f"tournament{n}-alpha{alpha}")


@pytest.mark.parametrize("g, alpha, name", list(_realified_cases()))
def test_hamiltonian_matches_its_realified_oracle(g, alpha, name):
    # The library forms the complex A_H, J = V f(w) V^H by a complex eigensolve and
    # H = 2 Re J; the oracle one real eigensolve of M.  The two share no arithmetic.
    # J is stored as its Hermitian part whatever its defect, which on the larger
    # tournaments is far above 1e-12, so every case is held to the bound below.
    f = getattr(np, name)
    h = assemble_hamiltonian(g, alpha, getattr(CouplingSeries, name)()).matrix
    oracle = _realified_hamiltonian(g, alpha, f)
    # First order in u, a priori.  rho >= ||A_H||_2 = ||M||_2, and exp, sinh and cosh
    # and their derivatives are at most fbar = e^rho on [-rho, rho].  Each route
    # rounds A_H or M within 2 u rho and eigensolves it backward stably, with q = m^2
    # for size m (as in the counterpart tests): f of the perturbed matrix moves by
    # fbar (q + 2) u rho, the two eigenvector factors add 2 q u fbar, f(w) is rounded
    # within one ulp (2 u fbar) and the library hermitizes J once more (u fbar); the
    # inner products of length m are within gamma_{m+4} m fbar.  H doubles J, and
    # max|dH| <= ||dH||_2.  The bound is absolute, so a draw with H = 0 (the
    # edgeless two-node draw 2 under sinh) is held to it as well.
    n = g.n
    a = g.adjacency()
    rho = float((a + a.T).sum(axis=1).max())
    fbar = math.exp(rho)
    bound = 0.0
    for m in (n, 2 * n):
        q = m * m
        bound += 2 * fbar * ((q + 2) * _U * rho + 2 * q * _U + 3 * _U + _gamma(m + 4) * m)
    assert float(np.max(np.abs(h - oracle))) <= bound


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.dtype)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


_CUBIC = CouplingSeries.polynomial([0.0, 1.0, 0.5, 1.0 / 6.0])
_DEGREE_8 = CouplingSeries.polynomial([1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002])


@pytest.mark.parametrize(
    "directed, series, dtypes",
    [
        (True, _CUBIC, [np.float64]),
        (True, CouplingSeries.exp(), [np.complex128, np.float64]),
        (True, _DEGREE_8, [np.complex128, np.float64]),
        (True, CouplingSeries.identity(), [np.float64]),
        (False, _CUBIC, [np.float64]),
        (False, CouplingSeries.exp(), [np.float64]),
        (False, _DEGREE_8, [np.float64]),
        (False, CouplingSeries.identity(), [np.float64]),
    ],
    ids=["cubic", "exp", "degree-8", "identity",
         "undirected-cubic", "undirected-exp", "undirected-degree-8", "undirected-identity"],
)
def test_dense_walk_eigensolves(monkeypatch, directed, series, dtypes):
    # a polynomial of degree <= 7 skips the complex eigensolve of A_H;
    # only the real one of H is left.  An undirected graph takes the one real
    # eigensolve of S = A + A^T whatever the series.
    calls = _count_eigh(monkeypatch)
    # S, A_H, every J and H are Hermitian by construction: no route builds a gated operator
    gated = []
    post_init = HermitianOperator.__post_init__

    def counting_post_init(op):
        gated.append(op)
        post_init(op)

    monkeypatch.setattr(HermitianOperator, "__post_init__", counting_post_init)
    result = run_walk(build_ring(12, directed), 0.4, series, 0, TimeGrid(0.0, 2.0, 9))
    assert result.normalization_defect <= 1e-10
    assert calls == dtypes
    assert gated == []


def test_undirected_eigensystem_is_ascending_and_keeps_half_pi_real():
    ring = build_ring(200, directed=False)
    for alpha in (0.0, 0.7, math.pi / 2, -2.5, 3.0):
        for series in (CouplingSeries.exp(), CouplingSeries.cosh(), _CUBIC):
            assert np.all(np.diff(hamiltonian_eigensystem(ring, alpha, series).values) >= 0.0)
    # cos(fl(pi/2)) = 6.1e-17 is not rounded to zero: H keeps a spread of eigenvalues
    assert np.ptp(hamiltonian_eigensystem(ring, math.pi / 2, CouplingSeries.identity()).values) > 0.0


def test_undirected_eigensystem_failures_keep_their_errors(monkeypatch):
    complete = DirectedGraph(4, frozenset((i, j) for i in range(4) for j in range(4) if i != j))
    # the largest eigenvalue 6 of S gives J(6 cos(1)) = 3.2e308 past the float range
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteOperatorError, match="^operator has non-finite entries$"
    ):
        hamiltonian_eigensystem(complete, 1.0, CouplingSeries.polynomial([0.0, 1e308]))

    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(EigendecompositionError, match="did not converge"):
        hamiltonian_eigensystem(complete, 1.0, CouplingSeries.exp())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 7),
    alpha=st.floats(-7.0, 7.0, allow_nan=False),
)
def test_undirected_eigensystem_matches_assembled_hamiltonian(seed, degree, alpha):
    rng = np.random.default_rng(seed)
    directed = random_directed_graph(rng, max_nodes=24)
    g = DirectedGraph(directed.n, directed.edges | {(j, i) for i, j in directed.edges})
    c = rng.uniform(-1.0, 1.0, degree + 1)
    series = CouplingSeries.polynomial(c)
    es = hamiltonian_eigensystem(g, alpha, series)
    rebuilt = (es.vectors * es.values) @ es.vectors.T
    h = assemble_hamiltonian(g, alpha, series).matrix
    # Both routes are held to the exact H = 2 J(X), X = cos(alpha) S, |X|_inf = rho,
    # on the sum-of-moduli scale sum_k |c_k| rho^k that bounds J's entries and
    # eigenvalues; max|H| alone is no bound when the terms cancel.
    # - Horner (assemble_hamiltonian): within gamma_m of the scale, m as in
    #   test_horner_cancelling_polynomial_within_a_priori_bound, doubled by 2 Re J.
    # - One real eigh of S (hamiltonian_eigensystem): LAPACK's symmetric solver is
    #   backward stable, S + E = V L V^T with |E|_2 and |V^T V - I|_2 within n eps
    #   |S|_2 and n eps (LAPACK Users' Guide, 4.7, with p(n) = n).  By the
    #   Daleckii-Krein formula E moves J(X) by at most max|J'| |cos(alpha) E|_F
    #   <= d n^1.5 eps times the scale; V's departure from orthogonality costs
    #   2 n eps, the product V diag(w) V^T gamma_n and the scalar Horner
    #   values gamma_2d, each of max|w| <= 2 scale.
    n, d = g.n, degree
    eps = np.finfo(float).eps
    u = eps / 2

    def gamma(m):
        return m * u / (1 - m * u)

    a = g.adjacency()
    rho = abs(math.cos(alpha)) * float(np.abs(a + a.T).sum(axis=1).max())
    scale = sum(abs(ck) * rho**k for k, ck in enumerate(c))
    m = 2 + max(d - 1, 0) * (3 * n + 2)
    tol = 2 * scale * (gamma(m) + d * n**1.5 * eps + 2 * n * eps + gamma(n) + gamma(2 * d))
    assert float(np.max(np.abs(rebuilt - h))) <= tol
