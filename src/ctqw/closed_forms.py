"""Closed-form references for star and ring walks and half-pi shift identities.

These are independent analytic targets used to cross-check the numerical
engines; nothing here calls the dense or Fourier evolution code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CirculantSpec, ring_spec
from .operators import CouplingSeries, HermitianOperator, _real_number, _whole_number
from .spectral import circulant_column, circulant_hamiltonian_spectrum


@dataclass(frozen=True)
class StarClosedForm:
    """Two-level closed form for exp-coupled star walks started at the hub.

    The hub probability is (1 + cos(omega t))/2 and each peripheral node
    carries (1 - cos(omega t))/(2 N) with

        omega = 4 sinh(sqrt(N)) cos(alpha)       (directed)
        omega = 4 sinh(2 sqrt(N) cos(alpha))     (undirected)

    for N peripheral nodes.  On the undirected star A = A^T, so
    A_H = 2 cos(alpha) A = cos(alpha) S with S = A + A^T; the only nonzero
    eigenvalues of A are +/- sqrt(N), and H = 2 exp(A_H) splits the hub's
    two-level subspace by 2 exp(x) - 2 exp(-x) = 4 sinh(x) with
    x = 2 sqrt(N) cos(alpha).
    """

    n_peripheral: int
    directed: bool
    alpha: float

    def __post_init__(self) -> None:
        n_peripheral = _whole_number(self.n_peripheral, "star size")
        if n_peripheral < 1:
            raise ValueError("star needs at least one peripheral node")
        object.__setattr__(self, "n_peripheral", n_peripheral)
        object.__setattr__(self, "alpha", _real_number(self.alpha, "alpha"))

    @property
    def omega(self) -> float:
        root = math.sqrt(self.n_peripheral)
        if self.directed:
            return 4.0 * math.sinh(root) * math.cos(self.alpha)
        return 4.0 * math.sinh(2.0 * root * math.cos(self.alpha))

    def probability(self, node: int, t):
        """P(node, t) for hub-started evolution; node 0 is the hub."""
        node = _whole_number(node, "node")
        if not (0 <= node <= self.n_peripheral):
            raise ValueError(
                f"node {node} out of range for star with {self.n_peripheral} peripherals"
            )
        c = np.cos(self.omega * np.asarray(t, dtype=float))
        if node == 0:
            return (1.0 + c) / 2.0
        return (1.0 - c) / (2.0 * self.n_peripheral)


def star_frequency_polynomial(
    n_peripheral: int, series: CouplingSeries, alpha: float
) -> float:
    """Directed-star hub frequency for an arbitrary real series: 4 J_odd(sqrt(N)) cos(alpha).

    Follows from A_H^(2n+1) = N^n A_H on the directed star, which reduces any
    series to its even/odd parts evaluated at sqrt(N).
    """
    form = StarClosedForm(n_peripheral, True, alpha)
    root = math.sqrt(form.n_peripheral)
    return 4.0 * float(series.odd_scalar(root)) * math.cos(form.alpha)


def star_probability_field(n_peripheral: int, directed: bool, alpha: float, times) -> np.ndarray:
    """Closed-form probability field, shape (len(times), n_peripheral + 1)."""
    form = StarClosedForm(n_peripheral, directed, alpha)
    times = np.asarray(times, dtype=float)
    field = np.empty((times.shape[0], form.n_peripheral + 1))
    field[:, 0] = form.probability(0, times)
    field[:, 1:] = form.probability(1, times)[:, None]
    return field


def ring_closed_form_support(n: int, order: int) -> np.ndarray:
    """First-row indices reachable by ring powers up to ``order``.

    Power p contributes at circulant offsets p - 2k (k = 0..p) mod n, so an
    index off every such residue is structurally zero for any coefficients.
    """
    n, order = ring_spec(n).n, _whole_number(order, "order")  # ring_spec checks the size
    if order < 1:
        raise ValueError("order must be >= 1")
    mask = np.zeros(n, dtype=bool)
    for p in range(1, order + 1):
        for k in range(p + 1):
            mask[(p - 2 * k) % n] = True
    return mask


def ring_hamiltonian_closed_form(n: int, alpha: float, coefficients) -> HermitianOperator:
    """Direct ring Hamiltonian for an explicit polynomial series (j_1, ..., j_P).

    Expanding H = J(A_H) + J(A_H)^T in circulant powers of the directed ring
    gives the first row

        h[(p - 2k) mod n] += 2 j_p C(p, k) cos((2k - p) alpha)

    summed over p = 1..P and k = 0..p.  The constant term j_0 is excluded by
    convention; it would add 2 j_0 I.
    """
    n, alpha = ring_spec(n).n, _real_number(alpha, "alpha")  # ring_spec checks the size
    coefficients = [_real_number(c, "ring coefficient") for c in coefficients]
    if not coefficients:
        raise ValueError("need at least the linear coefficient j_1")
    row = np.zeros(n)
    for p, jp in enumerate(coefficients, start=1):
        for k in range(p + 1):
            row[(p - 2 * k) % n] += 2.0 * jp * math.comb(p, k) * math.cos((2 * k - p) * alpha)
    return HermitianOperator(CirculantSpec(tuple(row)).matrix())


@dataclass(frozen=True)
class ShiftReport:
    """Max deviations of the half-pi reflection identities at alpha = pi/2 +- delta.

    ``spectrum`` covers D(pi/2 + delta)_m = D(pi/2 - delta)_{m + n/2},
    ``hamiltonian`` and ``evolution`` cover the sign conjugations
    X(pi/2 + delta)_{ij} = (-1)^(i+j) X(pi/2 - delta)_{ij}.
    """

    delta: float
    t: float
    spectrum: float
    hamiltonian: float
    evolution: float

    @property
    def max_deviation(self) -> float:
        return max(self.spectrum, self.hamiltonian, self.evolution)


def half_pi_spectrum_shift(
    c: CirculantSpec, series: CouplingSeries, delta: float, t: float = 1.0
) -> ShiftReport:
    """Verify the half-spectrum shift and sign conjugation around alpha = pi/2.

    Requires an even-length circulant whose even-indexed coefficients all
    vanish (the bipartite circulant family); other specs are rejected.
    """
    delta, t = _real_number(delta, "delta"), _real_number(t, "t")
    n = c.n
    if n % 2 != 0:
        raise ValueError("shift identity needs an even-length circulant")
    bad = [k for k in range(0, n, 2) if c.coefficients[k] != 0.0]
    if bad:
        raise ValueError(f"even-indexed coefficients must vanish, got nonzero at {bad}")
    a_plus = math.pi / 2.0 + delta
    a_minus = math.pi / 2.0 - delta
    d_plus = circulant_hamiltonian_spectrum(c, a_plus, series)
    d_minus = circulant_hamiltonian_spectrum(c, a_minus, series)
    dev_spec = float(np.max(np.abs(d_plus - np.roll(d_minus, -(n // 2)))))
    # H and U are circulant, X[i, j] = x[(i - j) % n] with x the first column,
    # and (-1)^(i+j) = (-1)^(i-j) for even n, so each sign conjugation reduces
    # to x_plus[k] = (-1)^k x_minus[k].
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    h_plus, h_minus = circulant_column(d_plus), circulant_column(d_minus)
    dev_h = float(np.max(np.abs(h_plus - signs * h_minus)))
    u_plus = circulant_column(np.exp(-1j * d_plus * t))
    u_minus = circulant_column(np.exp(-1j * d_minus * t))
    dev_u = float(np.max(np.abs(u_plus - signs * u_minus)))
    return ShiftReport(delta, t, dev_spec, dev_h, dev_u)
