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


def star_frequency(n_peripheral: int, directed: bool, alpha: float, series: CouplingSeries) -> float:
    """Frequency omega of a hub-started star walk under any real series J:

        omega = 4 J_odd(sqrt(N)) cos(alpha)       (directed)
        omega = 4 J_odd(2 sqrt(N) cos(alpha))     (undirected)

    with J_odd(x) = (J(x) - J(-x))/2.  The hub holds (1 + cos(omega t))/2 and each of the N
    leaves (1 - cos(omega t))/(2 N): the walk stays in the span of the hub h and the uniform
    leaf state l.  On the directed star A = sqrt(N) |h><l|, so A_H^(2n+1) = N^n A_H there,
    J(A_H) = J_even(sqrt(N)) + J_odd(sqrt(N)) A_H / sqrt(N), and H = J + J^T couples h and l
    by 2 J_odd(sqrt(N)) cos(alpha), half its splitting.  On the undirected star A = A^T, so
    A_H = 2 cos(alpha) A; A's nonzero eigenvalues are +/- sqrt(N), and H = 2 J(A_H) splits
    the span by 2 J(x) - 2 J(-x) = 4 J_odd(x) with x = 2 sqrt(N) cos(alpha).  OverflowError
    where omega leaves the float range, as it does under exp once x passes about 709.
    """
    n_peripheral = _whole_number(n_peripheral, "star size")
    if n_peripheral < 1:
        raise ValueError("star needs at least one peripheral node")
    root, cos_alpha = math.sqrt(n_peripheral), math.cos(_real_number(alpha, "alpha"))
    x = root if directed else 2.0 * root * cos_alpha
    with np.errstate(over="ignore", invalid="ignore"):
        omega = 4.0 * float(series.odd_scalar(x)) * (cos_alpha if directed else 1.0)
    if not math.isfinite(omega):
        raise OverflowError(f"star frequency overflows for {n_peripheral} peripheral nodes")
    return omega


def star_probability_field(n_peripheral: int, directed: bool, alpha: float, times) -> np.ndarray:
    """The exp-coupled field of ``star_frequency``, shape (len(times), n_peripheral + 1),
    hub first; ``times`` must be 1-D and finite (ValueError), omega t too (OverflowError)."""
    omega = star_frequency(n_peripheral, directed, alpha, CouplingSeries.exp())
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError(f"times must be one-dimensional and finite, got shape {times.shape}")
    if not math.isfinite(omega * float(np.abs(times).max(initial=0.0))):
        raise OverflowError(f"star phase omega t is not finite for omega = {omega!r}")
    c = np.cos(omega * times)
    field = np.empty((len(times), int(n_peripheral) + 1))
    field[:, 0] = (1.0 + c) / 2.0
    field[:, 1:] = ((1.0 - c) / (2.0 * n_peripheral))[:, None]
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
