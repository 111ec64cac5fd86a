"""Plain-numpy walk references the benchmark checks ``ctqw`` outputs against.

Nothing here imports ``ctqw``.  Both references compute exp(-iHt) psi0 for
H = J(A_H) + J(A_H)^T with A_H(alpha) = e^{i alpha} A + e^{-i alpha} A^T, by
a route other than the package's: numpy's FFT for circulants, and a real
symmetric eigensolve of H for general digraphs.  Fields are produced in
chunks of time rows so that the check adds little to the process's peak
memory.
"""

from __future__ import annotations

import numpy as np

ROW_CHUNK = 64


def polynomial_coupling(coefficients):
    """J(x) = sum_k c_k x^k by Horner's rule."""
    coefficients = tuple(float(c) for c in coefficients)

    def j(x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(coefficients):
            acc = acc * x + c
        return acc

    return j


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = 1.0
    return a


class CirculantWalk:
    """Walk on the circulant digraph with first row ``coefficients``.

    A circulant with real first row c acts on numpy's Fourier mode m with
    eigenvalue conj(fft(c))[m], and its transpose with fft(c)[m], so A_H has
    d_m(alpha) = 2 Re(e^{i alpha} conj(fft(c))[m]) and H has
    D_m = J(d_m(alpha)) + J(d_m(-alpha)).
    """

    def __init__(self, coefficients, alpha: float, coupling, start: int):
        c = np.asarray(coefficients, dtype=float)
        lam = np.conj(np.fft.fft(c))
        d_plus = 2.0 * np.real(np.exp(1j * alpha) * lam)
        d_minus = 2.0 * np.real(np.exp(-1j * alpha) * lam)
        self.energies = coupling(d_plus) + coupling(d_minus)
        psi0 = np.zeros(c.shape[0], dtype=complex)
        psi0[start] = 1.0
        self.modes = np.fft.fft(psi0)

    def amplitudes(self, times) -> np.ndarray:
        """Rows psi(t) for the given times, shape (len(times), N)."""
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self.energies))
        return np.fft.ifft(phases * self.modes, axis=1)


class DenseWalk:
    """Walk on a general digraph through a real symmetric eigensolve of H."""

    def __init__(self, a: np.ndarray, alpha: float, coupling, start: int):
        ah = np.exp(1j * alpha) * a + np.exp(-1j * alpha) * a.T
        w, v = np.linalg.eigh(ah)
        j = (v * coupling(w)) @ v.conj().T
        h = np.real(j + j.T)
        self.energies, self.vectors = np.linalg.eigh((h + h.T) / 2.0)
        self.start_row = self.vectors[start]

    def amplitudes(self, times) -> np.ndarray:
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self.energies))
        return (phases * self.start_row) @ self.vectors.T


def max_field_gap(reference, times, amplitudes, probabilities) -> float:
    """Largest deviation of amplitudes and probabilities from the reference."""
    gap = 0.0
    for lo in range(0, len(times), ROW_CHUNK):
        ref = reference.amplitudes(times[lo : lo + ROW_CHUNK])
        gap = max(
            gap,
            float(np.max(np.abs(amplitudes[lo : lo + ROW_CHUNK] - ref))),
            float(np.max(np.abs(probabilities[lo : lo + ROW_CHUNK] - np.abs(ref) ** 2))),
        )
    return gap
