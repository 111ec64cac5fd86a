"""Exact Fourier diagonalization of circulant walk operators.

Every circulant matrix is diagonal in the discrete Fourier basis
S[m, n] = exp(2*pi*i*m*n/N)/sqrt(N).  For a circulant adjacency with first
row c = (a_0, ..., a_{N-1}) the phased Hermitian adjacency has the real
spectrum

    d_m(alpha) = 2 * sum_k a_k cos(alpha - 2*pi*m*k/N) = 2 Re(e^{i alpha} fft(c)_m),

the Hamiltonian spectrum is D_m = J(d_m(alpha)) + J(d_m(-alpha)), and the
propagator is U(t) = S exp(-i D t) S^H.  D is reversal-even
(D_{N-m} = D_m), which makes S exp(-i D t) S^H equal to the evolution of the
dense Hamiltonian.

S is applied with ``numpy.fft`` (S^H psi = fft(psi)/sqrt(N),
S phi = sqrt(N) ifft(phi)), so a whole amplitude grid costs O(T N log N)
time and O(N * TIME_CHUNK) scratch memory.  ``fourier_basis`` builds S
densely and serves only as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .graphs import CirculantSpec
from .operators import CouplingSeries, _require_finite, propagate

# numpy.fft writes into an ``out`` array from NumPy 2.0 on
_IFFT_TAKES_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def fourier_basis(n: int) -> np.ndarray:
    """Symmetric unitary DFT matrix S[m, k] = exp(2*pi*i*m*k/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("Fourier basis needs n >= 1")
    m = np.arange(n)
    return np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


def _spectrum(coeffs_fft: np.ndarray, alpha: float) -> np.ndarray:
    return 2.0 * (np.exp(1j * alpha) * coeffs_fft).real


def circulant_ah_spectrum(c: CirculantSpec, alpha: float) -> np.ndarray:
    """Spectrum of A_H(alpha) for a circulant adjacency, in Fourier mode order."""
    return _spectrum(np.fft.fft(c.coefficients), alpha)


def circulant_hamiltonian_spectrum(
    c: CirculantSpec, alpha: float, series: CouplingSeries
) -> np.ndarray:
    """Spectrum of H = J(A_H) + J(A_H)^T in Fourier mode order."""
    f = np.fft.fft(c.coefficients)
    return series.scalar(_spectrum(f, alpha)) + series.scalar(_spectrum(f, -alpha))


def circulant_column(spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """First column of the circulant with eigenvalues ``spectrum`` (Fourier mode order).

    A circulant X = S diag(spectrum) S^H has X[i, j] = x[(i - j) % N] with
    x = ifft(spectrum).  A stack of spectra is transformed along its last
    axis.  With ``out``, an array of the same shape, the columns are written
    there and ``out`` is returned.
    """
    if out is None:
        return np.fft.ifft(spectrum, axis=-1)
    if _IFFT_TAKES_OUT:
        return np.fft.ifft(spectrum, axis=-1, out=out)
    # NumPy 1.x: the same transform, copied in
    out[...] = np.fft.ifft(spectrum, axis=-1)
    return out


def circulant_amplitudes(
    c: CirculantSpec,
    alpha: float,
    series: CouplingSeries,
    psi0: np.ndarray,
    grid,
    visit=None,
) -> np.ndarray | None:
    """Amplitudes of exp(-iHt) psi0 on a ``TimeGrid``, shape (T, N).

    One FFT of psi0 serves every grid point: U(t) psi0 is the first column of
    the circulant with spectrum exp(-i D t) fft(psi0).  ``propagate`` builds
    one phase table per call and hands over time-major blocks, each mapped
    back by one inverse FFT along its last axis, so the cost is
    O(T N log N) time and O(N * TIME_CHUNK) scratch memory beyond the (T, N)
    result.  With ``visit``, ``psi0`` is an (S, N) stack of states streamed
    as in ``propagate``: one FFT per (chunk, batch) of states, each block
    held to the fixed scratch cap (or one state's chunk, when N is larger).
    A non-finite spectrum, as from a NaN or infinite phase, raises
    NonFiniteOperatorError, as on the dense engine.
    """
    d = circulant_hamiltonian_spectrum(c, alpha, series)
    _require_finite(d)
    phi = np.fft.fft(np.asarray(psi0, dtype=complex))
    return propagate(d, phi, grid, circulant_column, visit)
