"""Phased Hermitian adjacency, coupling series, and Hamiltonian assembly.

The single-phase Hermitian adjacency of a directed graph is

    A_H(alpha) = exp(i alpha) A + exp(-i alpha) A^T,

and a real-coefficient coupling series J lifts it to the walk Hamiltonian

    H = J(A_H) + J(A_H)^T.

J(A_H) is Hermitian for real series, so its transpose equals its complex
conjugate and H is always real symmetric.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12

# Time rows per block: moved back from the eigenbasis per call of ``to_nodes`` in
# ``propagate``, and formatted per write by the PGM heatmap writer.
TIME_CHUNK = 64

_SERIES_KINDS = ("polynomial", "exp", "sinh", "cosh", "identity")

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(\.\d+)?)?\s*\*?\s*pi\s*(/\s*(?P<den>\d+(\.\d+)?))?$"
)


class EigendecompositionError(ArithmeticError):
    """Raised when the Hermitian eigensolver fails to converge."""


def parse_phase(token) -> float:
    """Parse a phase value from a number or a symbolic token.

    Accepts plain numbers, numeric strings, and pi fractions such as
    ``"pi"``, ``"pi/2"``, ``"3pi/4"``, ``"-pi/3"``, ``"0.5pi"``.
    """
    if isinstance(token, bool):
        raise ValueError(f"not a phase: {token!r}")
    if isinstance(token, (int, float)):
        value = float(token)
    elif isinstance(token, str):
        text = token.strip().lower()
        m = _PI_TOKEN.match(text)
        if m:
            value = math.pi
            if m.group("num"):
                value *= float(m.group("num"))
            if m.group("den"):
                den = float(m.group("den"))
                if den == 0.0:
                    raise ValueError(f"cannot parse phase token {token!r}")
                value /= den
            if m.group("sign") == "-":
                value = -value
        else:
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"cannot parse phase token {token!r}") from None
    else:
        raise ValueError(f"cannot parse phase token {token!r}")
    if not math.isfinite(value):
        raise ValueError(f"phase must be finite, got {value!r}")
    return value


@dataclass(eq=False, frozen=True)
class HermitianOperator:
    """A square matrix certified and stored as exactly Hermitian.

    Construction rejects matrices whose Hermiticity defect max|M - M^H|
    exceeds ``HERMITICITY_TOL`` and stores the hermitized (M + M^H)/2:
    complex input as complex128, real input as float64 (real symmetric).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if defect > HERMITICITY_TOL:
            raise ValueError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:g}")
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CouplingSeries:
    """Real-coefficient scalar series J applied spectrally to operators.

    ``polynomial`` carries explicit coefficients (j_0, j_1, ...); the other
    kinds are the usual entire functions.  ``identity`` is J(x) = x.
    """

    kind: str
    coefficients: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}; expected one of {_SERIES_KINDS}")
        raw = tuple(self.coefficients or ())
        if any(isinstance(c, (bool, np.bool_, str)) for c in raw):
            raise ValueError(f"series coefficients must be real numbers, got {raw!r}")
        coeffs = tuple(float(c) for c in raw)
        if self.kind == "polynomial":
            if not coeffs:
                raise ValueError("polynomial series needs at least one coefficient")
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError("polynomial coefficients must be finite")
        elif coeffs:
            raise ValueError(f"{self.kind!r} series takes no coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def polynomial(cls, coefficients) -> "CouplingSeries":
        return cls("polynomial", tuple(coefficients))

    @classmethod
    def exp(cls) -> "CouplingSeries":
        return cls("exp")

    @classmethod
    def sinh(cls) -> "CouplingSeries":
        return cls("sinh")

    @classmethod
    def cosh(cls) -> "CouplingSeries":
        return cls("cosh")

    @classmethod
    def identity(cls) -> "CouplingSeries":
        return cls("identity")

    def scalar(self, x):
        """Evaluate J elementwise on a scalar or array."""
        x = np.asarray(x, dtype=float)
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.coefficients)
        if self.kind == "exp":
            return np.exp(x)
        if self.kind == "sinh":
            return np.sinh(x)
        if self.kind == "cosh":
            return np.cosh(x)
        return x.copy()

    @property
    def j0(self) -> float:
        """Constant term j_0 of the series."""
        if self.kind == "polynomial":
            return self.coefficients[0]
        return 1.0 if self.kind in ("exp", "cosh") else 0.0

    def even_scalar(self, x):
        """Even part above the constant term: (J(x) + J(-x))/2 - j_0."""
        return (self.scalar(x) + self.scalar(-np.asarray(x, dtype=float))) / 2.0 - self.j0

    def odd_scalar(self, x):
        """Odd part: (J(x) - J(-x))/2."""
        return (self.scalar(x) - self.scalar(-np.asarray(x, dtype=float))) / 2.0


def hermitian_adjacency(g, alpha: float) -> HermitianOperator:
    """A_H(alpha) = exp(i alpha) A + exp(-i alpha) A^T for a directed graph."""
    a = g.adjacency()
    m = np.exp(1j * alpha) * a + np.exp(-1j * alpha) * a.T
    return HermitianOperator(m)


@dataclass(eq=False, frozen=True)
class EigenSystem:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def propagate(values, phi, times, to_nodes) -> np.ndarray:
    """Amplitudes of exp(-iHt) psi0 on a whole time grid, shape (T, N).

    ``values`` are the eigenvalues of H, ``phi`` is psi0 in its eigenbasis,
    and ``to_nodes`` maps a block of eigenbasis rows back to node rows.  The
    grid is walked in chunks of TIME_CHUNK rows, so the scratch memory beyond
    the (T, N) result is O(N * TIME_CHUNK).
    """
    times = np.asarray(times, dtype=float)
    amps = np.empty((times.size, phi.shape[0]), dtype=complex)
    for start in range(0, times.size, TIME_CHUNK):
        chunk = slice(start, start + TIME_CHUNK)
        amps[chunk] = to_nodes(np.exp(-1j * np.outer(times[chunk], values)) * phi)
    return amps


def hermitian_eigendecomposition(op: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of a Hermitian operator (ascending order)."""
    try:
        w, v = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(str(exc)) from exc
    return EigenSystem(w, v)


def apply_coupling(series: CouplingSeries, op: HermitianOperator) -> HermitianOperator:
    """Evaluate J(M) spectrally: V J(w) V^H from the eigensystem of M.

    The identity series returns its input unchanged.
    """
    if series.kind == "identity":
        return op
    es = hermitian_eigendecomposition(op)
    f = series.scalar(es.values)
    m = (es.vectors * f) @ es.vectors.conj().T
    # V f(w) V^H is Hermitian up to roundoff; the constructor re-certifies it.
    return HermitianOperator(m)


def assemble_hamiltonian(g, alpha: float, series: CouplingSeries) -> HermitianOperator:
    """Walk Hamiltonian H = J(A_H(alpha)) + J(A_H(alpha))^T, stored as float64.

    J(A_H) is stored exactly Hermitian, so its plain transpose is its
    conjugate and the sum is exactly 2 Re J(A_H), a real symmetric matrix.
    """
    j = apply_coupling(series, hermitian_adjacency(g, alpha))
    return HermitianOperator(2.0 * j.matrix.real)
