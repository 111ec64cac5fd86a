"""Schroedinger evolution of walk states and result containers.

Probabilities are P(i, t) = |<i| exp(-iHt) |psi0>|^2.  Both engines move psi0
into an eigenbasis, apply exp(-iwt) and move back through ``propagate``:
circulant specs use the Fourier basis, plain directed graphs one dense
eigendecomposition per (graph, alpha, series).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import CirculantSpec, DirectedGraph
from .operators import (
    CouplingSeries,
    EigenSystem,
    assemble_hamiltonian,
    hermitian_eigendecomposition,
    propagate,
)
from .spectral import circulant_amplitudes

STATE_NORM_TOL = 1e-12
ROW_NORM_TOL = 1e-10
DEFAULT_ARRIVAL_THRESHOLD = 0.01


class NormalizationError(ArithmeticError):
    """Raised when walk probabilities fail to sum to one."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` points from t_start to t_end (eV^-1)."""

    t_start: float = 0.0
    t_end: float = 25.0
    steps: int = 500

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError("time grid endpoints must be finite")
        if self.t_end < self.t_start:
            raise ValueError("time grid must have t_end >= t_start")
        if self.steps < 1:
            raise ValueError("time grid needs at least one step")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


DEFAULT_TIME_GRID = TimeGrid()


def localized_state(n: int, node: int) -> np.ndarray:
    """Unit state concentrated on one node."""
    if not (0 <= node < n):
        raise ValueError(f"node {node} out of range for n={n}")
    psi = np.zeros(n, dtype=complex)
    psi[node] = 1.0
    return psi


def validate_state(psi: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check a state vector is the right size and normalized within 1e-12."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {psi.shape}")
    if n is not None and psi.shape[0] != n:
        raise ValueError(f"state has {psi.shape[0]} entries, expected {n}")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
    return psi


@dataclass(eq=False, frozen=True)
class WalkResult:
    """Amplitudes and probabilities of one walk over a time grid.

    ``amplitudes`` has shape (steps, n); probabilities are derived entrywise
    and every row must sum to 1 within 1e-10.
    """

    label: str
    alpha: float
    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        times = np.asarray(self.times, dtype=float)
        if amps.ndim != 2 or times.ndim != 1 or amps.shape[0] != times.shape[0]:
            raise ValueError("amplitudes must be (steps, n) matching the time grid")
        probs = np.abs(amps) ** 2
        defect = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if probs.size else 0.0
        if not defect <= ROW_NORM_TOL:
            raise NormalizationError(
                f"probability rows deviate from 1 by {defect:.3e} (> {ROW_NORM_TOL:g})"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def normalization_defect(self) -> float:
        return float(np.max(np.abs(self.probabilities.sum(axis=1) - 1.0)))


def _real_matmul(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for real v and complex 2-D x: one real gemm on the (re, im) column pairs of x."""
    return (v @ np.ascontiguousarray(x).view(float)).view(complex)


def _dense_amplitudes(es: EigenSystem, psi0: np.ndarray, times) -> np.ndarray:
    # V is real (every assembled H is float64), so it is never cast to a complex N x N copy
    v = es.vectors
    phi = _real_matmul(v.T, psi0[:, None])[:, 0]
    return propagate(es.values, phi, times, lambda rows: _real_matmul(v, rows.T).T)


def _as_state(initial, n: int) -> np.ndarray:
    if isinstance(initial, (int, np.integer)):
        return localized_state(n, int(initial))
    return validate_state(initial, n)


def _label(graph_or_spec) -> str:
    if isinstance(graph_or_spec, CirculantSpec):
        return f"circulant(n={graph_or_spec.n})"
    return f"graph(n={graph_or_spec.n}, edges={len(graph_or_spec.edges)})"


def propagator(graph_or_spec, alpha: float, series: CouplingSeries):
    """Walk amplitudes for one (graph, alpha, series) as ``(psi0, times) -> (T, N)``.

    A directed graph's Hamiltonian is diagonalized once, here, for every
    later call; a circulant spec's Fourier spectrum costs one length-N FFT
    per call.  ``psi0`` must be a normalized state of the right size.
    """
    if isinstance(graph_or_spec, CirculantSpec):
        return lambda psi0, times: circulant_amplitudes(graph_or_spec, alpha, series, psi0, times)
    if isinstance(graph_or_spec, DirectedGraph):
        es = hermitian_eigendecomposition(assemble_hamiltonian(graph_or_spec, alpha, series))
        return lambda psi0, times: _dense_amplitudes(es, psi0, times)
    raise TypeError(f"expected DirectedGraph or CirculantSpec, got {type(graph_or_spec)!r}")


def run_walk(
    graph_or_spec,
    alpha: float,
    series: CouplingSeries,
    initial,
    grid: TimeGrid = DEFAULT_TIME_GRID,
) -> WalkResult:
    """Run one walk; circulant specs use the Fourier path, graphs the dense path.

    ``initial`` is a node index or a normalized state vector.
    """
    amplitudes = propagator(graph_or_spec, alpha, series)
    psi0 = _as_state(initial, graph_or_spec.n)
    times = grid.times()
    return WalkResult(_label(graph_or_spec), float(alpha), times, amplitudes(psi0, times))


def arrival_time(
    result: WalkResult, node: int, threshold: float = DEFAULT_ARRIVAL_THRESHOLD
) -> float | None:
    """First grid time with P(node, t) >= threshold, or None if never reached."""
    if not (0 <= node < result.n):
        raise ValueError(f"node {node} out of range for n={result.n}")
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must lie in (0, 1]")
    hits = np.nonzero(result.probabilities[:, node] >= threshold)[0]
    return float(result.times[hits[0]]) if hits.size else None


def write_walk_csv(result: WalkResult, path, include_amplitudes: bool = False, header_lines=()) -> None:
    """Write a walk as long-format CSV rows ``t,node,probability[,re,im]``.

    Every value is spelled ``%.17g``.  Each time row is one ``%`` format of a
    per-node template, so the scratch beyond the result is O(N).
    """
    cells = "%.17g,%.17g,%.17g" if include_amplitudes else "%.17g"
    # "\0" stands for the time, spliced in once per row
    template = "".join(f"\0,{node},{cells}\n" for node in range(result.n))
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("t,node,probability" + (",re,im" if include_amplitudes else "") + "\n")
        for ti, t in enumerate(result.times):
            values = result.probabilities[ti]
            if include_amplitudes:
                a = result.amplitudes[ti]
                values = np.column_stack((values, a.real, a.imag)).ravel()
            fh.write(template.replace("\0", "%.17g" % t) % tuple(values.tolist()))


# Data rows as parsed: the time stays text until runs of equal times are
# found, so a time shared by N consecutive rows is converted once.  %.17g
# spells any float in at most 24 characters.
_TIME_FIELD = 32
_CSV_ROW = np.dtype([("t", f"S{_TIME_FIELD}"), ("node", float), ("p", float)])


def _parse_times(text: np.ndarray) -> np.ndarray:
    """Float value of each time field, converting each run of equal fields once."""
    heads = np.flatnonzero(np.r_[True, text[1:] != text[:-1]])
    spelled = text[heads]
    if np.char.str_len(spelled).max() >= _TIME_FIELD:
        raise ValueError(f"time fields must be shorter than {_TIME_FIELD} characters")
    return np.repeat(spelled.astype(float), np.diff(np.r_[heads, text.size]))


def read_walk_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (times, probabilities) from :func:`write_walk_csv` output.

    Times keep their order of first appearance, cells without a row read 0,
    and a repeated (t, node) row replaces the earlier one.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = (line for line in fh if not line.isspace())
        header = next((line.strip() for line in lines if not line.lstrip().startswith("#")), "")
        if header and header.split(",")[:3] != ["t", "node", "probability"]:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
            try:
                rows = np.loadtxt(
                    lines, _CSV_ROW, delimiter=",", comments="#", usecols=(0, 1, 2), ndmin=1
                )
            except ValueError as exc:
                raise ValueError(f"{path}: malformed data row ({exc})") from None
    if not rows.size:
        raise ValueError(f"{path}: no data rows")
    t, node, prob = _parse_times(rows["t"]), rows["node"], rows["p"]
    if not np.all((node >= 0) & (node <= 2**53) & (node == np.floor(node))):
        raise ValueError(f"{path}: node fields must be non-negative integers")
    _, first, inverse = np.unique(t, return_index=True, return_inverse=True)
    order = np.argsort(first)
    probs = np.zeros((first.size, int(node.max()) + 1))
    cells = np.argsort(order)[inverse] * probs.shape[1] + node.astype(np.intp)
    # np.unique on the reversed cells finds each cell's last row
    last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
    probs.flat[cells[last]] = prob[last]
    return t[first[order]], probs
