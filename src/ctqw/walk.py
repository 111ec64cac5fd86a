"""Schroedinger evolution of walk states and result containers.

Probabilities are P(i, t) = |<i| exp(-iHt) |psi0>|^2.  Both engines move psi0
into an eigenbasis, apply exp(-iwt) and move back through ``propagate``:
circulant specs use the Fourier basis, plain directed graphs the real
eigenbasis of H from ``hamiltonian_eigensystem``.  That is one real
eigensolve of A + A^T for an undirected graph, whatever alpha and series,
and for any other graph the eigensolve of H assembled per (graph, alpha,
series).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import CirculantSpec, DirectedGraph
from .operators import (
    CouplingSeries,
    _dense_amplitudes,
    _real_number,
    _whole_number,
    hamiltonian_eigensystem,
)
from .spectral import circulant_amplitudes

STATE_NORM_TOL = 1e-12
ROW_NORM_TOL = 1e-10
DEFAULT_ARRIVAL_THRESHOLD = 0.01


class NormalizationError(ArithmeticError):
    """Raised when walk probabilities fail to sum to one."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` points from t_start to t_end (eV^-1).

    Endpoints are stored as float (``_real_number``) and ``steps`` as int
    (``_whole_number``).
    """

    t_start: float = 0.0
    t_end: float = 25.0
    steps: int = 500

    def __post_init__(self) -> None:
        t_start = _real_number(self.t_start, "t_start")
        t_end = _real_number(self.t_end, "t_end")
        steps = _whole_number(self.steps, "steps")
        if t_end < t_start:
            raise ValueError("time grid must have t_end >= t_start")
        if not np.isfinite(t_end - t_start):
            raise ValueError(f"time grid span t_end - t_start = {t_end - t_start} is not finite")
        if steps < 1:
            raise ValueError("time grid needs at least one step")
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "steps", steps)
        if steps > 1 and not np.all(np.diff(self.times()) > 0):
            raise ValueError("time grid points must rise strictly; use steps 1 for one time")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


DEFAULT_TIME_GRID = TimeGrid()


def localized_state(n: int, node: int) -> np.ndarray:
    """Unit state concentrated on one node, a whole number (``_whole_number``)."""
    node = _whole_number(node, "node")
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


def row_norm_defect(probs: np.ndarray, where: str = "") -> float:
    """Largest |row sum - 1| of a (rows, n) probability block.

    Raises NormalizationError, its message prefixed by ``where``, when the
    defect exceeds ROW_NORM_TOL or is NaN.
    """
    defect = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if probs.size else 0.0
    if not defect <= ROW_NORM_TOL:
        raise NormalizationError(
            f"{where}probability rows deviate from 1 by {defect:.3e} (> {ROW_NORM_TOL:g})"
        )
    return defect


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
    normalization_defect: float = field(init=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        times = np.asarray(self.times, dtype=float)
        if amps.ndim != 2 or times.ndim != 1 or amps.shape[0] != times.shape[0]:
            raise ValueError("amplitudes must be (steps, n) matching the time grid")
        probs = np.abs(amps)
        probs *= probs
        object.__setattr__(self, "normalization_defect", row_norm_defect(probs))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[1]


def _as_state(initial, n: int) -> np.ndarray:
    """A scalar ``initial`` is a node index, anything else a state vector."""
    if np.ndim(initial) == 0:
        return localized_state(n, initial)
    return validate_state(initial, n)


def _label(graph_or_spec) -> str:
    if isinstance(graph_or_spec, CirculantSpec):
        return f"circulant-n{graph_or_spec.n}"
    return f"graph-n{graph_or_spec.n}"


def propagator(graph_or_spec, alpha: float, series: CouplingSeries):
    """Walk amplitudes for one (graph, alpha, series) as ``(psi0, grid) -> (T, N)``.

    A directed graph's Hamiltonian is diagonalized once, here, for every
    later call; a circulant spec's Fourier spectrum costs one length-N FFT
    per call.  ``psi0`` must be a normalized state of the right size and
    ``grid`` a ``TimeGrid``.  A third argument ``visit`` streams an (S, N)
    stack of states instead, every state sharing each chunk's phases:
    ``visit(first, rows, block)`` gets a (B, rows, N) block of states first
    onwards, with B set by ``propagate``'s fixed scratch cap.
    """
    if isinstance(graph_or_spec, CirculantSpec):
        return lambda psi0, grid, visit=None: circulant_amplitudes(
            graph_or_spec, alpha, series, psi0, grid, visit
        )
    if isinstance(graph_or_spec, DirectedGraph):
        es = hamiltonian_eigensystem(graph_or_spec, alpha, series)
        return lambda psi0, grid, visit=None: _dense_amplitudes(es, psi0, grid, visit)
    raise TypeError(f"expected DirectedGraph or CirculantSpec, got {type(graph_or_spec)!r}")


def run_walk(
    graph_or_spec,
    alpha: float,
    series: CouplingSeries,
    initial,
    grid: TimeGrid = DEFAULT_TIME_GRID,
) -> WalkResult:
    """Run one walk; circulant specs use the Fourier path, graphs the dense path.

    ``initial`` is a node index (a whole number) or a normalized state vector.
    """
    amplitudes = propagator(graph_or_spec, alpha, series)
    psi0 = _as_state(initial, graph_or_spec.n)
    return WalkResult(_label(graph_or_spec), float(alpha), grid.times(), amplitudes(psi0, grid))


def arrival_time(
    result: WalkResult, node: int, threshold: float = DEFAULT_ARRIVAL_THRESHOLD
) -> float | None:
    """First grid time with P(node, t) >= threshold, or None if never reached."""
    node = _whole_number(node, "node")
    threshold = _real_number(threshold, "threshold")
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
_LOADTXT = dict(dtype=_CSV_ROW, delimiter=",", comments="#", usecols=(0, 1, 2), ndmin=1)


def _header(lines) -> str:
    """The first line of ``lines`` that is neither blank nor a ``#`` comment, stripped, or ""."""
    return next((line for line in map(str.strip, lines) if line and line[0] != "#"), "")


def read_walk_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (times, probabilities) from :func:`write_walk_csv` output.

    Times keep their order of first appearance, cells without a row read 0,
    and a repeated (t, node) row replaces the earlier one.  The rows are
    parsed once, from the open file; only a file that parse rejects is parsed
    again with its whitespace-only lines dropped, and that parse's error is
    the one reported.  Rows holding every cell once in (time, node) order are
    the field as written; any other file places each row by its cell index.
    """
    with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
        header = _header(fh)
        if header and header.split(",")[:3] != ["t", "node", "probability"]:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        try:
            rows = np.loadtxt(fh, **_LOADTXT)
        except ValueError:
            fh.seek(0)
            lines = (line for line in fh if not line.isspace())
            _header(lines)
            try:
                rows = np.loadtxt(lines, **_LOADTXT)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed data row ({exc})") from None
    if not rows.size:
        raise ValueError(f"{path}: no data rows")
    text, node = rows["t"], rows["node"]
    # reported after the time check, but run first so its per-row scratch is freed early
    whole = node == np.floor(node)
    whole &= node >= 0
    whole &= node <= 2**53
    whole = whole.all()
    heads = np.flatnonzero(np.r_[True, text[1:] != text[:-1]])
    if np.char.str_len(text[heads]).max() >= _TIME_FIELD:
        raise ValueError(f"time fields must be shorter than {_TIME_FIELD} characters")
    if not whole:
        raise ValueError(f"{path}: node fields must be non-negative integers")
    values = text[heads].astype(float)
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    times = values[first[order]]
    width = int(node.max()) + 1
    # writer order: each run is a distinct time, its nodes rise, and every cell has a row
    rising = node[1:] > node[:-1]
    rising[heads[1:] - 1] = True
    in_order = heads.size == times.size and rows.size == times.size * width and rising.all()
    del rising
    if in_order:
        return times, rows["p"].reshape(-1, width).copy()
    # each run's row of the field, times ranked by first appearance
    run_row = np.argsort(order)[inverse]
    lengths = np.diff(np.r_[heads, rows.size])
    # a shuffled file has as many runs as rows: free them before the per-row cells
    del heads, values, first, inverse, order
    probs = np.zeros((times.size, width))
    cells = np.repeat(run_row * width, lengths)
    del run_row, lengths
    # whole nodes and cell indices below the field's size: the float sum is exact
    np.add(cells, node, out=cells, casting="unsafe")
    prob = rows["p"]
    if not np.all(cells[1:] > cells[:-1]):
        # np.unique on the reversed cells finds each cell's last row
        last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
        cells, prob = cells[last], prob[last]
    probs.flat[cells] = prob
    return times, probs
