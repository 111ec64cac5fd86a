"""Phased Hermitian adjacency, coupling series, and Hamiltonian assembly.

The single-phase Hermitian adjacency of a directed graph is

    A_H(alpha) = exp(i alpha) A + exp(-i alpha) A^T,

and a real-coefficient coupling series J lifts it to the walk Hamiltonian

    H = J(A_H) + J(A_H)^T.

J(A_H) is Hermitian for real series, so H = 2 Re J(A_H) is real symmetric.
A_H, every J and H are Hermitian by construction and only checked for finite
entries; only operators a caller builds are gated.  A polynomial J of degree
at most 7 runs one Horner loop, P <- P A_H + c_k I: on the walks of A_H while
they number at most the N^2 entries of P, summed into P once, then by dense
products.  Any other J is spectral, V J(w) V^H, hermitized in place.

An undirected graph (A = A^T) has the real A_H = cos(alpha) S with
S = A_H(0) = A + A^T = V diag(l) V^T, so H = V diag(2 J(cos(alpha) l)) V^T for
every series: one real eigensolve of S gives the whole walk, and no J is formed.
``_dense_amplitudes`` binds ``propagate`` to H's real eigenbasis, node-major.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12

# Time rows per block: moved back from the eigenbasis per call of ``to_nodes`` in
# ``propagate``, and formatted per write by the PGM heatmap writer.
TIME_CHUNK = 64

# Complex cells (1 MiB) of one block of stacked states in ``propagate``.
_SCRATCH_CELLS = 2**16

# kind -> its elementwise J; a polynomial is evaluated from its coefficients
_SERIES_FUNCTIONS = {"exp": np.exp, "sinh": np.sinh, "cosh": np.cosh, "identity": np.copy}
_SERIES_KINDS = ("polynomial", *_SERIES_FUNCTIONS)

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(\.\d+)?)?\s*\*?\s*pi\s*(/\s*(?P<den>\d+(\.\d+)?))?$"
)


class EigendecompositionError(ArithmeticError):
    """Raised when the Hermitian eigensolver fails to converge."""


class NonFiniteOperatorError(ArithmeticError):
    """Raised when an operator holds NaN or infinite entries."""


def _hermitize(m: np.ndarray) -> np.ndarray:
    """Overwrite ``m`` with its Hermitian part (M + M^H)/2 and return it."""
    # halving first keeps M + M^H from overflowing for entries near the float maximum;
    # adding in place holds no third N x N array (numpy copies an operand that
    # overlaps its output, as a real M^H = M^T does)
    m *= 0.5
    m += m.conj().T
    return m


def _require_finite(values) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteOperatorError("operator has non-finite entries")


def _real_number(value, what: str) -> float:
    """``value`` as a finite float: the one rule for every real input.

    Real numbers pass, NumPy scalars included.  Bools, strings, None, other
    non-reals, NaN, infinities and ints beyond the float range raise ValueError.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            pass
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r} (real numbers only)")
    return number


def _whole_number(value, what: str) -> int:
    """``value`` as an int: ``_real_number``'s rule, no fraction and |value| <= ``sys.maxsize``."""
    if not _real_number(value, what).is_integer() or abs(int(value)) > sys.maxsize:
        raise ValueError(f"{what} must be a whole number <= {sys.maxsize} in size, got {value!r}")
    return int(value)


def _ascii_spelling(text: str, what: str) -> str:
    """``text``, a number as read from text, if it is ASCII with no ``_``, else ValueError.

    ``int`` and ``float`` also read ``1_0`` as 10 and non-ASCII digits, which
    the file formats and phase tokens do not spell numbers with.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"{what} must be spelled with ASCII digits and no '_', got {text!r}")
    return text


def parse_phase(token) -> float:
    """Parse a phase value from a number or a symbolic token.

    Accepts real numbers under ``_real_number``'s rule, numeric strings, and
    pi fractions such as ``"pi"``, ``"pi/2"``, ``"3pi/4"``, ``"-pi/3"``,
    ``"0.5pi"``, spelled in ASCII with no ``_`` (``_ascii_spelling``).
    Anything else, or a value that is not a finite float, raises ValueError.
    """
    if not isinstance(token, str):
        return _real_number(token, "phase")
    text = _ascii_spelling(token.strip().lower(), "phase")
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
    return _real_number(value, f"phase {token!r}")


@dataclass(eq=False, frozen=True)
class HermitianOperator:
    """A square matrix certified and stored as exactly Hermitian.

    Construction rejects matrices whose Hermiticity defect max|M - M^H|
    exceeds ``HERMITICITY_TOL`` (ValueError) or is not finite
    (NonFiniteOperatorError, as for any NaN or infinite entry) and stores the
    hermitized (M + M^H)/2: complex input as complex128, real input as
    float64 (real symmetric).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN reported below
            defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        _require_finite(defect)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:g}")
        m = _hermitize(m.copy())
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _by_construction(cls, m: np.ndarray, entries=None) -> "HermitianOperator":
        """Freeze and wrap an exactly Hermitian ``m``; only its finiteness is checked.

        ``entries``, if given, holds every nonzero value of ``m`` and is checked instead.
        """
        _require_finite(m if entries is None else entries)
        m.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", m)
        return op


@dataclass(frozen=True)
class CouplingSeries:
    """Real-coefficient scalar series J, applied to operators by ``apply_coupling``.

    ``polynomial`` carries explicit coefficients (j_0, j_1, ...); the other
    kinds are the usual entire functions.  ``identity`` is J(x) = x.
    """

    kind: str
    coefficients: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}; expected one of {_SERIES_KINDS}")
        coeffs = tuple(_real_number(c, "series coefficient") for c in self.coefficients or ())
        if self.kind == "polynomial":
            if not coeffs:
                raise ValueError("polynomial series needs at least one coefficient")
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
        return _SERIES_FUNCTIONS[self.kind](x)

    def odd_scalar(self, x):
        """Odd part: (J(x) - J(-x))/2."""
        return (self.scalar(x) - self.scalar(-np.asarray(x, dtype=float))) / 2.0


def hermitian_adjacency(g, alpha: float) -> HermitianOperator:
    """A_H(alpha) = exp(i alpha) A + exp(-i alpha) A^T for a directed graph.

    exp(i alpha) and its conjugate are scattered from the graph's (2, E) edge
    index into zeros, so no N x N arithmetic runs: entry (i, j) is exp(i alpha)
    for a one-way edge i -> j, its conjugate for j -> i and 2 cos(alpha) for
    both, bit for bit the defining sum.  Only the phase is checked for
    finiteness; a NaN or infinite one raises NonFiniteOperatorError.
    """
    phase = np.exp(1j * alpha)
    tails, heads = g._ends
    m = np.zeros((g.n, g.n), dtype=complex)
    m[tails, heads] = phase
    m[heads, tails] += phase.conjugate()
    return HermitianOperator._by_construction(m, entries=phase)


@dataclass(eq=False, frozen=True)
class EigenSystem:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def propagate(values, phi, grid, to_nodes, visit=None, node_major=False):
    """Amplitudes of exp(-iHt) psi0 on a uniform ``TimeGrid``, shape (T, N).

    ``values`` are the eigenvalues w of H, ``phi`` is psi0 in its eigenbasis,
    and ``to_nodes(block, out)`` maps a (B, rows, N) block of eigenbasis
    coefficients to node amplitudes, written into ``out`` of the same shape
    and layout.  The grid is walked in chunks of TIME_CHUNK rows.  One
    (TIME_CHUNK, N) offset table exp(-i w j dt) is built per call by
    doubling (``_offset_table``: log2(TIME_CHUNK) complex exponentials per
    eigenvalue), and the phase block of the chunk starting at grid time t_c
    is that table times the head exp(-i w t_c).  The head is folded into
    each batch of states, so a (chunk, batch) block is one multiply,
    table * (head * phi), the same products for a state in any batch.
    Scratch beyond the (T, N) result is O(N * TIME_CHUNK).

    With ``visit``, ``phi`` is an (S, N) stack of states that share each
    chunk's table and head.  They go B = max(1, 2^16 // (R N)) at a time, R being
    TIME_CHUNK or the number of grid points if fewer: each (chunk, batch)
    takes one call of ``to_nodes`` and one of ``visit(first, rows, block)``,
    where ``block`` is (B, rows, N) and holds states first .. first + B - 1
    (the last batch may hold fewer).  The block is scratch, refilled by the
    next batch, and nothing is kept or returned: two blocks of at most 2^16
    complex cells (1 MiB) each, or one state's chunk when that is larger,
    are all the scratch whatever S and N, and an empty stack visits nothing.
    Without ``visit``, anything but exactly one state raises ValueError.

    Blocks are time-major in memory, each (state, time) row of N entries
    together, the layout a last-axis FFT takes; a single walk's ``to_nodes``
    then writes straight into the rows of the result.  With ``node_major``
    they are (N, B, rows) arrays in memory seen as (B, rows, N), the layout
    a matrix product V X takes with no copy, and each mapped block is copied
    into the C-ordered result.
    """
    times = grid.times()
    phi = np.atleast_2d(phi)
    amps = None
    if visit is None:
        if phi.shape[0] != 1:
            raise ValueError(f"a stack of {len(phi)} states needs visit; give exactly one state")
        amps = np.empty((times.size, phi.shape[1]), dtype=complex)
        if node_major:  # a gemm's node-major block is copied into the C-ordered result

            def visit(_, rows, block):
                amps[rows] = block[0]

    # a time-major single walk maps back straight into its result's rows
    into_result = visit is None
    # np.linspace's own step, so t_c + j dt lies within ~ulp(t) of the grid point it stands for
    dt = (grid.t_end - grid.t_start) / max(times.size - 1, 1)
    offsets = _offset_table(values, dt, min(TIME_CHUNK, times.size), node_major)
    # the states and every block are stored in the table's layout
    states = np.asfortranarray(phi) if node_major else np.ascontiguousarray(phi)
    # an empty stack takes batches of one and visits nothing
    batch = max(1, min(len(states), _SCRATCH_CELLS // max(offsets.size, 1)))
    # scratch refilled per (chunk, batch): allocating and freeing a fresh MiB
    # block per batch can cost a page fault per 4 KiB
    eigen_cells = np.empty(batch * offsets.size, dtype=complex)
    node_cells = None if into_result else np.empty_like(eigen_cells)
    for start in range(0, times.size, TIME_CHUNK):
        rows = slice(start, min(start + TIME_CHUNK, times.size))
        table = offsets[: rows.stop - start]
        head = np.exp(-1j * times[start] * values)
        for first in range(0, len(states), batch):
            group = states[first : first + batch]
            shape = (len(group), len(table), values.size)
            block = _block(eigen_cells, shape, node_major)
            np.multiply(table, (head * group)[:, None, :], out=block)
            mapped = amps[None, rows] if into_result else _block(node_cells, shape, node_major)
            to_nodes(block, mapped)
            if not into_result:
                visit(first, rows, mapped)
    return amps


def _offset_table(values, dt: float, rows: int, node_major: bool) -> np.ndarray:
    """The (rows, N) table exp(-i w j dt), j < rows, stored (N, rows) if node-major.

    Row 0 is one, and rows k .. 2k - 1 are rows 0 .. k - 1 times exp(-i w k dt)
    for k = 1, 2, 4, ...: k dt is exact, and row j is the product of one such
    exponential per set bit of j, at most log2(TIME_CHUNK) of them.
    """
    table = np.empty((values.size, rows) if node_major else (rows, values.size), dtype=complex)
    if node_major:
        table = table.T
    table[:1] = 1.0
    k = 1
    while k < rows:
        count = min(k, rows - k)
        np.multiply(table[:count], np.exp(-1j * (k * dt) * values), out=table[k : k + count])
        k *= 2
    return table


def _block(cells: np.ndarray, shape, node_major: bool) -> np.ndarray:
    """The front of flat ``cells`` as a (B, rows, N) block, stored (N, B, rows) if node-major."""
    b, rows, n = shape
    if node_major:
        return cells[: b * rows * n].reshape(n, b, rows).transpose(1, 2, 0)
    return cells[: b * rows * n].reshape(shape)


def _walk(values, into, to_nodes, node_major=False):
    """``propagate`` bound to one eigenbasis, called as ``(psi0, grid, visit=None)``.

    ``into`` maps psi0, or an (S, N) stack, cast to complex into the eigenbasis of ``values``.
    """
    return lambda psi0, grid, visit=None: propagate(
        values, into(np.asarray(psi0, dtype=complex)), grid, to_nodes, visit, node_major
    )


def _dense_amplitudes(es: EigenSystem):
    """The walk of ``es``: node-major blocks, mapped into and out of its basis by real gemms."""
    # V is real (every assembled H is float64), so it is never cast to a complex N x N copy:
    # V^T meets the states' (re, im) column pairs in one real gemm
    v = es.vectors

    def into(psi0):
        states = np.ascontiguousarray(np.atleast_2d(psi0).T)
        return (v.T @ states.view(float)).view(complex).T

    def columns(block):
        # a node-major (B, rows, N) block is an (N, B, rows) array in memory, so this is a
        # view: its (re, im) pairs as real columns, all mapped by one real gemm
        return block.transpose(2, 0, 1).reshape(len(v), -1).view(float)

    def to_nodes(block, out):
        np.matmul(v, columns(block), out=columns(out))

    return _walk(es.values, into, to_nodes, node_major=True)


def hermitian_eigendecomposition(op: HermitianOperator) -> EigenSystem:
    """Full eigendecomposition of a Hermitian operator (ascending order)."""
    try:
        w, v = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(str(exc)) from exc
    return EigenSystem(w, v)


# Highest polynomial degree d evaluated by the Horner loop.  A degree-d
# polynomial costs at most d - 1 complex N x N products, none while its walk
# terms stay at most N^2; one complex eigensolve plus V J(w) V^H costs about
# 9 of them at N = 500, so the bound of 7 is conservative.
_HORNER_MAX_DEGREE = 7


def _hermitian_horner(coefficients, x: np.ndarray) -> np.ndarray:
    """sum_k c_k X^k for an exactly Hermitian X, by Horner's rule P <- P X + c_k I.

    A term (i, j, v) of P is a walk i -> j weighted by X's entries along it
    and one coefficient.  P starts as the terms of c_d X + c_{d-1} I (of
    c_0 I for a constant), and each step extends every term by each nonzero
    of X in row j and adds the N terms of c_k I, while the terms number at
    most the N^2 entries of P: below that count they cost a few passes over
    N^2 cells, against N^3 multiply-adds per dense product.  Once they would
    number more, or after the last step, they are summed into P once, and
    the remaining steps are dense products.  A dense X, whose first terms
    already number more, starts from the dense c_d X + c_{d-1} I instead.
    Every partial sum is a polynomial in X, so P X is Hermitian up to
    rounding; the sum and each product keep their Hermitian part, so the
    result is exactly Hermitian and needs no gate.
    """
    c = coefficients
    n = len(x)
    d = len(c) - 1
    # the terms of c_d X + c_{d-1} I, or of c_0 I for a constant: c_k is the last one added
    k = max(d - 1, 0)
    # X is Hermitian, so its pattern is symmetric: row j and column j hold degree[j] nonzeros
    degree = np.count_nonzero(x, axis=1)
    # the loop's first count test, on the terms of c_d X + c_{d-1} I
    if d and int(degree @ (degree + 1)) + n > n * n:
        p = c[d] * x
        p += 0.0  # -0.0 to 0.0, as in the terms' sum: LAPACK's reflectors read a zero's sign
        p.flat[:: n + 1] += c[k]
    else:
        rows, cols = np.nonzero(x)  # row-major, so the nonzeros of each row are one run
        values = x[rows, cols]
        nodes = np.arange(n)
        starts = np.searchsorted(rows, nodes)
        i, j, v = nodes, nodes, np.full(n, c[k], dtype=x.dtype)
        if d:
            i, j = np.concatenate([rows, nodes]), np.concatenate([cols, nodes])
            v = np.concatenate([c[d] * values, v])
        while k > 0:
            counts = degree[j]
            total = int(counts.sum())
            if total + n > n * n:
                break
            k -= 1
            # index into (cols, values) of each extension: term t's run starts at starts[j[t]]
            at = np.arange(total) + np.repeat(starts[j] - (np.cumsum(counts) - counts), counts)
            i = np.concatenate([np.repeat(i, counts), nodes])
            j = np.concatenate([cols[at], nodes])
            v = np.concatenate([np.repeat(v, counts) * values[at], np.full(n, c[k], dtype=x.dtype)])
        key = i * n + j
        p = np.empty(n * n, dtype=x.dtype)
        p.real = np.bincount(key, v.real, n * n)
        if np.iscomplexobj(p):
            p.imag = np.bincount(key, v.imag, n * n)
        p = p.reshape(n, n)
    p = _hermitize(p)
    for k in range(k - 1, -1, -1):
        p = _hermitize(p @ x)
        p.flat[:: n + 1] += c[k]
    return p


def apply_coupling(series: CouplingSeries, op: HermitianOperator) -> HermitianOperator:
    """Evaluate J(M) for a Hermitian M.

    The identity series returns its input unchanged.  A polynomial whose
    degree, the index of its last nonzero coefficient, is at most 7 runs one
    Horner loop (``_hermitian_horner``) with its trailing zeros dropped: on
    M's walks while they number at most the N^2 entries of the result, then
    by dense products.  Every other series is applied spectrally, V J(w) V^H
    from the eigensystem of M, and stored as its Hermitian part.  Either J is
    exactly Hermitian, so only its finiteness is checked.
    """
    if series.kind == "identity":
        return op
    c = series.coefficients
    degree = max((k for k, ck in enumerate(c) if ck), default=0)
    if series.kind == "polynomial" and degree <= _HORNER_MAX_DEGREE:
        return HermitianOperator._by_construction(_hermitian_horner(c[: degree + 1], op.matrix))
    es = hermitian_eigendecomposition(op)
    m = (es.vectors * series.scalar(es.values)) @ es.vectors.conj().T
    return HermitianOperator._by_construction(_hermitize(m))


def assemble_hamiltonian(g, alpha: float, series: CouplingSeries) -> HermitianOperator:
    """Walk Hamiltonian H = J(A_H(alpha)) + J(A_H(alpha))^T, stored as float64.

    J(A_H) is stored exactly Hermitian, so its plain transpose is its
    conjugate and the sum is exactly 2 Re J(A_H), a real symmetric matrix.
    """
    j = apply_coupling(series, hermitian_adjacency(g, alpha))
    return HermitianOperator._by_construction(2.0 * j.matrix.real)


def hamiltonian_eigensystem(g, alpha: float, series: CouplingSeries) -> EigenSystem:
    """Ascending eigensystem of the walk Hamiltonian of a directed graph.

    An undirected graph (no ``g.one_way_edges``) takes one real eigensolve of S = A_H(0) = 2 A,
    H = V diag(2 J(cos(alpha) l)) V^T for every alpha and series (NonFiniteOperatorError on
    non-finite values); any other the eigensolve of ``assemble_hamiltonian``'s H, whose A_H
    is scattered from the edge index.
    """
    if g.one_way_edges:
        return hermitian_eigendecomposition(assemble_hamiltonian(g, alpha, series))
    s = g.adjacency()
    s *= 2.0  # A + A^T bit for bit, as A = A^T: 2 on each two-way pair
    es = hermitian_eigendecomposition(HermitianOperator._by_construction(s))
    w = 2.0 * series.scalar(np.cos(alpha) * es.values)
    _require_finite(w)
    order = np.argsort(w, kind="stable")
    return EigenSystem(w[order], es.vectors[:, order])
