"""Numerical certification of walk invariants on concrete instances.

Each check runs real simulations, measures the worst deviation from the
claimed identity, and returns a PropertyReport whose verdict is pass iff
that deviation is within the check's tolerance.  Instances violating a
check's preconditions are rejected with ValueError rather than certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CirculantSpec, DirectedGraph, bipartition, one_sided
from .operators import TIME_CHUNK, CouplingSeries, _real_number, _whole_number
from .walk import (
    DEFAULT_TIME_GRID,
    ROW_NORM_TOL,
    TimeGrid,
    _as_state,
    _label,
    propagator,
    row_norm_defect,
    run_walk,
)

TOL_SUPPRESSION = 1e-10
TOL_MIRROR = 1e-9
TOL_STATIONARY = 1e-10
TOL_CANCELLATION = 1e-9

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check on one instance."""

    name: str
    instance: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def line(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return f"{self.name},{self.instance},{self.deviation:.17g},{self.tolerance:g},{verdict}"


def _graph_of(graph_or_spec) -> DirectedGraph:
    if isinstance(graph_or_spec, CirculantSpec):
        return graph_or_spec.to_graph()
    if isinstance(graph_or_spec, DirectedGraph):
        return graph_or_spec
    raise TypeError(f"expected DirectedGraph or CirculantSpec, got {type(graph_or_spec)!r}")


def check_transport_suppression(
    graph_or_spec,
    series: CouplingSeries,
    grid: TimeGrid = DEFAULT_TIME_GRID,
    partition=None,
) -> PropertyReport:
    """At alpha = pi/2, walks started in one partition never cross to the other.

    The partition defaults to the even side of the graph's bipartition.  A
    given one is valid when no one-way edge joins two nodes of the same side
    (bidirected pairs cancel in A_H(pi/2)); the side is then walked from each
    of its nodes and the probability on the complement is the deviation.

    The starts are walked as one stack under one eigensystem, each
    (B, rows, N) block of ``propagate``'s fixed scratch cap reduced on the
    spot.  A start whose rows fail the 1e-10 norm gate raises
    NormalizationError naming it, the first in start order among a block's.
    """
    graph = _graph_of(graph_or_spec)
    if partition is None:
        parts = bipartition(graph)
        if parts is None:
            raise ValueError(
                "graph is not bipartite; pass a partition with no one-way edge inside a side"
            )
        partition = parts.even
    starts = tuple(sorted({_whole_number(i, "partition node") for i in partition}))
    if not starts or any(not (0 <= i < graph.n) for i in starts):
        raise ValueError(f"partition must be a nonempty subset of 0..{graph.n - 1}")
    side = set(starts)
    inside = sorted((i, j) for i, j in graph.one_way_edges if (i in side) == (j in side))
    if inside:
        raise ValueError(f"edge {inside[0]} joins one partition side but is not bidirected")
    amplitudes = propagator(graph_or_spec, HALF_PI, series)
    cross = np.array([i for i in range(graph.n) if i not in side], dtype=np.intp)
    deviation = 0.0

    def reduce(first, _, block):
        # each (B, rows, N) block of walks shrinks at once to a row-norm test and its
        # largest cross-partition probability, so no (S, T, N) array is ever held
        nonlocal deviation
        probs = np.abs(block)
        probs *= probs
        bad = ~(np.abs(probs.sum(axis=-1) - 1.0) <= ROW_NORM_TOL)
        if bad.any():
            s = int(np.flatnonzero(bad.any(axis=1))[0])
            row_norm_defect(probs[s], f"walk from node {group[first + s]}: ")
        if cross.size:
            deviation = max(deviation, float(probs[..., cross].max()))

    # starts go TIME_CHUNK at a time, so their eigenbasis stack is no larger than a chunk
    for lead in range(0, len(starts), TIME_CHUNK):
        group = starts[lead : lead + TIME_CHUNK]
        states = np.zeros((len(group), graph.n), dtype=complex)
        states[np.arange(len(group)), group] = 1.0
        amplitudes(states, grid, reduce)
    return PropertyReport(
        "suppression", _label(graph_or_spec), deviation, TOL_SUPPRESSION
    )


def _half_pi_eligible(graph_or_spec, psi: np.ndarray) -> bool:
    """Whether the graph is bipartite with psi on one side of each weakly connected component.

    A circulant spec's graph is that of its nonzero offsets.
    """
    spec = isinstance(graph_or_spec, CirculantSpec)
    if spec and graph_or_spec.coefficients[0] != 0.0:  # a self-loop on every node
        return False
    graph = graph_or_spec.support_graph() if spec else _graph_of(graph_or_spec)
    return one_sided(graph, np.flatnonzero(psi).tolist())


def check_mirror_symmetries(
    graph_or_spec,
    series: CouplingSeries,
    deltas,
    initial=0,
    grid: TimeGrid = DEFAULT_TIME_GRID,
    half_pi_branch: bool | None = None,
) -> PropertyReport:
    """Probability fields are even in alpha, and mirror about pi/2 on bipartite graphs.

    The alpha -> -alpha branch runs for every delta in ``deltas`` on any
    input, and reads 0 by construction on both engines, whose H(-alpha) is
    bitwise H(alpha): only the pi/2 and pi pairs can fail.  The pi/2 branch
    (P at pi/2 + delta vs pi/2 - delta, plus the implied pi-periodicity)
    needs a bipartite graph (a circulant spec's is that of its nonzero
    offsets) and an initial state supported on one side of every weakly
    connected component; ``half_pi_branch``, a bool (NumPy's too) or None,
    forces it on (ValueError when the preconditions fail), off, or automatic.
    """
    if not (half_pi_branch is None or isinstance(half_pi_branch, (bool, np.bool_))):
        raise ValueError(f"half_pi_branch must be None or a bool, got {half_pi_branch!r}")
    deltas = [_real_number(d, "delta") for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta")
    initial = _as_state(initial, graph_or_spec.n)
    eligible = _half_pi_eligible(graph_or_spec, initial)
    if half_pi_branch and not eligible:
        raise ValueError("pi/2 mirror branch needs a bipartite graph and a one-sided initial state")
    run_half_pi = eligible if half_pi_branch is None else bool(half_pi_branch)

    def walk(alpha):
        return run_walk(graph_or_spec, alpha, series, initial, grid).probabilities

    def gap(a, b) -> float:
        diff = a - b
        return float(np.max(np.abs(diff, out=diff)))

    def gaps(delta):
        # a function of its own, so one delta's fields are freed before the next delta walks
        p_plus = walk(delta)
        found = [gap(p_plus, walk(-delta))]
        if run_half_pi:
            found.append(gap(walk(HALF_PI + delta), walk(HALF_PI - delta)))
            found.append(gap(p_plus, walk(delta + math.pi)))
        return found

    deviation = 0.0
    for delta in deltas:
        deviation = max(deviation, *gaps(delta))
    return PropertyReport("mirror", _label(graph_or_spec), deviation, TOL_MIRROR)


def check_stationary_at_half_pi(
    graph_or_spec,
    series: CouplingSeries,
    initial=0,
    grid: TimeGrid = DEFAULT_TIME_GRID,
) -> PropertyReport:
    """Symmetric graphs freeze at alpha = pi/2: P(i, t) = P(i, 0) for all t."""
    if isinstance(graph_or_spec, CirculantSpec):
        symmetric = graph_or_spec.is_reversal_symmetric
    else:
        symmetric = not _graph_of(graph_or_spec).one_way_edges
    if not symmetric:
        raise ValueError("stationarity at pi/2 needs an undirected graph (A = A^T)")
    result = run_walk(graph_or_spec, HALF_PI, series, initial, grid)
    deviation = float(np.max(np.abs(result.probabilities - result.probabilities[0])))
    return PropertyReport(
        "stationary", _label(graph_or_spec), deviation, TOL_STATIONARY
    )


def check_bidirected_edge_cancellation(
    first,
    second,
    series: CouplingSeries,
    initial=0,
    grid: TimeGrid = DEFAULT_TIME_GRID,
) -> PropertyReport:
    """Graphs differing only by bidirected edge pairs walk identically at pi/2."""
    g1 = _graph_of(first)
    g2 = _graph_of(second)
    if g1.n != g2.n:
        raise ValueError(f"graphs must share a node count, got {g1.n} and {g2.n}")
    differ = sorted(g1.one_way_edges ^ g2.one_way_edges)
    if differ:
        raise ValueError(f"edge {differ[0]} is one-way in only one graph: not a bidirected pair")
    p1 = run_walk(first, HALF_PI, series, initial, grid).probabilities
    p2 = run_walk(second, HALF_PI, series, initial, grid).probabilities
    deviation = float(np.max(np.abs(p1 - p2)))
    label = f"{_label(first)}|{_label(second)}"
    return PropertyReport("cancellation", label, deviation, TOL_CANCELLATION)


_DRAW_TRIES = 10000
# Uniforms held at once by the bipartite sampler (512 KiB of doubles); the
# block of attempts is capped to it, so a draw that fails every try stays small.
_BLOCK_DOUBLES = 2**16


def _connected_biadjacency(linked: np.ndarray) -> bool:
    """Whether a (p, q) biadjacency with no isolated node is connected.

    Every side-two node has a side-one neighbour, so reaching all of side
    one from its node 0 reaches everything.
    """
    reach = np.zeros(linked.shape[0], dtype=bool)
    reach[0] = True
    while True:
        grown = linked[:, linked[reach].any(axis=0)].any(axis=1)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


def random_bipartite_graph(rng: np.random.Generator, max_nodes: int = 16) -> DirectedGraph:
    """Weakly-connected random bipartite digraph on 2..max_nodes nodes.

    Partition sizes are uniform over 1 <= p <= n-1 (side one is nodes 0..p-1)
    and each cross edge appears in each direction with probability 1/2;
    disconnected draws are rejected and redrawn, and ValueError is raised
    after 10000 of them.

    Each attempt reads 2 p (n-p) uniforms in the order (i over side one,
    j over side two, i -> j before j -> i), the C order of a (p, n-p, 2)
    block, so attempts are drawn a block at a time.  On acceptance the
    generator is rewound to the block's start and advanced by exactly the
    attempts used: the graph and the generator state after the call are
    those of drawing one uniform per cell in that order.
    """
    max_nodes = _whole_number(max_nodes, "max_nodes")
    if max_nodes < 2:
        raise ValueError("need max_nodes >= 2")
    n = int(rng.integers(2, max_nodes + 1))
    p = int(rng.integers(1, n))
    q = n - p
    per_try = 2 * p * q
    tried, block = 0, 1
    while tried < _DRAW_TRIES:
        block = min(block, _DRAW_TRIES - tried, max(1, _BLOCK_DOUBLES // per_try))
        block_start = rng.bit_generator.state
        coins = rng.random((block, p, q, 2)) < 0.5
        linked = coins[..., 0] | coins[..., 1]
        # an attempt with an isolated node is out before any connectivity search
        whole = linked.any(axis=2).all(axis=1) & linked.any(axis=1).all(axis=1)
        for a in np.flatnonzero(whole):
            if _connected_biadjacency(linked[a]):
                if a + 1 < block:
                    rng.bit_generator.state = block_start
                    rng.random((a + 1) * per_try)
                i, j = np.nonzero(coins[a, ..., 0])
                edges = set(zip(i.tolist(), (j + p).tolist()))
                i, j = np.nonzero(coins[a, ..., 1])
                edges.update(zip((j + p).tolist(), i.tolist()))
                return DirectedGraph(n, frozenset(edges))
        tried += block
        block *= 2
    raise ValueError("failed to draw a connected bipartite graph")


def random_directed_graph(rng: np.random.Generator, max_nodes: int = 10) -> DirectedGraph:
    """Random digraph on 2..max_nodes nodes; each ordered pair has probability 1/2.

    The n (n-1) uniforms are read row by row, skipping the diagonal.
    """
    max_nodes = _whole_number(max_nodes, "max_nodes")
    if max_nodes < 2:
        raise ValueError("need max_nodes >= 2")
    n = int(rng.integers(2, max_nodes + 1))
    present = np.zeros((n, n), dtype=bool)
    present[~np.eye(n, dtype=bool)] = rng.random(n * (n - 1)) < 0.5
    i, j = np.nonzero(present)
    return DirectedGraph(n, frozenset(zip(i.tolist(), j.tolist())))


def random_polynomial_series(rng: np.random.Generator, max_degree: int = 5) -> CouplingSeries:
    """Random explicit polynomial of degree <= max_degree, coefficients in [-1, 1]."""
    max_degree = _whole_number(max_degree, "max_degree")
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    degree = int(rng.integers(0, max_degree + 1))
    return CouplingSeries.polynomial(rng.uniform(-1.0, 1.0, size=degree + 1))
