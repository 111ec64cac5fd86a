"""Directed graphs, circulant first-row specs, and their structure helpers.

Nodes are integers 0..n-1.  Graphs are simple (no self-loops, no parallel
edges); an undirected edge is represented by the pair of directed edges
(i, j) and (j, i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .operators import _ascii_spelling, _real_number, _whole_number

Edge = tuple[int, int]


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph given by node count and edge set, both of whole numbers."""

    n: int
    edges: frozenset[Edge]
    # (2, E) tail and head indices, scattered into A_H by ``operators.hermitian_adjacency``
    _ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _whole_number(self.n, "node count")
        if n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        # any iterable of pairs, such as a list of lists or an (E, 2) array, becomes a set of tuples
        edges = self.edges if isinstance(self.edges, frozenset) else frozenset(map(tuple, self.edges))
        if set(map(len, edges)) - {2}:
            raise ValueError("edges must be (i, j) pairs")
        flat = list(chain.from_iterable(edges))
        # one scan by type: an edge set of Python or NumPy ints needs no call per endpoint
        types = set(map(type, flat))
        if not all(t is int or issubclass(t, np.integer) for t in types):
            flat = [_whole_number(v, "edge endpoint") for v in flat]
        # n is index-sized (``_whole_number``), so endpoints below it fit intp
        if flat and not (0 <= min(flat) and max(flat) < n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}, got {min(flat)}..{max(flat)}")
        pairs = np.array(flat, dtype=np.intp).reshape(-1, 2)
        if types - {int}:  # every endpoint is stored back as a Python int
            edges = frozenset(map(tuple, pairs.tolist()))
        ends = pairs.T
        if (ends[0] == ends[1]).any():
            raise ValueError(f"self-loop on node {ends[0][ends[0] == ends[1]][0]} not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_ends", ends)

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix A with A[i, j] = 1 iff (i, j) is an edge."""
        a = np.zeros((self.n, self.n))
        a[self._ends[0], self._ends[1]] = 1.0
        return a

    @cached_property
    def one_way_edges(self) -> frozenset[Edge]:
        """Edges without their reverse: the support of A - A^T, empty iff A = A^T."""
        return frozenset((i, j) for i, j in self.edges if (j, i) not in self.edges)


@dataclass(frozen=True)
class CirculantSpec:
    """First-row coefficients (c_0, ..., c_{n-1}) of a circulant matrix.

    The circulant matrix is M[i, j] = c[(j - i) mod n].  Adjacency use needs
    0/1 coefficients with c_0 = 0; that is enforced by :meth:`to_graph`, not
    here, because Hamiltonian first rows are also circulant and may carry
    arbitrary real values.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_real_number(c, "circulant coefficient") for c in self.coefficients)
        if not coeffs:
            raise ValueError("circulant spec needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def matrix(self) -> np.ndarray:
        """Dense circulant matrix with this first row."""
        c = np.asarray(self.coefficients)
        idx = (np.arange(self.n)[None, :] - np.arange(self.n)[:, None]) % self.n
        return c[idx]

    @property
    def is_reversal_symmetric(self) -> bool:
        """True when c_k = c_{n-k} for all k, i.e. the matrix is symmetric."""
        c = self.coefficients
        return all(c[k] == c[(self.n - k) % self.n] for k in range(self.n))

    def support_graph(self) -> DirectedGraph:
        """The graph with an edge i -> i + k for every nonzero c_k, k >= 1; needs c_0 = 0."""
        c, n = self.coefficients, self.n
        if c[0] != 0.0:
            raise ValueError("adjacency circulant must have c_0 = 0 (no self-loops)")
        edges = {(i, (i + k) % n) for k in range(1, n) if c[k] for i in range(n)}
        return DirectedGraph(n, frozenset(edges))

    def to_graph(self) -> DirectedGraph:
        """Interpret the spec as a directed graph adjacency matrix."""
        if any(v not in (0.0, 1.0) for v in self.coefficients):
            raise ValueError("adjacency circulant coefficients must be 0 or 1")
        return self.support_graph()


def build_star(n_peripheral: int, directed: bool = True) -> DirectedGraph:
    """Star graph: hub node 0 linked to peripheral nodes 1..n_peripheral.

    Directed stars point every edge outward from the hub.
    """
    n_peripheral = _whole_number(n_peripheral, "star size")
    if n_peripheral < 1:
        raise ValueError("star needs at least one peripheral node")
    edges = {(0, i) for i in range(1, n_peripheral + 1)}
    if not directed:
        edges |= {(i, 0) for i in range(1, n_peripheral + 1)}
    return DirectedGraph(n_peripheral + 1, frozenset(edges))


def ring_spec(n: int, directed: bool = True) -> CirculantSpec:
    """Circulant spec of the ring graph: edges i -> i+1 (plus i+1 -> i if undirected)."""
    n = _whole_number(n, "ring size")
    if n < 3:
        raise ValueError("ring needs at least 3 nodes")
    c = [0.0] * n
    c[1] = 1.0
    if not directed:
        c[n - 1] = 1.0
    return CirculantSpec(tuple(c))


def build_ring(n: int, directed: bool = True) -> DirectedGraph:
    """Ring graph on n >= 3 nodes; see :func:`ring_spec`."""
    return ring_spec(n, directed).to_graph()


def moebius_spec(n: int, outer_directed: bool = True) -> CirculantSpec:
    """Circulant spec of the Moebius ladder: ring plus diameter rungs i <-> i+n/2.

    Rungs are emitted for every node, so each rung pair is present in both
    directions regardless of ``outer_directed``.  Bipartite iff n/2 is odd.
    """
    n = _whole_number(n, "Moebius ladder size")
    if n < 6 or n % 2 != 0:
        raise ValueError("Moebius ladder needs an even node count >= 6")
    c = [0.0] * n
    c[1] = 1.0
    c[n // 2] = 1.0
    if not outer_directed:
        c[n - 1] = 1.0
    return CirculantSpec(tuple(c))


def build_moebius_ladder(n: int, outer_directed: bool = True) -> DirectedGraph:
    """Moebius ladder graph on even n >= 6 nodes; see :func:`moebius_spec`."""
    return moebius_spec(n, outer_directed).to_graph()


@dataclass(eq=False, frozen=True)
class Bipartition:
    """Two-coloring of a graph: every edge joins ``even`` and ``odd``."""

    even: tuple[int, ...]
    odd: tuple[int, ...]


def _sides(g: DirectedGraph) -> tuple[list[int], list[int], bool]:
    """One search of the underlying undirected graph: each node's component root (its
    lowest node) and side (0 at the root, flipped at every step), and whether every edge
    joins the two sides, i.e. whether the graph is bipartite."""
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    root = [-1] * g.n
    side = [0] * g.n
    # filtered lazily: nodes an earlier search reached are skipped, so roots are component minima
    for r in (v for v in range(g.n) if root[v] == -1):
        root[r] = r
        stack = [r]
        while stack:
            v = stack.pop()
            for w in neighbors[v]:
                if root[w] == -1:
                    root[w] = r
                    side[w] = 1 - side[v]
                    stack.append(w)
    return root, side, all(side[i] != side[j] for i, j in g.edges)


def weakly_connected_components(g: DirectedGraph) -> list[list[int]]:
    """Connected components of the underlying undirected graph, each sorted, by lowest node."""
    components: dict[int, list[int]] = {}
    for v, r in enumerate(_sides(g)[0]):
        components.setdefault(r, []).append(v)
    return list(components.values())


def bipartition(g: DirectedGraph) -> Bipartition | None:
    """Two-color the underlying undirected graph, or None if not bipartite.

    The lowest-indexed node of every weakly-connected component lands in the
    even partition (so node 0 is always even).
    """
    _, side, bipartite = _sides(g)
    if not bipartite:
        return None
    return Bipartition(*(tuple(i for i, s in enumerate(side) if s == k) for k in (0, 1)))


def one_sided(g: DirectedGraph, support) -> bool:
    """Whether g is bipartite with the nodes ``support`` on one side of each component."""
    root, side, bipartite = _sides(g)
    first: dict[int, int] = {}  # each component's side, set by its first node in the support
    return bipartite and all(first.setdefault(root[i], side[i]) == side[i] for i in support)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph as an ``n <count>`` header plus one ``i j`` line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in sorted(g.edges):
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> DirectedGraph:
    """Read the format written by :func:`write_edge_list`.

    Blank lines and lines starting with ``#`` are skipped.  Duplicate edges,
    and integers spelled with ``_`` or non-ASCII digits, are rejected.
    """
    lines = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"{path}: expected 'n <count>' header, got {lines[0]!r}")
    n = int(_ascii_spelling(head[1], f"{path}: node count"))
    edges: set[Edge] = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {line!r}")
        e = tuple(int(_ascii_spelling(part, f"{path}: node")) for part in parts)
        if e in edges:
            raise ValueError(f"{path}: duplicate edge {e}")
        edges.add(e)
    return DirectedGraph(n, frozenset(edges))
