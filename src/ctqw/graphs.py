"""Directed graphs, circulant first-row specs, and their structure helpers.

Nodes are integers 0..n-1.  Graphs are simple (no self-loops, no parallel
edges); an undirected edge is represented by the pair of directed edges
(i, j) and (j, i).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph given by node count and edge set."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) not allowed")
        object.__setattr__(self, "edges", edges)

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix A with A[i, j] = 1 iff (i, j) is an edge."""
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
        return a

    @property
    def is_symmetric(self) -> bool:
        """True when every edge has its reverse (A = A^T)."""
        return all((j, i) in self.edges for i, j in self.edges)


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
        raw = tuple(self.coefficients)
        if any(isinstance(c, (bool, np.bool_, str)) for c in raw):
            raise ValueError(f"circulant coefficients must be real numbers, got {raw!r}")
        coeffs = tuple(float(c) for c in raw)
        if len(coeffs) < 1:
            raise ValueError("circulant spec needs at least one coefficient")
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("circulant coefficients must be finite")
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

    def to_graph(self) -> DirectedGraph:
        """Interpret the spec as a directed graph adjacency matrix."""
        c = self.coefficients
        if c[0] != 0.0:
            raise ValueError("adjacency circulant must have c_0 = 0 (no self-loops)")
        if any(v not in (0.0, 1.0) for v in c):
            raise ValueError("adjacency circulant coefficients must be 0 or 1")
        edges = {
            (i, (i + k) % self.n)
            for k in range(1, self.n)
            if c[k] == 1.0
            for i in range(self.n)
        }
        return DirectedGraph(self.n, frozenset(edges))


def build_star(n_peripheral: int, directed: bool = True) -> DirectedGraph:
    """Star graph: hub node 0 linked to peripheral nodes 1..n_peripheral.

    Directed stars point every edge outward from the hub.
    """
    if n_peripheral < 1:
        raise ValueError("star needs at least one peripheral node")
    edges = {(0, i) for i in range(1, n_peripheral + 1)}
    if not directed:
        edges |= {(i, 0) for i in range(1, n_peripheral + 1)}
    return DirectedGraph(n_peripheral + 1, frozenset(edges))


def ring_spec(n: int, directed: bool = True) -> CirculantSpec:
    """Circulant spec of the ring graph: edges i -> i+1 (plus i+1 -> i if undirected)."""
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


def weakly_connected_components(g: DirectedGraph) -> list[list[int]]:
    """Connected components of the underlying undirected graph, each sorted."""
    neighbors: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(comp))
    return components


def bipartition(g: DirectedGraph) -> Bipartition | None:
    """Two-color the underlying undirected graph, or None if not bipartite.

    The lowest-indexed node of every weakly-connected component lands in the
    even partition (so node 0 is always even).
    """
    neighbors: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    color = [-1] * g.n
    for comp in weakly_connected_components(g):
        root = comp[0]
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in neighbors[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    even = tuple(i for i in range(g.n) if color[i] == 0)
    odd = tuple(i for i in range(g.n) if color[i] == 1)
    return Bipartition(even, odd)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph as an ``n <count>`` header plus one ``i j`` line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in sorted(g.edges):
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> DirectedGraph:
    """Read the format written by :func:`write_edge_list`.

    Blank lines and lines starting with ``#`` are skipped.  Duplicate edges
    are rejected.
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
    n = int(head[1])
    edges: set[Edge] = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {line!r}")
        e = (int(parts[0]), int(parts[1]))
        if e in edges:
            raise ValueError(f"{path}: duplicate edge {e}")
        edges.add(e)
    return DirectedGraph(n, frozenset(edges))
