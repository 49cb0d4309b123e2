"""Connected undirected graphs with ordered edges and positive weights.

Vertices are numbered 1..N in the public interface.  Every edge is stored as
an ordered pair (n, m) with n < m, which fixes an unambiguous "first slot /
second slot" convention used by the adjoint bookkeeping of the solver.
Graphs are immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "Weights",
    "line_graph",
    "grid_graph",
    "degree_table",
    "from_edge_pairs",
    "read_edge_list",
    "write_edge_list",
    "read_vector",
]


def _as_edge_array(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be a sequence of (n, m) pairs")
    return e


def _is_connected(n_vertices: int, edges: np.ndarray) -> bool:
    """Union-find in numpy.  Each round hooks every root under the smallest
    root it shares an edge with, then every vertex jumps to its root; the
    rounds stop once every edge joins two vertices of the same root.
    Parents only ever point to smaller vertices, so vertex 0 is the root of
    its component, and the graph is connected when it is everyone's."""
    a, b = edges[:, 0] - 1, edges[:, 1] - 1
    root = np.arange(n_vertices)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return not root.any()
        ra, rb = ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph with ordered, duplicate-free edges.

    `edges` holds 1-based vertex pairs (n, m) with n < m, one row per edge.
    """

    n_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        e = _as_edge_array(self.edges)
        if e.size:
            if e.min() < 1 or e.max() > n:
                raise ValueError("edge endpoints must lie in 1..N")
            if not (e[:, 0] < e[:, 1]).all():
                raise ValueError("edges must satisfy n < m")
            packed = np.sort(e[:, 0] * (n + 1) + e[:, 1])
            if (packed[1:] == packed[:-1]).any():
                raise ValueError("duplicate edges are not allowed")
        if not _is_connected(n, e):
            raise ValueError("graph must be connected")
        e.setflags(write=False)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", e)

    @property
    def m_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def first(self) -> np.ndarray:
        """0-based indices of the first (smaller) endpoint of every edge."""
        return self.edges[:, 0] - 1

    @property
    def second(self) -> np.ndarray:
        """0-based indices of the second (larger) endpoint of every edge."""
        return self.edges[:, 1] - 1


def from_edge_pairs(n_vertices: int, pairs) -> Graph:
    """Build a graph from arbitrary (possibly unordered) vertex pairs.

    Input pairs are normalized to n < m; the undirected structure is all
    that matters for the denoising models.
    """
    e = _as_edge_array(pairs)
    if e.size and (e[:, 0] == e[:, 1]).any():
        raise ValueError("self loops are not allowed")
    e = np.sort(e, axis=1)
    return Graph(n_vertices, e)


def line_graph(n: int) -> Graph:
    """Path graph 1-2-...-n."""
    if n < 2:
        raise ValueError("line graph needs at least 2 vertices")
    k = np.arange(1, n, dtype=np.int64)
    return Graph(n, np.column_stack([k, k + 1]))


def grid_graph(height: int, width: int) -> Graph:
    """2-D grid with 4-neighbour connectivity and row-major numbering.

    Horizontal edges are enumerated before vertical ones so the edge order
    (and hence all per-edge file formats) is deterministic.
    """
    if height < 1 or width < 1 or height * width < 2:
        raise ValueError("grid must contain at least 2 vertices")
    idx = np.arange(height * width, dtype=np.int64).reshape(height, width) + 1
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return Graph(height * width, np.vstack([horiz, vert]))


def degree_table(g: Graph) -> np.ndarray:
    """Number of edges starting or ending in each vertex (nu_n)."""
    n = g.n_vertices
    return np.bincount(g.first, minlength=n) + np.bincount(g.second, minlength=n)


@dataclass(frozen=True)
class Weights:
    """Per-vertex weights w_n and per-edge weights lambda_(n,m)."""

    vertex_weights: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.vertex_weights, dtype=float)
        lam = np.asarray(self.edge_weights, dtype=float)
        if w.ndim != 1 or lam.ndim != 1:
            raise ValueError("weights must be 1-D")
        if not (np.isfinite(w).all() and np.isfinite(lam).all()):
            raise ValueError("weights must be finite")
        if (w <= 0).any() or (lam <= 0).any():
            raise ValueError("weights must be strictly positive")
        w.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "vertex_weights", w)
        object.__setattr__(self, "edge_weights", lam)

    @classmethod
    def constant(cls, g: Graph, w: float = 1.0, lam: float = 1.0) -> "Weights":
        return cls(np.full(g.n_vertices, float(w)), np.full(g.m_edges, float(lam)))

    def check_graph(self, g: Graph):
        if self.vertex_weights.shape[0] != g.n_vertices:
            raise ValueError("vertex weight length does not match graph")
        if self.edge_weights.shape[0] != g.m_edges:
            raise ValueError("edge weight length does not match graph")


def read_edge_list(path, n_vertices=None):
    """Read a graph from a text file with one `n m [lambda]` row per line.

    Vertex ids are 1-based.  Returns (graph, edge_weights) where the weights
    are None when the file has no third column.
    """
    rows = []
    lams = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"bad edge-list row: {line!r}")
            rows.append((int(parts[0]), int(parts[1])))
            if len(parts) == 3:
                lams.append(float(parts[2]))
    if lams and len(lams) != len(rows):
        raise ValueError("edge weights must be given for all edges or none")
    pairs = np.asarray(rows, dtype=np.int64)
    if n_vertices is None:
        n_vertices = int(pairs.max()) if pairs.size else 1
    g = from_edge_pairs(n_vertices, pairs)
    lam = np.asarray(lams, dtype=float) if lams else None
    return g, lam


def write_edge_list(path, g: Graph, edge_weights=None):
    with open(path, "w") as fh:
        if edge_weights is None:
            for n, m in g.edges:
                fh.write(f"{n} {m}\n")
        else:
            lam = np.asarray(edge_weights, dtype=float)
            for (n, m), l in zip(g.edges, lam):
                fh.write(f"{n} {m} {l:.17g}\n")


def read_vector(path) -> np.ndarray:
    """Read a plain text vector (one value per line), e.g. vertex weights."""
    return np.atleast_1d(np.loadtxt(path, dtype=float))
