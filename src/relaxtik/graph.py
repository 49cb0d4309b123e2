"""Connected undirected graphs with ordered edges and positive weights.

Vertices are numbered 1..N in the public interface.  Every edge is stored as
an ordered pair (n, m) with n < m, which fixes an unambiguous "first slot /
second slot" convention used by the adjoint bookkeeping of the solver.
Graphs are immutable after construction.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "Weights",
    "line_graph",
    "grid_graph",
    "degree_table",
    "from_edge_pairs",
]


def _as_edge_array(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be a sequence of (n, m) pairs")
    return e


def _is_connected(n_vertices: int, a: np.ndarray, b: np.ndarray) -> bool:
    """Union-find in numpy over the 0-based edges (a, b).  Each round hooks
    every root under the smallest root it shares an edge with, then every
    vertex jumps to its root, until every edge joins two vertices of one
    root.  Parents only ever point to smaller vertices, so vertex 0 is the
    root of its component, and the graph is connected when it is everyone's."""
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
    `first` and `second` are its read-only 0-based endpoints, `slots` both.
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
        first, second = e[:, 0] - 1, e[:, 1] - 1
        if not _is_connected(n, first, second):
            raise ValueError("graph must be connected")
        object.__setattr__(self, "n_vertices", n)
        for name, a in (("edges", e), ("first", first), ("second", second),
                        ("slots", np.concatenate([first, second]))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def m_edges(self) -> int:
        return self.edges.shape[0]


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
    """Path graph 1-2-...-n: the n x 1 grid."""
    if n < 2:
        raise ValueError("line graph needs at least 2 vertices")
    return grid_graph(n, 1)


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
    return np.bincount(g.slots, minlength=g.n_vertices)


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
