"""Test-only constructors shared by more than one test module."""

import numpy as np

from relaxtik.graph import Graph
from relaxtik.manifold import _check_unit


def axis_angle_to_quat(axis, alpha: float) -> np.ndarray:
    """cos(a/2) + sin(a/2) (i v1 + j v2 + k v3); real part >= 0 for |a| <= pi."""
    v = _check_unit(axis, "axis")
    if v.shape != (3,):
        raise ValueError("axis must be in R^3")
    h = 0.5 * alpha
    return np.concatenate([[np.cos(h)], np.sin(h) * v])


def write_edge_list(path, g: Graph, edge_weights=None):
    """The `n m [lambda]` rows that `fileio.read_edge_list` reads."""
    with open(path, "w") as fh:
        if edge_weights is None:
            for n, m in g.edges:
                fh.write(f"{n} {m}\n")
        else:
            lam = np.asarray(edge_weights, dtype=float)
            for (n, m), l in zip(g.edges, lam):
                fh.write(f"{n} {m} {l:.17g}\n")
