"""The simplified relaxed real model on a graph.

For a signal x (N vectors in R^d) and per-edge scalars ell, every edge
(n, m) carries the (d+2) x (d+2) symmetric block

    Q = [ I_d   x_n   x_m ]
        [ x_n^T  1    ell ]
        [ x_m^T ell    1  ]

which is PSD with rank d exactly when x_n, x_m are unit vectors and
ell = <x_n, x_m>.  The solver works with the shifted blocks Q - I, which
apply_Q builds; `constraint_blocks` in `tests/verify.py` returns Q itself.
"""

import numpy as np

from relaxtik.graph import Graph, Weights

__all__ = [
    "apply_Q",
    "adjoint_Q",
    "objective_K",
    "objective_tikhonov",
    "mean_sphere_distance",
]

SUPPORTED_DIMS = (2, 3, 4)


def _check_signal(x, g: Graph, name="signal"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.n_vertices:
        raise ValueError(f"{name} must have shape (N, d)")
    if x.shape[1] not in SUPPORTED_DIMS:
        raise ValueError(f"{name} dimension must be one of {SUPPORTED_DIMS}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _check_ell(ell, g: Graph):
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (g.m_edges,):
        raise ValueError("ell must have one entry per edge")
    if not np.isfinite(ell).all():
        raise ValueError("ell must be finite")
    return ell


def apply_Q(x, ell, g: Graph, add_to=None) -> np.ndarray:
    """Shifted block field (Q_(n,m) - I) for all edges.

    With `add_to`, an (M, d+2, d+2) array of any strides, the field is
    added to it in place and `add_to` is returned; the ADMM loop builds
    z + Q - I this way in its (d+2, d+2, M) dual, whose entries (i, j) are
    rows.  Runs once per ADMM iteration and does not check its input: x
    must be (N, d) and ell (M,).  `constraint_blocks` in `tests/verify.py`
    is the checked form, and `admm_solve` checks the signal once at entry.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    q = np.zeros((g.m_edges, d + 2, d + 2)) if add_to is None else add_to
    first, second = g.first, g.second
    # Q - I is zero on the diagonal, so only these entries change.  One
    # component at a time keeps every update a long 1-D loop over edges.
    for i, xi in enumerate(x.T):
        xn, xm = xi[first], xi[second]
        q[:, i, d] += xn
        q[:, d, i] += xn
        q[:, i, d + 1] += xm
        q[:, d + 1, i] += xm
    q[:, d, d + 1] += ell
    q[:, d + 1, d] += ell
    return q


def adjoint_Q(u, g: Graph):
    """Adjoint of the shifted-block operator, split by component space.

    Returns (x_part, ell_part) where for vertex n and component i

        x_part[n, i] = sum over edges with n first  of U[i, d] + U[d, i]
                     + sum over edges with n second of U[i, d+1] + U[d+1, i]

    and ell_part[e] = U[d, d+1] + U[d+1, d].  (0-based entries; the -I shift
    contributes nothing because it vanishes on these positions.)
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or u.shape != (g.m_edges, u.shape[-1], u.shape[-1]):
        raise ValueError("block field must be (M, d+2, d+2)")
    d = u.shape[-1] - 2
    # Per component, one bincount over the first-slot terms followed by the
    # second-slot terms: each vertex sums its terms in edge order.
    terms, x_part = np.empty((2, len(u))), np.empty((g.n_vertices, d))
    for i in range(d):
        np.add(u[:, i, d], u[:, d, i], out=terms[0])
        np.add(u[:, i, d + 1], u[:, d + 1, i], out=terms[1])
        x_part[:, i] = np.bincount(g.slots, weights=terms.ravel(), minlength=g.n_vertices)
    return x_part, u[:, d, d + 1] + u[:, d + 1, d]


def objective_K(x, ell, y, wt: Weights, g: Graph) -> float:
    """Linear surrogate objective: -sum w_n <x_n, y_n> - sum lambda ell."""
    x = _check_signal(x, g)
    y = _check_signal(y, g, "y")
    ell = _check_ell(ell, g)
    wt.check_graph(g)
    if y.shape != x.shape:
        raise ValueError("x and y must have the same shape")
    return _objective_K(x, ell, y, wt)


def _objective_K(x, ell, y, wt: Weights) -> float:
    """objective_K without the input checks, for float arrays of matching
    shapes; the traced ADMM loop calls it once per iteration."""
    return float(
        -np.sum(wt.vertex_weights * np.einsum("nd,nd->n", x, y))
        - np.sum(wt.edge_weights * ell)
    )


def objective_tikhonov(x, y, wt: Weights, g: Graph) -> float:
    """Original nonconvex objective: squared data fit plus squared edge differences."""
    x = _check_signal(x, g)
    y = _check_signal(y, g, "y")
    wt.check_graph(g)
    if y.shape != x.shape:
        raise ValueError("x and y must have the same shape")
    fit = 0.5 * np.sum(wt.vertex_weights * np.sum((x - y) ** 2, axis=1))
    diff = x[g.first] - x[g.second]
    reg = 0.5 * np.sum(wt.edge_weights * np.sum(diff**2, axis=1))
    return float(fit + reg)


def mean_sphere_distance(x) -> float:
    """Mean of 1 - ||x_n|| over the rows: zero when every row is unit, and
    negative when the rows are longer than unit on average."""
    return float(np.mean(1.0 - np.linalg.norm(np.asarray(x, dtype=float), axis=-1)))
