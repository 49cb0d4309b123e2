"""The simplified relaxed real model on a graph.

For a signal x (N vectors in R^d) and per-edge scalars ell, every edge
(n, m) carries the (d+2) x (d+2) symmetric block

    Q = [ I_d   x_n   x_m ]
        [ x_n^T  1    ell ]
        [ x_m^T ell    1  ]

which is PSD with rank d exactly when x_n, x_m are unit vectors and
ell = <x_n, x_m>.  The solver works with the shifted blocks Q - I, which
apply_Q builds; constraint_blocks returns the unshifted Q.
"""

import itertools

import numpy as np

from relaxtik.graph import Graph, Weights

__all__ = [
    "CapacityError",
    "build_constraint_block",
    "constraint_blocks",
    "lemma_feasibility_check",
    "apply_Q",
    "adjoint_Q",
    "objective_K",
    "objective_tikhonov",
    "brute_force_min",
]

SUPPORTED_DIMS = (2, 3, 4)


class CapacityError(ValueError):
    """Brute-force instance exceeds the enumeration budget."""


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


def build_constraint_block(x_n, x_m, ell: float) -> np.ndarray:
    """Per-edge constraint block Q for one vertex pair."""
    x_n = np.asarray(x_n, dtype=float)
    x_m = np.asarray(x_m, dtype=float)
    d = x_n.shape[0]
    if x_m.shape != (d,) or d not in SUPPORTED_DIMS:
        raise ValueError("x_n and x_m must be vectors of equal dimension in {2,3,4}")
    q = np.eye(d + 2)
    q[:d, d] = x_n
    q[d, :d] = x_n
    q[:d, d + 1] = x_m
    q[d + 1, :d] = x_m
    q[d, d + 1] = ell
    q[d + 1, d] = ell
    return q


def constraint_blocks(x, ell, g: Graph) -> np.ndarray:
    """All unshifted blocks Q_(n,m) as an (M, d+2, d+2) batch."""
    x = _check_signal(x, g)
    ell = _check_ell(ell, g)
    q = apply_Q(x, ell, g)
    k = q.shape[-1]
    q[:, np.arange(k), np.arange(k)] = 1.0
    return q


def lemma_feasibility_check(x_n, x_m, ell: float, tol: float = 1e-8) -> bool:
    """PSD plus numerical-rank-d test of the constraint block.

    Holds exactly when both vectors are unit and ell = <x_n, x_m>.  The rank
    decision uses the scale-invariant threshold tol * (largest eigenvalue):
    the block must have exactly two eigenvalues below it.
    """
    w = np.linalg.eigvalsh(build_constraint_block(x_n, x_m, ell))
    thresh = tol * max(w[-1], 1.0)
    if w[0] < -thresh:
        return False
    return int(np.count_nonzero(w < thresh)) == 2


def apply_Q(x, ell, g: Graph) -> np.ndarray:
    """Shifted block field (Q_(n,m) - I) for all edges.

    Runs once per ADMM iteration and does not check its input: x must be an
    (N, d) array and ell an (M,) array.  `constraint_blocks` is the checked
    form, and `admm_solve` checks the signal once at entry.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    q = np.zeros((g.m_edges, d + 2, d + 2))
    xn = x[g.first]
    xm = x[g.second]
    q[:, :d, d] = xn
    q[:, d, :d] = xn
    q[:, :d, d + 1] = xm
    q[:, d + 1, :d] = xm
    q[:, d, d + 1] = ell
    q[:, d + 1, d] = ell
    return q


def _check_blocks(u, g: Graph, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (g.m_edges, d + 2, d + 2):
        raise ValueError("block field has inconsistent shape")
    return u


def adjoint_Q(u, g: Graph, d=None):
    """Adjoint of the shifted-block operator, split by component space.

    Returns (x_part, ell_part) where for vertex n and component i

        x_part[n, i] = sum over edges with n first  of U[i, d] + U[d, i]
                     + sum over edges with n second of U[i, d+1] + U[d+1, i]

    and ell_part[e] = U[d, d+1] + U[d+1, d].  (0-based entries; the -I shift
    contributes nothing because it vanishes on these positions.)
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3:
        raise ValueError("block field must be (M, d+2, d+2)")
    if d is None:
        d = u.shape[-1] - 2
    u = _check_blocks(u, g, d)
    x_part = np.zeros((g.n_vertices, d))
    np.add.at(x_part, g.first, u[:, :d, d] + u[:, d, :d])
    np.add.at(x_part, g.second, u[:, :d, d + 1] + u[:, d + 1, :d])
    ell_part = u[:, d, d + 1] + u[:, d + 1, d]
    return x_part, ell_part


def objective_K(x, ell, y, wt: Weights, g: Graph) -> float:
    """Linear surrogate objective: -sum w_n <x_n, y_n> - sum lambda ell."""
    x = _check_signal(x, g)
    y = _check_signal(y, g, "y")
    ell = _check_ell(ell, g)
    wt.check_graph(g)
    if y.shape != x.shape:
        raise ValueError("x and y must have the same shape")
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


_MAX_GRID_POINTS = 1_000_000_000


def brute_force_min(y, wt: Weights, g: Graph, angular_step: float):
    """Exhaustive grid search of the nonconvex circle problem (d = 2, N <= 4).

    angular_step is the grid spacing in degrees.  Independent oracle for
    tightness checks; decomposes the objective into per-vertex costs and
    per-edge costs that depend only on angle differences, so the enumeration
    runs in vectorized (K, K) slabs over the last two vertices.
    """
    y = _check_signal(y, g, "y")
    wt.check_graph(g)
    n = g.n_vertices
    if y.shape[1] != 2:
        raise ValueError("brute force oracle supports d = 2 only")
    if n > 4:
        raise CapacityError("brute force oracle supports N <= 4")
    if not (0.0 < angular_step <= 1.0):
        raise ValueError("angular_step must be in (0, 1] degrees")
    kgrid = int(round(360.0 / angular_step))
    if float(kgrid) ** n > _MAX_GRID_POINTS:
        raise CapacityError("instance too large for exhaustive enumeration")
    theta = 2.0 * np.pi * np.arange(kgrid) / kgrid
    pts = np.column_stack([np.cos(theta), np.sin(theta)])  # (K, 2)
    w = wt.vertex_weights
    lam = wt.edge_weights
    # Per-vertex data costs on the grid.
    vcost = [0.5 * w[i] * np.sum((pts - y[i]) ** 2, axis=1) for i in range(n)]
    # Edge cost depends only on the angle-index difference:
    # lambda * (1 - cos(theta_i - theta_j)).
    diffcost = 1.0 - np.cos(theta)
    first = g.first
    second = g.second

    if n == 1:
        j = int(np.argmin(vcost[0]))
        return pts[[j]], float(vcost[0][j])

    # Last two vertices are vectorized; any remaining ones are enumerated.
    a, b = n - 2, n - 1
    ii = np.arange(kgrid)
    base = vcost[a][:, None] + vcost[b][None, :]
    for e, (fi, se) in enumerate(zip(first, second)):
        if {fi, se} == {a, b}:
            base = base + lam[e] * diffcost[(ii[:, None] - ii[None, :]) % kgrid]

    best_val = np.inf
    best_idx = None
    for outer in itertools.product(range(kgrid), repeat=n - 2):
        cost = base
        extra = 0.0
        for e, (fi, se) in enumerate(zip(first, second)):
            if fi < a and se < a:
                extra += lam[e] * diffcost[(outer[fi] - outer[se]) % kgrid]
            elif fi < a:
                col = lam[e] * diffcost[(outer[fi] - ii) % kgrid]
                cost = cost + (col[:, None] if se == a else col[None, :])
            elif se < a:
                col = lam[e] * diffcost[(ii - outer[se]) % kgrid]
                cost = cost + (col[:, None] if fi == a else col[None, :])
        for v in range(n - 2):
            extra += vcost[v][outer[v]]
        flat = int(np.argmin(cost))
        val = float(cost.flat[flat]) + float(extra)
        if val < best_val:
            best_val = val
            best_idx = outer + (flat // kgrid, flat % kgrid)
    x = pts[list(best_idx)]
    # Recompute exactly to avoid accumulation differences in the decomposition.
    return x, objective_tikhonov(x, y, wt, g)
