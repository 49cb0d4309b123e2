"""Test-only code that checks the solver; it is not part of the package.

- The matrix-model solver runs the ADMM skeleton on the non-simplified
  relaxed models, whose per-edge blocks are built from d x d matrix
  representations (6 x 6 blocks for circle data, 12 x 12 for quaternion
  data).  It exists to verify numerically that both models reach the same
  solutions and is meant for small instances only.
- The constraint-block functions and the lemma check test when a block of
  the simplified model is PSD with rank d.
- The brute-force oracle enumerates the nonconvex circle problem on tiny
  graphs, for tightness checks.
"""

import itertools

import numpy as np

from relaxtik.admm import SolverConfig, SolverDivergence, residual
from relaxtik.graph import Graph, Weights, degree_table
from relaxtik.model import (SUPPORTED_DIMS, _check_ell, _check_signal, _objective_K, apply_Q,
                            objective_tikhonov)
from relaxtik.smallsym import project_shifted_psd

__all__ = [
    "CapacityError",
    "build_constraint_block",
    "constraint_blocks",
    "lemma_feasibility_check",
    "brute_force_min",
    "matrix_rep",
    "matrix_rep_basis",
    "apply_P",
    "adjoint_P",
    "matrix_model_objective",
    "solve_matrix_model",
]


class CapacityError(ValueError):
    """Brute-force instance exceeds the enumeration budget."""


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


# --- matrix-model variant -------------------------------------------------
#
# Per edge the block is
#
#     P = [ I_d      M(x_n)   M(x_m) ]
#         [ M(x_n)^T  I_d     M(r)^T ]
#         [ M(x_m)^T  M(r)    I_d    ]
#
# with M the d x d matrix representation of the complex numbers (d = 2) or
# quaternions (d = 4).  The operator is P - I_{3d}; both x_n and r live in
# R^d.  Only the first component of r enters the objective.

_VARIANTS = {"complex_d2": 2, "quaternion_d4": 4}


def matrix_rep(z, d: int) -> np.ndarray:
    """Matrix representation realizing complex (d = 2) or quaternion (d = 4)
    multiplication: M(a) M(b) = M(ab) and ||M(z)||_F^2 = d ||z||^2."""
    z = np.asarray(z, dtype=float)
    if d == 2:
        if z.shape != (2,):
            raise ValueError("expected a 2-vector")
        a, b = z
        return np.array([[a, -b], [b, a]])
    if d == 4:
        if z.shape != (4,):
            raise ValueError("expected a 4-vector")
        w, x, y, k = z
        return np.array(
            [
                [w, -x, -y, -k],
                [x, w, -k, y],
                [y, k, w, -x],
                [k, -y, x, w],
            ]
        )
    raise ValueError("matrix representation exists for d in {2, 4} only")


def matrix_rep_basis(d: int) -> np.ndarray:
    """Basis matrices B_k = M(e_k), so that M(z) = sum_k z_k B_k."""
    eye = np.eye(d)
    return np.stack([matrix_rep(eye[i], d) for i in range(d)])


def _mat_rep(vecs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # (M, d) -> (M, d, d)
    return np.einsum("ek,kij->eij", vecs, basis)


def apply_P(x, r, g: Graph, d: int) -> np.ndarray:
    """Shifted matrix-model block field (P - I) for all edges."""
    basis = matrix_rep_basis(d)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    m = g.m_edges
    p = np.zeros((m, 3 * d, 3 * d))
    mn = _mat_rep(x[g.first], basis)
    mm = _mat_rep(x[g.second], basis)
    mr = _mat_rep(r, basis)
    p[:, :d, d : 2 * d] = mn
    p[:, d : 2 * d, :d] = mn.transpose(0, 2, 1)
    p[:, :d, 2 * d :] = mm
    p[:, 2 * d :, :d] = mm.transpose(0, 2, 1)
    p[:, d : 2 * d, 2 * d :] = mr.transpose(0, 2, 1)
    p[:, 2 * d :, d : 2 * d] = mr
    return p


def adjoint_P(u, g: Graph, d: int):
    """Adjoint of apply_P split into the vertex part and the edge part.

    Uses <M(z), A> = sum_k z_k <B_k, A>, i.e. contraction against the
    representation basis.
    """
    basis = matrix_rep_basis(d)
    u = np.asarray(u, dtype=float)
    if u.shape != (g.m_edges, 3 * d, 3 * d):
        raise ValueError("block field has inconsistent shape")
    slots_first = u[:, :d, d : 2 * d] + u[:, d : 2 * d, :d].transpose(0, 2, 1)
    slots_second = u[:, :d, 2 * d :] + u[:, 2 * d :, :d].transpose(0, 2, 1)
    slots_r = u[:, 2 * d :, d : 2 * d] + u[:, d : 2 * d, 2 * d :].transpose(0, 2, 1)
    cf = np.einsum("eij,kij->ek", slots_first, basis)
    cs = np.einsum("eij,kij->ek", slots_second, basis)
    x_part = np.zeros((g.n_vertices, d))
    np.add.at(x_part, g.first, cf)
    np.add.at(x_part, g.second, cs)
    r_part = np.einsum("eij,kij->ek", slots_r, basis)
    return x_part, r_part


def matrix_model_objective(x, r, y, wt: Weights, g: Graph) -> float:
    """-sum w_n <x_n, y_n> - sum lambda Re[r]; only Re[r] = r[..., 0] enters."""
    return _objective_K(x, r[:, 0], y, wt)


def solve_matrix_model(y, g: Graph, wt: Weights, cfg: SolverConfig, variant: str):
    """ADMM on the non-simplified relaxed model (verification solver).

    The normal equations of the block operator are diagonal with constants
    2*d*nu_n for the vertex variables and 2*d for the edge variables
    (each component of z appears d times in M(z)).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    d = _VARIANTS[variant]
    y = np.asarray(y, dtype=float)
    wt.check_graph(g)
    if y.shape != (g.n_vertices, d):
        raise ValueError("input signal has wrong shape for this variant")
    if g.n_vertices > 50:
        raise ValueError("matrix-model solver is limited to N <= 50")
    nu = degree_table(g)
    n, m, k = g.n_vertices, g.m_edges, 3 * d

    x = np.zeros((n, d))
    r = np.zeros((m, d))
    u = np.zeros((m, k, k))
    z = np.zeros((m, k, k))
    e1 = np.zeros(d)
    e1[0] = 1.0
    for it in range(1, cfg.max_iter + 1):
        ax, ar = adjoint_P(u - z, g, d)
        x_new = (ax + (wt.vertex_weights / cfg.rho)[:, None] * y) / (2.0 * d * nu[:, None])
        r_new = (ar + (wt.edge_weights / cfg.rho)[:, None] * e1) / (2.0 * d)
        res = residual((x, r), (x_new, r_new))
        x, r = x_new, r_new
        if not np.isfinite(res):
            raise SolverDivergence(f"non-finite iterate at iteration {it}")
        blocks = apply_P(x, r, g, d) + z
        u = project_shifted_psd(blocks)
        z = blocks - u
        if res < cfg.tol:
            break
    return x, r
