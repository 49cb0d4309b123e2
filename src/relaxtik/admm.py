"""ADMM for the simplified relaxed real model, plus the matrix-model variant.

The three-step scheme alternates a closed-form primal update, an
eigenvalue-clip projection of every per-edge block onto
C = {A >= -I}, and a dual ascent step.  Zero initialization throughout.

`solve_matrix_model` runs the same skeleton on the non-simplified relaxed
models whose per-edge blocks are built from d x d matrix representations
(6 x 6 blocks for circle data, 12 x 12 for quaternion data).  It exists to
verify numerically that both models reach the same solutions and is meant
for small instances only.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from relaxtik import model
from relaxtik.graph import Graph, Weights, degree_table
from relaxtik.smallsym import project_shifted_psd

__all__ = [
    "SolverConfig",
    "DenoiseResult",
    "SolverDivergence",
    "primal_update",
    "block_update",
    "dual_update",
    "residual",
    "admm_solve",
    "solve_matrix_model",
    "matrix_rep_basis",
    "apply_P",
    "adjoint_P",
    "matrix_model_objective",
]


class SolverDivergence(RuntimeError):
    """Iterate became non-finite."""


@dataclass
class SolverConfig:
    rho: float = 3.0
    max_iter: int = 600
    tol: float = 1e-4
    retract: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be nonnegative and finite")


@dataclass
class DenoiseResult:
    x: np.ndarray
    ell: np.ndarray
    iterations: int
    final_residual: float
    objective_K: float
    mean_sphere_distance: float
    wall_time_seconds: float
    # 1-based ids of vertices whose iterate collapsed to (near) zero and was
    # therefore left unretracted.
    collapsed_vertices: list = field(default_factory=list)
    objective_trace: np.ndarray | None = None
    sphere_distance_trace: np.ndarray | None = None
    residual_trace: np.ndarray | None = None


def residual(prev, new) -> float:
    """2-norm of the concatenated change of (x, ell) between iterates."""
    dx = np.asarray(new[0], dtype=float) - np.asarray(prev[0], dtype=float)
    dl = np.asarray(new[1], dtype=float) - np.asarray(prev[1], dtype=float)
    return float(np.sqrt(np.sum(dx * dx) + np.sum(dl * dl)))


def _degrees(g: Graph) -> np.ndarray:
    nu = degree_table(g)
    if (nu == 0).any():
        raise ValueError("graph has an isolated vertex")
    return nu


def primal_update(u, z, y, wt: Weights, g: Graph, rho: float, nu=None):
    """Closed-form minimizer of the augmented Lagrangian in (x, ell).

    nu is the degree table of g; it is computed when not given.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if nu is None:
        nu = _degrees(g)
    ax, al = model.adjoint_Q(np.asarray(u) - np.asarray(z), g)
    x = (ax + (wt.vertex_weights / rho)[:, None] * np.asarray(y)) / (2.0 * nu[:, None])
    ell = 0.5 * (al + wt.edge_weights / rho)
    return x, ell


def _project(blocks, pool, n_threads: int) -> np.ndarray:
    """project_shifted_psd over the batch, split across the pool's threads
    (LAPACK releases the GIL) when there is a pool and enough blocks."""
    if pool is None or blocks.shape[0] < 2 * n_threads:
        return project_shifted_psd(blocks)
    return np.concatenate(list(pool.map(project_shifted_psd, np.array_split(blocks, n_threads))))


def _pool(n_threads: int):
    return ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else nullcontext()


def block_update(x, ell, z, g: Graph, n_threads: int = 1) -> np.ndarray:
    """Project every shifted block plus its multiplier onto C = {A >= -I}."""
    blocks = model.apply_Q(x, ell, g) + np.asarray(z, dtype=float)
    with _pool(n_threads) as pool:
        return _project(blocks, pool, n_threads)


def dual_update(z, x, ell, u, g: Graph) -> np.ndarray:
    return np.asarray(z, dtype=float) + model.apply_Q(x, ell, g) - np.asarray(u, dtype=float)


def _retract(x):
    norms = np.linalg.norm(x, axis=1)
    collapsed = np.flatnonzero(norms < 1e-12)
    safe = norms.copy()
    safe[collapsed] = 1.0
    out = x / safe[:, None]
    out[collapsed] = x[collapsed]
    return out, [int(i) + 1 for i in collapsed]


def admm_solve(
    y,
    g: Graph,
    wt: Weights,
    cfg: SolverConfig,
    collect_trace: bool = False,
    n_threads: int = 1,
) -> DenoiseResult:
    """Run the ADMM scheme from zero initialization.

    Stops when the 2-norm change of (x, ell) between iterations drops below
    cfg.tol, or after cfg.max_iter iterations.  With cfg.retract the output
    signal is normalized onto the sphere; near-zero vectors are left alone
    and reported in collapsed_vertices.  Raises SolverDivergence at the
    first iteration whose (x, ell) is not finite.
    """
    y = np.asarray(y, dtype=float)
    wt.check_graph(g)
    if not np.isfinite(y).all():
        raise ValueError("input signal must be finite")
    n, d = y.shape
    if n != g.n_vertices or d not in model.SUPPORTED_DIMS:
        raise ValueError("input signal has wrong shape")
    m, k = g.m_edges, d + 2
    nu = _degrees(g)

    t0 = time.perf_counter()
    x = np.zeros((n, d))
    ell = np.zeros(m)
    u = np.zeros((m, k, k))
    z = np.zeros((m, k, k))
    obj_trace, dist_trace, res_trace = [], [], []
    it = 0
    res = np.inf
    with _pool(n_threads) as pool:
        for it in range(1, cfg.max_iter + 1):
            x_new, ell_new = primal_update(u, z, y, wt, g, cfg.rho, nu)
            res = residual((x, ell), (x_new, ell_new))
            x, ell = x_new, ell_new
            if not np.isfinite(res):
                raise SolverDivergence(f"non-finite iterate at iteration {it}")
            # The dual step z + Q(x, ell) - u reuses the projected blocks.
            blocks = model.apply_Q(x, ell, g)
            blocks += z
            u = _project(blocks, pool, n_threads)
            z = np.subtract(blocks, u, out=blocks)
            if collect_trace:
                obj_trace.append(model.objective_K(x, ell, y, wt, g))
                dist_trace.append(float(np.mean(1.0 - np.linalg.norm(x, axis=1))))
                res_trace.append(res)
            if res < cfg.tol:
                break

    obj = model.objective_K(x, ell, y, wt, g)
    dist = float(np.mean(1.0 - np.linalg.norm(x, axis=1)))
    collapsed = []
    if cfg.retract:
        x, collapsed = _retract(x)
    return DenoiseResult(
        x=x,
        ell=ell,
        iterations=it,
        final_residual=res,
        objective_K=obj,
        mean_sphere_distance=dist,
        wall_time_seconds=time.perf_counter() - t0,
        collapsed_vertices=collapsed,
        objective_trace=np.asarray(obj_trace) if collect_trace else None,
        sphere_distance_trace=np.asarray(dist_trace) if collect_trace else None,
        residual_trace=np.asarray(res_trace) if collect_trace else None,
    )


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


def matrix_rep_basis(d: int) -> np.ndarray:
    """Basis matrices B_k = M(e_k), so that M(z) = sum_k z_k B_k."""
    from relaxtik.manifold import matrix_rep

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
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(
        -np.sum(wt.vertex_weights * np.einsum("nd,nd->n", x, y))
        - np.sum(wt.edge_weights * r[:, 0])
    )


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
