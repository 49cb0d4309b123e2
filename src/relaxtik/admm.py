"""ADMM for the simplified relaxed real model.

The three-step scheme alternates a closed-form primal update, an
eigenvalue-clip projection of every per-edge block onto
C = {A >= -I}, and a dual ascent step.  Zero initialization throughout.
The matrix-model variant, which verifies this solver, is in `verify`.
The scaled dual z, the projection u and the projection's eigenvector
basis are allocated once per solve and stored (k, k, M), so each entry
(i, j) of all blocks is one row.
"""

import functools
import math
import os
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
    "residual",
    "normalize_rows",
    "admm_solve",
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
        if not (isinstance(self.max_iter, int) or float(self.max_iter).is_integer()):
            raise ValueError("max_iter must be an integer")
        self.max_iter = int(self.max_iter)
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
    # The adjoint is linear, so that of u - z is taken without forming u - z.
    (ax, al), (bx, bl) = model.adjoint_Q(u, g), model.adjoint_Q(z, g)
    x = (ax - bx + (wt.vertex_weights / rho)[:, None] * np.asarray(y)) / (2.0 * nu[:, None])
    ell = 0.5 * (al - bl + wt.edge_weights / rho)
    return x, ell


def _project(blocks, out, basis, pool, parts: int, iteration: int):
    """project_shifted_psd of blocks into out from basis at the loop's
    iteration, in `parts` np.array_split pieces along M on the pool's
    threads (numpy releases the GIL)."""
    project = functools.partial(project_shifted_psd, iteration=iteration)
    if parts == 1:
        project(blocks, out, basis)
    else:
        splits = (np.array_split(a, parts) for a in (blocks, out, basis))
        list(pool.map(project, *splits))


def normalize_rows(x) -> np.ndarray:
    """Each row divided by its norm; rows of norm below 1e-12 are kept."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms < 1e-12, 1.0, norms)


def _pool(parts: int):
    return ThreadPoolExecutor(max_workers=parts) if parts > 1 else nullcontext()


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
    and reported in collapsed_vertices.  At most os.cpu_count() of the
    n_threads are used.  Raises SolverDivergence at the
    first iteration whose (x, ell) is not finite; numpy's floating-point
    warnings on the way there are silenced, since the exception reports it.
    """
    wt.check_graph(g)
    y = model._check_signal(y, g)
    n, d = y.shape
    if n_threads < 1:
        raise ValueError("threads must be at least 1")
    m, k = g.m_edges, d + 2
    # One thread per piece of the blocks, with at least 2 blocks a piece.
    parts = min(n_threads, os.cpu_count() or 1)
    parts = parts if m >= 2 * parts else 1
    nu = _degrees(g)

    t0 = time.perf_counter()
    x = np.zeros((n, d))
    ell = np.zeros(m)
    # The scaled dual and the projection, written in place every iteration,
    # and the eigenvector basis that warm-starts a Jacobi projection, an
    # identity at first; a projection on eigh leaves it alone.
    z = np.zeros((k, k, m)).transpose(2, 0, 1)
    u = np.zeros((k, k, m)).transpose(2, 0, 1)
    basis = np.eye(k)[:, :, None].repeat(m, axis=2).transpose(2, 0, 1)
    obj_trace, dist_trace, res_trace = [], [], []
    it = 0
    res = np.inf
    with _pool(parts) as pool, np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            x_new, ell_new = primal_update(u, z, y, wt, g, cfg.rho, nu)
            res = residual((x, ell), (x_new, ell_new))
            x, ell = x_new, ell_new
            if not np.isfinite(res):
                raise SolverDivergence(f"non-finite iterate at iteration {it}")
            model.apply_Q(x, ell, g, add_to=z)  # z + Q(x, ell) - I, in z
            _project(z, u, basis, pool, parts, it)
            z -= u
            if collect_trace:
                obj_trace.append(model._objective_K(x, ell, y, wt))
                dist_trace.append(float(np.mean(1.0 - np.linalg.norm(x, axis=1))))
                res_trace.append(res)
            if res < cfg.tol:
                break

    obj = model.objective_K(x, ell, y, wt, g)
    dist = float(np.mean(1.0 - np.linalg.norm(x, axis=1)))
    collapsed = []
    if cfg.retract:
        collapsed = [int(i) + 1 for i in np.flatnonzero(np.linalg.norm(x, axis=1) < 1e-12)]
        x = normalize_rows(x)
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
