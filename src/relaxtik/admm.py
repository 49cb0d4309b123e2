"""ADMM for the simplified relaxed real model.

The three-step scheme alternates a closed-form primal update, an
eigenvalue-clip projection of every per-edge block onto
C = {A >= -I}, and a dual ascent step.  Zero initialization throughout.
The matrix-model variant, which verifies this solver, is in `tests/verify.py`.
A solve holds two block fields, the scaled dual z and the eigenvector basis,
stored (k, k, M), so each entry (i, j) of all blocks is one row.  The
projection u is never held whole: each thread projects its piece of z
smallsym.CHUNK blocks at a time into one buffer of its own, subtracts the
chunk from z and writes the chunk's u - z at the entries the primal step
reads into the primal step's terms, all while the chunk is in cache.  Each
chunk picks its eigensolver from its own size (see smallsym).
"""

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from relaxtik import model, smallsym
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


def _positive_int(value, name) -> int:
    if not (isinstance(value, int) or float(value).is_integer()) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


@dataclass
class SolverConfig:
    rho: float = 3.0
    max_iter: int = 600
    tol: float = 1e-4
    retract: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        self.max_iter = _positive_int(self.max_iter, "max_iter")
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
    # 1-based ids of vertices whose iterate collapsed to (near) zero, which
    # cfg.retract leaves as they are.
    collapsed_vertices: list = field(default_factory=list)
    objective_trace: np.ndarray | None = None
    sphere_distance_trace: np.ndarray | None = None
    residual_trace: np.ndarray | None = None


def residual(prev, new) -> float:
    """2-norm of the concatenated change of (x, ell) between iterates."""
    dx, dl = np.subtract(new[0], prev[0]), np.subtract(new[1], prev[1])
    # Squares and a numpy sum, not a BLAS dot such as np.vdot, which wakes an
    # OpenBLAS worker thread that then spins on a second core for the rest
    # of the solve, nor einsum, which parses its subscripts on every call.
    dx *= dx
    dl *= dl
    return math.sqrt(dx.sum() + dl.sum())


def _primal_step(y, wt: Weights, g: Graph, rho: float):
    """The primal step's per-solve state: 1/(2 nu), w y/(2 rho nu), lambda/(2 rho),
    the (2d+1, M) terms that _gather writes, zero, and the bins of its first 2d rows."""
    nu = degree_table(g)
    if (nu == 0).any():
        raise ValueError("graph has an isolated vertex")
    if rho <= 0:
        raise ValueError("rho must be positive")
    half_inv_nu, d, m = 0.5 / nu[:, None], np.shape(y)[1], g.m_edges
    return (half_inv_nu, (wt.vertex_weights / rho)[:, None] * y * half_inv_nu,
            (0.5 / rho) * wt.edge_weights, np.zeros((2 * d + 1, m)),
            (g.slots.reshape(2, 1, m) * d + np.arange(d)[:, None]).ravel())


def _gather(u, z, terms):
    """u - z at the entries model.adjoint_Q sums, into terms (2d+1, m).

    Rows [0, d) hold (u - z)[:, i, d] + (u - z)[:, d, i], rows [d, 2d) the
    same at d + 1, ordered like g.slots, and row 2d (u - z)[:, d, d+1] +
    (u - z)[:, d+1, d].  u and z are (m, d+2, d+2) of any strides.
    """
    d = u.shape[-1] - 2
    for j, out in enumerate((terms[:d], terms[d : 2 * d]), d):
        np.subtract(u[:, :d, j].T, z[:, :d, j].T, out=out)
        out += u[:, j, :d].T
        out -= z[:, j, :d].T
    out = terms[2 * d]
    np.subtract(u[:, d, d + 1], z[:, d, d + 1], out=out)
    out += u[:, d + 1, d]
    out -= z[:, d + 1, d]


def _primal_solve(step):
    """(x, ell) from the terms _gather wrote: one bincount sums them per vertex."""
    half_inv_nu, wy, half_lam, terms, bins = step
    d2 = 2 * wy.shape[1]
    x = np.bincount(bins, terms[:d2].ravel(), wy.size).reshape(wy.shape) * half_inv_nu + wy
    return x, 0.5 * terms[d2] + half_lam


def primal_update(u, z, y, wt: Weights, g: Graph, rho: float):
    """Closed-form minimizer of the augmented Lagrangian in (x, ell).

    u and z are (M, d+2, d+2) block fields of any strides, symmetric or not.
    u - z is read once, at the entries model.adjoint_Q sums, and summed per
    vertex and component.
    """
    step = _primal_step(y, wt, g, rho)
    _gather(u, z, step[3])
    return _primal_solve(step)


def _chunks(z, basis, terms, lo: int, hi: int) -> list:
    """Blocks lo:hi as chunks of at most smallsym.CHUNK blocks: views of z, the
    basis and the terms, and of one projection buffer that the chunks share."""
    k, size = z.shape[-1], smallsym.CHUNK
    buf, cuts = np.empty(k * k * min(hi - lo, size)), [*range(lo, hi, size), hi]
    return [(z[a:b], basis[a:b], buf[: k * k * (b - a)].reshape(k, k, b - a).transpose(2, 0, 1),
             terms[:, a:b]) for a, b in zip(cuts, cuts[1:])]


def _project(chunks, iteration: int):
    """Projects each chunk of z, subtracts it from z and gathers its u - z."""
    for z, basis, u, terms in chunks:
        project_shifted_psd(z, out=u, basis=basis, iteration=iteration)
        z -= u
        _gather(u, z, terms)


def normalize_rows(x) -> np.ndarray:
    """Each row divided by its norm; rows of norm below 1e-12 are kept."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms < 1e-12, 1.0, norms)


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
    cfg.tol, or after cfg.max_iter iterations.  Rows of x with norm below
    1e-12 are reported in collapsed_vertices; cfg.retract normalizes the
    other rows onto the sphere.  With collect_trace each iteration records
    one (objective, sphere distance, residual) row.  At most os.cpu_count()
    of the n_threads are used.  Raises SolverDivergence at the first
    iteration whose (x, ell) is not finite; numpy's floating-point warnings
    on the way there are silenced, since the exception reports it.
    """
    wt.check_graph(g)
    y = model._check_signal(y, g)
    n, d = y.shape
    n_threads = _positive_int(n_threads, "n_threads")
    m, k = g.m_edges, d + 2
    # One thread per piece of the blocks, with at least 2 blocks a piece.
    parts = min(n_threads, os.cpu_count() or 1)
    parts = parts if m >= 2 * parts else 1

    t0 = time.perf_counter()
    x = np.zeros((n, d))
    ell = np.zeros(m)
    # The scaled dual, written in place every iteration, and the eigenvector
    # basis that warm-starts a Jacobi projection, an identity at first; a
    # projection on eigh leaves it alone.
    z = np.zeros((k, k, m)).transpose(2, 0, 1)
    basis = np.eye(k)[:, :, None].repeat(m, axis=2).transpose(2, 0, 1)
    pool = ThreadPoolExecutor(max_workers=parts) if parts > 1 else nullcontext()
    trace = []
    it = 0
    res = np.inf
    with pool, np.errstate(over="ignore", invalid="ignore"):
        step = _primal_step(y, wt, g, cfg.rho)  # its terms, u - z, are 0 at first
        # The pieces along M, one per thread (numpy releases the GIL), split
        # as np.array_split splits, in chunks: views that stay current.
        cuts = [i * (m // parts) + min(i, m % parts) for i in range(parts + 1)]
        pieces = [_chunks(z, basis, step[3], lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        fan_out = pool.map if parts > 1 else map
        for it in range(1, cfg.max_iter + 1):
            x_new, ell_new = _primal_solve(step)
            res = residual((x, ell), (x_new, ell_new))
            x, ell = x_new, ell_new
            if not np.isfinite(res):
                raise SolverDivergence(f"non-finite iterate at iteration {it}")
            model.apply_Q(x, ell, g, add_to=z)  # z + Q(x, ell) - I, in z
            list(fan_out(functools.partial(_project, iteration=it), pieces))
            if collect_trace:
                trace.append((model._objective_K(x, ell, y, wt),
                              model.mean_sphere_distance(x), res))
            if res < cfg.tol:
                break

    obj = model.objective_K(x, ell, y, wt, g)
    dist = model.mean_sphere_distance(x)
    collapsed = [int(i) + 1 for i in np.flatnonzero(np.linalg.norm(x, axis=1) < 1e-12)]
    x = normalize_rows(x) if cfg.retract else x
    obj_trace, dist_trace, res_trace = np.array(trace).T if collect_trace else [None] * 3
    return DenoiseResult(
        x=x,
        ell=ell,
        iterations=it,
        final_residual=res,
        objective_K=obj,
        mean_sphere_distance=dist,
        wall_time_seconds=time.perf_counter() - t0,
        collapsed_vertices=collapsed,
        objective_trace=obj_trace,
        sphere_distance_trace=dist_trace,
        residual_trace=res_trace,
    )
