"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  Functions
accept a single (k, k) matrix or a batch of shape (M, k, k) with k in 2..12.

Two eigensolvers give the same projection, and the batch's shape (M, k)
picks one:

- M >= JACOBI_MIN_BLOCKS (2048) and k <= JACOBI_MAX_DIM (5): cyclic
  Jacobi in struct-of-arrays layout (`relaxtik.jacobi`).  The batch is
  gathered into a (k, k, M) work array, so each rotation is a few
  contiguous 1-D ufunc calls over all blocks at once.  Sweeps run until
  every off-diagonal entry is within 2 eps of its block's largest entry;
  a block still above that after `jacobi.MAX_SWEEPS` sweeps goes to
  LAPACK instead.
- Every other batch: LAPACK (`np.linalg.eigh`), one call over the batch.
  For blocks this small its cost is mostly per-matrix overhead, which
  Jacobi's shared ufunc calls amortize only over large batches of small
  blocks.

Crossover, ms per projection of M random symmetric blocks, Jacobi / eigh
(median of 9 interleaved runs, one thread, loaded 2-vCPU VM):

    k   M = 250     M = 500     M = 1000    M = 2000    M = 4000    M = 16000
    2   0.09/0.18   0.10/0.31   0.13/0.61   0.29/1.8    0.62/4.5    3.1/19
    3   0.46/0.46   0.54/0.82   0.78/1.6    1.8/5.4     2.6/10      12/48
    4   1.8/1.2     2.1/2.3     1.9/2.4     2.8/4.9     5.4/10      27/66
    5   3.3/1.7     4.1/3.1     5.5/6.0     9.4/13      17/25       61/100
    6   3.4/1.4     5.3/3.5     8.4/7.1     13/13       29/28       110/110
    7   5.6/2.0     7.0/3.5     14/11       48/41       47/44       190/200
    8   11/3.3      10/4.6      23/15       34/21       67/44       270/170

Jacobi ties at k = 6 and loses above, so those stay on LAPACK.  The
solver's 90x90 circle grid (16,020 blocks, k = 4) takes the Jacobi path;
1000-rotation SO(3) lines (999 blocks, k = 6) and short lines do not.

The clip changes only the eigenvalues below -1, so both paths rebuild the
projection as

    P = A + G G^T,   G = V_below sqrt(-1 - lambda_below),

one outer product per column of G.  Columns a block does not need get a
zero weight, so the form is exact for every block.  LAPACK sorts the
eigenvalues, so its path sums the first r columns, r the largest number
of eigenvalues below -1 in any block; the relaxation is tight, so r <= 2
on solver blocks.  Jacobi leaves them unsorted and sums every column
that is below -1 in some block.  An outer product g g^T holds g_i g_j at
(i, j) and g_j g_i at (j, i), which are the same float, so the result is
exactly symmetric.
"""

import numpy as np

__all__ = ["symmetrize", "project_shifted_psd"]

MAX_DIM = 12
# Dispatch to Jacobi, from the crossover table above.
JACOBI_MAX_DIM = 5
JACOBI_MIN_BLOCKS = 2048


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batch-aware, as a new array.  eigh reads one triangle
    only, so its path symmetrizes the input first."""
    a = np.asarray(a, dtype=float)
    s = np.add(a, np.swapaxes(a, -1, -2))
    s *= 0.5
    return s


def project_shifted_psd(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T, rebuilt as in the
    module docstring, on the path the module docstring names for the
    batch's shape.  The result is exactly symmetric.  Raises ValueError
    for anything but a finite square (k, k) or (M, k, k) array with
    2 <= k <= 12.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError("expected a square (k, k) matrix or an (M, k, k) batch")
    k = a.shape[-1]
    if not (2 <= k <= MAX_DIM):
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {k}")
    # Checked on the input: eigh can return finite eigenvalues for a NaN entry.
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    batch = a.reshape(-1, k, k)
    if k <= JACOBI_MAX_DIM and len(batch) >= JACOBI_MIN_BLOCKS:
        from relaxtik import jacobi  # compiled only where it runs

        p, converged = jacobi.project(batch)
        if not converged.all():
            idx = np.flatnonzero(~converged)
            p[idx] = _eigh_project(symmetrize(batch[idx]))
    else:
        p = _eigh_project(symmetrize(batch))
    return p.reshape(a.shape)


def _eigh_project(p: np.ndarray) -> np.ndarray:
    """Projection of the symmetric (M, k, k) batch p, in place."""
    w, v = np.linalg.eigh(p)
    # Eigenvalues ascend, so the first r columns hold every eigenvalue
    # below -1 in the batch.
    k = p.shape[-1]
    r = 0
    while r < k and w[:, r].min() < -1.0:
        r += 1
    scale = np.sqrt(np.maximum(-1.0 - w[:, :r], 0.0))
    g = np.empty((len(p), k, 1))
    gg = np.empty_like(p)
    # Outer products, not a BLAS G @ G^T, whose kernels may sum entries
    # (i, j) and (j, i) differently and break the exact symmetry.
    for c in range(r):
        np.multiply(v[:, :, c, None], scale[:, c, None, None], out=g)
        np.multiply(g, np.swapaxes(g, -1, -2), out=gg)
        p += gg
    return p
