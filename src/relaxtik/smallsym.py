"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  Functions
accept a single (k, k) matrix or a batch of shape (M, k, k) with k in 2..12.

There is one clip and two eigensolvers.  The batch runs CHUNK (8192)
blocks at a time: the symmetric part of a chunk is gathered into its
slice of the result, seen as (k, k, m), diagonalized and rebuilt there
as a clipped block.  The batch's shape (M, k) picks the eigensolver:

- M >= JACOBI_MIN_BLOCKS (2048) and k <= JACOBI_MAX_DIM (5): cyclic
  Jacobi (`relaxtik.jacobi`), each rotation a few contiguous 1-D ufunc
  calls over all blocks of the chunk.  A block it leaves unconverged
  goes to LAPACK instead.
- Every other batch: LAPACK (`np.linalg.eigh`), one call per chunk.  For
  blocks this small its cost is mostly per-matrix overhead, which
  Jacobi's shared ufunc calls amortize only over large batches.

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

Jacobi ties at k = 6 and loses above.  The 90x90 circle grid (16,020
blocks, k = 4) takes the Jacobi path; 1000-rotation SO(3) lines (999
blocks, k = 6) and short lines do not.

The clip changes only the eigenvalues below -1, so a chunk is rebuilt as

    P = A + G G^T,   G = V_below sqrt(-1 - lambda_below),

one outer product per eigenvector column that is below -1 in some block
(Jacobi leaves the eigenvalues unsorted); columns a block does not need
get a zero weight.  An outer product g g^T holds g_i g_j at (i, j) and
g_j g_i at (j, i), which are the same float, so P is exactly symmetric.
"""

import numpy as np

__all__ = ["project_shifted_psd"]

MAX_DIM = 12
# Dispatch to Jacobi, from the crossover table above.
JACOBI_MAX_DIM = 5
JACOBI_MIN_BLOCKS = 2048
# Blocks per chunk: faster than one pass over the 90x90 grid's 16,020
# blocks, and it bounds the work arrays' size.
CHUNK = 8192


def project_shifted_psd(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T, rebuilt as in the
    module docstring, on the path the module docstring names for the
    batch's shape.  The result is exactly symmetric; with `out`, a float
    array of a's shape (fastest when stored (k, k, M)), it is built there and
    `out` is returned.  Raises ValueError for anything but a finite square
    (k, k) or (M, k, k) array with 2 <= k <= 12, or an `out` unlike it.
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
    if out is not None and (out.shape != a.shape or out.dtype != float):
        raise ValueError("out must be a float array of the input's shape")
    batch = a.reshape(-1, k, k)
    jacobi = k <= JACOBI_MAX_DIM and len(batch) >= JACOBI_MIN_BLOCKS
    if jacobi:
        from relaxtik.jacobi import eig  # compiled only where it runs
    p = np.empty_like(batch) if out is None else out.reshape(batch.shape)
    w_buf = np.empty(k * k * min(len(batch), CHUNK))
    for lo in range(0, len(batch), CHUNK):
        c = batch[lo : lo + CHUNK]
        s = p[lo : lo + CHUNK].transpose(1, 2, 0)
        w = w_buf[: c.size].reshape(s.shape)
        # The symmetric part: eigh reads one triangle only.
        np.add(c.transpose(1, 2, 0), c.transpose(2, 1, 0), out=s)
        s *= 0.5
        if jacobi:
            lam, vt, converged = eig(s, w)
            if not converged.all():
                idx = np.flatnonzero(~converged)
                lam[:, idx], vt[:, :, idx] = _eigh(s[:, :, idx])
        else:
            lam, vt = _eigh(s)
        h, g = np.empty(len(c)), np.empty((k, len(c)))
        for col in range(k):
            np.subtract(-1.0, lam[col], out=h)
            if h.max() <= 0.0:
                continue
            np.maximum(h, 0.0, out=h)
            np.sqrt(h, out=h)
            np.multiply(vt[col], h, out=g)
            # Outer products, not a BLAS G @ G^T, whose kernels may sum
            # entries (i, j) and (j, i) differently and break the symmetry.
            np.multiply(g[:, None], g, out=w)
            s += w
        del lam, vt  # freed before the next chunk makes its own: a lower peak
    return p.reshape(a.shape) if out is None else out


def _eigh(s: np.ndarray):
    """LAPACK eigenpairs of the symmetric (k, k, m) stack s, as jacobi.eig."""
    lam, v = np.linalg.eigh(s.transpose(2, 0, 1))
    return lam.T, v.transpose(2, 1, 0)
