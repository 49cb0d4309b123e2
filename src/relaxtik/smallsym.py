"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  Functions
accept a single (k, k) matrix or a batch of shape (M, k, k) with k in 2..12.

There is one clip and two eigensolvers.  The batch runs CHUNK (8192)
blocks at a time: the symmetric part of a chunk is gathered into its
slice of the result, seen as (k, k, m), diagonalized and rebuilt there
as a clipped block.  The ADMM loop's batch is exactly symmetric, so a
call from the loop gathers it with a plain copy: the same bits as the
average of the two triangles, in about half the time (0.22 against 0.42
ms on the 90x90 circle grid's 16,020 blocks).  The batch's shape (M, k)
picks the eigensolver:

- M >= JACOBI_MIN_BLOCKS (511) and k <= JACOBI_MAX_DIM (6): cyclic
  Jacobi (`relaxtik.jacobi`), each rotation a few contiguous 1-D ufunc
  calls over all blocks of the chunk.  A block it leaves unconverged
  goes to LAPACK instead.
- Every other batch: LAPACK (`np.linalg.eigh`), one call per chunk.  For
  blocks this small its cost is mostly per-matrix overhead, which
  Jacobi's shared ufunc calls amortize only over large batches.

The ADMM loop warm-starts Jacobi from the previous iteration's
eigenvectors, and Jacobi diagonalizes only the part of each block that
the clip changes, so the crossover is set from warm solves: CPU ms per
ADMM iteration on a line graph of M blocks, Jacobi / eigh (medians of 14
seeds in interleaved runs, one thread, loaded 2-vCPU VM; circle and S^2
lines for k = 4 and 5, so3 lines for k = 6):

    k   M = 255     M = 511     M = 767     M = 999     M = 1999
    4   0.57/0.66   0.72/1.26   1.93/3.88   2.16/4.79   3.06/8.83
    5   0.96/0.96   1.16/1.68   3.24/4.90   3.68/6.29   5.67/12.1
    6   1.28/1.20   1.81/2.19   4.64/6.00   5.23/7.45   8.51/16.6

The M = 255 and M = 511 columns are measured with `jacobi`'s warm first
sweep in its trailing-pivots-first order (medians of 42 solves, 14 seeds
three times each, on a quieter host than the other columns, so compare
within a column).  Jacobi wins from M = 511 on at every k <= 6.  At 255
it wins at k = 4 (median paired ratio 0.85), ties at k = 5 and loses at
k = 6 (1.09), so a lower threshold would have to depend on k; the
threshold is 511 for all k.  The 90x90 circle grid (16,020 blocks, k = 4)
and 1000-rotation SO(3) lines (999 blocks, k = 6) take the Jacobi path;
short lines (at most 510 blocks) and k >= 7 do not.  A call given no
basis starts each Jacobi chunk from an identity, that is cold, and cold
Jacobi is slower: at k = 6 and M = 1000 one projection took 8.4 ms
against eigh's 7.1 (measured before the split).

The clip changes only the eigenvalues below -1, so a chunk is rebuilt as

    P = A + G G^T,   G = V_below sqrt(-1 - lambda_below),

one outer product per eigenvector column that is below -1 in some block;
columns a block does not need get a zero weight.  Both eigensolvers put
each block's eigenpairs below -1 in its leading columns (LAPACK sorts
ascending, and `jacobi.eig` permutes them there), so the sum stops at
the first column that no block needs.  Jacobi may leave the other
columns only an orthonormal basis of the rest of a block, whose Rayleigh
matrix it has certified >= -1 (its split path): the clip leaves that part
as it is, so P is the same.  An outer product g g^T holds g_i g_j at
(i, j) and g_j g_i at (j, i), which are the same float, so P is exactly
symmetric.
"""

import numpy as np

__all__ = ["project_shifted_psd"]

MAX_DIM = 12
# Dispatch to Jacobi, from the warm crossover table above.
JACOBI_MAX_DIM = 6
JACOBI_MIN_BLOCKS = 511
# Blocks per chunk: faster than one pass over the 90x90 grid's 16,020
# blocks, and it bounds the work arrays' size.
CHUNK = 8192


def project_shifted_psd(a: np.ndarray, out: np.ndarray | None = None,
                        basis: np.ndarray | None = None, *,
                        iteration: int | None = None) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T, rebuilt as in the
    module docstring, on the path the module docstring names for the
    batch's shape.  The result is exactly symmetric; with `out`, a float
    array of a's shape (fastest when stored (k, k, M)), it is built there and
    `out` is returned.  On the Jacobi path `basis`, a float array of a's
    shape holding each block's eigenvectors as rows (an identity, or a
    previous call's), starts the sweeps and receives the eigenvectors
    found; without it they start from an identity.  The eigh path leaves
    `basis` alone.  `iteration`, the ADMM loop's iteration number, is for
    the loop alone: `a` must then be exactly symmetric, and is gathered as
    a plain copy, and `basis` is re-orthonormalized on the cadence of
    `relaxtik.jacobi.eig` rather than on every call.  Raises ValueError
    for anything but a finite square (k, k) or (M, k, k) array with
    2 <= k <= 12, or an `out` or `basis` unlike it.
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
    for b in (out, basis):
        if b is not None and (b.shape != a.shape or b.dtype != float):
            raise ValueError("out and basis must be float arrays of the input's shape")
    batch = a.reshape(-1, k, k)
    jacobi = k <= JACOBI_MAX_DIM and len(batch) >= JACOBI_MIN_BLOCKS
    if jacobi:
        from relaxtik.jacobi import eig  # compiled only where it runs
    p = np.empty_like(batch) if out is None else out.reshape(batch.shape)
    v = basis.reshape(batch.shape) if basis is not None else None
    w_buf = np.empty(k * k * min(len(batch), CHUNK))
    for lo in range(0, len(batch), CHUNK):
        c = batch[lo : lo + CHUNK]
        s = p[lo : lo + CHUNK].transpose(1, 2, 0)
        w = w_buf[: c.size].reshape(s.shape)
        if iteration is None:
            # The symmetric part: eigh reads one triangle only.
            np.add(c.transpose(1, 2, 0), c.transpose(2, 1, 0), out=s)
            s *= 0.5
        else:
            s[...] = c.transpose(1, 2, 0)
        if jacobi:
            if v is None:
                vt = np.eye(k)[:, :, None].repeat(len(c), axis=2)
            else:
                vt = v[lo : lo + CHUNK].transpose(1, 2, 0)
            lam, converged = eig(s, w, vt, iteration=iteration)
            if not converged.all():
                idx = np.flatnonzero(~converged)
                lam[:, idx], vt[:, :, idx] = _eigh(s[:, :, idx])
        else:
            lam, vt = _eigh(s)
        h, g = np.empty(len(c)), np.empty((k, len(c)))
        for col in range(k):
            np.subtract(-1.0, lam[col], out=h)
            if h.max() <= 0.0:
                break
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
    """LAPACK eigenpairs of the symmetric (k, k, m) stack s: values (k, m)
    and vectors as rows, laid out as jacobi.eig's basis."""
    lam, v = np.linalg.eigh(s.transpose(2, 0, 1))
    return lam.T, v.transpose(2, 1, 0)
