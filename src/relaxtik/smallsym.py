"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  Functions
accept a single (k, k) matrix or a batch of shape (M, k, k) with k in 2..12.

There is one clip and two eigensolvers.  The batch runs CHUNK (8192)
blocks at a time: the symmetric part of a chunk is gathered into its
slice of the result, seen as (k, k, m), diagonalized and rebuilt there
as a clipped block.  The batch's shape (M, k) picks the eigensolver:

- M >= JACOBI_MIN_BLOCKS (768) and k <= JACOBI_MAX_DIM (6): cyclic
  Jacobi (`relaxtik.jacobi`), each rotation a few contiguous 1-D ufunc
  calls over all blocks of the chunk.  A block it leaves unconverged
  goes to LAPACK instead.
- Every other batch: LAPACK (`np.linalg.eigh`), one call per chunk.  For
  blocks this small its cost is mostly per-matrix overhead, which
  Jacobi's shared ufunc calls amortize only over large batches.

The ADMM loop warm-starts Jacobi from the previous iteration's
eigenvectors, so the crossover is set from warm solves: ms per ADMM
iteration on a line graph of M blocks, Jacobi / eigh (medians of 14
seeds in interleaved runs, one thread, loaded 2-vCPU VM; circle and S^2
lines for k = 4 and 5, so3 lines for k = 6):

    k   M = 255     M = 511     M = 767     M = 999     M = 1999
    4   0.75/0.75   0.95/1.44   1.18/2.32   1.35/3.10   2.66/6.98
    5   1.39/1.00   1.86/1.90   2.41/3.08   2.88/3.85   5.11/8.33
    6   3.24/1.93   3.79/2.92   5.11/5.05   6.33/6.74   10.2/13.6

Jacobi ties at k = 6 near M = 768 and wins above.  The 90x90 circle grid
(16,020 blocks, k = 4) and 1000-rotation SO(3) lines (999 blocks, k = 6)
take the Jacobi path; short lines (at most 767 blocks) and k >= 7 do
not.  A one-off call starts cold, from the identity, and cold Jacobi is
slower: at k = 6 and M = 1000 one projection took 8.4 ms against
eigh's 7.1.

The clip changes only the eigenvalues below -1, so a chunk is rebuilt as

    P = A + G G^T,   G = V_below sqrt(-1 - lambda_below),

one outer product per eigenvector column that is below -1 in some block
(Jacobi leaves the eigenvalues unsorted); columns a block does not need
get a zero weight.  An outer product g g^T holds g_i g_j at (i, j) and
g_j g_i at (j, i), which are the same float, so P is exactly symmetric.
"""

import numpy as np

__all__ = ["project_shifted_psd", "warm_basis"]

MAX_DIM = 12
# Dispatch to Jacobi, from the warm crossover table above.
JACOBI_MAX_DIM = 6
JACOBI_MIN_BLOCKS = 768
# Blocks per chunk: faster than one pass over the 90x90 grid's 16,020
# blocks, and it bounds the work arrays' size.
CHUNK = 8192


def _uses_jacobi(m: int, k: int) -> bool:
    return k <= JACOBI_MAX_DIM and m >= JACOBI_MIN_BLOCKS


def warm_basis(m: int, k: int, parts: int = 1) -> np.ndarray | None:
    """An identity `basis` for m blocks of side k, stored (k, k, m), or None
    when none of the `parts` np.array_split pieces of the blocks would be
    projected on the Jacobi path and use it."""
    if _uses_jacobi(-(-m // parts), k):  # the largest piece
        return np.eye(k)[:, :, None].repeat(m, axis=2).transpose(2, 0, 1)
    return None


def project_shifted_psd(a: np.ndarray, out: np.ndarray | None = None,
                        basis: np.ndarray | None = None) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T, rebuilt as in the
    module docstring, on the path the module docstring names for the
    batch's shape.  The result is exactly symmetric; with `out`, a float
    array of a's shape (fastest when stored (k, k, M)), it is built there and
    `out` is returned.  On the Jacobi path `basis`, a float array of a's
    shape holding each block's eigenvectors as rows (an identity, or a
    previous call's), starts the sweeps and receives the eigenvectors
    found; the eigh path leaves it alone.  Raises ValueError for anything
    but a finite square (k, k) or (M, k, k) array with 2 <= k <= 12, or an
    `out` or `basis` unlike it.
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
    jacobi = _uses_jacobi(len(batch), k)
    if jacobi:
        from relaxtik.jacobi import eig  # compiled only where it runs
    p = np.empty_like(batch) if out is None else out.reshape(batch.shape)
    v = basis.reshape(batch.shape) if jacobi and basis is not None else None
    w_buf = np.empty(k * k * min(len(batch), CHUNK))
    for lo in range(0, len(batch), CHUNK):
        c = batch[lo : lo + CHUNK]
        s = p[lo : lo + CHUNK].transpose(1, 2, 0)
        w = w_buf[: c.size].reshape(s.shape)
        # The symmetric part: eigh reads one triangle only.
        np.add(c.transpose(1, 2, 0), c.transpose(2, 1, 0), out=s)
        s *= 0.5
        if jacobi:
            vt = None if v is None else v[lo : lo + CHUNK].transpose(1, 2, 0)
            lam, vt, converged = eig(s, w, vt)
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
