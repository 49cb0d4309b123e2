"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  The
eigendecomposition is LAPACK's (`np.linalg.eigh`), which runs over a whole
batch of blocks in one call.  Functions accept a single (k, k) matrix or a
batch of shape (M, k, k) with k in 2..12.

The clip changes only the eigenvalues below -1.  With r the largest
number of them in any block of the batch, the projection is rebuilt as

    P = A + G G^T,   G = V[:, :r] sqrt(max(-1 - lambda, 0)),

one outer product per column of G.  Columns a block does not need get a
zero weight, so the form is exact for every block and every r up to k.
The relaxation is tight, so solver blocks have at most k - d = 2
eigenvalues below -1 and G has at most 2 of the k columns.  An outer
product g g^T holds g_i g_j at (i, j) and g_j g_i at (j, i), which are
the same float, so the result is exactly symmetric.
"""

import numpy as np

__all__ = ["symmetrize", "project_shifted_psd"]

MAX_DIM = 12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batch-aware, as a new array.  eigh reads one triangle
    only, so the projection symmetrizes its input first."""
    a = np.asarray(a, dtype=float)
    s = np.add(a, np.swapaxes(a, -1, -2))
    s *= 0.5
    return s


def project_shifted_psd(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T, rebuilt as in the
    module docstring.  The result is exactly symmetric.  Raises ValueError
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
    p = symmetrize(a.reshape(-1, k, k))
    w, v = np.linalg.eigh(p)
    # Eigenvalues ascend, so the first r columns hold every eigenvalue
    # below -1 in the batch.
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
    return p.reshape(a.shape)
