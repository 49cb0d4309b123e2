"""Projection of small symmetric blocks onto the shifted cone.

Every ADMM iteration projects each per-edge (d+2) x (d+2) block onto
C = {A : A = A^T, A >= -I} by clipping its eigenvalues at -1.  The
eigendecomposition is LAPACK's (`np.linalg.eigh`), which runs over a whole
batch of blocks in one call.  Functions accept a single (k, k) matrix or a
batch of shape (M, k, k) with k in 2..12.
"""

import numpy as np

__all__ = ["symmetrize", "project_shifted_psd"]

MAX_DIM = 12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batch-aware.  Round-off from the solver iterations can
    break exact symmetry, so inputs are symmetrized before spectral work."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def project_shifted_psd(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest point of C = {A symmetric, A >= -I}.

    Clips the eigenvalues at -1: V max(Sigma, -1) V^T.  Raises ValueError
    for anything but a finite square (k, k) or (M, k, k) array with
    2 <= k <= 12.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError("expected a square (k, k) matrix or an (M, k, k) batch")
    if not (2 <= a.shape[-1] <= MAX_DIM):
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {a.shape[-1]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    w, v = np.linalg.eigh(symmetrize(a))
    np.maximum(w, -1.0, out=w)
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))
