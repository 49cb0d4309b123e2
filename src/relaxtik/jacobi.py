"""Eigenvalue clip of large batches of small symmetric blocks by Jacobi.

`smallsym.project_shifted_psd` sends a batch here when its shape (M, k)
is on the Jacobi side of the crossover in `smallsym`.  It imports this
module on first use, so a process that never projects such a batch never
compiles it.

The batch is gathered into (k, k, m) work arrays, CHUNK blocks at a time,
so each rotation is a few contiguous 1-D ufunc calls over all m blocks.
Cyclic sweeps run until every off-diagonal entry is within TOL of its
block's largest entry, at most MAX_SWEEPS of them.  The projection is then
rebuilt as A + G G^T (see `smallsym`), summed over every eigenvector
column that is below -1 in some block, since Jacobi leaves the
eigenvalues unsorted.
"""

import numpy as np

__all__ = ["project"]

MAX_SWEEPS = 12
# Blocks per pass: faster than one pass over the 90x90 grid's 16,020
# blocks, and it bounds the work arrays' size.
CHUNK = 8192
# Converged off-diagonal bound, for a block scaled into [1/2, 1).
TOL = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def project(a: np.ndarray):
    """Projection of the finite (M, k, k) batch a onto {A symmetric, A >= -I},
    and a mask of the blocks that converged.  The other blocks of the
    projection are unusable; the caller projects them another way."""
    p = np.empty_like(a)
    converged = np.empty(len(a), dtype=bool)
    for lo in range(0, len(a), CHUNK):
        hi = lo + CHUNK
        converged[lo:hi] = _project_chunk(a[lo:hi], p[lo:hi])
    return p, converged


def _project_chunk(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Projection of the (m, k, k) batch a into out; returns which blocks
    converged."""
    m, k, _ = a.shape
    # The symmetric part, averaged while it is gathered.  Both work arrays
    # are allocated C-ordered: a ufunc would give them a's (m, k, k) layout.
    s = np.empty((k, k, m))
    w = np.empty((k, k, m))
    np.add(a.transpose(1, 2, 0), a.transpose(2, 1, 0), out=s)
    s *= 0.5
    # Each block is scaled by a power of two, which is exact, so that its
    # largest entry lies in [1/2, 1): the tolerance is absolute and no
    # square in a rotation can overflow.
    np.abs(s, out=w)
    _, e = np.frexp(w.max(axis=(0, 1)))
    np.ldexp(s, -e, out=w)
    vt = np.zeros((k, k, m))  # vt[c] is eigenvector c of every block
    vt[range(k), range(k)] = 1.0
    converged = _sweeps(w, vt)
    lam = np.ldexp(np.diagonal(w).T, e)
    h = np.empty(m)
    g = np.empty((k, m))
    for c in range(k):
        np.subtract(-1.0, lam[c], out=h)
        if h.max() <= 0.0:
            continue
        np.maximum(h, 0.0, out=h)
        np.sqrt(h, out=h)
        np.multiply(vt[c], h, out=g)
        # g_i g_j and g_j g_i are the same float, so s stays exactly symmetric.
        np.multiply(g[:, None], g, out=w)
        s += w
    np.copyto(out, s.transpose(2, 0, 1))
    return converged


def _sweeps(w: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi on the (k, k, m) stack w, in place, with the rotations
    accumulated into vt.  Returns which blocks converged."""
    k, _, m = w.shape
    t, c, s, h, dp, dq = (np.empty(m) for _ in range(6))
    bx, by = np.empty((k, m)), np.empty((k, m))
    pairs = [(p, q) for p in range(k - 1) for q in range(p + 1, k)]
    rest = {pq: _rest(k, *pq) for pq in pairs}
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p, q in pairs:
            apq = w[p, q]
            np.abs(apq, out=h)
            if h.max() <= TOL:
                continue
            rotated = True
            app, aqq = w[p, p], w[q, q]
            # t = tan of the rotation angle that zeroes a_pq, the root of
            # t^2 + 2 t (a_qq - a_pp) / (2 a_pq) - 1 = 0 with |t| <= 1.  The
            # tiny term gives t = 0 where a_pq = a_qq - a_pp = 0.
            np.subtract(aqq, app, out=t)
            t *= 0.5
            np.multiply(t, t, out=h)
            np.multiply(apq, apq, out=c)
            h += c
            np.sqrt(h, out=h)
            h += _TINY
            np.copysign(h, t, out=h)
            h += t
            np.divide(apq, h, out=t)
            np.multiply(t, t, out=c)
            c += 1.0
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            np.multiply(t, c, out=s)
            t *= apq
            np.subtract(app, t, out=dp)
            np.add(aqq, t, out=dq)
            # Rows p and q rotate, columns p and q mirror them, and the
            # 2x2 pivot block takes its closed form.
            r = rest[p, q]
            x, y = w[p, r], w[q, r]
            _rotate(x, y, c, s, bx[: len(x)], by[: len(x)])
            w[r, p] = x
            w[r, q] = y
            w[p, p] = dp
            w[q, q] = dq
            w[p, q] = 0.0
            w[q, p] = 0.0
            _rotate(vt[p], vt[q], c, s, bx, by)
        if not rotated:
            return np.ones(m, dtype=bool)
    off = np.abs(np.stack([w[p, q] for p, q in pairs])).max(axis=0)
    return off <= TOL


def _rest(k: int, p: int, q: int) -> slice:
    """A slice of the indices other than p and q, or of all k where those
    are not evenly spaced; the pivot entries are overwritten either way."""
    rest = [i for i in range(k) if i not in (p, q)]
    step = rest[1] - rest[0] if len(rest) > 1 else 1
    span = slice(rest[0], rest[-1] + 1, step) if rest else slice(0, 0)
    return span if list(range(k))[span] == rest else slice(None)


def _rotate(x, y, c, s, bx, by):
    """(x, y) <- (c x - s y, s x + c y), in place; bx and by are scratch."""
    np.multiply(x, s, out=bx)
    np.multiply(y, s, out=by)
    x *= c
    x -= by
    y *= c
    y += bx
