"""Cyclic Jacobi eigensolver for large batches of small symmetric blocks.

`smallsym.project_shifted_psd` diagonalizes a chunk here when the batch's
shape (M, k) is on the Jacobi side of the crossover in `smallsym`, and
does the clip itself.  It imports this module on first use, so a process
that never projects such a batch never compiles it.

The blocks come as a (k, k, m) stack, so each rotation is a few
contiguous 1-D ufunc calls over all m blocks.  Cyclic sweeps run until
every off-diagonal entry is within TOL of its block's largest entry, at
most MAX_SWEEPS of them.  The eigenvalues come out unsorted.
"""

import numpy as np

__all__ = ["eig"]

MAX_SWEEPS = 12
# Converged off-diagonal bound, for a block scaled into [1/2, 1).
TOL = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def eig(s: np.ndarray, work: np.ndarray):
    """Eigenvalues lam (k, m), eigenvectors vt (k, k, m) and a mask of the
    converged blocks of the symmetric (k, k, m) stack s, which is left as
    it is; vt[c] is eigenvector c of every block.  work is (k, k, m)
    scratch.  The eigenpairs of unconverged blocks are unusable."""
    k, _, m = s.shape
    # Each block is scaled by a power of two, which is exact, so that its
    # largest entry lies in [1/2, 1): the tolerance is absolute and no
    # square in a rotation can overflow.
    np.abs(s, out=work)
    _, e = np.frexp(work.max(axis=(0, 1)))
    np.ldexp(s, -e, out=work)
    vt = np.zeros((k, k, m))
    vt[range(k), range(k)] = 1.0
    converged = _sweeps(work, vt)
    return np.ldexp(np.diagonal(work).T, e), vt, converged


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
