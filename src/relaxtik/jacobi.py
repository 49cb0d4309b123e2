"""Cyclic Jacobi eigensolver for large batches of small symmetric blocks.

`smallsym.project_shifted_psd` diagonalizes a chunk here when the batch's
shape (M, k) is on the Jacobi side of the crossover in `smallsym`, and
does the clip itself.  It imports this module on first use, so a process
that never projects such a batch never compiles it.

The blocks come as a (k, k, m) stack, so each rotation is a few
contiguous 1-D ufunc calls over all m blocks.  Cyclic sweeps run until
every off-diagonal entry is within TOL of its block's largest entry, at
most MAX_SWEEPS of them.  The eigenvalues come out unsorted.

A call may start from a basis instead of the identity: the ADMM loop
passes the eigenvectors the previous iteration left, since its blocks
change little between iterations.  The basis is re-orthonormalized (one
modified Gram-Schmidt pass, so rounding does not pile up over thousands
of iterations), the block is rotated into it, W = V^T S V, and the sweeps
go on from there: a nearly diagonal W converges quadratically (Golub and
Van Loan, Matrix Computations, 8.5).  On a 90x90 circle-grid solve this
cut the rotating sweeps per chunk from 5 to a mean of 2.6.  In a
1000-rotation so3-line solve (k = 6, M = 999, on eigh by the dispatch in
`smallsym`) warm Jacobi took 7.2 ms per iteration against eigh's 8.9 and
cold Jacobi's 12.3 (medians over 7 seeds, one thread, 2-vCPU VM).  The
dispatch is kept: the so3 CLI request, which runs these blocks, has not
been measured with the crossover moved.
"""

import numpy as np

__all__ = ["eig"]

MAX_SWEEPS = 12
# Converged off-diagonal bound, for a block scaled into [1/2, 1).
TOL = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def eig(s: np.ndarray, work: np.ndarray, basis: np.ndarray | None = None):
    """Eigenvalues lam (k, m), eigenvectors vt (k, k, m) and a mask of the
    converged blocks of the symmetric (k, k, m) stack s, which is left as
    it is; vt[c] is eigenvector c of every block.  work is (k, k, m)
    scratch.  The eigenpairs of unconverged blocks are unusable.

    Without basis the sweeps start from the identity.  With basis, a
    (k, k, m) stack in vt's layout (an identity, or a previous call's vt),
    they start from it: it is re-orthonormalized in place, s is rotated
    into it, the rotations are accumulated into it, and it is returned as
    vt.  A block whose basis is near its eigenvectors needs fewer sweeps."""
    k, _, m = s.shape
    # Each block is scaled by a power of two, which is exact, so that its
    # largest entry lies in [1/2, 1): the tolerance is absolute and no
    # square in a rotation can overflow.
    np.abs(s, out=work)
    _, e = np.frexp(work.max(axis=(0, 1)))
    if basis is None:
        np.ldexp(s, -e, out=work)
        vt = np.zeros((k, k, m))
        vt[range(k), range(k)] = 1.0
    else:
        vt = basis
        _orthonormalize(vt)
        _congruence(s, e, vt, work)
    converged = _sweeps(work, vt)
    return np.ldexp(np.diagonal(work).T, e), vt, converged


def _orthonormalize(vt: np.ndarray):
    """One modified Gram-Schmidt pass over the columns vt[c], in place."""
    k, _, m = vt.shape
    t, dot = np.empty((k, m)), np.empty(m)
    for c in range(k):
        v = vt[c]
        for j in range(c):
            np.einsum("im,im->m", vt[j], v, out=dot)
            np.multiply(vt[j], dot, out=t)
            v -= t
        np.einsum("im,im->m", v, v, out=dot)
        np.sqrt(dot, out=dot)
        v /= dot


def _congruence(s: np.ndarray, e: np.ndarray, vt: np.ndarray, w: np.ndarray):
    """w <- V^T (2^-e s) V for the symmetric stack s and the basis V whose
    columns are vt[c]; only the upper triangle is summed, so w is exactly
    symmetric.  V is scaled rather than s, so nothing overflows."""
    k, _, m = s.shape
    v, sv = np.empty((k, m)), np.empty((k, m))
    for b in range(k):
        np.ldexp(vt[b], -e, out=v)
        np.einsum("jim,jm->im", s, v, out=sv)
        np.einsum("aim,im->am", vt[: b + 1], sv, out=w[: b + 1, b])
        w[b, :b] = w[:b, b]


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
