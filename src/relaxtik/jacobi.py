"""Cyclic Jacobi eigensolver for large batches of small symmetric blocks.

`smallsym.project_shifted_psd` diagonalizes a chunk here when the batch's
shape (M, k) is on the Jacobi side of the crossover in `smallsym`, and
does the clip itself.  It imports this module on first use, so a process
that never projects such a batch never compiles it.

The blocks come as a (k, k, m) stack, so each rotation is a few
contiguous 1-D ufunc calls over all m blocks.  A pivot (p, q) is rotated
while its entry is above TOL, relative to its block's largest entry, in
some block of the chunk; a run of sweeps stops when a sweep rotates none,
after at most MAX_SWEEPS of them.

A call starts from a basis: an identity for a one-off projection, and in
the ADMM loop the eigenvectors the previous iteration left, since its
blocks change little between iterations.  The basis is re-orthonormalized
(one modified Gram-Schmidt pass, so rounding does not pile up over
thousands of iterations), the block is rotated into it, W = V^T S V, and
the sweeps go on from there: a nearly diagonal W converges quadratically
(Golub and Van Loan, Matrix Computations, 8.5).  On a 90x90 circle-grid
solve the warm start cut the rotating sweeps per chunk from 5 to a mean
of 2.6, and it is what puts 1000-rotation so3 lines (k = 6, M = 999) on
this path: see the warm crossover table in `smallsym`.  From an identity
the re-orthonormalization and the rotation into the basis are exact, so
such a call is a plain cold start.  A call re-orthonormalizes every time,
except in the ADMM loop, which passes its iteration number: there the
pass, a tenth of a 90x90 circle-grid iteration, runs on every
ORTHO_EVERY-th iteration only.  The carried basis loses about 7e-16 of
orthogonality a call, so in between the largest entry of V^T V - I
stayed below 1.1e-14 on all six experiments; every 16th iteration would
let it reach 1.9e-14 and move an so3 line's answer by 1.5e-13, against
9e-14 at every 8th.

Split and certify.  The clip at -1 needs only the eigenpairs below -1
(Higham, Computing a nearest symmetric positive semidefinite matrix,
1988), and on a tight relaxation a block has at most 2 of them.  A call
ends by permuting each block's eigenpairs below -1 into its leading slots,
so a warm call usually starts with them there.  When, before the first
sweep, the slots below -1 are the leading slots of every block of the
chunk, nb0 >= 1 the most of them, that sweep rotates the trailing pivots
(p >= nb0) before the leading ones; otherwise it runs in the cyclic order.
Either way every pivot rotates once in it.  The leading pivots, rotated
last, then start the next sweeps with the trailing part's fill-in gone,
and cyclic Jacobi settles a pivot fastest from there (Golub and Van Loan,
8.5).  After the first sweep the call reads the diagonal again.  When the
slots below -1 are the leading slots 0..c-1 of every block of the chunk,
nb the largest c, only the pivots (p, q) with p < nb are rotated after
that, until they are within TOL.  The trailing (k - nb) x (k - nb) part of
every block is then certified >= -1 by Gershgorin discs (Golub and Van
Loan, 7.2): in each row from nb on, the diagonal less the sum of all
the row's off-diagonal magnitudes is at least -1.  A chunk without that
layout, or with any block that fails the certificate, goes on with the
full pivot set as if there were no split, so no call to LAPACK depends
on the shortcut.  On a 1000-rotation so3 line every block has 2 such
eigenpairs of 6 from iteration 20 on, and the split skips 6 of the 15
pivots.  With the trailing pivots first, an iteration there rotates 23.3
pivots, against 26.7 with a first sweep in the cyclic order (seeds 0-3,
458 iterations in all).
"""

import functools

import numpy as np

__all__ = ["eig"]

MAX_SWEEPS = 12
# ADMM iterations between two re-orthonormalizations of the loop's basis.
ORTHO_EVERY = 8
# Converged off-diagonal bound, for a block scaled into [1/2, 1).
TOL = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def eig(s: np.ndarray, work: np.ndarray, basis: np.ndarray, *, iteration: int | None = None):
    """Eigenpairs of the symmetric (k, k, m) stack s, which is left as it
    is, for a clip at -1: values lam (k, m) and a mask of the blocks done.
    work is (k, k, m) scratch, apart from s.

    basis is a (k, k, m) stack whose row basis[c] is vector c of every
    block: an identity, or a previous call's basis.  The sweeps start from
    it: s is rotated into it, and the rotations are accumulated into it, so
    it ends as the basis that goes with lam.  A block whose basis is near
    its eigenvectors needs fewer sweeps.  The basis is first
    re-orthonormalized in place: on every call, or, given the ADMM loop's
    iteration number, only when that is a multiple of ORTHO_EVERY.  In
    between, the basis must be the one the previous iteration's call left,
    or an identity.

    In a block that is done, the pairs with lam below -1 are eigenpairs
    to TOL and come first, in slots 0..c-1.  The other vectors span the
    rest; where the call took the split path (module docstring) their
    Rayleigh matrix is only certified >= -1, and their lam are its
    diagonal, also >= -1.  The pairs of a block that is not done are
    unusable."""
    # Each block is scaled by a power of two, which is exact, so that its
    # largest entry lies in [1/2, 1): the tolerance is absolute and no
    # square in a rotation can overflow.
    np.abs(s, out=work)
    _, e = np.frexp(work.max(axis=(0, 1)))
    if iteration is None or iteration % ORTHO_EVERY == 0:
        _orthonormalize(basis)
    _congruence(s, e, basis, work)
    done = _sweeps(work, basis, np.ldexp(-1.0, -e))
    lam = np.ldexp(np.diagonal(work).T, e)
    _below_first(lam, basis)
    return lam, done


def _orthonormalize(vt: np.ndarray):
    """One modified Gram-Schmidt pass over the columns vt[c], in place, the
    last column first.  So the leading columns, where `_below_first` puts
    the eigenvectors that the clip uses, are the ones made orthogonal to
    the rest: on 90x90 circle-grid solves this lowers the level at which
    the mean sphere distance settles from 1.90e-16 (first column first)
    to 1.82e-16 (over iterations 1,000-6,000, seeds 0-4)."""
    k, _, m = vt.shape
    t, dot = np.empty((k, m)), np.empty(m)
    for c in reversed(range(k)):
        v = vt[c]
        for j in range(k - 1, c, -1):
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


def _sweeps(w: np.ndarray, vt: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Jacobi on the (k, k, m) stack w, in place, with the rotations
    accumulated into vt: one full sweep, with the trailing pivots first
    where the chunk's slots below clip already lead, then the split pivot
    set where the chunk allows it, else the full set.  clip is -1 in each
    block's scale.  Returns which blocks are done."""
    k, _, m = w.shape
    scratch = tuple(np.empty(m) for _ in range(6)) + (np.empty((k, m)), np.empty((k, m)))
    pairs = _pairs(k)
    cut = _n_leading(k, _split_size(w, clip, *scratch[-2:]) or 0)
    if not _sweep(w, vt, pairs[cut:] + pairs[:cut], scratch):
        return np.ones(m, dtype=bool)
    nb = _split_size(w, clip, *scratch[-2:])
    if nb is not None:
        lead = pairs[: _n_leading(k, nb)]
        for _ in range(MAX_SWEEPS):
            if not _sweep(w, vt, lead, scratch):
                if _certified(w, nb, clip, scratch[0], scratch[-1]):
                    return np.ones(m, dtype=bool)
                break
    for _ in range(MAX_SWEEPS - 1):
        if not _sweep(w, vt, pairs, scratch):
            return np.ones(m, dtype=bool)
    off = np.abs(np.stack([w[p, q] for p, q, _ in pairs])).max(axis=0)
    return off <= TOL


def _sweep(w: np.ndarray, vt: np.ndarray, pairs: tuple, scratch: tuple) -> int:
    """One cyclic sweep over `pairs`, from `_pairs`: each pivot whose entry
    is above TOL in some block of w is rotated to zero in every block, and
    the rotation accumulated into vt.  Returns how many were rotated."""
    t, c, s, h, dp, dq, bx, by = scratch
    rotated = 0
    for p, q, r in pairs:
        apq = w[p, q]
        np.abs(apq, out=h)
        if h.max() <= TOL:
            continue
        rotated += 1
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
        x, y = w[p, r], w[q, r]
        _rotate(x, y, c, s, bx[: len(x)], by[: len(x)])
        w[r, p] = x
        w[r, q] = y
        w[p, p] = dp
        w[q, q] = dq
        w[p, q] = 0.0
        w[q, p] = 0.0
        _rotate(vt[p], vt[q], c, s, bx, by)
    return rotated


def _split_size(w: np.ndarray, clip: np.ndarray, below, up) -> int | None:
    """The most diagonal entries below clip in any block of w, when in
    every block they are the leading ones; else None.  below and up are
    (k, m) scratch."""
    np.less(np.diagonal(w).T, clip, out=below)
    np.greater(below[1:], below[:-1], out=up[1:])
    if up[1:].any():
        return None
    return int(np.count_nonzero(below.max(axis=1)))


def _certified(w, nb: int, clip, t, row) -> bool:
    """Whether in every block of w each Gershgorin disc of the rows from nb
    on lies at or above clip; t (m) and row (k, m) are scratch."""
    for i in range(nb, len(w)):
        np.abs(w[i], out=row)
        row[i] = 0.0
        row.sum(axis=0, out=t)
        np.subtract(w[i, i], t, out=t)
        if (t < clip).any():
            return False
    return True


def _below_first(lam: np.ndarray, vt: np.ndarray):
    """Move, in place, the pairs with lam below -1 of each block into its
    leading slots, keeping the order within both groups.  Each round swaps
    every pair below -1 with the pair in the slot before it, where that
    one is not below -1: a cold call moves most blocks, and a gather of
    all of vt would raise a solve's peak memory."""
    below = lam < -1.0
    while True:
        up = below[1:] > below[:-1]
        if not up.any():
            return
        for c in range(len(up)):
            b = np.flatnonzero(up[c])
            if len(b):
                for a in (lam, below, vt):
                    a[c, ..., b], a[c + 1, ..., b] = a[c + 1, ..., b], a[c, ..., b]


def _n_leading(k: int, nb: int) -> int:
    """How many pivots (p, q) of a side-k block have p < nb; they lead the
    cyclic order of `_pairs`."""
    return nb * (2 * k - nb - 1) // 2


@functools.cache
def _pairs(k: int) -> tuple:
    """The cyclic order of the pivots (p, q) of a side-k block, each with
    a slice of the indices other than p and q, or of all k where those are
    not evenly spaced; the pivot entries are overwritten either way."""
    table = []
    for p in range(k - 1):
        for q in range(p + 1, k):
            rest = [i for i in range(k) if i not in (p, q)]
            step = rest[1] - rest[0] if len(rest) > 1 else 1
            span = slice(rest[0], rest[-1] + 1, step) if rest else slice(0, 0)
            table.append((p, q, span if list(range(k))[span] == rest else slice(None)))
    return tuple(table)


def _rotate(x, y, c, s, bx, by):
    """(x, y) <- (c x - s y, s x + c y), in place; bx and by are scratch."""
    np.multiply(x, s, out=bx)
    np.multiply(y, s, out=by)
    x *= c
    x -= by
    y *= c
    y += bx
