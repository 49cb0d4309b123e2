import warnings

import numpy as np
import pytest

from relaxtik import jacobi, smallsym
from relaxtik.smallsym import project_shifted_psd


def symmetrize(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def random_sym(rng, k, batch=None):
    shape = (k, k) if batch is None else (batch, k, k)
    a = rng.standard_normal(shape)
    return symmetrize(a)


def eigen_clip(a):
    """The projection written out from LAPACK's eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, -1.0)[..., None, :]) @ np.swapaxes(v, -1, -2)


def assert_projection_conditions(a, p, tol=1e-12):
    """p is the nearest point of {A >= -I} to a exactly when p + I >= 0,
    a - p <= 0 and <a - p, p + I> = 0 (optimality of a convex projection)."""
    k = a.shape[-1]
    assert np.abs(p - np.swapaxes(p, -1, -2)).max() == 0.0
    assert np.linalg.eigvalsh(p).min() >= -1.0 - tol
    assert np.linalg.eigvalsh(a - p).max() <= tol
    inner = np.sum((a - p) * (p + np.eye(k)), axis=(-2, -1))
    assert np.abs(inner).max() <= tol * max(1.0, np.abs(a).max() ** 2)


def on_both_paths(ks):
    """(path, k) parameters.  The eigh path keeps the plain id k."""
    return [pytest.param("eigh", k, id=str(k)) for k in ks] + [
        pytest.param("jacobi", k, id=f"jacobi-{k}") for k in ks
    ]


@pytest.fixture
def on_path(monkeypatch):
    """on_path(path, a) is the batch to project so that a runs on `path`.

    The eigh path takes a as it is: these batches are below the dispatch
    size.  The Jacobi path takes a tiled above it, and runs for every k.
    """
    monkeypatch.setattr(smallsym, "JACOBI_MAX_DIM", smallsym.MAX_DIM)

    def prepare(path, a):
        if path == "eigh":
            assert len(a) < smallsym.JACOBI_MIN_BLOCKS
            return a
        return np.tile(a, (-(-smallsym.JACOBI_MIN_BLOCKS // len(a)), 1, 1))

    return prepare


class EighCounter:
    """np.linalg.eigh, counting its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", self)

    def __call__(self, a):
        self.calls += 1
        return self.eigh(a)


@pytest.mark.parametrize("k", range(2, 13))
def test_eigh_matches_lapack_single(k):
    # the projection of one matrix against the LAPACK eigenvalue clip
    rng = np.random.default_rng(k)
    a = random_sym(rng, k)
    p = project_shifted_psd(a)
    assert p.shape == (k, k)
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert_projection_conditions(a, p)


@pytest.mark.parametrize("path, k", on_both_paths([2, 4, 6, 12]))
def test_eigh_matches_lapack_batch(path, k, on_path):
    rng = np.random.default_rng(100 + k)
    a = on_path(path, random_sym(rng, k, batch=64))
    p = project_shifted_psd(a)
    assert p.shape == a.shape
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert_projection_conditions(a, p)
    for i in (0, 31, 63):
        assert np.abs(project_shifted_psd(a[i]) - p[i]).max() < 1e-12


def test_eigh_handles_diagonal_and_repeated(on_path):
    # Not parametrized, to keep its id: it runs both paths in turn.
    for path in ("eigh", "jacobi"):

        def project(a):
            return project_shifted_psd(on_path(path, a[None]))

        p = project(np.diag([3.0, -2.0, 0.5]))
        assert np.abs(p - np.diag([3.0, -1.0, 0.5])).max() < 1e-15
        assert np.abs(project(-3.0 * np.eye(4)) + np.eye(4)).max() < 1e-15
        assert np.abs(project(2.0 * np.eye(4)) - 2.0 * np.eye(4)).max() < 1e-15
        # repeated eigenvalues on both sides of the clip, in a random basis
        rng = np.random.default_rng(3)
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = (v * np.array([-4.0, -4.0, 1.5, 1.5, 1.5])) @ v.T
        p = project(a)
        assert np.abs(p - (v * np.array([-1.0, -1.0, 1.5, 1.5, 1.5])) @ v.T).max() < 1e-12
        assert_projection_conditions(a, p)


def test_eigh_rejects_bad_shapes():
    for bad in (
        np.zeros((3, 4)),
        np.zeros((1, 1)),
        np.zeros((13, 13)),
        np.zeros(4),
        np.zeros((5, 2, 3, 3)),
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf, 1.0]),
    ):
        with pytest.raises(ValueError):
            project_shifted_psd(bad)
    batch = np.zeros((4, 3, 3))
    batch[2, 0, 1] = np.nan
    with pytest.raises(ValueError):
        project_shifted_psd(batch)


def test_projection_matches_eigenvalue_clip(on_path):
    # Not parametrized, to keep its id: it runs both paths in turn.
    for path in ("eigh", "jacobi"):
        rng = np.random.default_rng(7)
        a = on_path(path, random_sym(rng, 6, batch=200))
        p = project_shifted_psd(a)
        assert np.abs(p - eigen_clip(a)).max() < 1e-12


def test_projection_idempotent_and_feasible_fixed():
    rng = np.random.default_rng(8)
    a = random_sym(rng, 5, batch=50)
    p = project_shifted_psd(a)
    assert np.abs(project_shifted_psd(p) - p).max() < 1e-10
    # eigenvalues of the projection never drop below -1
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1.0 - 1e-12
    # already-feasible input is untouched
    feas = p[0]
    assert np.abs(project_shifted_psd(feas) - feas).max() < 1e-10


def blocks_with_spectrum(rng, k, n_below):
    """A random-basis block with n_below eigenvalues below -1, the rest above."""
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = np.concatenate([rng.uniform(-4.0, -1.05, n_below), rng.uniform(-0.95, 3.0, k - n_below)])
    return symmetrize((v * lam) @ v.T)


@pytest.mark.parametrize("path, k", on_both_paths(range(2, 13)))
def test_projection_of_batches_mixing_every_rank(path, k, on_path):
    # blocks with 0, 1, ..., k eigenvalues below -1 in one batch, and in
    # sub-batches whose fewest and most such eigenvalues differ
    rng = np.random.default_rng(200 + k)
    a = np.stack([blocks_with_spectrum(rng, k, j) for j in range(k + 1) for _ in range(3)])
    batches = [a, a[::-1]] + [a[rng.choice(len(a), size=5, replace=False)] for _ in range(20)]
    batches += [a[3 * j : 3 * j + 3] for j in range(k + 1)]
    for batch in batches:
        batch = on_path(path, batch)
        p = project_shifted_psd(batch)
        assert np.abs(p - eigen_clip(batch)).max() < 1e-12
        assert np.array_equal(p, p.swapaxes(-1, -2))
        assert_projection_conditions(batch, p)


@pytest.mark.parametrize("k", [2, 4, 5, 6])
def test_jacobi_path_takes_extreme_blocks_without_warnings(k):
    rng = np.random.default_rng(300 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    diagonal = np.zeros((n, k, k))
    diagonal[:, range(k), range(k)] = rng.uniform(-3.0, 3.0, (n, k))
    batches = [
        diagonal,
        np.zeros((n, k, k)),
        np.tile(-3.0 * np.eye(k), (n, 1, 1)),
        np.tile(2.0 * np.eye(k), (n, 1, 1)),
        1e-8 * random_sym(rng, k, batch=n),
        1e8 * random_sym(rng, k, batch=n),
        random_sym(rng, k, batch=n) * np.logspace(-8, 8, n)[:, None, None],
    ]
    for a in batches:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = project_shifted_psd(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(p - eigen_clip(a)).max() < 1e-12 * scale
        assert np.array_equal(p, p.swapaxes(-1, -2))


def test_batch_shape_picks_the_eigensolver(monkeypatch):
    rng = np.random.default_rng(11)
    # the 90x90 grid's blocks and a 1000-rotation SO(3) line's take Jacobi
    on_jacobi = [random_sym(rng, 4, batch=16020), random_sym(rng, 6, batch=999)]
    expected = [eigen_clip(a) for a in on_jacobi]
    counter = EighCounter(monkeypatch)
    for a, clip in zip(on_jacobi, expected):
        p = project_shifted_psd(a)
        assert counter.calls == 0
        assert np.abs(p - clip).max() < 1e-12
        assert np.array_equal(p, p.swapaxes(-1, -2))
    # a short line, an SO(3) line just below the dispatch size, and blocks
    # above k = 6
    for a in (random_sym(rng, 4, batch=255),
              random_sym(rng, 6, batch=smallsym.JACOBI_MIN_BLOCKS - 1),
              random_sym(rng, 7, batch=4096)):
        calls = counter.calls
        project_shifted_psd(a)
        assert counter.calls == calls + 1
    # one call per chunk
    calls = counter.calls
    project_shifted_psd(random_sym(rng, 7, batch=smallsym.CHUNK + 1))
    assert counter.calls == calls + 2


def test_unconverged_jacobi_blocks_fall_back_to_eigh(monkeypatch):
    # After one sweep only the diagonal blocks have converged; the rest go
    # to eigh in one call, and the result is the same projection.
    rng = np.random.default_rng(12)
    a = random_sym(rng, 5, batch=smallsym.JACOBI_MIN_BLOCKS)
    a[::2] = np.diag([-3.0, -1.5, 0.0, 1.0, 2.0])
    expected = eigen_clip(a)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    counter = EighCounter(monkeypatch)
    p = project_shifted_psd(a)
    assert counter.calls == 1
    assert np.abs(p - expected).max() < 1e-12
    assert_projection_conditions(a, p)
    # unconverged blocks in two chunks, one eigh call for each
    a = random_sym(rng, 5, batch=smallsym.CHUNK + smallsym.JACOBI_MIN_BLOCKS)
    a[::2] = np.diag([-3.0, -1.5, 0.0, 1.0, 2.0])
    p = project_shifted_psd(a)
    assert counter.calls == 3
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert np.array_equal(p, p.swapaxes(-1, -2))


def block_axis_fastest(a):
    """A copy of the (M, k, k) batch a, stored (k, k, M)."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


@pytest.mark.parametrize("path, k", on_both_paths([2, 4, 6]))
@pytest.mark.parametrize("in_layout", [np.ascontiguousarray, block_axis_fastest],
                         ids=["in-mkk", "in-kkm"])
@pytest.mark.parametrize("out_layout", [np.ascontiguousarray, block_axis_fastest],
                         ids=["out-mkk", "out-kkm"])
def test_projection_into_out_equals_the_returned_one(path, k, in_layout, out_layout, on_path):
    rng = np.random.default_rng(400 + k)
    a = in_layout(on_path(path, rng.standard_normal((200, k, k))))
    out = out_layout(np.full(a.shape, np.nan))
    assert project_shifted_psd(a, out=out) is out
    assert np.array_equal(out, project_shifted_psd(a))


@pytest.mark.parametrize("sweeps", [jacobi.MAX_SWEEPS, 1])
@pytest.mark.parametrize("k", [4, 6, 7])
def test_projection_into_out_over_several_chunks(monkeypatch, k, sweeps):
    # k = 4 and 6 run on Jacobi, with every block converged or, after one
    # sweep, most of them left to eigh; k = 7 runs on eigh.
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", sweeps)
    rng = np.random.default_rng(500 + k)
    a = block_axis_fastest(random_sym(rng, k, batch=smallsym.CHUNK + smallsym.JACOBI_MIN_BLOCKS))
    out = block_axis_fastest(np.full(a.shape, np.nan))
    project_shifted_psd(a, out=out)
    assert np.array_equal(out, project_shifted_psd(a))
    assert np.array_equal(out, project_shifted_psd(np.ascontiguousarray(a)))


def test_projection_rejects_an_out_that_does_not_fit():
    a = np.zeros((4, 3, 3))
    for bad in (np.zeros((4, 3, 4)), np.zeros((3, 3)), np.zeros((4, 3, 3), dtype=np.float32)):
        for name in ("out", "basis"):
            with pytest.raises(ValueError):
                project_shifted_psd(a, **{name: bad})


def identity_basis(n, k):
    return np.tile(np.eye(k), (n, 1, 1))


def orthonormality_error(basis):
    """Largest entry of V^T V - I over the blocks; row c of basis[m] is
    eigenvector c of block m."""
    return np.abs(basis @ basis.swapaxes(-1, -2) - np.eye(basis.shape[-1])).max()


class SweepCounter:
    """jacobi's per-sweep helper, recording for each eigensolver call the
    pivot table of every sweep and how many of its pivots were rotated;
    the result is the same."""

    def __init__(self, monkeypatch):
        self.calls = []
        sweeps, sweep = jacobi._sweeps, jacobi._sweep

        def counted_sweeps(*args):
            self.calls.append([])
            return sweeps(*args)

        def counted_sweep(w, vt, pairs, scratch):
            rotated = sweep(w, vt, pairs, scratch)
            self.calls[-1].append((pairs, rotated))
            return rotated

        monkeypatch.setattr(jacobi, "_sweeps", counted_sweeps)
        monkeypatch.setattr(jacobi, "_sweep", counted_sweep)

    @property
    def counts(self):
        """The sweeps of each call that rotated some pivot."""
        return [sum(rotated > 0 for _, rotated in call) for call in self.calls]

    @property
    def pivots(self):
        """The pivots each call rotated."""
        return [sum(rotated for _, rotated in call) for call in self.calls]

    def after_the_first_sweep(self, call):
        """The pivots (p, q) of every table that call passed after its first."""
        return {(p, q) for pairs, _ in self.calls[call][1:] for p, q, _ in pairs}


@pytest.mark.parametrize("k", range(2, 7))
def test_warm_started_jacobi_projection_matches_the_cold_one(k):
    # The basis a projection leaves is orthonormal and starts the next one,
    # here of a slightly changed batch; so does a basis perturbed off
    # orthonormality, which the projection re-orthonormalizes first.
    rng = np.random.default_rng(600 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    a = random_sym(rng, k, batch=n)
    basis = identity_basis(n, k)
    assert np.array_equal(project_shifted_psd(a, basis=basis), project_shifted_psd(a))
    assert orthonormality_error(basis) <= 1e-14
    a += 1e-3 * random_sym(rng, k, batch=n)
    cold = project_shifted_psd(a)
    out = np.full(a.shape, np.nan)
    assert project_shifted_psd(a, out=out, basis=basis) is out
    assert np.abs(out - cold).max() <= 1e-13
    assert orthonormality_error(basis) <= 1e-14
    basis += 1e-3 * rng.standard_normal(basis.shape)
    assert orthonormality_error(basis) > 1e-4
    assert np.abs(project_shifted_psd(a, basis=basis) - cold).max() <= 1e-13
    assert orthonormality_error(basis) <= 1e-14


@pytest.mark.parametrize("k", [4, 6, 7])
def test_eigh_path_neither_reads_nor_writes_the_basis(k):
    # a short batch of side 4, one of side 6 just below the dispatch size
    # and a large one of side 7 all run on eigh
    rng = np.random.default_rng(700 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    a = random_sym(rng, k, batch={4: 255, 6: n - 1, 7: n}[k])
    basis = rng.standard_normal(a.shape)
    before = basis.copy()
    assert np.array_equal(project_shifted_psd(a, basis=basis), project_shifted_psd(a))
    assert np.array_equal(basis, before)


@pytest.mark.parametrize("path, k", on_both_paths([2, 4, 6]))
def test_a_loop_call_on_a_symmetric_batch_is_the_public_call(monkeypatch, path, k, on_path):
    # A loop call gathers the batch with a copy, which on an exactly
    # symmetric batch gives the bits of the public call's average of the
    # two triangles.  From an identity, and from a warm basis on a cadence
    # iteration, it re-orthonormalizes as the public call does; in between
    # it skips the pass.
    rng = np.random.default_rng(1000 + k)
    a = block_axis_fastest(on_path(path, random_sym(rng, k, batch=200)))
    b = a + 1e-3 * symmetrize(rng.standard_normal(a.shape))
    passes, orthonormalize = [], jacobi._orthonormalize
    monkeypatch.setattr(jacobi, "_orthonormalize", lambda vt: passes.append(orthonormalize(vt)))
    public, loop = identity_basis(len(a), k), identity_basis(len(a), k)
    for batch, iteration in ((a, 1), (b, jacobi.ORTHO_EVERY)):
        assert np.array_equal(project_shifted_psd(batch, basis=loop, iteration=iteration),
                              project_shifted_psd(batch, basis=public))
        assert np.array_equal(loop, public)
    project_shifted_psd(b, basis=loop, iteration=jacobi.ORTHO_EVERY + 1)
    assert len(passes) == (3 if path == "jacobi" else 0)


@pytest.mark.parametrize("path, k", on_both_paths([2, 4, 6]))
def test_a_public_call_projects_the_symmetric_part(path, k, on_path):
    # A batch that is not symmetric projects as its symmetric part does,
    # bit for bit.
    rng = np.random.default_rng(1100 + k)
    a = on_path(path, rng.standard_normal((200, k, k)))
    assert not np.array_equal(a, a.swapaxes(-1, -2))
    sym = 0.5 * (a + a.swapaxes(-1, -2))
    assert np.array_equal(project_shifted_psd(a), project_shifted_psd(sym))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_warm_start_cuts_the_rotating_sweeps(monkeypatch, k):
    # A cold start takes 4 to 6 rotating sweeps; a projection of a slightly
    # changed batch, warm-started from the first one's basis, at most 3.
    rng = np.random.default_rng(800 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    a = random_sym(rng, k, batch=n)
    b = a + 1e-3 * random_sym(rng, k, batch=n)

    def two_projections():
        basis = identity_basis(n, k)
        project_shifted_psd(a, basis=basis)
        return project_shifted_psd(b, basis=basis)

    plain = two_projections()
    counter = SweepCounter(monkeypatch)
    assert np.array_equal(two_projections(), plain)
    assert len(counter.counts) == 2
    assert counter.counts[0] >= 4 and counter.counts[1] <= 3
    assert counter.pivots[1] < counter.pivots[0]
    assert np.abs(plain - eigen_clip(b)).max() < 1e-12


def leading_pivots(k, nb):
    """The pivots (p, q) of a side-k block with p < nb."""
    return {(p, q) for p, q, _ in jacobi._pairs(k) if p < nb}


def assert_clip_with_orthonormal_basis(a, p, basis):
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert np.array_equal(p, p.swapaxes(-1, -2))
    assert orthonormality_error(basis) <= 1e-14


@pytest.mark.parametrize("k, n_below", [(4, 1), (6, 2)])
def test_warm_projection_rotates_only_the_leading_pivots(monkeypatch, k, n_below):
    # Every block has n_below eigenvalues below -1, as at a tight solution
    # (1 on a circle grid, 2 on an so3 line).  The first projection leaves
    # them in the leading slots of the basis; after the first sweep of the
    # warm second one only pivots (p, q) with p < n_below rotate, and the
    # trailing part is certified, on Jacobi alone.
    rng = np.random.default_rng(900 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    a = np.stack([blocks_with_spectrum(rng, k, n_below) for _ in range(n)])
    b = a + 1e-3 * random_sym(rng, k, batch=n)
    basis = identity_basis(n, k)
    assert_clip_with_orthonormal_basis(a, project_shifted_psd(a, basis=basis), basis)
    counter, eigh = SweepCounter(monkeypatch), EighCounter(monkeypatch)
    proj = project_shifted_psd(b, basis=basis)
    assert eigh.calls == 0
    assert counter.after_the_first_sweep(0) == leading_pivots(k, n_below)
    assert_clip_with_orthonormal_basis(b, proj, basis)
    # The first sweep rotates every pivot once, those with p >= n_below first.
    first = [(p, q) for p, q, _ in counter.calls[0][0][0]]
    assert sorted(first) == [(p, q) for p, q, _ in jacobi._pairs(k)]
    leading = [p < n_below for p, _ in first]
    assert leading == sorted(leading)


@pytest.mark.parametrize("hidden", [False, True], ids=["just-above", "hidden-below"])
def test_a_block_failing_the_certificate_sends_its_chunk_to_the_full_pivot_set(monkeypatch, hidden):
    # Every block is -3 in its leading slot, uncoupled from a 3x3 rest.
    # just-above: the rest has an eigenvalue of -0.999, in a random basis.
    # hidden-below: the rest is one matrix with an eigenvalue of -1.001 whose
    # diagonal stays above -1 through the first sweep.  Either way that sweep
    # leaves the leading slot the only one below -1, the coupling left in the
    # rest fails the certificate, and the chunk goes on with all pivots,
    # which alone clip the hidden eigenvalue; LAPACK is not called.
    rng = np.random.default_rng(950)
    n, k = smallsym.JACOBI_MIN_BLOCKS, 4
    a = np.zeros((n, k, k))
    a[:, 0, 0] = -3.0
    rest = np.array([[-0.342, -0.714, -0.352], [-0.714, 0.011, 0.642], [-0.352, 0.642, -0.528]])
    assert -1.01 < np.linalg.eigvalsh(rest)[0] < -1.0
    for block in a:
        if not hidden:
            v, _ = np.linalg.qr(rng.standard_normal((k - 1, k - 1)))
            rest = symmetrize((v * [-0.999, 1.0, 2.0]) @ v.T)
        block[1:, 1:] = rest
    basis = identity_basis(n, k)
    counter, eigh = SweepCounter(monkeypatch), EighCounter(monkeypatch)
    proj = project_shifted_psd(a, basis=basis)
    assert eigh.calls == 0
    sweeps = [pairs for pairs, _ in counter.calls[0]]
    # the full sweep, the leading pivots, then the full set again
    assert sweeps[1] == jacobi._pairs(k)[: k - 1] and sweeps[2] == jacobi._pairs(k)
    assert_clip_with_orthonormal_basis(a, proj, basis)


@pytest.mark.parametrize("k, n_below", [(4, 1), (6, 2)])
def test_a_call_moves_the_pairs_below_minus_one_to_the_leading_slots(monkeypatch, k, n_below):
    # A warm basis of exact eigenvectors in descending order puts the pairs
    # below -1 last: the first call cannot split, and ends by permuting
    # them into the leading slots, so the second call splits.
    rng = np.random.default_rng(970 + k)
    n = smallsym.JACOBI_MIN_BLOCKS
    a = np.stack([blocks_with_spectrum(rng, k, n_below) for _ in range(n)])
    b = a + 1e-3 * random_sym(rng, k, batch=n)
    basis = np.linalg.eigh(a)[1].swapaxes(-1, -2)[:, ::-1].copy()
    counter = SweepCounter(monkeypatch)
    assert_clip_with_orthonormal_basis(a, project_shifted_psd(a, basis=basis), basis)
    assert counter.after_the_first_sweep(0) in (set(), leading_pivots(k, k))
    rayleigh = np.einsum("mci,mij,mcj->mc", basis, a, basis)
    assert (rayleigh[:, :n_below] < -1.0).all() and (rayleigh[:, n_below:] > -1.0).all()
    assert_clip_with_orthonormal_basis(b, project_shifted_psd(b, basis=basis), basis)
    assert counter.after_the_first_sweep(1) == leading_pivots(k, n_below)
