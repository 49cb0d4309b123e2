import numpy as np
import pytest

from relaxtik.smallsym import project_shifted_psd, symmetrize


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


@pytest.mark.parametrize("k", range(2, 13))
def test_eigh_matches_lapack_single(k):
    # the projection of one matrix against the LAPACK eigenvalue clip
    rng = np.random.default_rng(k)
    a = random_sym(rng, k)
    p = project_shifted_psd(a)
    assert p.shape == (k, k)
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert_projection_conditions(a, p)


@pytest.mark.parametrize("k", [2, 4, 6, 12])
def test_eigh_matches_lapack_batch(k):
    rng = np.random.default_rng(100 + k)
    a = random_sym(rng, k, batch=64)
    p = project_shifted_psd(a)
    assert p.shape == (64, k, k)
    assert np.abs(p - eigen_clip(a)).max() < 1e-12
    assert_projection_conditions(a, p)
    for i in (0, 31, 63):
        assert np.abs(project_shifted_psd(a[i]) - p[i]).max() < 1e-12


def test_eigh_handles_diagonal_and_repeated():
    p = project_shifted_psd(np.diag([3.0, -2.0, 0.5]))
    assert np.abs(p - np.diag([3.0, -1.0, 0.5])).max() < 1e-15
    assert np.abs(project_shifted_psd(-3.0 * np.eye(4)) + np.eye(4)).max() < 1e-15
    assert np.abs(project_shifted_psd(2.0 * np.eye(4)) - 2.0 * np.eye(4)).max() < 1e-15
    # repeated eigenvalues on both sides of the clip, in a random basis
    rng = np.random.default_rng(3)
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = (v * np.array([-4.0, -4.0, 1.5, 1.5, 1.5])) @ v.T
    p = project_shifted_psd(a)
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


def test_projection_matches_eigenvalue_clip():
    rng = np.random.default_rng(7)
    a = random_sym(rng, 6, batch=200)
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
