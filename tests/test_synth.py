from dataclasses import dataclass

import numpy as np
import pytest

from relaxtik import synth
from relaxtik.manifold import rotation_to_quat


@dataclass(frozen=True)
class VmfParams:
    """Mean direction and concentration ("capacity") of a vMF law on S^(d-1)."""

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.shape[0] < 2:
            raise ValueError("mu must be a vector in R^d, d >= 2")
        if abs(np.linalg.norm(mu) - 1.0) > 1e-10:
            raise ValueError("mu must be unit-norm")
        if not (self.kappa >= 0.0):
            raise ValueError("kappa must be nonnegative")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))


def sample_vmf(p: VmfParams, rng_seed, count: int) -> np.ndarray:
    """count i.i.d. von Mises-Fisher samples around p.mu, shape (count, d)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    mus = np.broadcast_to(p.mu, (count, p.mu.shape[0]))
    return synth._vmf_rows(mus, p.kappa, rng)


def test_vmf_params_validation():
    with pytest.raises(ValueError):
        VmfParams(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(ValueError):
        VmfParams(np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError):
        synth.So3NoiseParams(-1.0, 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vmf_unit_norm_and_determinism(d):
    mu = np.zeros(d)
    mu[0] = 1.0
    p = VmfParams(mu, 5.0)
    s1 = sample_vmf(p, 42, 500)
    s2 = sample_vmf(p, 42, 500)
    assert np.array_equal(s1, s2)
    assert s1.shape == (500, d)
    assert np.abs(np.linalg.norm(s1, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vmf_uniform_at_zero_kappa(d):
    mu = np.zeros(d)
    mu[-1] = 1.0
    s = sample_vmf(VmfParams(mu, 0.0), 0, 100000)
    assert np.linalg.norm(s.mean(axis=0)) < 4.0 / np.sqrt(100000)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vmf_concentration_at_huge_kappa(d):
    mu = np.zeros(d)
    mu[0] = 1.0
    s = sample_vmf(VmfParams(mu, 1e6), 1, 2000)
    ang = np.arccos(np.clip(s @ mu, -1.0, 1.0))
    assert ang.max() < 0.01


def test_vmf_circle_density_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    kappa = 2.0
    mu = np.array([1.0, 0.0])
    s = sample_vmf(VmfParams(mu, kappa), 3, 100000)
    theta = np.arctan2(s[:, 1], s[:, 0])  # in (-pi, pi], mean angle 0
    bins = np.linspace(-np.pi, np.pi, 37)
    counts, _ = np.histogram(theta, bins=bins)
    # expected frequencies by numerical integration of exp(kappa cos t)
    fine = np.linspace(-np.pi, np.pi, 36 * 400 + 1)
    dens = np.exp(kappa * np.cos(fine))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cdf /= cdf[-1]
    probs = np.diff(np.interp(bins, fine, cdf))
    expected = probs * counts.sum()
    stat, pval = scipy_stats.chisquare(counts, expected)
    assert pval > 0.05


def test_vmf_mean_resultant_length_d3():
    # E<x, mu> = coth(kappa) - 1/kappa on S^2
    kappa = 2.0
    mu = np.array([0.0, 0.0, 1.0])
    s = sample_vmf(VmfParams(mu, kappa), 4, 200000)
    emp = float(s.mean(axis=0) @ mu)
    expect = 1.0 / np.tanh(kappa) - 1.0 / kappa
    assert abs(emp - expect) < 5e-3


def test_add_vmf_noise_rows():
    x = synth.smooth_circle_signal(50, 0)
    y = synth.add_vmf_noise(x, 50.0, 1)
    assert y.shape == x.shape
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() < 1e-12
    ang = np.arccos(np.clip(np.sum(x * y, axis=1), -1, 1))
    assert ang.mean() < 0.5


def test_smooth_circle_increment_bound():
    x = synth.smooth_circle_signal(2, 7)
    gap = np.degrees(np.arccos(np.clip(np.sum(x[0] * x[1]), -1, 1)))
    assert gap <= 5.0 + 1e-9
    x = synth.smooth_circle_signal(400, 8)
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() < 1e-12
    gaps = np.arccos(np.clip(np.einsum("nd,nd->n", x[:-1], x[1:]), -1, 1))
    assert np.degrees(gaps).max() <= 5.0 + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_smooth_sphere_signal(d):
    x = synth.smooth_sphere_signal(300, d, 9)
    assert x.shape == (300, d)
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() < 1e-12
    gaps = np.arccos(np.clip(np.einsum("nd,nd->n", x[:-1], x[1:]), -1, 1))
    assert np.degrees(gaps).max() <= 5.0 + 1e-9


def test_smooth_fields_on_grid():
    x = synth.smooth_circle_field(12, 9, 10)
    assert x.shape == (108, 2)
    idx = np.arange(108).reshape(12, 9)
    for a, b in [(idx[:, :-1].ravel(), idx[:, 1:].ravel()),
                 (idx[:-1, :].ravel(), idx[1:, :].ravel())]:
        gaps = np.arccos(np.clip(np.einsum("nd,nd->n", x[a], x[b]), -1, 1))
        assert np.degrees(gaps).max() <= 5.0 + 1e-9


def test_smooth_so3_signal_valid_rotations():
    r = synth.smooth_so3_signal(150, 11)
    assert r.shape == (150, 3, 3)
    for ri in r[::10]:
        assert np.abs(ri.T @ ri - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(ri) - 1.0) < 1e-12
    # successive rotation angle stays under the bound
    q = np.stack([rotation_to_quat(ri) for ri in r])
    dots = np.abs(np.einsum("nd,nd->n", q[:-1], q[1:]))
    rot_gap = 2.0 * np.degrees(np.arccos(np.clip(dots, -1, 1)))
    assert rot_gap.max() <= 5.0 + 1e-6


def test_smooth_so3_signal_is_the_width_one_field():
    # so3 line inputs, the CLI benchmark's among them, come from the signal
    assert np.array_equal(synth.smooth_so3_signal(150, 11), synth.smooth_so3_field(150, 1, 11))
    a = synth.smooth_so3_signal(1000, np.random.default_rng([0, 1]))
    b = synth.smooth_so3_field(1000, 1, np.random.default_rng([0, 1]))
    assert np.array_equal(a, b)


def test_perturb_so3_concentration_and_fallback():
    r = synth.smooth_so3_signal(5, 12)[3]
    out = synth.perturb_so3_signal(r[None], synth.So3NoiseParams(1e9, 1e9), 13)[0]
    assert np.linalg.norm(out - r) < 1e-3
    out = synth.perturb_so3_signal(np.eye(3)[None], synth.So3NoiseParams(30.0, 15.0), 14)[0]
    assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(out) - 1.0) < 1e-12
    a = synth.perturb_so3_signal(r[None], synth.So3NoiseParams(30.0, 15.0), 15)[0]
    b = synth.perturb_so3_signal(r[None], synth.So3NoiseParams(30.0, 15.0), 15)[0]
    assert np.array_equal(a, b)


def test_perturb_so3_signal_draws_each_law_once(monkeypatch):
    rots = synth.smooth_so3_signal(1000, 16)
    rots[::100] = np.eye(3)  # axis drawn uniformly
    calls = []
    vmf_rows = synth._vmf_rows

    def counted(*args):
        calls.append(args)
        return vmf_rows(*args)

    monkeypatch.setattr(synth, "_vmf_rows", counted)
    out = synth.perturb_so3_signal(rots, synth.So3NoiseParams(30.0, 15.0), 17)
    assert len(calls) == 2
    assert out.shape == (1000, 3, 3)
    assert np.abs(np.swapaxes(out, 1, 2) @ out - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.det(out) - 1.0).max() < 1e-12
    near = synth.perturb_so3_signal(rots, synth.So3NoiseParams(1e9, 1e9), 17)
    assert np.abs(near - rots).max() < 1e-3


def test_mean_sphere_distance_examples():
    assert synth.mean_sphere_distance(np.eye(3)[:2]) == 0.0
    assert synth.mean_sphere_distance(np.zeros((4, 3))) == 1.0
    half = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert synth.mean_sphere_distance(half) == 0.5


def test_rmse_examples():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert synth.rmse(x, x) == 0.0
    assert synth.rmse(x, -x) == 2.0
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((2, 10, 3))
    direct = np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1)))
    assert abs(synth.rmse(a, b) - direct) < 1e-14
    with pytest.raises(ValueError):
        synth.rmse(a, b[:5])


def test_hue_primary_colors():
    hue, _, _, gray = synth.rgb_to_hsv(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1.0]]))
    ang = np.arctan2(hue[:, 1], hue[:, 0]) % (2 * np.pi)
    assert np.abs(ang - np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])).max() < 1e-12
    assert not gray.any()


def test_hue_gray_flagged():
    hue, _, _, gray = synth.rgb_to_hsv(np.array([0.5, 0.5, 0.5]))
    assert gray
    assert np.array_equal(hue, [1.0, 0.0])


def test_hue_round_trip():
    rng = np.random.default_rng(17)
    rgb = rng.uniform(0.0, 1.0, (200, 3))
    keep = rgb.max(axis=1) - rgb.min(axis=1) > 1e-6  # not gray
    h, s, v, gray = synth.rgb_to_hsv(rgb)
    assert not gray[keep].any()
    back = synth.hue_to_rgb(h, s, v)
    assert np.abs(back[keep] - rgb[keep]).max() < 1e-10
    h2, *_ = synth.rgb_to_hsv(back[keep])
    assert np.abs(h2 - h[keep]).max() < 1e-10


def test_chromaticity_examples_and_round_trip():
    ch, b, black = synth.rgb_to_chromaticity_brightness(np.array([0.2, 0.4, 0.4]))
    assert abs(b - 0.6) < 1e-15
    assert np.abs(ch - np.array([0.2, 0.4, 0.4]) / 0.6).max() < 1e-15
    ch, b, _ = synth.rgb_to_chromaticity_brightness(np.array([1.0, 1.0, 1.0]))
    assert np.abs(ch - 1.0 / np.sqrt(3.0)).max() < 1e-15
    ch, b, black = synth.rgb_to_chromaticity_brightness(np.zeros(3))
    assert black and b == 0.0
    rng = np.random.default_rng(18)
    rgb = rng.uniform(0.01, 1.0, (100, 3))
    ch, b, black = synth.rgb_to_chromaticity_brightness(rgb)
    assert not black.any()
    assert np.abs(synth.chromaticity_brightness_to_rgb(ch, b) - rgb).max() < 1e-12


def test_smooth_color_image():
    img = synth.smooth_color_image(12, 10, 19)
    assert img.shape == (12, 10, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0
    _, _, _, gray = synth.rgb_to_hsv(img)
    assert not gray.any()
    _, _, black = synth.rgb_to_chromaticity_brightness(img)
    assert not black.any()


@pytest.mark.parametrize("call, message", [
    (lambda: synth.add_vmf_noise(np.array([[1.0, 0.0]]), -1.0, 0), "kappa must be nonnegative"),
    (lambda: synth.smooth_sphere_signal(5, 1, 0), "d must be at least 2"),
    (lambda: synth.rgb_to_hsv(np.zeros((2, 2, 2))), "last axis must hold"),
    (lambda: synth.hue_to_rgb(np.zeros((2, 2, 3)), np.ones((2, 2)), np.ones((2, 2))),
     "hue must be a unit vector"),
    (lambda: synth.rgb_to_chromaticity_brightness(np.zeros((2, 2, 4))), "last axis must hold"),
    (lambda: synth.smooth_color_image(1, 5, 0), "image must be at least 2 x 2"),
], ids=["vmf-kappa", "sphere-d", "hsv-channels", "hue-dim", "chroma-channels",
        "image-size"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
