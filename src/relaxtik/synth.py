"""Synthetic ground truths, von Mises-Fisher noise, metrics, and color maps.

Everything takes an explicit seed (or an already-constructed Generator) and
is deterministic given it.  Smooth signals are built as a base point plus a
low-frequency trigonometric perturbation, rescaled until the angle across
every edge of the line or grid stays below MAX_STEP_DEG.  The generators
take a shape and a seed only.
"""

from dataclasses import dataclass

import numpy as np

from relaxtik.graph import grid_graph
from relaxtik.manifold import (
    axis_angle_to_rotation,
    quat_to_rotation,
    rotation_to_axis_angle,
)
from relaxtik.model import mean_sphere_distance

__all__ = [
    "So3NoiseParams",
    "add_vmf_noise",
    "smooth_circle_signal",
    "smooth_sphere_signal",
    "smooth_so3_signal",
    "smooth_circle_field",
    "smooth_sphere_field",
    "smooth_so3_field",
    "smooth_color_image",
    "perturb_so3_signal",
    "mean_sphere_distance",
    "rmse",
    "hue_to_rgb",
    "rgb_to_hsv",
    "rgb_to_chromaticity_brightness",
    "chromaticity_brightness_to_rgb",
]

# The bound on the angle between adjacent values of a smooth signal.
MAX_STEP_DEG = 5.0


@dataclass(frozen=True)
class So3NoiseParams:
    """Axis concentration (on S^2) and angle concentration (on S^1)."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (self.kappa1 >= 0.0 and self.kappa2 >= 0.0):
            raise ValueError("concentrations must be nonnegative")


def _vmf_w(kappa: float, d: int, count: int, rng) -> np.ndarray:
    """Cosine-against-the-mean marginal of vMF on S^(d-1), d >= 3.

    Ulrich-Wood rejection: a beta envelope in the variable
    w = (1 - (1+b) z) / (1 - (1-b) z).
    """
    p = float(d)
    # Stable form of (-2 kappa + sqrt(4 kappa^2 + (p-1)^2)) / (p-1); the
    # direct expression cancels to zero for large kappa.
    b = (p - 1.0) / (2.0 * kappa + np.sqrt(4.0 * kappa * kappa + (p - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (p - 1.0) * np.log(1.0 - x0 * x0)
    out = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        k = pending.size
        z = rng.beta(0.5 * (p - 1.0), 0.5 * (p - 1.0), size=k)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(k)
        lhs = kappa * w + (p - 1.0) * np.log(np.maximum(1.0 - x0 * w, 1e-300))
        ok = lhs - c >= np.log(u)
        out[pending[ok]] = w[ok]
        pending = pending[~ok]
    return out


def _uniform_sphere(count: int, d: int, rng) -> np.ndarray:
    v = rng.standard_normal((count, d))
    n = np.linalg.norm(v, axis=1, keepdims=True)
    # Resample the (measure-zero) rows that came out numerically zero.
    while (n < 1e-12).any():
        bad = n[:, 0] < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        n = np.linalg.norm(v, axis=1, keepdims=True)
    return v / n


def _vmf_rows(mus: np.ndarray, kappa: float, rng) -> np.ndarray:
    """One vMF sample per row of mus (shape (N, d))."""
    mus = np.asarray(mus, dtype=float)
    count, d = mus.shape
    if kappa == 0.0:
        return _uniform_sphere(count, d, rng)
    if d == 2:
        base = np.arctan2(mus[:, 1], mus[:, 0])
        theta = rng.vonmises(base, kappa)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    w = _vmf_w(kappa, d, count, rng)
    v = _uniform_sphere(count, d - 1, rng)
    z = np.empty((count, d))
    z[:, 0] = w
    z[:, 1:] = np.sqrt(np.maximum(1.0 - w * w, 0.0))[:, None] * v
    # Householder reflection taking e1 to mu, applied row-wise.
    u = -mus.copy()
    u[:, 0] += 1.0
    uu = np.sum(u * u, axis=1)
    safe = uu > 1e-12
    coef = np.zeros(count)
    coef[safe] = 2.0 * np.sum(u[safe] * z[safe], axis=1) / uu[safe]
    out = z - coef[:, None] * u
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def add_vmf_noise(x: np.ndarray, kappa: float, rng_seed) -> np.ndarray:
    """Independent vMF perturbation of every row of a unit-norm signal."""
    x = np.asarray(x, dtype=float)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    return _vmf_rows(x, kappa, rng)


def _fourier_field(h: int, w: int, channels: int, rng) -> np.ndarray:
    """Smooth random field on an h x w grid, shape (h, w, channels).

    Sum of a few low-frequency waves with random phases; amplitude decays
    with the mode index so the field stays gentle.  A line (h or w is 1)
    takes 4 sine modes along its length, a grid 12 plane waves.
    """
    if min(h, w) == 1:
        t = np.arange(h * w) / (h * w)
        out = np.zeros((h * w, channels))
        for k in range(1, 5):
            amp = rng.uniform(0.3, 1.0, size=channels) / k
            phase = rng.uniform(0.0, 2.0 * np.pi, size=channels)
            out += amp * np.sin(2.0 * np.pi * k * t[:, None] + phase)
        return out.reshape(h, w, channels)
    ii = (np.arange(h) / h)[:, None, None]
    jj = (np.arange(w) / w)[None, :, None]
    out = np.zeros((h, w, channels))
    for ki in range(-2, 3):
        for kj in range(0, 3):
            if ki == 0 and kj == 0:
                continue
            order = abs(ki) + abs(kj)
            amp = rng.uniform(0.3, 1.0, size=channels) / order
            phase = rng.uniform(0.0, 2.0 * np.pi, size=channels)
            out += amp * np.sin(2.0 * np.pi * (ki * ii + kj * jj) + phase)
    return out


def _angle_between_rows(a, b):
    dots = np.clip(np.sum(a * b, axis=1), -1.0, 1.0)
    return np.arccos(dots)


def _bound_unit_path(raw, g, base, bound_rad):
    """Normalize base + perturbation and shrink until the angle across
    every edge of g fits."""
    scale = 1.0
    for _ in range(60):
        v = base + scale * raw
        x = v / np.linalg.norm(v, axis=1, keepdims=True)
        worst = _angle_between_rows(x[g.first], x[g.second]).max()
        if worst <= bound_rad:
            return x
        scale *= 0.7 * max(bound_rad / worst, 0.1)
    return x


def smooth_circle_signal(n: int, seed):
    """Smooth unit-circle signal of length n with bounded angular increments."""
    return smooth_circle_field(n, 1, seed).reshape(n, 2)


def smooth_circle_field(height: int, width: int, seed):
    """Smooth circle-valued field on a height x width grid, flattened row-major.

    width = 1 (or height = 1) degenerates to a line signal.
    """
    g = grid_graph(height, width)
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    f = _fourier_field(height, width, 1, rng).reshape(n)
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    bound = np.deg2rad(MAX_STEP_DEG)
    worst = np.abs(f[g.first] - f[g.second]).max()
    scale = 1.0 if worst <= bound else bound / worst
    theta = theta0 + scale * f
    return np.column_stack([np.cos(theta), np.sin(theta)])


def smooth_sphere_signal(n: int, d: int, seed):
    """Smooth unit-sphere signal in R^d with bounded angular increments."""
    return smooth_sphere_field(n, 1, d, seed)


def smooth_sphere_field(height: int, width: int, d: int, seed):
    return _sphere_field(height, width, d, seed, MAX_STEP_DEG)


def _sphere_field(height, width, d, seed, bound_deg):
    g = grid_graph(height, width)
    n = g.n_vertices
    if d < 2:
        raise ValueError("d must be at least 2")
    rng = np.random.default_rng(seed)
    raw = _fourier_field(height, width, d, rng).reshape(n, d)
    base = _uniform_sphere(1, d, rng)[0]
    return _bound_unit_path(raw, g, base, np.deg2rad(bound_deg))


def smooth_so3_signal(n: int, seed):
    """Smooth rotation-valued signal, shape (n, 3, 3)."""
    return smooth_so3_field(n, 1, seed)


def smooth_so3_field(height: int, width: int, seed):
    """Rotations of a smooth S^3 field, flattened row-major, shape (n, 3, 3).
    The rotation angle between adjacent frames is twice the S^3 angle, so
    the quaternion steps are bounded by half of MAX_STEP_DEG."""
    return quat_to_rotation(_sphere_field(height, width, 4, seed, 0.5 * MAX_STEP_DEG))


def perturb_so3_signal(rs: np.ndarray, p: So3NoiseParams, seed) -> np.ndarray:
    """Independently perturbed rotations: the axis on S^2 and the angle on S^1.

    Each rotation is split into axis v and angle alpha; its noisy copy is
    the rotation built from w ~ vMF(v, kappa1) and beta ~ vMF(alpha, kappa2),
    the latter sampled as a unit 2-vector around (cos alpha, sin alpha).
    Near the identity the axis is undefined and drawn uniformly.  Each
    law is drawn once for the whole stack, from one rng.
    """
    rng = np.random.default_rng(seed)
    axis, alpha = rotation_to_axis_angle(rs)
    near = alpha < 1e-8
    if near.any():
        axis[near] = _uniform_sphere(int(near.sum()), 3, rng)
    w = _vmf_rows(axis, p.kappa1, rng)
    bvec = _vmf_rows(np.column_stack([np.cos(alpha), np.sin(alpha)]), p.kappa2, rng)
    return axis_angle_to_rotation(w, np.arctan2(bvec[:, 1], bvec[:, 0]))


def rmse(x: np.ndarray, x_true: np.ndarray) -> float:
    """Root mean over the rows (vectors or matrices) of their squared error."""
    x = np.asarray(x, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x.shape != x_true.shape:
        raise ValueError("signals must have the same shape")
    return float(np.sqrt(np.mean(np.sum((x - x_true) ** 2, axis=tuple(range(1, x.ndim))))))


_GRAY_TOL = 1e-12


def rgb_to_hsv(rgb: np.ndarray):
    """Hue as a unit 2-vector plus saturation, value, and a gray flag.

    Red maps to angle 0, green to 2 pi / 3, blue to 4 pi / 3.  Gray pixels
    (max = min) have no hue; they get angle 0 and flag True.
    """
    rgb = np.asarray(rgb, dtype=float)
    if rgb.shape[-1] != 3:
        raise ValueError("last axis must hold (r, g, b)")
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    c = mx - mn
    gray = c <= _GRAY_TOL
    cs = np.where(gray, 1.0, c)
    h6 = np.where(
        gray,
        0.0,
        np.where(
            mx == r,
            ((g - b) / cs) % 6.0,
            np.where(mx == g, (b - r) / cs + 2.0, (r - g) / cs + 4.0),
        ),
    )
    theta = h6 * (np.pi / 3.0)
    hue = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    sat = np.where(mx <= _GRAY_TOL, 0.0, c / np.where(mx <= _GRAY_TOL, 1.0, mx))
    return hue, sat, mx, gray


def hue_to_rgb(h: np.ndarray, s, v) -> np.ndarray:
    """Invert the HSV split given hue as a unit 2-vector."""
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != 2:
        raise ValueError("hue must be a unit vector in R^2")
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.arctan2(h[..., 1], h[..., 0]) % (2.0 * np.pi)
    h6 = theta / (np.pi / 3.0)
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    r = np.select([i == 0, i == 1, i == 2, i == 3, i == 4], [v, q, p, p, t], v)
    g = np.select([i == 0, i == 1, i == 2, i == 3, i == 4], [t, v, v, q, p], p)
    b = np.select([i == 0, i == 1, i == 2, i == 3, i == 4], [p, p, t, v, v], q)
    return np.stack([r, g, b], axis=-1)


def rgb_to_chromaticity_brightness(rgb: np.ndarray):
    """(chroma = rgb/||rgb||, brightness = ||rgb||, black flag).

    Black pixels have undefined chromaticity; they get the gray direction
    (1,1,1)/sqrt(3), brightness 0, and flag True.
    """
    rgb = np.asarray(rgb, dtype=float)
    if rgb.shape[-1] != 3:
        raise ValueError("last axis must hold (r, g, b)")
    bright = np.linalg.norm(rgb, axis=-1)
    black = bright <= _GRAY_TOL
    denom = np.where(black, 1.0, bright)
    chroma = rgb / denom[..., None]
    chroma = np.where(black[..., None], 1.0 / np.sqrt(3.0), chroma)
    return chroma, np.where(black, 0.0, bright), black


def chromaticity_brightness_to_rgb(chroma: np.ndarray, brightness) -> np.ndarray:
    chroma = np.asarray(chroma, dtype=float)
    brightness = np.asarray(brightness, dtype=float)
    return chroma * brightness[..., None]


def smooth_color_image(height: int, width: int, seed) -> np.ndarray:
    """Synthetic smooth RGB image (values in [0, 1], no gray or black pixels).

    Built from a smooth hue field plus gentle saturation and value fields,
    so both the hue and the chromaticity of the result are smooth.
    """
    if height < 2 or width < 2:
        raise ValueError("image must be at least 2 x 2")
    rng = np.random.default_rng(seed)
    hue = smooth_circle_field(height, width, rng).reshape(height, width, 2)
    sv = _fourier_field(height, width, 2, rng)
    sv = sv / max(np.abs(sv).max(), 1.0)
    s = 0.55 + 0.25 * sv[..., 0]
    v = 0.6 + 0.25 * sv[..., 1]
    return hue_to_rgb(hue, s, v)
