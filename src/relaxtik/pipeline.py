"""The one data pipeline of the CLI and the experiments.

Every kind of data is mapped to a sphere signal, denoised by the relaxed
model, and mapped back:

    sphere  rows on S^(d-1), taken as they are
    hue     an (h, w, 3) RGB image; hue as unit 2-vectors, saturation and
            value kept aside
    chroma  an (h, w, 3) RGB image; chromaticity as unit 3-vectors,
            brightness kept aside
    so3     an (N, 3, 3) rotation stack; unit quaternions whose signs are
            lifted along the graph
"""

import numpy as np

from relaxtik import admm
from relaxtik.manifold import lift_signs, quat_to_rotation, rotation_to_quat

__all__ = ["KINDS", "to_sphere", "from_sphere", "solve"]

KINDS = ("sphere", "hue", "chroma", "so3")


def to_sphere(kind: str, data, g=None):
    """(y, ctx): the sphere signal of `data` and what `from_sphere` needs.

    ctx is None for sphere rows, (saturation, value) for hue, brightness
    for chroma, and the LiftResult for so3, whose lifting follows g.
    """
    if kind == "sphere":
        return np.asarray(data, dtype=float), None
    if kind in ("hue", "chroma"):
        from relaxtik import synth  # off the import path of so3 and sphere data
    if kind == "hue":
        hue, sat, val, _ = synth.rgb_to_hsv(data)
        return hue.reshape(-1, 2), (sat, val)
    if kind == "chroma":
        chroma, bright, _ = synth.rgb_to_chromaticity_brightness(data)
        return chroma.reshape(-1, 3), bright
    if kind == "so3":
        lift = lift_signs(rotation_to_quat(data), g)
        return lift.lifted, lift
    raise ValueError(f"unknown data kind {kind!r} (known: {', '.join(KINDS)})")


def from_sphere(kind: str, unit, ctx):
    """The image, the rotation stack, or the rows of a unit sphere signal."""
    if kind in ("hue", "chroma"):
        from relaxtik import synth
    if kind == "hue":
        sat, val = ctx
        return synth.hue_to_rgb(unit.reshape(*sat.shape, 2), sat, val)
    if kind == "chroma":
        return synth.chromaticity_brightness_to_rgb(unit.reshape(*ctx.shape, 3), ctx)
    if kind == "so3":
        return quat_to_rotation(unit)
    return unit


def solve(kind: str, y, ctx, g, wt, cfg, n_threads=1):
    """Denoise the sphere signal y on g and map it back.

    Returns (result, unit, decoded): the solver's traced DenoiseResult,
    its rows normalized, and `from_sphere` of those.
    """
    res = admm.admm_solve(y, g, wt, cfg, collect_trace=True, n_threads=n_threads)
    unit = admm.normalize_rows(res.x)
    return res, unit, from_sphere(kind, unit, ctx)
