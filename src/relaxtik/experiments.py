"""Named benchmark experiments with reproducible seeded defaults.

Each experiment generates a smooth ground truth, perturbs it with
von Mises-Fisher noise (SO(3) noise for rotations), denoises it through
`pipeline`, and collects the result and error metrics into an
ExperimentReport.  The defaults (graph sizes, concentrations,
regularization) are the registry below; every value can be overridden.
"""

from dataclasses import dataclass, field

import numpy as np

from relaxtik import pipeline
from relaxtik.admm import DenoiseResult, SolverConfig
from relaxtik.graph import Weights, grid_graph
from relaxtik.manifold import rotation_to_quat

__all__ = ["ExperimentReport", "EXPERIMENT_DEFAULTS", "run_experiment"]


# Every experiment solves with unit vertex weights and SolverConfig's
# defaults, except where its entry below sets max_iter or tol.
_SHARED = {"w": 1.0, "rho": SolverConfig.rho, "max_iter": SolverConfig.max_iter,
           "tol": SolverConfig.tol}

EXPERIMENT_DEFAULTS = {name: {**_SHARED, **entry} for name, entry in {
    "circle-line": {
        "n": 1000,
        "kappa": 10.0,
        "lam": 25.0,
    },
    # Fixed 6000 iterations (tol 0 disables the residual stop) so the
    # distance trace covers the full run.
    "circle-grid": {
        "height": 90,
        "width": 90,
        "kappa": 20.0,
        "lam": 1.0,
        "max_iter": 6000,
        "tol": 0.0,
    },
    "hue": {
        "height": 64,
        "width": 64,
        "kappa": 10.0,
        "lam": 1.0,
        "max_iter": 1000,
    },
    "chroma": {
        "height": 48,
        "width": 48,
        "kappa": 100.0,
        "lam": 3.0,
        "max_iter": 1000,
    },
    "so3-line": {
        "n": 1000,
        "kappa1": 30.0,
        "kappa2": 15.0,
        "lam": 50.0,
        "max_iter": 300,
    },
    "so3-grid": {
        "height": 32,
        "width": 32,
        "kappa1": 30.0,
        "kappa2": 5.0,
        "lam": 1.0,
        "max_iter": 1000,
    },
}.items()}


@dataclass
class ExperimentReport:
    name: str
    config: dict
    result: DenoiseResult
    rmse: float
    truth: np.ndarray
    noisy: np.ndarray
    denoised: np.ndarray
    lifting_consistent: bool | None = None
    # Color experiments: "image", "noisy_image" and "denoised_image".
    images: dict = field(default_factory=dict)


def run_experiment(
    name: str,
    seed: int = 0,
    overrides: dict | None = None,
    n_threads: int = 1,
) -> ExperimentReport:
    """Run one named experiment and return its report.

    Precedence: registry defaults, then overrides.  The seed drives both
    the ground-truth generator and the noise.  so3 truth quaternions take
    the sign of the denoised row, since both signs name the same rotation.
    """
    # Imported here: the CLI imports this module for its registry alone.
    from relaxtik import synth

    if name not in EXPERIMENT_DEFAULTS:
        known = ", ".join(sorted(EXPERIMENT_DEFAULTS))
        raise ValueError(f"unknown experiment {name!r} (known: {known})")
    cfg = dict(EXPERIMENT_DEFAULTS[name])
    for key, val in (overrides or {}).items():
        if key not in cfg:
            raise ValueError(f"unknown override {key!r} for experiment {name!r}")
        cfg[key] = val
    cfg["seed"] = int(seed)

    kind = "so3" if name.startswith("so3") else name if name in ("hue", "chroma") else "sphere"
    rng = np.random.default_rng(cfg["seed"])
    # A line of n vertices is the n x 1 grid.
    shape = (int(cfg["n"]), 1) if "n" in cfg else (int(cfg["height"]), int(cfg["width"]))
    make_truth = {"so3": synth.smooth_so3_field,
                  "sphere": synth.smooth_circle_field}.get(kind, synth.smooth_color_image)
    truth_data = make_truth(*shape, rng)
    g = grid_graph(*shape)
    if kind == "so3":
        noise = synth.So3NoiseParams(float(cfg["kappa1"]), float(cfg["kappa2"]))
        y, ctx = pipeline.to_sphere(kind, synth.perturb_so3_signal(truth_data, noise, rng), g)
    else:
        truth, ctx = pipeline.to_sphere(kind, truth_data, g)
        y = synth.add_vmf_noise(truth, float(cfg["kappa"]), rng)

    wt = Weights.constant(g, float(cfg["w"]), float(cfg["lam"]))
    solver = SolverConfig(rho=cfg["rho"], max_iter=cfg["max_iter"], tol=cfg["tol"])
    res, denoised, decoded = pipeline.solve(kind, y, ctx, g, wt, solver, n_threads)

    images = {}
    if kind == "so3":
        truth = rotation_to_quat(truth_data)
        truth *= np.where(np.einsum("nd,nd->n", truth, denoised) < 0.0, -1.0, 1.0)[:, None]
    elif kind != "sphere":
        images = {
            "image": truth_data,
            "noisy_image": pipeline.from_sphere(kind, y, ctx),
            "denoised_image": decoded,
        }
    # so3 errors are on rotation matrices: insensitive to the quaternion sign choice.
    err = synth.rmse(decoded, truth_data) if kind == "so3" else synth.rmse(denoised, truth)
    return ExperimentReport(
        name=name,
        config={**cfg, "n_vertices": g.n_vertices, "m_edges": g.m_edges},
        result=res,
        rmse=err,
        truth=truth,
        noisy=y,
        denoised=denoised,
        lifting_consistent=ctx.consistent if kind == "so3" else None,
        images=images,
    )
