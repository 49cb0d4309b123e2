"""Command-line front end: denoise files, run named experiments, evaluate.

Exit codes: 0 success, 2 unusable input (flags or file contents), 3 solver
divergence (non-finite iterate).
"""

import argparse
import json
import os
import sys

import numpy as np

from relaxtik import fileio, pipeline
from relaxtik.admm import SolverConfig, SolverDivergence
from relaxtik.experiments import EXPERIMENT_DEFAULTS, run_experiment
from relaxtik.graph import Weights, grid_graph, line_graph

__all__ = ["main"]


def _number_or_path(spec):
    """A weight flag: its float value, or the string when it names a file."""
    try:
        return float(spec)
    except ValueError:
        return spec


def _add_solver_flags(p):
    p.add_argument("--lambda", dest="lam", type=_number_or_path, default=None,
                   help="edge weight: a float or a path to a per-edge file")
    p.add_argument("--w", dest="w", type=_number_or_path, default=None,
                   help="vertex weight: a float or a path to a per-vertex file")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file with defaults")
    p.add_argument("--outdir", default=".")


# The registry keys that only some experiments have (sizes and noise
# levels), each a flag of its default's type; the rest are solver flags.
_EXPERIMENT_FLAGS = {
    key: type(val)
    for entry in EXPERIMENT_DEFAULTS.values() for key, val in entry.items()
    if not all(key in other for other in EXPERIMENT_DEFAULTS.values())
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="relaxtik",
        description="Denoise sphere- and rotation-valued signals on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="denoise a signal file")
    d.add_argument("input", help="CSV signal, rotation rows, or PPM image")
    d.add_argument("--graph", default=None,
                   help="line | grid:HxW | edgelist:<path> "
                        "(sphere and so3 modes; image modes use the pixel grid)")
    d.add_argument("--mode", choices=pipeline.KINDS, default="sphere")
    d.add_argument("--d", type=int, choices=(2, 3, 4), default=None,
                   help="signal dimension (sphere mode; inferred from the file)")
    d.add_argument("--retract", action="store_true", default=None,
                   help="normalize the output onto the sphere")
    _add_solver_flags(d)

    e = sub.add_parser("experiment", help="run a named benchmark experiment")
    e.add_argument("name", choices=sorted(EXPERIMENT_DEFAULTS))
    for key, kind in _EXPERIMENT_FLAGS.items():
        e.add_argument(f"--{key}", type=kind, default=None)
    _add_solver_flags(e)

    v = sub.add_parser("eval", help="compare a result signal against a truth")
    v.add_argument("result")
    v.add_argument("truth")
    v.add_argument("--out", default=None, help="write metrics JSON here too")
    return parser


def _load_config_file(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _merged(args, file_cfg, defaults):
    """Precedence: built-in defaults < config file < command-line flags.
    A value unlike its default in JSON type (ints integral, floats finite;
    lam and w may be paths) raises ValueError naming the key."""
    out = dict(defaults)
    for k, default in defaults.items():
        if k == "lam" and "lambda" in file_cfg:
            out[k] = file_cfg["lambda"]
        if k in file_cfg:
            out[k] = file_cfg[k]
        flag = getattr(args, k, None)
        if flag is not None:
            out[k] = flag
        if not (_fits(out[k], default) or k in ("lam", "w") and isinstance(out[k], str)):
            kind = {bool: "true or false", int: "an integer"}.get(type(default), "a finite number")
            kind += " or a path" if k in ("lam", "w") else ""
            raise ValueError(f"{k} must be {kind}, got {out[k]!r}")
    return out


def _fits(val, default) -> bool:
    """Whether val has the JSON type of default, a bool, int or float."""
    if isinstance(val, bool) or isinstance(default, bool) or not isinstance(val, (int, float)):
        return type(val) is type(default)
    if isinstance(val, int):
        return isinstance(default, int) or abs(val) <= sys.float_info.max
    return np.isfinite(val) and (isinstance(default, float) or val.is_integer())


def _float_or_file(spec, length):
    """`length` weights from a lam or w value: a number, the edge list's
    array, or the path of a file with one value or `length` values."""
    if isinstance(spec, np.ndarray):
        return spec
    try:
        return np.full(length, float(spec))
    except ValueError:
        pass
    vals = fileio.read_signal_csv(spec).ravel()
    if vals.shape[0] == 1:
        return np.full(length, vals[0])
    if vals.shape[0] != length:
        raise ValueError(f"{spec}: expected {length} values, found {vals.shape[0]}")
    return vals


def _parse_graph(spec, n_vertices):
    if spec in (None, "line"):
        return line_graph(n_vertices), None
    if spec.startswith("grid:"):
        shape = spec[len("grid:"):]
        try:
            h, w = (int(v) for v in shape.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad grid shape {shape!r}, expected HxW")
        g = grid_graph(h, w)
        if g.n_vertices != n_vertices:
            raise ValueError(
                f"grid {h}x{w} has {g.n_vertices} vertices, signal has {n_vertices}"
            )
        return g, None
    if spec.startswith("edgelist:"):
        return fileio.read_edge_list(spec[len("edgelist:"):], n_vertices)
    raise ValueError(f"unknown graph spec {spec!r}")


_DENOISE_DEFAULTS = {**vars(SolverConfig()),
                     "seed": 0, "threads": 1, "lam": 1.0, "w": 1.0}


def _write_run(outdir, res, report, signals, images):
    """Make outdir, only now so that a failed command leaves none, and write
    each signal (name: (writer, array)), each image as PPM, trace.csv from
    res's trace, and report.json: the command's own keys in report plus the
    solve facts of res that every command reports."""
    os.makedirs(outdir, exist_ok=True)
    for name, (write, x) in signals.items():
        write(os.path.join(outdir, name), x)
    for name, img in images.items():
        fileio.write_ppm(os.path.join(outdir, name + ".ppm"), img)
    rows = np.column_stack([np.arange(1, res.iterations + 1), res.objective_trace,
                            res.sphere_distance_trace, res.residual_trace])
    np.savetxt(os.path.join(outdir, "trace.csv"), rows, fmt="%.17g", delimiter=",",
               header="iteration,objective,sphere_distance,residual", comments="")
    fileio.write_report(os.path.join(outdir, "report.json"), {
        **report, "iterations": res.iterations, "final_residual": res.final_residual,
        "mean_sphere_distance": res.mean_sphere_distance,
        "wall_time_seconds": res.wall_time_seconds})


def _cmd_denoise(args):
    image = args.mode in ("hue", "chroma")
    stray = [flag for flag, unused in (("--graph", image and args.graph is not None),
                                       ("--d", args.mode != "sphere" and args.d is not None))
             if unused]
    if stray:
        raise ValueError(f"mode {args.mode} takes no {', '.join(stray)}")
    file_cfg = _load_config_file(args.config)
    cfg = _merged(args, file_cfg, _DENOISE_DEFAULTS)
    solver = SolverConfig(rho=cfg["rho"], max_iter=cfg["max_iter"], tol=cfg["tol"],
                          retract=cfg["retract"])

    if image:
        data = fileio.read_ppm(args.input)
        g = grid_graph(*data.shape[:2])
    else:
        if args.mode == "so3":
            data = fileio.read_rotations(args.input)
        else:
            data = fileio.read_signal_csv(args.input)
            if args.d is not None and data.shape[1] != args.d:
                raise ValueError(
                    f"signal has d = {data.shape[1]}, but --d {args.d} was given"
                )
        g, file_lam = _parse_graph(args.graph, data.shape[0])
        # The file's weights apply unless the flag or the config file sets lam.
        if file_lam is not None and args.lam is None and not {"lam", "lambda"} & set(file_cfg):
            cfg["lam"] = file_lam
    y, ctx = pipeline.to_sphere(args.mode, data, g)

    wt = Weights(_float_or_file(cfg["w"], g.n_vertices), _float_or_file(cfg["lam"], g.m_edges))
    res, unit, decoded = pipeline.solve(args.mode, y, ctx, g, wt, solver, int(cfg["threads"]))
    report = {
        "mode": args.mode,
        "input": args.input,
        "config": dict(cfg),  # may include weights read from the edge list
        "objective": res.objective_K,
        "threads": int(cfg["threads"]),
        "collapsed_vertices": res.collapsed_vertices,
    }
    raw = args.mode == "sphere" and not solver.retract
    signal = (fileio.write_signal_csv, res.x if raw else unit)
    if args.mode == "so3":
        report["consistent"] = ctx.consistent
        if ctx.violations:
            report["lift_violations"] = ctx.violations
        signal = (fileio.write_rotations, decoded)
    images = {"denoised": decoded} if image else {}
    _write_run(args.outdir, res, report, {"signal.csv": signal}, images)
    return 0


def _cmd_experiment(args):
    defaults = {**EXPERIMENT_DEFAULTS[args.name], "seed": 0, "threads": 1}
    stray = [f"--{key}" for key in _EXPERIMENT_FLAGS
             if key not in defaults and getattr(args, key) is not None]
    if stray:
        raise ValueError(f"experiment {args.name} takes no {', '.join(stray)}")
    cfg = _merged(args, _load_config_file(args.config), defaults)
    seed, threads = int(cfg.pop("seed")), int(cfg.pop("threads"))
    report = run_experiment(args.name, seed=seed, overrides=cfg, n_threads=threads)

    csv = fileio.write_signal_csv
    signals = {"signal.csv": (csv, report.denoised), "truth.csv": (csv, report.truth),
               "noisy.csv": (csv, report.noisy)}
    summary = {"name": args.name, "config": report.config, "rmse": report.rmse,
               "threads": threads}
    if report.lifting_consistent is not None:
        summary["lifting_consistent"] = report.lifting_consistent
    _write_run(args.outdir, report.result, summary, signals, report.images)
    print(
        f"{args.name}: {report.result.iterations} iterations, "
        f"rmse {report.rmse:.6g}, "
        f"mean sphere distance {report.result.mean_sphere_distance:.6g}"
    )
    return 0


def _cmd_eval(args):
    from relaxtik import synth  # off the import path of the other commands

    x = fileio.read_signal_csv(args.result)
    t = fileio.read_signal_csv(args.truth)
    if x.shape != t.shape:
        raise ValueError(
            f"shape mismatch: result {x.shape} vs truth {t.shape}"
        )
    xn = np.linalg.norm(x, axis=1)
    tn = np.linalg.norm(t, axis=1)
    safe = (xn > 1e-12) & (tn > 1e-12)
    # A collapsed row points nowhere: it scores 90 degrees, not 0.
    cosang = np.zeros(x.shape[0])
    cosang[safe] = np.sum(x[safe] * t[safe], axis=1) / (xn[safe] * tn[safe])
    ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    metrics = {
        "rmse": synth.rmse(x, t),
        "mean_sphere_distance": synth.mean_sphere_distance(x),
        "max_angular_error_deg": float(ang.max()),
        "mean_angular_error_deg": float(ang.mean()),
    }
    text = fileio.to_json(metrics)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "denoise":
            return _cmd_denoise(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_eval(args)
    except SolverDivergence as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
