"""The three benchmark workloads: seeded inputs, one request, output check.

A workload is driven in a closed loop by one client: `make_input(i)` builds
input i from the seed with `relaxtik.synth` (never timed), `request(inp)`
is the timed call into the program, and `check(inp, out)` verifies the
output (never timed) and returns an `Outcome`.  Program functions are looked
up through the module objects in `rt` at call time, so the span recorder's
wrappers see every call.
"""

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

# Rows are unit after normalization and rotations orthonormal within the
# round-trip tolerance of acceptance criterion 9.
UNIT_TOL = 1e-9
TRACE_HEADER = "iteration,objective,sphere_distance,residual"
# Keys `relaxtik denoise --mode so3` writes to report.json; lift_violations
# appears only when lifting was inconsistent.
REPORT_KEYS = {
    "mode", "input", "config", "consistent", "iterations", "final_residual",
    "objective", "mean_sphere_distance", "wall_time_seconds", "threads",
    "collapsed_vertices",
}


@dataclass
class Outcome:
    reason: str  # empty when the output passed its check
    rmse: float
    vertices: int
    iterations: int
    edges: int
    block: int  # k, the side of every per-edge block
    lift_violations: int = 0
    bytes_written: int = 0

    @property
    def ok(self):
        return not self.reason


def _rmse(a, b):
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=tuple(range(1, a.ndim))))))


def _check_sphere(res, truth, noisy, n_edges, iter_ok):
    """Shared check for library requests on S^(d-1)."""
    x = np.asarray(res.x, dtype=float)
    n, d = noisy.shape

    def outcome(reason, rmse=float("nan")):
        return Outcome(reason, rmse, n, int(res.iterations), n_edges, d + 2)

    if x.shape != (n, d) or not np.isfinite(x).all():
        return outcome("output is not a finite (N, d) array")
    norms = np.linalg.norm(x, axis=1)
    if norms.min() <= 1e-12:
        return outcome("collapsed output row")
    unit = x / norms[:, None]
    if np.abs(np.linalg.norm(unit, axis=1) - 1.0).max() > UNIT_TOL:
        return outcome("rows not unit after normalization")
    if not iter_ok(res.iterations):
        return outcome(f"unexpected iteration count {res.iterations}")
    rmse = _rmse(unit, truth)
    if not rmse < _rmse(noisy, truth):
        return outcome(f"rmse {rmse} not below the noisy input's", rmse)
    return outcome("", rmse)


class GridCircle:
    """Truncated acceptance criterion 2: circle data on a 90x90 grid."""

    imports = ("relaxtik",)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.side = 6 if smoke else 90
        self.pool = 2 if smoke else 8  # distinct seeded signals, cycled
        self.budget = 20  # fixed iteration count; tol = 0 turns the stop rule off
        self._inputs = {}

    def setup(self, rt):
        self.rt = rt
        self.g = rt.graph.grid_graph(self.side, self.side)
        self.wt = rt.graph.Weights.constant(self.g, 1.0, 1.0)
        self.cfg = rt.admm.SolverConfig(rho=3.0, max_iter=self.budget, tol=0.0)

    def make_input(self, i):
        key = i % self.pool
        if key not in self._inputs:
            synth = self.rt.synth
            rng = np.random.default_rng([self.seed, key])
            truth = synth.smooth_circle_field(self.side, self.side, rng)
            self._inputs[key] = (truth, synth.add_vmf_noise(truth, 20.0, rng))
        return self._inputs[key]

    def request(self, inp):
        return self.rt.admm.admm_solve(inp[1], self.g, self.wt, self.cfg)

    def check(self, inp, res):
        truth, noisy = inp
        return _check_sphere(res, truth, noisy, self.g.m_edges,
                             lambda it: it == self.budget)


class ManySmall:
    """A stream of short line-graph requests where per-call overhead dominates."""

    imports = ("relaxtik",)
    block = 24  # 8 length strata x 3 dimensions, shuffled

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.lo, self.hi = (8, 24) if smoke else (32, 256)
        self._specs = {}

    def setup(self, rt):
        self.rt = rt
        self.cfg = rt.admm.SolverConfig(rho=3.0, max_iter=600, tol=1e-4)

    def _spec(self, i):
        """(n, d) of request i.  Lengths are stratified over [lo, hi] so the
        median and tail of a run depend little on which seed drew them."""
        b, j = divmod(i, self.block)
        if b not in self._specs:
            rng = np.random.default_rng([self.seed, b, 0])
            edges = np.linspace(self.lo, self.hi + 1, 9)
            lens = [int(rng.integers(int(a), max(int(a) + 1, int(c)))) for a, c in
                    zip(edges[:-1], edges[1:])]
            specs = [(n, d) for n in lens for d in (2, 3, 4)]
            self._specs[b] = [specs[k] for k in rng.permutation(len(specs))]
        return self._specs[b][j]

    def make_input(self, i):
        n, d = self._spec(i)
        synth = self.rt.synth
        rng = np.random.default_rng([self.seed, i, 1])
        truth = synth.smooth_sphere_signal(n, d, rng)
        return truth, synth.add_vmf_noise(truth, 10.0, rng)

    def request(self, inp):
        graph = self.rt.graph
        g = graph.line_graph(inp[1].shape[0])
        wt = graph.Weights.constant(g, 1.0, 25.0)
        return self.rt.admm.admm_solve(inp[1], g, wt, self.cfg)

    def check(self, inp, res):
        truth, noisy = inp
        return _check_sphere(res, truth, noisy, noisy.shape[0] - 1,
                             lambda it: 1 <= it <= self.cfg.max_iter)


def _quat_rows_to_rotations(q):
    """Rotation matrices of (N, 4) unit quaternions (w, xi, xj, xk)."""
    w, x, y, z = q.T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
            2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
            2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
        ],
        axis=1,
    ).reshape(-1, 3, 3)


class So3Cli:
    """`relaxtik denoise --mode so3` on a noisy rotation file, in process."""

    imports = ("relaxtik.cli",)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.n = 30 if smoke else 1000
        self.workdir = workdir

    def setup(self, rt):
        self.rt = rt

    def make_input(self, i):
        synth = self.rt.synth
        rng = np.random.default_rng([self.seed, i])
        rots = synth.smooth_so3_signal(self.n, rng)
        noisy = synth.perturb_so3_signal(rots, synth.So3NoiseParams(30.0, 15.0), rng)
        path = os.path.join(self.workdir, f"rotations-{i}.txt")
        self.rt.fileio.write_rotations(path, noisy)
        return path, os.path.join(self.workdir, f"out-{i}"), rots, noisy

    def request(self, inp):
        path, outdir = inp[:2]
        return self.rt.cli.main([
            "denoise", path, "--mode", "so3", "--graph", "line", "--lambda", "50",
            "--rho", "3", "--max-iter", "300", "--tol", "1e-4", "--outdir", outdir,
        ])

    def check(self, inp, rc):
        path, outdir, rots, noisy = inp
        try:
            return self._check(outdir, rc, rots, noisy)
        finally:
            os.remove(path)
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, outdir, rc, rots, noisy):
        n = self.n
        files = [os.path.join(outdir, f) for f in ("signal.csv", "trace.csv", "report.json")]

        def fail(reason, rmse=float("nan"), iterations=0):
            return Outcome(reason, rmse, n, iterations, n - 1, 6)

        if rc != 0:
            return fail(f"exit code {rc}")
        if not all(os.path.isfile(f) for f in files):
            return fail("missing output file")
        with open(files[2]) as fh:
            report = json.load(fh)
        if set(report) - {"lift_violations"} != REPORT_KEYS:
            return fail(f"report.json keys {sorted(report)}")
        iters = int(report["iterations"])
        with open(files[1]) as fh:
            header = fh.readline().strip()
        trace = np.loadtxt(files[1], delimiter=",", skiprows=1, ndmin=2)
        if header != TRACE_HEADER or trace.shape != (iters, 4) or not np.isfinite(trace).all():
            return fail("trace.csv does not match the iteration count", iterations=iters)
        q = np.loadtxt(files[0], ndmin=2)
        if q.shape != (n, 4) or not np.isfinite(q).all():
            return fail("signal.csv is not one finite quaternion per vertex", iterations=iters)
        if np.abs(np.linalg.norm(q, axis=1) - 1.0).max() > UNIT_TOL:
            return fail("quaternion rows not unit", iterations=iters)
        r = _quat_rows_to_rotations(q)
        orth = np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)).max()
        if orth > UNIT_TOL or np.abs(np.linalg.det(r) - 1.0).max() > UNIT_TOL:
            return fail("output rotations not orthonormal with det 1", iterations=iters)
        rmse = _rmse(r, rots)  # on rotation matrices, as experiments._run_so3
        if not rmse < _rmse(noisy, rots):
            return fail(f"rmse {rmse} not below the noisy input's", rmse, iters)
        return Outcome(
            "", rmse, n, iters, n - 1, 6,
            lift_violations=len(report.get("lift_violations", [])),
            bytes_written=sum(os.path.getsize(f) for f in files),
        )


WORKLOADS = {"grid-circle": GridCircle, "so3-cli": So3Cli, "many-small": ManySmall}
