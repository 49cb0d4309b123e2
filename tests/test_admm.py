import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from relaxtik import admm, jacobi, model, pipeline, smallsym, synth
from relaxtik.admm import SolverConfig, SolverDivergence, admm_solve, primal_update
from relaxtik.graph import Graph, Weights, from_edge_pairs, grid_graph, line_graph
from relaxtik.model import apply_Q, objective_K

from verify import (
    adjoint_P,
    apply_P,
    matrix_model_objective,
    matrix_rep_basis,
    solve_matrix_model,
)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def circle_grid_problem(side, seed):
    """A side x side circle grid, its noisy signal and weights."""
    g = grid_graph(side, side)
    rng = np.random.default_rng(seed)
    y = synth.add_vmf_noise(synth.smooth_circle_field(side, side, rng), 20.0, rng)
    return y, g, Weights.constant(g, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    for bad in ({"rho": np.nan}, {"rho": np.inf}, {"tol": np.nan}, {"tol": np.inf},
                {"max_iter": 2.5}, {"max_iter": np.nan}, {"max_iter": np.inf}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # an integral float, as a config file may give it, is stored as an int
    assert type(SolverConfig(max_iter=600.0).max_iter) is int


def test_zero_noise_idempotence():
    # smooth unit input and negligible coupling: the solution is the input
    y = synth.smooth_circle_signal(60, 0)
    g = line_graph(60)
    wt = Weights.constant(g, 1.0, 1e-8)
    res = admm_solve(y, g, wt, SolverConfig(rho=3.0, max_iter=2000, tol=1e-9))
    assert np.abs(np.linalg.norm(res.x, axis=1) - 1.0).max() < 1e-6
    assert np.linalg.norm(res.x - y, axis=1).max() <= 1e-4


def test_solver_converges_and_traces():
    rng = np.random.default_rng(1)
    truth = synth.smooth_circle_signal(80, 2)
    y = synth.add_vmf_noise(truth, 10.0, 3)
    g = line_graph(80)
    wt = Weights.constant(g, 1.0, 25.0)
    res = admm_solve(y, g, wt, SolverConfig(max_iter=600, tol=1e-6), collect_trace=True)
    assert res.iterations <= 600
    assert abs(res.mean_sphere_distance) < 1e-9
    assert len(res.objective_trace) == res.iterations
    assert len(res.sphere_distance_trace) == res.iterations
    assert res.residual_trace[-1] == res.final_residual
    # denoising actually helps
    xn = res.x / np.linalg.norm(res.x, axis=1, keepdims=True)
    assert synth.rmse(xn, truth) < synth.rmse(y, truth)


def test_solver_deterministic():
    y = synth.add_vmf_noise(synth.smooth_circle_signal(40, 4), 10.0, 5)
    g = line_graph(40)
    wt = Weights.constant(g, 1.0, 5.0)
    cfg = SolverConfig(max_iter=100, tol=0.0)
    a = admm_solve(y, g, wt, cfg)
    b = admm_solve(y, g, wt, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ell, b.ell)


@pytest.mark.parametrize("d, n_threads", [(2, 2), (3, 4)])
def test_threaded_solve_creates_one_pool(monkeypatch, d, n_threads):
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(admm, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: n_threads)
    truth = synth.smooth_circle_signal(40, 4) if d == 2 else synth.smooth_sphere_signal(40, d, 4)
    y = synth.add_vmf_noise(truth, 10.0, 5)
    g = line_graph(40)
    wt = Weights.constant(g, 1.0, 5.0)
    cfg = SolverConfig(max_iter=30, tol=0.0)
    seq = admm_solve(y, g, wt, cfg)
    assert pools == []
    par = admm_solve(y, g, wt, cfg, n_threads=n_threads)
    assert len(pools) == 1
    assert np.abs(seq.x - par.x).max() < 1e-12


def test_worker_threads_are_capped_at_the_cpu_count(monkeypatch, tmp_path):
    # A serial stand-in for the pool records what the solver asks of it, so
    # no thread starts however many are requested.
    workers, splits = [], []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            splits.append(len(args[0]))
            return map(fn, *args)

    monkeypatch.setattr(admm, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    running = threading.active_count()
    y = synth.add_vmf_noise(synth.smooth_circle_signal(40, 4), 10.0, 5)
    g = line_graph(40)
    wt = Weights.constant(g, 1.0, 5.0)
    cfg = SolverConfig(max_iter=30, tol=0.0)
    par = admm_solve(y, g, wt, cfg, n_threads=8000)
    assert workers == [3] and splits == [3] * 30
    assert threading.active_count() == running
    assert np.abs(par.x - admm_solve(y, g, wt, cfg).x).max() < 1e-12
    # the report still echoes the requested count
    from relaxtik.cli import main

    out = tmp_path / "e"
    assert main(["experiment", "circle-line", "--n", "40", "--threads", "8000",
                 "--outdir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["threads"] == 8000
    assert workers[1:] == [3] and threading.active_count() == running


def test_per_solve_work_is_hoisted_out_of_the_loop(monkeypatch):
    calls = {"apply_Q": 0, "degree_table": 0, "add.at": 0}
    symmetric = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recorded(blocks, out, basis=None, *, iteration):
        symmetric.append(np.array_equal(blocks, blocks.swapaxes(-1, -2)))
        return project(blocks, out=out, iteration=iteration)

    def count_add_at(frame, event, arg):
        if event == "c_call" and getattr(arg, "__self__", None) is np.add and arg.__name__ == "at":
            calls["add.at"] += 1

    project = admm.project_shifted_psd
    monkeypatch.setattr(admm, "project_shifted_psd", recorded)
    monkeypatch.setattr(model, "apply_Q", counted("apply_Q", model.apply_Q))
    monkeypatch.setattr(admm, "degree_table", counted("degree_table", admm.degree_table))
    y = synth.add_vmf_noise(synth.smooth_circle_signal(30, 1), 10.0, 2)
    g = line_graph(30)
    sys.setprofile(count_add_at)
    try:
        res = admm_solve(y, g, Weights.constant(g), SolverConfig(max_iter=25, tol=0.0))
    finally:
        sys.setprofile(None)
    assert res.iterations == 25
    assert calls == {"apply_Q": 25, "degree_table": 1, "add.at": 0}
    # every batch the projection sees is exactly symmetric
    assert symmetric == [True] * 25


def test_projection_reuses_its_buffers(monkeypatch):
    # The dual and the projection are allocated once, with the block axis
    # fastest, and every iteration projects the one into the other.  Every
    # solve also keeps one eigenvector basis, laid out the same way, that
    # warm-starts a Jacobi projection; an eigh solve leaves it an identity.
    seen, bases = [], []

    def recorded(blocks, out, basis, *, iteration):
        seen.append((blocks.__array_interface__["data"][0], out.__array_interface__["data"][0],
                     blocks.strides[0], out.strides[0]))
        bases.append((basis.__array_interface__["data"][0], basis.strides[0]))
        last[:] = [basis]
        return project(blocks, out=out, basis=basis, iteration=iteration)

    def one_basis_of_its_own():
        assert len(seen) == len(bases) == 25
        assert len(set(seen)) == len(set(bases)) == 1
        (basis, basis_stride), (blocks, out, *_) = bases[0], seen[0]
        assert basis not in (blocks, out) and basis_stride == 8

    project, last = admm.project_shifted_psd, []
    monkeypatch.setattr(admm, "project_shifted_psd", recorded)
    y = synth.add_vmf_noise(synth.smooth_circle_signal(30, 1), 10.0, 2)
    g = line_graph(30)
    res = admm_solve(y, g, Weights.constant(g), SolverConfig(max_iter=25, tol=0.0))
    assert res.iterations == 25
    one_basis_of_its_own()
    blocks, out, blocks_stride, out_stride = seen[0]
    assert blocks != out
    assert blocks_stride == out_stride == 8
    # 29 blocks: on eigh, which neither reads nor writes the basis
    assert np.array_equal(last[0], np.tile(np.eye(4), (g.m_edges, 1, 1)))
    # 33x33 grid: 2112 blocks of side 4, on the Jacobi path
    seen.clear(), bases.clear()
    y, g, wt = circle_grid_problem(33, 5)
    assert g.m_edges >= smallsym.JACOBI_MIN_BLOCKS
    admm_solve(y, g, wt, SolverConfig(max_iter=25, tol=0.0))
    one_basis_of_its_own()


def test_threaded_jacobi_solve_matches_one_thread(monkeypatch):
    # 46x46 grid: 4140 blocks of side 4, so each half of a 2-thread split
    # still takes the Jacobi path, warm-started from its half of the basis.
    # Two CPUs, so that the split runs on any host.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    y, g, wt = circle_grid_problem(46, 6)
    assert g.m_edges // 2 >= smallsym.JACOBI_MIN_BLOCKS
    cfg = SolverConfig(rho=3.0, max_iter=2000, tol=1e-4)
    seq = admm_solve(y, g, wt, cfg)
    par = admm_solve(y, g, wt, cfg, n_threads=2)
    assert par.iterations == seq.iterations < cfg.max_iter
    assert np.abs(par.x - seq.x).max() <= 1e-12
    assert np.abs(par.ell - seq.ell).max() <= 1e-12


def test_threaded_pieces_keep_their_buffers(monkeypatch):
    # Every iteration of a 2-thread solve maps the projection over two
    # pieces each of the dual, the projection and the basis: the same
    # adjacent slices of the same three buffers.
    calls = []

    class RecordingPool(ThreadPoolExecutor):
        def map(self, fn, *pieces):
            calls.append((fn.keywords, [[(p.__array_interface__["data"][0], p.shape, p.strides,
                                         id(p.base)) for p in buf] for buf in pieces]))
            return super().map(fn, *pieces)

    monkeypatch.setattr(admm, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    y, g, wt = circle_grid_problem(46, 6)
    admm_solve(y, g, wt, SolverConfig(max_iter=12, tol=0.0), n_threads=2)
    assert [kw for kw, _ in calls] == [{"iteration": it} for it in range(1, 13)]
    layouts = calls[0][1]
    assert all(seen == layouts for _, seen in calls)
    assert len(layouts) == 3 and len({buf[0][3] for buf in layouts}) == 3
    for (lo, lo_shape, lo_strides, lo_base), (hi, hi_shape, hi_strides, hi_base) in layouts:
        assert lo_base == hi_base and lo_strides == hi_strides
        assert lo_shape[1:] == hi_shape[1:] and lo_shape[0] + hi_shape[0] == g.m_edges
        assert hi == lo + lo_shape[0] * lo_strides[0]


def test_each_thread_piece_picks_its_own_eigensolver(monkeypatch):
    # 999 blocks of side 4 run on Jacobi on one thread; on two, pieces of
    # 500 and 499 blocks fall below JACOBI_MIN_BLOCKS and run on eigh.
    calls = []
    eig = jacobi.eig

    def counted(*args, **kwargs):
        calls.append(args[0].shape[2])
        return eig(*args, **kwargs)

    monkeypatch.setattr(jacobi, "eig", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    y = synth.add_vmf_noise(synth.smooth_circle_signal(1000, 3), 10.0, 4)
    g = line_graph(1000)
    wt = Weights.constant(g, 1.0, 25.0)
    cfg = SolverConfig(max_iter=40, tol=0.0)
    assert g.m_edges >= smallsym.JACOBI_MIN_BLOCKS > (g.m_edges + 1) // 2
    seq = admm_solve(y, g, wt, cfg)
    assert calls == [g.m_edges] * 40
    calls.clear()
    par = admm_solve(y, g, wt, cfg, n_threads=2)
    assert calls == []
    assert np.abs(par.x - seq.x).max() <= 1e-12
    assert np.abs(par.ell - seq.ell).max() <= 1e-12


@pytest.mark.parametrize("n_threads", [1, 2])
def test_loop_reorthonormalizes_the_basis_on_its_cadence(monkeypatch, n_threads):
    # 33x33 grid: 2112 blocks of side 4, one chunk on the Jacobi path, or
    # one per thread.  Every piece of every projection gets the iteration
    # number; the Gram-Schmidt pass runs on every ORTHO_EVERY-th iteration
    # only.  In between, the basis loses up to about 7e-16 of orthogonality
    # an iteration (7.5e-15 by the 7th here); without the pass it would
    # reach 2.7e-14 by the last iteration.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    y, g, wt = circle_grid_problem(33, 5)
    assert g.m_edges // n_threads >= smallsym.JACOBI_MIN_BLOCKS
    iterations, passes, errors = [], [], []

    def counted(vt):
        passes.append(max(iterations))
        orthonormalize(vt)

    def recorded(blocks, out, basis, *, iteration):
        iterations.append(iteration)
        project(blocks, out=out, basis=basis, iteration=iteration)
        errors.append(np.abs(basis @ basis.swapaxes(-1, -2) - np.eye(4)).max())

    project, orthonormalize = admm.project_shifted_psd, jacobi._orthonormalize
    monkeypatch.setattr(admm, "project_shifted_psd", recorded)
    monkeypatch.setattr(jacobi, "_orthonormalize", counted)
    n = 3 * jacobi.ORTHO_EVERY + 5
    admm_solve(y, g, wt, SolverConfig(max_iter=n, tol=0.0), n_threads=n_threads)
    assert sorted(iterations) == [i for i in range(1, n + 1) for _ in range(n_threads)]
    assert passes == [jacobi.ORTHO_EVERY * i for i in (1, 2, 3) for _ in range(n_threads)]
    assert len(errors) == n * n_threads and max(errors) <= 1e-14


def test_loop_projection_at_a_cadence_of_one_is_the_public_one(monkeypatch):
    # The loop's dual is exactly symmetric, so the copy it is gathered with
    # gives the bits of the public call's average of the two triangles; at
    # a cadence of one the loop's solve is the public calls' bit for bit,
    # and at its own cadence it is within rounding of it.
    y, g, wt = circle_grid_problem(33, 5)
    assert g.m_edges >= smallsym.JACOBI_MIN_BLOCKS
    cfg = SolverConfig(rho=3.0, max_iter=40, tol=0.0)
    loop = admm_solve(y, g, wt, cfg)
    monkeypatch.setattr(jacobi, "ORTHO_EVERY", 1)
    every = admm_solve(y, g, wt, cfg)
    project = admm.project_shifted_psd
    monkeypatch.setattr(admm, "project_shifted_psd",
                        lambda blocks, out, basis, *, iteration: project(blocks, out, basis))
    public = admm_solve(y, g, wt, cfg)
    assert np.array_equal(every.x, public.x) and np.array_equal(every.ell, public.ell)
    assert np.abs(loop.x - public.x).max() <= 1e-13
    assert np.abs(loop.ell - public.ell).max() <= 1e-13


def test_jacobi_projection_gives_the_eigen_clip_solve(monkeypatch):
    # 33x33 grid: 2112 blocks of side 4, so the solver projects on the
    # Jacobi path; the oracle is the clip written out from eigh.
    y, g, wt = circle_grid_problem(33, 5)
    assert g.m_edges >= smallsym.JACOBI_MIN_BLOCKS
    cfg = SolverConfig(rho=3.0, max_iter=2000, tol=1e-4)
    jacobi = admm_solve(y, g, wt, cfg)

    def eigen_clip(a, out, basis=None, *, iteration):
        w, v = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
        out[...] = (v * np.maximum(w, -1.0)[..., None, :]) @ np.swapaxes(v, -1, -2)
        return out

    monkeypatch.setattr(admm, "project_shifted_psd", eigen_clip)
    oracle = admm_solve(y, g, wt, cfg)
    assert jacobi.iterations == oracle.iterations < cfg.max_iter
    assert np.abs(jacobi.x - oracle.x).max() <= 1e-12
    assert np.abs(jacobi.ell - oracle.ell).max() <= 1e-12


def test_so3_line_solve_projects_warm_on_the_jacobi_path(monkeypatch):
    # 800 rotations: 799 blocks of side 6, above the dispatch size, so every
    # iteration projects on the Jacobi path from the one basis.  The same
    # solve with the dispatch size raised above it runs on eigh alone, and
    # passes the basis it never reads.
    n = 800
    g = line_graph(n)
    assert g.m_edges >= smallsym.JACOBI_MIN_BLOCKS
    rng = np.random.default_rng(7)
    rots = synth.perturb_so3_signal(synth.smooth_so3_signal(n, rng),
                                    synth.So3NoiseParams(30.0, 15.0), rng)
    y, _ = pipeline.to_sphere("so3", rots, g)
    wt = Weights.constant(g, 1.0, 50.0)
    cfg = SolverConfig(rho=3.0, max_iter=300, tol=1e-4)
    calls = []

    def recorded(blocks, out, basis, *, iteration):
        calls.append(tuple(a.__array_interface__["data"][0] for a in (blocks, out, basis)))
        last[:] = [basis]
        return project(blocks, out=out, basis=basis, iteration=iteration)

    def one_basis_of_its_own(iterations):
        assert len(calls) == iterations and len(set(calls)) == 1
        blocks, out, basis = calls[0]
        assert basis not in (blocks, out)

    def counted(*args):
        rotated.append(sweep(*args))
        return rotated[-1]

    project, last = admm.project_shifted_psd, []
    sweep, rotated = jacobi._sweep, []
    monkeypatch.setattr(admm, "project_shifted_psd", recorded)
    monkeypatch.setattr(jacobi, "_sweep", counted)
    warm = admm_solve(y, g, wt, cfg)
    assert warm.iterations < cfg.max_iter
    one_basis_of_its_own(warm.iterations)
    # 23.3 pivots rotated per iteration; 26.8 when the first sweep of a warm
    # call rotates the leading pivots first
    assert sum(rotated) / warm.iterations < 25.0
    calls.clear()
    monkeypatch.setattr(smallsym, "JACOBI_MIN_BLOCKS", g.m_edges + 1)
    on_eigh = admm_solve(y, g, wt, cfg)
    one_basis_of_its_own(on_eigh.iterations)
    # eigh neither reads nor writes the basis
    assert np.array_equal(last[0], np.tile(np.eye(6), (g.m_edges, 1, 1)))
    assert on_eigh.iterations == warm.iterations
    assert np.abs(on_eigh.x - warm.x).max() <= 1e-12
    assert np.abs(on_eigh.ell - warm.ell).max() <= 1e-12


def test_traced_loop_checks_its_inputs_once(monkeypatch):
    checked = []
    objective_K = model.objective_K

    def counted(*args):
        checked.append(objective_K(*args))
        return checked[-1]

    monkeypatch.setattr(model, "objective_K", counted)
    y = synth.add_vmf_noise(synth.smooth_circle_signal(30, 1), 10.0, 2)
    g = line_graph(30)
    wt = Weights.constant(g, 1.0, 5.0)
    res = admm_solve(y, g, wt, SolverConfig(max_iter=25, tol=0.0), collect_trace=True)
    assert res.iterations == len(res.objective_trace) == 25
    # one checked call, for the result; the trace uses the unchecked form
    assert checked == [res.objective_K] == [res.objective_trace[-1]]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_iterate_raises_divergence():
    # 1/rho overflows, so the first primal update is not finite
    y = synth.smooth_circle_signal(10, 3)
    g = line_graph(10)
    with pytest.raises(SolverDivergence, match="iteration 1$"):
        admm_solve(y, g, Weights.constant(g), SolverConfig(rho=1e-320))
    with pytest.raises(SolverDivergence, match="iteration 1$"):
        solve_matrix_model(y, g, Weights.constant(g), SolverConfig(rho=1e-320), "complex_d2")


def test_retract_and_result_fields():
    y = synth.add_vmf_noise(synth.smooth_circle_signal(30, 7), 10.0, 8)
    g = line_graph(30)
    wt = Weights.constant(g, 1.0, 2.0)
    res = admm_solve(y, g, wt, SolverConfig(max_iter=200, tol=1e-6, retract=True))
    assert np.abs(np.linalg.norm(res.x, axis=1) - 1.0).max() < 1e-12
    assert res.collapsed_vertices == []
    assert res.wall_time_seconds > 0.0
    assert np.isfinite(res.objective_K)


def test_primal_update_solves_normal_equations():
    # the update must satisfy 2 nu x = Q*(u - z) + w y / rho exactly
    rng = np.random.default_rng(9)
    g = from_edge_pairs(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    d, k = 3, 5
    y = unit_rows(rng, 5, d)
    u = rng.standard_normal((g.m_edges, k, k))
    z = rng.standard_normal((g.m_edges, k, k))
    wt = Weights.constant(g, 2.0, 3.0)
    x, ell = primal_update(u, z, y, wt, g, rho=3.0)
    from relaxtik.model import adjoint_Q

    ax, al = adjoint_Q(u - z, g)
    nu = np.array([2, 2, 2, 2, 2])
    assert np.abs(2.0 * nu[:, None] * x - (ax + (2.0 / 3.0) * y)).max() < 1e-12
    assert np.abs(2.0 * ell - (al + 1.0)).max() < 1e-12


def test_input_validation():
    g = line_graph(3)
    wt = Weights.constant(g)
    with pytest.raises(ValueError):
        admm_solve(np.ones((4, 2)), g, wt, SolverConfig())
    with pytest.raises(ValueError):
        admm_solve(np.full((3, 2), np.nan), g, wt, SolverConfig())
    for y in (np.ones(3), np.ones((3, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            admm_solve(y, g, wt, SolverConfig())
    lone = Graph(1, np.empty((0, 2), int))
    with pytest.raises(ValueError, match="isolated vertex"):
        admm_solve(np.ones((1, 2)), lone, Weights(np.ones(1), np.ones(0)), SolverConfig())


@pytest.mark.parametrize("variant,d", [("complex_d2", 2), ("quaternion_d4", 4)])
def test_adjoint_P_identity(variant, d):
    rng = np.random.default_rng(10 + d)
    g = from_edge_pairs(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    x = unit_rows(rng, 4, d)
    r = rng.standard_normal((g.m_edges, d))
    u = rng.standard_normal((g.m_edges, 3 * d, 3 * d))
    lhs = float(np.sum(apply_P(x, r, g, d) * u))
    ax, ar = adjoint_P(u, g, d)
    rhs = float(np.sum(ax * x) + np.sum(ar * r))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("variant,d", [("complex_d2", 2), ("quaternion_d4", 4)])
def test_matrix_model_agrees_with_simplified(variant, d):
    rng = np.random.default_rng(20 + d)
    g = from_edge_pairs(4, [[1, 2], [2, 3], [3, 4], [1, 3]])
    y = unit_rows(rng, 4, d)
    wt = Weights.constant(g, 1.0, 2.0)
    cfg = SolverConfig(rho=3.0, max_iter=20000, tol=1e-11)
    res = admm_solve(y, g, wt, cfg)
    xm, rm = solve_matrix_model(y, g, wt, cfg, variant)
    assert abs(
        objective_K(res.x, res.ell, y, wt, g) - matrix_model_objective(xm, rm, y, wt, g)
    ) < 1e-6
    assert np.abs(rm[:, 0] - res.ell).max() < 1e-5
    assert np.abs(xm - res.x).max() < 1e-4


def test_matrix_model_guards():
    g = line_graph(3)
    wt = Weights.constant(g)
    with pytest.raises(ValueError):
        solve_matrix_model(np.ones((3, 2)), g, wt, SolverConfig(), "octonion_d8")
    with pytest.raises(ValueError):
        solve_matrix_model(np.ones((3, 3)), g, wt, SolverConfig(), "complex_d2")
    big = line_graph(51)
    with pytest.raises(ValueError):
        solve_matrix_model(
            np.ones((51, 2)), big, Weights.constant(big), SolverConfig(), "complex_d2"
        )


def test_matrix_rep_basis_orthogonal_columns():
    for d in (2, 4):
        basis = matrix_rep_basis(d)
        # <B_i, B_j> = d * delta_ij
        gram = np.einsum("kij,lij->kl", basis, basis)
        assert np.abs(gram - d * np.eye(d)).max() < 1e-14
