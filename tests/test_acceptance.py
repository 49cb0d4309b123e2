"""End-to-end acceptance suite.

Each test prints a single PASS line with its headline numbers once its
assertions hold; a failed assertion doubles as the FAIL record.  These are
the slow, full-scale runs; the per-module tests cover the fast paths.
"""

import time

import numpy as np
import pytest

from relaxtik import synth
from relaxtik.admm import SolverConfig, admm_solve, primal_update
from relaxtik.graph import Weights, from_edge_pairs, grid_graph, line_graph
from relaxtik.manifold import (
    axis_angle_to_rotation,
    lift_signs,
    quat_conj,
    quat_mul,
    quat_to_rotation,
    rotation_to_quat,
)
from relaxtik.model import adjoint_Q, apply_Q, objective_K, objective_tikhonov
from relaxtik.smallsym import project_shifted_psd

from helpers import axis_angle_to_quat
from verify import (
    apply_P,
    brute_force_min,
    lemma_feasibility_check,
    matrix_model_objective,
    solve_matrix_model,
)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_connected_graph(rng, n):
    """Random tree on n vertices plus an occasional extra edge."""
    pairs = [(int(rng.integers(0, k)) + 1, k + 1) for k in range(1, n)]
    if n >= 3 and rng.random() < 0.5:
        while True:
            a, b = sorted(rng.choice(n, size=2, replace=False) + 1)
            if (a, b) not in pairs and (int(a), int(b)) not in pairs:
                pairs.append((int(a), int(b)))
                break
    return from_edge_pairs(n, np.array(pairs))


def test_criterion_1_circle_line():
    """Circle-valued line graph: accuracy and convergence speed, 10 seeds."""
    n_seeds = 10
    msds, conv_iters, times = [], [], []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        truth = synth.smooth_circle_signal(1000, rng)
        y = synth.add_vmf_noise(truth, 10.0, rng)
        g = line_graph(1000)
        wt = Weights.constant(g, 1.0, 25.0)
        res = admm_solve(
            y, g, wt, SolverConfig(rho=3.0, max_iter=600, tol=0.0), collect_trace=True
        )
        assert res.iterations <= 600
        assert res.mean_sphere_distance <= 1e-9, (
            f"seed {seed}: mean sphere distance {res.mean_sphere_distance}"
        )
        final = res.objective_trace[-1]
        outside = np.flatnonzero(np.abs(res.objective_trace - final) > 1e-5)
        k = 1 if outside.size == 0 else int(outside[-1]) + 2
        assert k <= 300, f"seed {seed}: objective settled at iteration {k} > 300"
        assert res.wall_time_seconds <= 60.0
        msds.append(res.mean_sphere_distance)
        conv_iters.append(k)
        times.append(res.wall_time_seconds)
    print(
        f"ACCEPTANCE 1 PASS circle-line: mean dist {np.mean(msds):.2e}, "
        f"objective settled by iter {max(conv_iters)}, "
        f"mean time {np.mean(times):.1f}s over {n_seeds} seeds"
    )


def test_criterion_2_circle_grid():
    """Circle-valued 90x90 image graph: distance level and trace shape."""
    rng = np.random.default_rng(0)
    truth = synth.smooth_circle_field(90, 90, rng)
    y = synth.add_vmf_noise(truth, 20.0, rng)
    g = grid_graph(90, 90)
    wt = Weights.constant(g, 1.0, 1.0)
    res = admm_solve(
        y, g, wt, SolverConfig(rho=3.0, max_iter=6000, tol=0.0), collect_trace=True
    )
    assert res.iterations == 6000
    assert abs(res.mean_sphere_distance) <= 1e-3, (
        f"mean sphere distance {res.mean_sphere_distance}"
    )
    # monotone decrease over the last 1000 iterations, 10% jitter allowed
    tail = np.maximum(res.sphere_distance_trace[-1000:], 1e-16)
    ratios = tail[1:] / tail[:-1]
    assert ratios.max() <= 1.1, f"max step-up ratio {ratios.max():.3f}"
    # By iteration 5000 the distance has settled at its rounding floor,
    # about 2e-16, where one value against another is a coin flip: check
    # the level, and that the tail's second half is not 2% above its first.
    assert tail.mean() <= 1e-15, f"tail mean {tail.mean():.3e} above the rounding floor"
    assert tail[500:].mean() <= 1.02 * tail[:500].mean(), "the tail rose"
    print(
        f"ACCEPTANCE 2 PASS circle-grid: mean dist {res.mean_sphere_distance:.2e} "
        f"after 6000 iters, max tail step-up {ratios.max():.4f}"
    )


def test_criterion_3_so3_line():
    """SO(3)-valued line graph: consistent lifting and unit-quaternion distance."""
    rng = np.random.default_rng(0)
    rots = synth.smooth_so3_signal(1000, rng)
    noisy = synth.perturb_so3_signal(rots, synth.So3NoiseParams(30.0, 15.0), rng)
    quats = np.stack([rotation_to_quat(r) for r in noisy])
    g = line_graph(1000)
    lift = lift_signs(quats, g)
    assert lift.consistent, f"lifting violations on edges {lift.violations[:5]}"
    wt = Weights.constant(g, 1.0, 50.0)
    res = admm_solve(lift.lifted, g, wt, SolverConfig(rho=3.0, max_iter=300, tol=0.0))
    assert res.iterations <= 300
    assert res.mean_sphere_distance <= 1e-8, (
        f"mean distance to unit quaternions {res.mean_sphere_distance}"
    )
    print(
        f"ACCEPTANCE 3 PASS so3-line: lifting consistent, "
        f"mean dist {res.mean_sphere_distance:.2e} after {res.iterations} iters"
    )


def test_criterion_4_model_equivalence():
    """Simplified and matrix models agree on small random instances."""
    rng = np.random.default_rng(4)
    max_obj_gap = 0.0
    max_ell_gap = 0.0
    for i in range(50):
        n = int(rng.integers(2, 7))
        d = 2 if i % 2 == 0 else 4
        variant = "complex_d2" if d == 2 else "quaternion_d4"
        g = random_connected_graph(rng, n)
        y = unit_rows(rng, n, d)
        wt = Weights(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 3.0, g.m_edges))
        cfg = SolverConfig(rho=3.0, max_iter=60000, tol=1e-10)
        res = admm_solve(y, g, wt, cfg)
        assert res.final_residual < 1e-10
        xm, rm = solve_matrix_model(y, g, wt, cfg, variant)
        obj_gap = abs(
            objective_K(res.x, res.ell, y, wt, g)
            - matrix_model_objective(xm, rm, y, wt, g)
        )
        ell_gap = float(np.abs(rm[:, 0] - res.ell).max())
        assert obj_gap <= 1e-6, f"instance {i} (d={d}): objective gap {obj_gap}"
        assert ell_gap <= 1e-5, f"instance {i} (d={d}): Re[r] vs ell gap {ell_gap}"
        max_obj_gap = max(max_obj_gap, obj_gap)
        max_ell_gap = max(max_ell_gap, ell_gap)
    print(
        f"ACCEPTANCE 4 PASS equivalence: 50 instances, "
        f"max objective gap {max_obj_gap:.2e}, max Re[r]-ell gap {max_ell_gap:.2e}"
    )


def test_criterion_5_projection():
    """Eigenvalue-clip projection vs oracle plus the nearest-point property."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1000, 6, 6))
    a = 0.5 * (a + a.transpose(0, 2, 1)) * 3.0
    p = project_shifted_psd(a)
    w, v = np.linalg.eigh(a)
    oracle = (v * np.maximum(w, -1.0)[:, None, :]) @ v.transpose(0, 2, 1)
    gap = np.abs(p - oracle).max()
    assert gap <= 1e-10, f"projection disagrees with the eigen-clip oracle: {gap}"

    d_self = np.sqrt(np.sum((a - p) ** 2, axis=(1, 2)))
    # 100 random feasible competitors per matrix (eigenvalues >= -1)
    q = rng.standard_normal((1000, 100, 6, 6))
    q, _ = np.linalg.qr(q)
    lam = -1.0 + rng.uniform(0.0, 5.0, (1000, 100, 6))
    comp = (q * lam[..., None, :]) @ q.transpose(0, 1, 3, 2)
    d_comp = np.sqrt(np.sum((a[:, None] - comp) ** 2, axis=(2, 3)))
    slack = (d_comp - d_self[:, None]).min()
    assert slack >= -1e-12, f"a competitor beat the projection by {-slack}"
    print(
        f"ACCEPTANCE 5 PASS projection: oracle gap {gap:.2e}, "
        f"nearest-point slack {slack:.2e} over 1000 x 100 competitors"
    )


def test_criterion_6_adjoint_and_primal_update():
    """Adjoint pairing identity and first-order optimality of the update."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.choice([2, 3, 4]))
        g = random_connected_graph(rng, n)
        x = unit_rows(rng, n, d)
        ell = rng.uniform(-1, 1, g.m_edges)
        u = rng.standard_normal((g.m_edges, d + 2, d + 2))
        lhs = float(np.sum(apply_Q(x, ell, g) * u))
        ax, al = adjoint_Q(u, g)
        rhs = float(np.sum(ax * x) + np.sum(al * ell))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-12, f"adjoint identity error {worst}"

    # the primal update must zero the gradient of
    # K(x, ell)/rho + 0.5 || apply_Q(x, ell) - (u - z) ||^2
    fd_worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([2, 3, 4]))
        g = random_connected_graph(rng, n)
        y = unit_rows(rng, n, d)
        wt = Weights(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 3.0, g.m_edges))
        rho = float(rng.uniform(1.0, 5.0))
        u = rng.standard_normal((g.m_edges, d + 2, d + 2))
        z = rng.standard_normal((g.m_edges, d + 2, d + 2))
        x0, ell0 = primal_update(u, z, y, wt, g, rho)

        def lagr(x, ell):
            pen = apply_Q(x, ell, g) - (u - z)
            return objective_K(x, ell, y, wt, g) / rho + 0.5 * float(np.sum(pen**2))

        h = 1e-5
        for _ in range(5):
            xi = int(rng.integers(0, n))
            di = int(rng.integers(0, d))
            xp = x0.copy()
            xp[xi, di] += h
            xm = x0.copy()
            xm[xi, di] -= h
            fd_worst = max(fd_worst, abs(lagr(xp, ell0) - lagr(xm, ell0)) / (2 * h))
        ei = int(rng.integers(0, g.m_edges))
        lp = ell0.copy()
        lp[ei] += h
        lm = ell0.copy()
        lm[ei] -= h
        fd_worst = max(fd_worst, abs(lagr(x0, lp) - lagr(x0, lm)) / (2 * h))
    assert fd_worst < 1e-6, f"finite-difference gradient at the update: {fd_worst}"
    print(
        f"ACCEPTANCE 6 PASS adjoint/primal: pairing error {worst:.2e}, "
        f"FD gradient {fd_worst:.2e}"
    )


def test_criterion_7_lemma_suite():
    """Feasibility test accepts valid blocks, rejects single violations."""
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(1000):
        d = int(rng.choice([2, 3, 4]))
        xn, xm = unit_rows(rng, 2, d)
        accepted += lemma_feasibility_check(xn, xm, float(xn @ xm))
    assert accepted == 1000, f"only {accepted}/1000 valid blocks accepted"

    rejected = 0
    for i in range(1000):
        d = int(rng.choice([2, 3, 4]))
        xn, xm = unit_rows(rng, 2, d)
        ell = float(xn @ xm)
        kind = i % 3
        bump = float(rng.uniform(0.05, 0.5)) * (1 if rng.random() < 0.5 else -1)
        if kind == 0:
            xn = (1.0 + bump) * xn
        elif kind == 1:
            xm = (1.0 + bump) * xm
        else:
            ell = ell + bump
        rejected += not lemma_feasibility_check(xn, xm, ell)
    assert rejected == 1000, f"only {rejected}/1000 violations rejected"

    # d = 2 and d = 4 representation blocks: valid construction is PSD with
    # rank d; the same single violations break it
    g2 = line_graph(2)
    rep_ok = 0
    rep_bad = 0
    for i in range(200):
        d = 2 if i % 2 == 0 else 4
        x = unit_rows(rng, 2, d)
        if d == 4:
            r = quat_mul(quat_conj(x[1]), x[0])
        else:
            r = np.array(
                [x[1, 0] * x[0, 0] + x[1, 1] * x[0, 1],
                 x[1, 0] * x[0, 1] - x[1, 1] * x[0, 0]]
            )
        block = apply_P(x, r[None, :], g2, d)[0] + np.eye(3 * d)
        w = np.linalg.eigvalsh(block)
        rep_ok += w[0] >= -1e-10 and int((np.abs(w) < 1e-8 * w[-1]).sum()) == 2 * d
        bad = r + rng.uniform(0.05, 0.3, d)
        wb = np.linalg.eigvalsh(apply_P(x, bad[None, :], g2, d)[0] + np.eye(3 * d))
        rep_bad += not (
            wb[0] >= -1e-10 and int((np.abs(wb) < 1e-8 * wb[-1]).sum()) == 2 * d
        )
    assert rep_ok == 200 and rep_bad == 200
    print(
        "ACCEPTANCE 7 PASS lemma suite: 1000/1000 valid accepted, "
        "1000/1000 violations rejected, representation blocks 200/200"
    )


def test_criterion_8_brute_force_tightness():
    """Retracted solutions match exhaustive search on 3-vertex instances."""
    rng = np.random.default_rng(8)
    g = line_graph(3)
    wt = Weights.constant(g, 1.0, 1.0)
    step_deg = 0.5
    # objective changes at most (grid offset) * (angular gradient bound)
    half_step = 0.5 * np.deg2rad(step_deg)
    nu = np.array([1, 2, 1])
    bound = half_step * float(np.sum(2.0 * wt.vertex_weights + 2.0 * 1.0 * nu))
    non_tight = 0
    worst_gap = 0.0
    for i in range(20):
        y = unit_rows(rng, 3, 2)
        res = admm_solve(
            y, g, wt, SolverConfig(rho=3.0, max_iter=50000, tol=1e-9, retract=True)
        )
        if abs(res.mean_sphere_distance) > 1e-3:
            non_tight += 1
            print(f"  instance {i}: relaxation not tight "
                  f"(mean dist {res.mean_sphere_distance:.2e}), reported not failed")
            continue
        assert res.collapsed_vertices == []
        _, best = brute_force_min(y, wt, g, angular_step=step_deg)
        ours = objective_tikhonov(res.x, y, wt, g)
        gap = abs(ours - best)
        assert gap <= bound, f"instance {i}: objective gap {gap} > bound {bound}"
        worst_gap = max(worst_gap, gap)
    print(
        f"ACCEPTANCE 8 PASS tightness: {20 - non_tight}/20 tight instances within "
        f"{bound:.2e} of brute force (worst gap {worst_gap:.2e}), "
        f"{non_tight} reported non-tight"
    )


def test_criterion_9_quaternion_suite():
    """Rotation formula agreement, round trips, Frobenius identity, Hamilton."""
    rng = np.random.default_rng(9)
    worst_rep = 0.0
    for _ in range(10000):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        alpha = float(rng.uniform(-np.pi, np.pi))
        r1 = quat_to_rotation(axis_angle_to_quat(v, alpha))
        r2 = axis_angle_to_rotation(v, alpha)
        worst_rep = max(worst_rep, float(np.abs(r1 - r2).max()))
    assert worst_rep <= 1e-12, f"axis-angle representation gap {worst_rep}"

    worst_rt = 0.0
    for _ in range(10000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        r = quat_to_rotation(q)
        worst_rt = max(
            worst_rt, float(np.abs(quat_to_rotation(rotation_to_quat(r)) - r).max())
        )
    assert worst_rt < 1e-9, f"round-trip error {worst_rt}"

    worst_f = 0.0
    for _ in range(1000):
        qn = rng.standard_normal(4)
        qn /= np.linalg.norm(qn)
        qm = rng.standard_normal(4)
        qm /= np.linalg.norm(qm)
        rn, rm = quat_to_rotation(qn), quat_to_rotation(qm)
        lhs = float(np.sum((rn - rm) ** 2))
        rhs = 8.0 * (1.0 - float(quat_mul(qn, quat_conj(qm))[0]) ** 2)
        worst_f = max(worst_f, abs(lhs - rhs))
    assert worst_f <= 1e-10, f"Frobenius identity error {worst_f}"

    e = np.eye(4)
    one, qi, qj, qk = e
    assert np.array_equal(quat_mul(qi, qj), qk)
    assert np.array_equal(quat_mul(qj, qk), qi)
    assert np.array_equal(quat_mul(qk, qi), qj)
    assert np.array_equal(quat_mul(qj, qi), -qk)
    assert np.array_equal(quat_mul(qi, qi), -one)
    print(
        f"ACCEPTANCE 9 PASS quaternions: representation gap {worst_rep:.2e}, "
        f"round trip {worst_rt:.2e}, Frobenius {worst_f:.2e}, Hamilton table exact"
    )
