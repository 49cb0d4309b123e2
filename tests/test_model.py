import numpy as np
import pytest

from relaxtik.graph import Weights, from_edge_pairs, line_graph
from relaxtik.model import adjoint_Q, apply_Q, objective_K, objective_tikhonov

from verify import (
    CapacityError,
    brute_force_min,
    build_constraint_block,
    constraint_blocks,
    lemma_feasibility_check,
)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_block_layout():
    xn = np.array([1.0, 0.0])
    xm = np.array([0.0, 1.0])
    q = build_constraint_block(xn, xm, 0.25)
    expect = np.array(
        [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0.25],
            [0, 1, 0.25, 1],
        ]
    )
    assert np.array_equal(q, expect)
    assert np.array_equal(q, q.T)


def test_constraint_blocks_batch_matches_single():
    rng = np.random.default_rng(0)
    g = line_graph(4)
    x = unit_rows(rng, 4, 3)
    ell = rng.uniform(-1, 1, g.m_edges)
    q = constraint_blocks(x, ell, g)
    for e in range(g.m_edges):
        single = build_constraint_block(x[g.first[e]], x[g.second[e]], ell[e])
        assert np.array_equal(q[e], single)


def test_apply_Q_is_shifted():
    rng = np.random.default_rng(1)
    g = line_graph(3)
    x = unit_rows(rng, 3, 2)
    ell = rng.uniform(-1, 1, 2)
    shifted = apply_Q(x, ell, g)
    assert np.abs(shifted + np.eye(4) - constraint_blocks(x, ell, g)).max() == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_feasibility_check_valid_and_violations(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        xn, xm = unit_rows(rng, 2, d)
        ell = float(xn @ xm)
        assert lemma_feasibility_check(xn, xm, ell)
        assert not lemma_feasibility_check(1.01 * xn, xm, ell)
        assert not lemma_feasibility_check(xn, 0.98 * xm, ell)
        assert not lemma_feasibility_check(xn, xm, ell + 0.01)


def test_adjoint_identity_random():
    rng = np.random.default_rng(2)
    g = from_edge_pairs(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [2, 4]])
    for d in (2, 3, 4):
        x = unit_rows(rng, 5, d)
        ell = rng.uniform(-1, 1, g.m_edges)
        u = rng.standard_normal((g.m_edges, d + 2, d + 2))
        # apply_Q output has zero diagonal (the shift cancels the identity
        # part), so the map is linear and the pairing identity is exact
        lhs = float(np.sum(apply_Q(x, ell, g) * u))
        ax, al = adjoint_Q(u, g)
        rhs = float(np.sum(ax * x) + np.sum(al * ell))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_adjoint_and_apply_Q_on_block_axis_fastest_fields():
    # a field stored (k, k, M), as the ADMM loop's, gives what its
    # (M, k, k) copy gives, to the bit
    rng = np.random.default_rng(4)
    g = from_edge_pairs(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [2, 4]])
    for d in (2, 3, 4):
        u = rng.standard_normal((g.m_edges, d + 2, d + 2))
        ut = np.ascontiguousarray(u.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert all(np.array_equal(a, b) for a, b in zip(adjoint_Q(ut, g), adjoint_Q(u, g)))
        x, ell = unit_rows(rng, 5, d), rng.uniform(-1, 1, g.m_edges)
        assert apply_Q(x, ell, g, add_to=ut) is ut
        assert np.array_equal(ut, apply_Q(x, ell, g, add_to=u))


def test_normal_equations_diagonal():
    rng = np.random.default_rng(3)
    g = from_edge_pairs(6, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [2, 5]])
    nu = np.array([2, 3, 2, 2, 3, 2])
    x = unit_rows(rng, 6, 3)
    ell = rng.uniform(-1, 1, g.m_edges)
    ax, al = adjoint_Q(apply_Q(x, ell, g), g)
    assert np.abs(ax - 2.0 * nu[:, None] * x).max() < 1e-12
    assert np.abs(al - 2.0 * ell).max() < 1e-12


def test_objectives_manual():
    g = line_graph(2)
    wt = Weights(np.array([2.0, 3.0]), np.array([5.0]))
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 1.0], [0.0, 1.0]])
    # K = -(2*<x1,y1> + 3*<x2,y2>) - 5*ell
    assert objective_K(x, np.array([0.5]), y, wt, g) == -(0.0 + 3.0) - 2.5
    # Tikhonov = 0.5*2*|x1-y1|^2 + 0.5*3*0 + 0.5*5*|x1-x2|^2
    assert objective_tikhonov(x, y, wt, g) == 0.5 * 2 * 2.0 + 0.5 * 5 * 2.0


def test_objective_shape_errors():
    g = line_graph(2)
    wt = Weights.constant(g)
    x = np.ones((2, 2))
    with pytest.raises(ValueError):
        objective_K(x, np.zeros(3), x, wt, g)
    with pytest.raises(ValueError):
        objective_K(np.ones((3, 2)), np.zeros(1), x, wt, g)


def test_brute_force_single_vertex_free_minimum():
    # one free vertex on a 2-vertex graph with negligible coupling:
    # each optimum is the projection of y onto the circle
    g = line_graph(2)
    y = np.array([[3.0, 4.0], [0.0, -2.0]])
    wt = Weights(np.ones(2), np.array([1e-12]))
    x, val = brute_force_min(y, wt, g, angular_step=0.1)
    assert np.abs(x[0] - np.array([0.6, 0.8])).max() < 2e-3
    assert np.abs(x[1] - np.array([0.0, -1.0])).max() < 2e-3


def test_brute_force_matches_independent_scan():
    rng = np.random.default_rng(4)
    g = line_graph(2)
    y = rng.standard_normal((2, 2))
    wt = Weights(np.array([1.0, 1.5]), np.array([2.0]))
    x, val = brute_force_min(y, wt, g, angular_step=1.0)
    # direct dense scan over both angles, written independently
    th = np.deg2rad(np.arange(360.0))
    pts = np.column_stack([np.cos(th), np.sin(th)])
    best = np.inf
    for i in range(360):
        cost = (
            0.5 * 1.0 * np.sum((pts[i] - y[0]) ** 2)
            + 0.5 * 1.5 * np.sum((pts - y[1]) ** 2, axis=1)
            + 0.5 * 2.0 * np.sum((pts[i] - pts) ** 2, axis=1)
        )
        best = min(best, float(cost.min()))
    assert abs(val - best) < 1e-10


def test_brute_force_capacity_and_input_checks():
    g = line_graph(5)
    y = np.ones((5, 2))
    wt = Weights.constant(g)
    with pytest.raises(CapacityError):
        brute_force_min(y, wt, g, angular_step=0.5)
    g3 = line_graph(3)
    with pytest.raises(ValueError):
        brute_force_min(np.ones((3, 3)), Weights.constant(g3), g3, 0.5)
    with pytest.raises(ValueError):
        brute_force_min(np.ones((3, 2)), Weights.constant(g3), g3, 2.0)
