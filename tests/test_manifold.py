import time

import numpy as np
import pytest

from relaxtik.graph import from_edge_pairs, line_graph
from relaxtik.manifold import (
    InvalidRotationError,
    axis_angle_to_rotation,
    canonical_sign,
    lift_signs,
    quat_conj,
    quat_mul,
    quat_to_rotation,
    rotation_to_axis_angle,
    rotation_to_quat,
)

from helpers import axis_angle_to_quat
from verify import matrix_rep

E = np.eye(4)
ONE, I, J, K = E[0], E[1], E[2], E[3]


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_hamilton_table_exact():
    assert np.array_equal(quat_mul(I, J), K)
    assert np.array_equal(quat_mul(J, K), I)
    assert np.array_equal(quat_mul(K, I), J)
    assert np.array_equal(quat_mul(J, I), -K)
    assert np.array_equal(quat_mul(I, I), -ONE)
    assert np.array_equal(quat_mul(J, J), -ONE)
    assert np.array_equal(quat_mul(K, K), -ONE)


def test_conj_and_norm():
    assert np.array_equal(quat_conj(ONE + I), ONE - I)
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.standard_normal(4)
        qq = quat_mul(q, quat_conj(q))
        assert abs(qq[0] - np.linalg.norm(q) ** 2) < 1e-12
        assert np.abs(qq[1:]).max() < 1e-12


def test_product_norm_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(np.linalg.norm(quat_mul(a, b)) - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12


def test_axis_angle_to_quat_examples():
    assert np.allclose(axis_angle_to_quat([0, 0, 1], np.pi), K, atol=1e-15)
    assert np.allclose(axis_angle_to_quat([1, 0, 0], 0.0), ONE)
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = axis_angle_to_quat(random_unit(rng, 3), rng.uniform(-np.pi, np.pi))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert q[0] >= -1e-15
    with pytest.raises(ValueError):
        axis_angle_to_quat([1, 1, 0], 0.3)


def test_quat_to_rotation_examples():
    assert np.array_equal(quat_to_rotation(ONE), np.eye(3))
    assert np.allclose(quat_to_rotation(K), np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        quat_to_rotation(2 * ONE)
    with pytest.raises(ValueError):
        quat_to_rotation([np.nan, 0.0, 0.0, 0.0])


def test_double_cover_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = random_unit(rng, 4)
        assert np.array_equal(quat_to_rotation(q), quat_to_rotation(-q))


def test_axis_angle_rotation_examples():
    assert np.allclose(
        axis_angle_to_rotation([0, 0, 1], np.pi / 2),
        np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
        atol=1e-15,
    )
    assert np.allclose(axis_angle_to_rotation([0, 1, 0], 0.0), np.eye(3))
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = random_unit(rng, 3)
        a = rng.uniform(-np.pi, np.pi)
        assert np.abs(
            axis_angle_to_rotation(v, a) - axis_angle_to_rotation(-v, -a)
        ).max() < 1e-12
    with pytest.raises(ValueError):
        axis_angle_to_rotation([np.nan, 0.0, 1.0], 0.3)
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            axis_angle_to_rotation([0.0, 0.0, 1.0], angle)
    with pytest.raises(ValueError, match="angle must be finite"):
        axis_angle_to_rotation(np.eye(3), [0.1, np.nan, 0.2])


def test_quat_and_axis_angle_rotations_agree():
    rng = np.random.default_rng(5)
    for _ in range(500):
        v = random_unit(rng, 3)
        a = rng.uniform(-np.pi, np.pi)
        r1 = quat_to_rotation(axis_angle_to_quat(v, a))
        r2 = axis_angle_to_rotation(v, a)
        assert np.abs(r1 - r2).max() < 1e-12


def test_rotation_to_quat_round_trip():
    assert np.array_equal(rotation_to_quat(np.eye(3)), ONE)
    assert np.allclose(rotation_to_quat(np.diag([-1.0, -1.0, 1.0])), K)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        q = canonical_sign(random_unit(rng, 4))
        r = quat_to_rotation(q)
        q2 = rotation_to_quat(r)
        assert np.abs(q2 - q).max() < 1e-9
        assert np.abs(quat_to_rotation(q2) - r).max() < 1e-9


def test_rotation_to_quat_near_pi_stable():
    # angle close to pi exercises the diagonal pivots
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = random_unit(rng, 3)
        r = axis_angle_to_rotation(v, np.pi - 1e-7)
        q = rotation_to_quat(r)
        assert np.abs(quat_to_rotation(q) - r).max() < 1e-9


def test_rotation_to_quat_rejects_non_rotation():
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(np.diag([1.0, 1.0, -1.0]))  # det = -1
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(1.01 * np.eye(3))
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(np.eye(4))
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(np.full((3, 3), np.nan))


def test_rotation_to_axis_angle():
    v, a = rotation_to_axis_angle(axis_angle_to_rotation([0, 1, 0], 0.7))
    assert abs(a - 0.7) < 1e-12
    assert np.abs(v - np.array([0, 1, 0])).max() < 1e-9
    v, a = rotation_to_axis_angle(np.eye(3))
    assert a == 0.0
    assert np.array_equal(v, [0, 0, 1])


def test_canonical_sign_tie_rules():
    q = np.array([0.0, -0.6, 0.8, 0.0])
    assert np.array_equal(canonical_sign(q), -q)
    q = np.array([0.0, 0.0, 0.0, -1.0])
    assert np.array_equal(canonical_sign(q), -q)
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(canonical_sign(q), -q)


def test_lift_signs_basic():
    rng = np.random.default_rng(8)
    q = canonical_sign(random_unit(rng, 4))
    g = line_graph(3)
    out = lift_signs(np.stack([q, q, q]), g)
    assert out.consistent
    assert np.array_equal(out.lifted, np.stack([q, q, q]))
    out = lift_signs(np.stack([q, -q, q]), g)
    assert out.consistent
    assert np.array_equal(out.lifted, np.stack([q, q, q]))


def test_lift_signs_reports_cycle_violation():
    # three quaternions at angles 0, 80, 160 degrees along a great circle;
    # on the triangle graph no sign choice satisfies all three edges
    angles = np.deg2rad([0.0, 80.0, 160.0])
    q = np.stack([np.array([np.cos(a), np.sin(a), 0.0, 0.0]) for a in angles])
    g = from_edge_pairs(3, [[1, 2], [2, 3], [1, 3]])
    out = lift_signs(q, g)
    assert not out.consistent
    assert len(out.violations) == 1
    dots = np.einsum("ed,ed->e", out.lifted[g.first], out.lifted[g.second])
    assert (dots < -1e-12).sum() == 1


def test_lift_signs_star_graph_linear_time():
    # 10^5 leaves around a hub in the middle: breadth-first search from
    # vertex 1 (a leaf) reaches the hub, then every other leaf from it
    rng = np.random.default_rng(11)
    n = 100_001
    hub = n // 2
    leaves = np.delete(np.arange(1, n + 1), hub - 1)
    star = from_edge_pairs(n, np.column_stack([np.full(n - 1, hub), leaves]))
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)

    def best_time(g):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            out = lift_signs(q, g)
            times.append(time.perf_counter() - t0)
        return out, min(times)

    out, t_star = best_time(star)
    expect = q.copy()
    if expect[hub - 1] @ expect[0] < 0.0:
        expect[hub - 1] *= -1.0
    flip = expect @ expect[hub - 1] < 0.0
    flip[[0, hub - 1]] = False
    expect[flip] *= -1.0
    assert out.consistent
    assert np.array_equal(out.lifted, expect)
    # a path of the same size keeps the queue short; the star must not cost
    # much more than it
    _, t_path = best_time(line_graph(n))
    assert t_star < 2.0 * t_path, f"star {t_star:.3f} s vs path {t_path:.3f} s"


def test_lift_signs_input_checks():
    g = line_graph(2)
    with pytest.raises(ValueError):
        lift_signs(np.ones((2, 4)), g)
    with pytest.raises(ValueError):
        lift_signs(np.stack([ONE, ONE, ONE]), g)
    with pytest.raises(ValueError):
        lift_signs(np.stack([ONE, np.full(4, np.nan)]), g)


def frobenius_identity_check(qn, qm):
    """Both sides of ||R(qn) - R(qm)||_F^2 = 8 (1 - Re[qn conj(qm)]^2)."""
    rn = quat_to_rotation(qn)
    rm = quat_to_rotation(qm)
    lhs = float(np.sum((rn - rm) ** 2))
    re = float(quat_mul(qn, quat_conj(qm))[0])
    rhs = 8.0 * (1.0 - re * re)
    return lhs, rhs


def test_frobenius_identity():
    lhs, rhs = frobenius_identity_check(ONE, ONE)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = frobenius_identity_check(ONE, K)
    assert abs(lhs - 8.0) < 1e-12 and abs(rhs - 8.0) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(500):
        qn, qm = random_unit(rng, 4), random_unit(rng, 4)
        lhs, rhs = frobenius_identity_check(qn, qm)
        assert abs(lhs - rhs) < 1e-10


def test_matrix_rep():
    assert np.array_equal(matrix_rep(np.array([1.0, 0.0]), 2), np.eye(2))
    mi = matrix_rep(I, 4)
    assert np.array_equal(
        mi,
        np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
    )
    rng = np.random.default_rng(10)
    for _ in range(1000):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert np.abs(
            matrix_rep(a, 4) @ matrix_rep(b, 4) - matrix_rep(quat_mul(a, b), 4)
        ).max() < 1e-12
    for _ in range(100):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        ab = np.array([a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]])
        assert np.abs(matrix_rep(a, 2) @ matrix_rep(b, 2) - matrix_rep(ab, 2)).max() < 1e-12
    z = rng.standard_normal(4)
    assert abs(np.sum(matrix_rep(z, 4) ** 2) - 4 * np.sum(z**2)) < 1e-12
    with pytest.raises(ValueError):
        matrix_rep(np.ones(3), 3)


def reference_rotation_to_quat(r):
    """One matrix at a time, with Shepperd's branch rule written out."""
    t = np.trace(r)
    i = int(np.argmax([t, r[0, 0], r[1, 1], r[2, 2]]))
    if i == 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
    elif i == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
    elif i == 2:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
    q = np.array(q) / np.linalg.norm(q)
    for c in q:
        if abs(c) > 1e-12:
            return q if c > 0 else -q
    return q


def test_conversions_take_stacks():
    # a stack gives what one call per value gives, near pi included
    rng = np.random.default_rng(12)
    q = rng.standard_normal((300, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    axes = rng.standard_normal((300, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.pi - 10.0 ** rng.uniform(-9, -3, 300)
    angles[::7] = np.pi
    rots = np.concatenate([quat_to_rotation(q), axis_angle_to_rotation(axes, angles)])
    assert np.array_equal(quat_to_rotation(q), np.stack([quat_to_rotation(p) for p in q]))
    assert np.array_equal(axis_angle_to_rotation(axes, angles),
                          np.stack([axis_angle_to_rotation(v, a) for v, a in zip(axes, angles)]))
    quats = rotation_to_quat(rots)
    assert quats.shape == (600, 4)
    assert np.array_equal(quats, np.stack([rotation_to_quat(r) for r in rots]))
    # the norm may round differently from the one-matrix reference
    assert np.abs(quats - np.stack([reference_rotation_to_quat(r) for r in rots])).max() < 1e-15
    assert np.abs(quat_to_rotation(quats) - rots).max() < 1e-9
    assert np.array_equal(quats, canonical_sign(quats))
    assert (quats[:, 0] >= -1e-12).all()
    signs = np.where(rng.random(600) < 0.5, -1.0, 1.0)[:, None]
    assert np.array_equal(canonical_sign(signs * quats), quats)
    ties = np.array([[0.0, -0.6, 0.8, 0.0], [0.0, 0.0, 0.0, -1.0], [-1e-13, 0.0, 0.0, 0.0]])
    assert np.array_equal(canonical_sign(ties), np.stack([canonical_sign(t) for t in ties]))
    assert np.array_equal(canonical_sign(ties)[:2], -ties[:2])


def test_rotation_stack_with_one_bad_matrix_raises():
    rots = quat_to_rotation(np.tile(ONE, (5, 1)))
    rots[3] = np.diag([1.0, 1.0, -1.0])  # det = -1
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(rots)
    rots[3] = 1.01 * np.eye(3)
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(rots)
    with pytest.raises(InvalidRotationError):
        rotation_to_quat(np.zeros((5, 3, 4)))
    with pytest.raises(ValueError):
        quat_to_rotation(np.stack([ONE, 2 * ONE]))
