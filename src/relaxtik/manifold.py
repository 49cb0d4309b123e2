"""Quaternion algebra, the SO(3) double cover, and edge-wise sign lifting.

Quaternions are stored as length-4 arrays (w, xi, xj, xk).  The unit
quaternions q and -q describe the same rotation; conversions here return
the representative with nonnegative real part, with ties broken by making
the first nonzero imaginary component positive.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from relaxtik.graph import Graph

__all__ = [
    "InvalidRotationError",
    "quat_mul",
    "quat_conj",
    "quat_norm",
    "axis_angle_to_quat",
    "quat_to_rotation",
    "axis_angle_to_rotation",
    "rotation_to_quat",
    "rotation_to_axis_angle",
    "canonical_sign",
    "lift_signs",
    "LiftResult",
    "frobenius_identity_check",
    "matrix_rep",
]


class InvalidRotationError(ValueError):
    """Input matrix is not a rotation within tolerance."""


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product (noncommutative): ij = k, jk = i, ki = j."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_norm(q) -> float:
    return float(np.linalg.norm(np.asarray(q, dtype=float)))


def _check_unit(v, name, tol=1e-8):
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > tol:
        raise ValueError(f"{name} must be a unit vector")
    return v


def axis_angle_to_quat(axis, alpha: float) -> np.ndarray:
    """cos(a/2) + sin(a/2) (i v1 + j v2 + k v3); real part >= 0 for |a| <= pi."""
    v = _check_unit(axis, "axis")
    if v.shape != (3,):
        raise ValueError("axis must be in R^3")
    h = 0.5 * alpha
    return np.concatenate([[np.cos(h)], np.sin(h) * v])


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion; quadratic in q, so R(q) = R(-q)."""
    q = np.asarray(q, dtype=float)
    if abs(quat_norm(q) - 1.0) > 1e-8:
        raise ValueError("quaternion must be unit")
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * z * w, 2 * x * z + 2 * y * w],
            [2 * x * y + 2 * z * w, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * x * w],
            [2 * x * z - 2 * y * w, 2 * y * z + 2 * x * w, 1 - 2 * x * x - 2 * y * y],
        ]
    )


def axis_angle_to_rotation(axis, alpha: float) -> np.ndarray:
    """Rodrigues-form rotation matrix; satisfies R(v, a) = R(-v, -a)."""
    v = _check_unit(axis, "axis")
    if v.shape != (3,):
        raise ValueError("axis must be in R^3")
    c, s = np.cos(alpha), np.sin(alpha)
    v1, v2, v3 = v
    omc = 1.0 - c
    return np.array(
        [
            [omc * v1 * v1 + c, omc * v1 * v2 - v3 * s, omc * v1 * v3 + v2 * s],
            [omc * v2 * v1 + v3 * s, omc * v2 * v2 + c, omc * v2 * v3 - v1 * s],
            [omc * v1 * v3 - v2 * s, omc * v3 * v2 + v1 * s, omc * v3 * v3 + c],
        ]
    )


def canonical_sign(q) -> np.ndarray:
    """Representative of {q, -q} with Re >= 0; ties resolved by the first
    nonzero imaginary component being positive."""
    q = np.asarray(q, dtype=float)
    if abs(q[0]) > 1e-12:
        return q if q[0] > 0 else -q
    for c in q[1:]:
        if abs(c) > 1e-12:
            return q if c > 0 else -q
    return q


def rotation_to_quat(r) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd-style branch selection).

    The largest of (trace-based, diagonal-based) pivots is used so the
    extraction stays stable near rotation angle pi.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise InvalidRotationError("expected a 3 x 3 matrix")
    if np.abs(r.T @ r - np.eye(3)).max() > 1e-6 or abs(np.linalg.det(r) - 1.0) > 1e-6:
        raise InvalidRotationError("matrix is not a rotation")
    t = np.trace(r)
    candidates = [t, r[0, 0], r[1, 1], r[2, 2]]
    i = int(np.argmax(candidates))
    if i == 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif i == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif i == 2:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    return canonical_sign(q)


def rotation_to_axis_angle(r):
    """(axis, angle) with angle in [0, pi]; axis is arbitrary (e3) for the
    identity rotation, where it is undefined."""
    q = rotation_to_quat(r)
    w = float(np.clip(q[0], -1.0, 1.0))
    alpha = 2.0 * np.arccos(w)
    imag = q[1:]
    s = np.linalg.norm(imag)
    if s < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return imag / s, float(alpha)


@dataclass
class LiftResult:
    lifted: np.ndarray  # (N, 4)
    consistent: bool
    violations: list = field(default_factory=list)  # 1-based edge pairs


def lift_signs(quats, g: Graph) -> LiftResult:
    """Choose quaternion signs so adjacent values satisfy Re[q_n conj(q_m)] >= 0.

    Breadth-first traversal from vertex 1 with q_1 kept fixed; each newly
    reached vertex is flipped if needed.  Always succeeds on trees.  On
    cyclic graphs the remaining edges are checked and any violations are
    reported rather than raised; exact zeros count as satisfied (the sign
    choice is then arbitrary and + is kept).
    """
    q = np.array(quats, dtype=float)
    if q.shape != (g.n_vertices, 4):
        raise ValueError("expected one quaternion row per vertex")
    norms = np.linalg.norm(q, axis=1)
    if np.abs(norms - 1.0).max() > 1e-8:
        raise ValueError("all quaternions must be unit")
    adj = [[] for _ in range(g.n_vertices)]
    for a, b in zip(g.first, g.second):
        adj[a].append(b)
        adj[b].append(a)
    visited = np.zeros(g.n_vertices, dtype=bool)
    visited[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if not visited[u]:
                if float(q[u] @ q[v]) < 0.0:
                    q[u] = -q[u]
                visited[u] = True
                queue.append(u)
    # Re[q_n conj(q_m)] equals the R^4 inner product <q_n, q_m>.
    dots = np.einsum("ed,ed->e", q[g.first], q[g.second])
    bad = np.flatnonzero(dots < -1e-12)
    violations = [tuple(int(v) for v in g.edges[e]) for e in bad]
    return LiftResult(lifted=q, consistent=len(violations) == 0, violations=violations)


def frobenius_identity_check(qn, qm):
    """Both sides of ||R(qn) - R(qm)||_F^2 = 8 (1 - Re[qn conj(qm)]^2)."""
    rn = quat_to_rotation(qn)
    rm = quat_to_rotation(qm)
    lhs = float(np.sum((rn - rm) ** 2))
    re = float(quat_mul(qn, quat_conj(qm))[0])
    rhs = 8.0 * (1.0 - re * re)
    return lhs, rhs


def matrix_rep(z, d: int) -> np.ndarray:
    """Matrix representation realizing complex (d = 2) or quaternion (d = 4)
    multiplication: M(a) M(b) = M(ab) and ||M(z)||_F^2 = d ||z||^2."""
    z = np.asarray(z, dtype=float)
    if d == 2:
        if z.shape != (2,):
            raise ValueError("expected a 2-vector")
        a, b = z
        return np.array([[a, -b], [b, a]])
    if d == 4:
        if z.shape != (4,):
            raise ValueError("expected a 4-vector")
        w, x, y, k = z
        return np.array(
            [
                [w, -x, -y, -k],
                [x, w, -k, y],
                [y, k, w, -x],
                [k, -y, x, w],
            ]
        )
    raise ValueError("matrix representation exists for d in {2, 4} only")
