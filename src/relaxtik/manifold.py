"""Quaternion algebra, the SO(3) double cover, and edge-wise sign lifting.

Quaternions are stored as length-4 arrays (w, xi, xj, xk).  The unit
quaternions q and -q describe the same rotation; conversions here return
the representative with nonnegative real part, with ties broken by making
the first nonzero imaginary component positive.  The conversions between
rotations and quaternions take one value or a stack of them.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from relaxtik.graph import Graph

__all__ = [
    "InvalidRotationError",
    "quat_mul",
    "quat_conj",
    "quat_to_rotation",
    "axis_angle_to_rotation",
    "rotation_to_quat",
    "rotation_to_axis_angle",
    "canonical_sign",
    "lift_signs",
    "LiftResult",
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


def _check_unit(v, name, tol=1e-8):
    """v as a float array whose rows (or v itself) have unit norm."""
    v = np.asarray(v, dtype=float)
    if np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() > tol:
        raise ValueError(f"{name} must be a unit vector")
    return v


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion; quadratic in q, so R(q) = R(-q).

    Takes one quaternion (4,) or a stack (N, 4) and returns (3, 3) or
    (N, 3, 3).
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,) or q.ndim > 2:
        raise ValueError("expected a quaternion (4,) or a stack (N, 4)")
    _check_unit(q, "quaternion")
    w, x, y, z = np.moveaxis(q, -1, 0)
    r = np.stack(
        [
            1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * z * w, 2 * x * z + 2 * y * w,
            2 * x * y + 2 * z * w, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * x * w,
            2 * x * z - 2 * y * w, 2 * y * z + 2 * x * w, 1 - 2 * x * x - 2 * y * y,
        ],
        axis=-1,
    )
    return r.reshape(q.shape[:-1] + (3, 3))


def axis_angle_to_rotation(axis, alpha) -> np.ndarray:
    """Rodrigues-form rotation matrix; satisfies R(v, a) = R(-v, -a).

    Takes one unit axis (3,) and angle, or a stack of axes (N, 3) and
    angles (N,), and returns (3, 3) or (N, 3, 3).
    """
    v = _check_unit(axis, "axis")
    if v.shape[-1:] != (3,) or v.ndim > 2:
        raise ValueError("axis must be in R^3")
    alpha = np.asarray(alpha, dtype=float)
    c, s = np.cos(alpha), np.sin(alpha)
    v1, v2, v3 = np.moveaxis(v, -1, 0)
    omc = 1.0 - c
    r = np.stack(
        [
            omc * v1 * v1 + c, omc * v1 * v2 - v3 * s, omc * v1 * v3 + v2 * s,
            omc * v2 * v1 + v3 * s, omc * v2 * v2 + c, omc * v2 * v3 - v1 * s,
            omc * v1 * v3 - v2 * s, omc * v3 * v2 + v1 * s, omc * v3 * v3 + c,
        ],
        axis=-1,
    )
    return r.reshape(v.shape[:-1] + (3, 3))


def canonical_sign(q) -> np.ndarray:
    """Representative of {q, -q} with Re >= 0; ties resolved by the first
    nonzero imaginary component being positive.  Takes one quaternion (4,)
    or a stack (N, 4)."""
    q = np.asarray(q, dtype=float)
    first = np.argmax(np.abs(q) > 1e-12, axis=-1)[..., None]
    # The first component above 1e-12 in size decides; an all-zero q is kept.
    pivot = np.take_along_axis(q, first, axis=-1)
    return np.where(pivot < -1e-12, -q, q)


def rotation_to_quat(r) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd-style branch selection).

    Takes one matrix (3, 3) or a stack (N, 3, 3) and returns (4,) or
    (N, 4).  Each matrix uses the largest of its (trace-based,
    diagonal-based) pivots, so the extraction stays stable near rotation
    angle pi.  Raises InvalidRotationError if any matrix is not a rotation.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim not in (2, 3) or r.shape[-2:] != (3, 3):
        raise InvalidRotationError("expected a 3 x 3 matrix or an (N, 3, 3) stack")
    orth = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
    if (orth > 1e-6).any() or (np.abs(np.linalg.det(r) - 1.0) > 1e-6).any():
        raise InvalidRotationError("matrix is not a rotation")
    r00, r11, r22 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    t = r00 + r11 + r22
    a = r[..., 2, 1] - r[..., 1, 2]
    b = r[..., 0, 2] - r[..., 2, 0]
    c = r[..., 1, 0] - r[..., 0, 1]
    e01 = r[..., 0, 1] + r[..., 1, 0]
    e02 = r[..., 0, 2] + r[..., 2, 0]
    e12 = r[..., 1, 2] + r[..., 2, 1]
    # Row j of this symmetric matrix is 4 q_j q.  The row of the largest
    # pivot has |q_j| >= 1/2, so normalizing it loses no precision.
    k = np.stack(
        [
            np.stack([t + 1.0, a, b, c], axis=-1),
            np.stack([a, 1.0 + r00 - r11 - r22, e01, e02], axis=-1),
            np.stack([b, e01, 1.0 - r00 + r11 - r22, e12], axis=-1),
            np.stack([c, e02, e12, 1.0 - r00 - r11 + r22], axis=-1),
        ],
        axis=-2,
    )
    pivot = np.argmax(np.stack([t, r00, r11, r22], axis=-1), axis=-1)
    q = np.take_along_axis(k, pivot[..., None, None], axis=-2)[..., 0, :]
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return canonical_sign(q)


def rotation_to_axis_angle(r):
    """(axis, angle) with angle in [0, pi]; axis is arbitrary (e3) for the
    identity rotation, where it is undefined.  Takes one matrix (3, 3) or a
    stack (N, 3, 3) and returns (3,) and a float, or (N, 3) and (N,)."""
    q = rotation_to_quat(r)
    alpha = 2.0 * np.arccos(np.clip(q[..., 0], -1.0, 1.0))
    imag = q[..., 1:]
    # The norm as a dot product, as np.linalg.norm takes it for one vector.
    s = np.sqrt(imag[..., None, :] @ imag[..., :, None])[..., 0]
    ident = s < 1e-12
    axis = np.where(ident, [0.0, 0.0, 1.0], imag / np.where(ident, 1.0, s))
    alpha = np.where(ident[..., 0], 0.0, alpha)
    return (axis, float(alpha)) if q.ndim == 1 else (axis, alpha)


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
