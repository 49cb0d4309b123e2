"""File formats shared by the CLI: CSV signals, rotation files, PPM, JSON,
edge lists and plain vectors.

Floating point values are written with 17 significant digits (in JSON,
as Python's shortest repr), so round trips are exact for doubles.
Signal and rotation readers accept comma- or whitespace-separated rows.
"""

import json

import numpy as np

from relaxtik.graph import from_edge_pairs

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "read_rotations",
    "write_rotations",
    "read_ppm",
    "write_ppm",
    "to_json",
    "write_report",
    "read_edge_list",
    "read_vector",
]

_FMT = "%.17g"


def write_signal_csv(path, x: np.ndarray):
    """One vertex per row, d comma-separated columns."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    np.savetxt(path, x, fmt=_FMT, delimiter=",")


def read_signal_csv(path) -> np.ndarray:
    """Finite numeric rows, comma-separated if the file has a comma,
    whitespace-separated otherwise."""
    with open(path) as fh:
        text = fh.read()
    x = np.loadtxt(text.splitlines(), delimiter="," if "," in text else None,
                   dtype=float, ndmin=2)
    if not np.isfinite(x).all():
        raise ValueError(f"{path}: non-finite values")
    return x


def read_rotations(path) -> np.ndarray:
    """Rotation data as an (N, 3, 3) stack.

    Accepted row layouts (whitespace- or comma-separated):
      4 columns   quaternion w xi xj xk (unit, w-first)
      9 columns   3 x 3 matrix, row-major
    Axis-angle rows `v1 v2 v3 alpha` are also accepted (4 columns are
    disambiguated by the norm: a unit quaternion row has norm 1, an
    axis-angle row has norm sqrt(1 + alpha^2) which only collides at
    alpha = 0, where both readings give the identity).
    """
    from relaxtik.manifold import axis_angle_to_rotation, quat_to_rotation

    raw = read_signal_csv(path)
    if raw.shape[1] not in (4, 9):
        raise ValueError(f"{path}: expected 4 or 9 columns per row")
    if raw.shape[1] == 9:
        return raw.reshape(-1, 3, 3)
    norms = np.linalg.norm(raw, axis=1)
    if np.abs(norms - 1.0).max() <= 1e-6:
        return quat_to_rotation(raw / norms[:, None])
    axes = raw[:, :3]
    if np.abs(np.linalg.norm(axes, axis=1) - 1.0).max() <= 1e-6:
        return axis_angle_to_rotation(axes, raw[:, 3])
    raise ValueError(f"{path}: rows are neither unit quaternions nor axis-angle")


def write_rotations(path, rs: np.ndarray):
    """Write rotations as quaternion rows, w first."""
    from relaxtik.manifold import rotation_to_quat

    rs = np.asarray(rs, dtype=float)
    if rs.ndim != 3 or rs.shape[1:] != (3, 3):
        raise ValueError("expected an (N, 3, 3) stack")
    np.savetxt(path, rotation_to_quat(rs), fmt=_FMT)


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6, maxval 255) as a float array in [0, 1], shape (h, w, 3)."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    if b"" in fields or pos >= len(data):
        raise ValueError(f"{path}: truncated header")
    width, height, maxval = (int(f) if f.isdigit() else 0 for f in fields[1:])
    if width == 0 or height == 0:
        raise ValueError(f"{path}: width and height must be positive integers")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    pos += 1  # single whitespace after maxval
    size = width * height * 3
    if len(data) - pos < size:
        raise ValueError(f"{path}: expected {size} pixel bytes, found {len(data) - pos}")
    pix = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    return pix.reshape(height, width, 3).astype(float) / 255.0


def write_ppm(path, img: np.ndarray):
    img = np.asarray(img, dtype=float)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must have shape (h, w, 3)")
    pix = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(pix.tobytes())


def to_json(report: dict) -> str:
    """Indented JSON with sorted keys; numpy scalars and arrays are written
    as the Python numbers and lists they hold."""
    return json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist())


def write_report(path, report: dict):
    with open(path, "w") as fh:
        fh.write(to_json(report) + "\n")


def read_edge_list(path, n_vertices=None):
    """Read a graph from a text file with one `n m [lambda]` row per line.

    Vertex ids are 1-based.  Returns (graph, edge_weights) where the weights
    are None when the file has no third column.
    """
    rows = []
    lams = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: bad edge-list row: {line!r}")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: vertex ids must be integers") from None
            if len(parts) == 3:
                try:
                    lams.append(float(parts[2]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: edge weight must be a number") from None
    if lams and len(lams) != len(rows):
        raise ValueError(f"{path}: edge weights must be given for all edges or none")
    pairs = np.asarray(rows, dtype=np.int64)
    if n_vertices is None:
        n_vertices = int(pairs.max()) if pairs.size else 1
    g = from_edge_pairs(n_vertices, pairs)
    lam = np.asarray(lams, dtype=float) if lams else None
    return g, lam


def read_vector(path) -> np.ndarray:
    """Read a plain text vector (one value per line), e.g. vertex weights."""
    return np.atleast_1d(np.loadtxt(path, dtype=float))
