"""Independent reference implementations used only by the test suite.

These deliberately use the expensive textbook forms (full projectors,
literal determinants, finite differences, ODE integration) so they share no
code path with the package internals they check.
"""

import numpy as np

from ggdr.errors import DataFormatError
from ggdr.metrics import MeasureKind


def measure_ambient(kind: MeasureKind, y1: np.ndarray, y2: np.ndarray) -> float:
    """Projector/determinant forms, valid slightly off the manifold too."""
    a = y1.T @ y2
    n = a.shape[0]
    if kind is MeasureKind.PROJECTION_SQ:
        return 0.5 * float(np.sum((y1 @ y1.T - y2 @ y2.T) ** 2))
    if kind is MeasureKind.PROJECTION_KERNEL_DIST_SQ:
        return 2.0 * n - 2.0 * float(np.sum(a * a))
    if kind is MeasureKind.FUBINI_STUDY:
        return float(np.arccos(min(1.0, abs(np.linalg.det(a)))))
    if kind is MeasureKind.BINET_CAUCHY_DIST_SQ:
        return 2.0 - 2.0 * abs(np.linalg.det(a))
    if kind is MeasureKind.BINET_CAUCHY_KERNEL:
        return float(np.linalg.det(a @ a.T))
    raise ValueError(kind)


def measure_grad_closed_form(kind: MeasureKind, y1: np.ndarray, y2: np.ndarray):
    """Gradients of ``measure_ambient`` w.r.t. y1 and y2, as (g1, g2).

    p and pk differentiate the projector forms ||P1 - P2||_F^2 / 2 and
    2n - 2 tr(P1 P2), P = Y Y^T. The determinant measures chain their scalar
    f(|det A|), A = Y1^T Y2, with the SVD adjugate: for A = U diag(sigma) V^T,
    d|det A|/dA = U diag(prod_{j != i} sigma_j) V^T, defined at det A = 0 too.
    """
    p1, p2 = y1 @ y1.T, y2 @ y2.T
    if kind is MeasureKind.PROJECTION_SQ:
        return 2.0 * (p1 - p2) @ y1, 2.0 * (p2 - p1) @ y2
    if kind is MeasureKind.PROJECTION_KERNEL_DIST_SQ:
        return -4.0 * p2 @ y1, -4.0 * p1 @ y2
    u, sigma, vt = np.linalg.svd(y1.T @ y2)
    others = [np.prod(np.delete(sigma, i)) for i in range(len(sigma))]
    d_absdet = u @ np.diag(others) @ vt
    absdet = float(np.prod(sigma))
    if kind is MeasureKind.FUBINI_STUDY:
        da = -d_absdet / np.sqrt(1.0 - absdet**2)
    elif kind is MeasureKind.BINET_CAUCHY_DIST_SQ:
        da = -2.0 * d_absdet
    elif kind is MeasureKind.BINET_CAUCHY_KERNEL:
        da = 2.0 * absdet * d_absdet
    else:
        raise ValueError(kind)
    return y2 @ da.T, y1 @ da


def fd_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences over every entry of x."""
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        xp = x.copy()
        xp[ij] += step
        xm = x.copy()
        xm[ij] -= step
        out[ij] = (f(xp) - f(xm)) / (2.0 * step)
    return out


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)
    return float(np.linalg.norm(a - b) / scale)


def integrate_geodesic(w0: np.ndarray, h: np.ndarray, t: float, dt: float = 1e-4):
    """RK4 integration of the geodesic equation W'' = -W (W'^T W').

    Serves as the independent check of the closed-form geodesic.
    """

    def accel(w, v):
        return -w @ (v.T @ v)

    steps = max(1, int(round(t / dt)))
    dt = t / steps
    w, v = w0.copy(), h.copy()
    for _ in range(steps):
        k1w, k1v = v, accel(w, v)
        k2w, k2v = v + 0.5 * dt * k1v, accel(w + 0.5 * dt * k1w, v + 0.5 * dt * k1v)
        k3w, k3v = v + 0.5 * dt * k2v, accel(w + 0.5 * dt * k2w, v + 0.5 * dt * k2v)
        k4w, k4v = v + dt * k3v, accel(w + dt * k3w, v + dt * k3v)
        w = w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return w


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def read_matrix_csv_lines(path) -> np.ndarray:
    """The matrix CSV reader as one float() per field, line by line.

    The reference for ``read_matrix_csv``: the same accepted inputs, the
    same matrix, the same ``path:lineno`` messages. Non-UTF-8 bytes raise
    UnicodeDecodeError here, where the package raises DataFormatError.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty matrix file")
    matrix = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value {matrix[row, col]!r} in row {row + 1}, "
            f"column {col + 1}"
        )
    return matrix


def geodesic_step_svd(w: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """The geodesic on the thin SVD h = U S V^T (Edelman, Arias & Smith):
    w V cos(S t) V^T + U sin(S t) V^T, re-orthonormalized by a
    positive-diagonal Householder QR.

    The reference for ``geodesic_step``, which builds the same curve on the
    eigendecomposition of h^T h.
    """
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    q, r = np.linalg.qr((w @ vt.T) * np.cos(s * t) @ vt + (u * np.sin(s * t)) @ vt)
    return q * np.sign(np.diag(r))


def parallel_transport_svd(
    x: np.ndarray, w: np.ndarray, h: np.ndarray, t: float
) -> np.ndarray:
    """Transport of x along the geodesic from w along h = U S V^T:
    x + ((-w V sin(S t) + U cos(S t)) - U) U^T x, re-projected onto the
    horizontal space at ``geodesic_step_svd(w, h, t)``.

    The reference for ``parallel_transport``.
    """
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    ut_x = u.T @ x
    moved = x - u @ ut_x + (-(w @ vt.T) * np.sin(s * t) + u * np.cos(s * t)) @ ut_x
    w1 = geodesic_step_svd(w, h, t)
    return moved - w1 @ (w1.T @ moved)


def build_affinity_rows(labels, dist: np.ndarray, kw: int, kb: int) -> np.ndarray:
    """The signed neighbour graph, built row by row with two lexsorts per row.

    The reference for ``build_affinity``, which sorts once per class: for
    each sample, its kw nearest same-label and kb nearest other-label
    samples by (distance, index), each edge set both ways. No input checks.
    """

    def nearest(row, candidates, k):
        order = np.lexsort((candidates, row[candidates]))
        return candidates[order[:k]]

    lab_arr = np.asarray(list(labels), dtype=object)
    n = len(lab_arr)
    g = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n)
    for i in range(n):
        same = idx[(lab_arr == lab_arr[i]) & (idx != i)]
        other = idx[lab_arr != lab_arr[i]]
        for j in nearest(dist[i], same, kw):
            g[i, j] = g[j, i] = 1
        for j in nearest(dist[i], other, kb):
            g[i, j] = g[j, i] = -1
    return g
