"""Affinity-weighted objective over reduced subspaces, and its gradients.

Each sample X_i on G(n, D) is mapped to Y_i = W^T X_i and re-orthonormalized
by a positive-diagonal QR at every evaluation, so measures always act on
valid points of G(n, d). The cost sums the chosen measure over the signed
neighbor-graph pairs; the kernel measure's contribution is negated by default
so that within-class similarity is maximized rather than minimized.

Every evaluation works on stacked arrays: one batched W^T X, one batched QR
of the samples that touch a pair, and the pair products Q_i^T Q_j as
(P, n, n) stacks in chunks of bounded memory. The Euclidean gradient
scatter-adds each pair's gradient onto its two samples, pulls the sums back
through the QR in one batch (by linearity, once per sample, not once per
pair) and sums X_i dY_i^T over the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import AffinityGraph
from .errors import DimensionMismatch, InvalidShape, SingularPair
from .manifold import GrassmannPoint, MappingMatrix, orthonormalize, stack_bases

# measure, measure_grad: per-pair references, looked up here by perfbench/tracer.py
from .metrics import (  # noqa: F401
    PAIR_BLOCK_BYTES,
    MeasureKind,
    Orientation,
    measure,
    measure_grad,
    pair_measure_grads,
    pair_measures,
    qr_pullback,
)

# fail loudly when more than this fraction of weighted pairs is skipped
MAX_SKIP_FRACTION = 0.01


@dataclass(frozen=True)
class Problem:
    """One training instance: points, neighbor graph, measure, target dim.

    ``points`` is one read-only (N, D, n) array of bases, given as such or as
    a sequence of GrassmannPoints and validated by ``stack_bases``.
    """

    points: np.ndarray
    graph: AffinityGraph
    kind: MeasureKind
    target_dim: int
    sign_flip_similarity: bool = True
    # the samples that touch a pair; each pair (i < j, row-major order) as
    # positions in _active
    _active: np.ndarray = field(init=False, repr=False)
    _pair_i: np.ndarray = field(init=False, repr=False)
    _pair_j: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = stack_bases(self.points)
        if not len(points):
            raise InvalidShape("need at least one point")
        if self.graph.size != len(points):
            raise DimensionMismatch(
                f"graph size {self.graph.size} != {len(points)} points"
            )
        ambient, order = points.shape[1:]
        if not order <= self.target_dim <= ambient:
            raise InvalidShape(
                f"need n <= d <= D, got n={order}, d={self.target_dim}, D={ambient}"
            )
        gm = self.graph.g
        rows, cols = np.nonzero(np.triu(gm, 1))
        active, ends = np.unique(np.concatenate([rows, cols]), return_inverse=True)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_active", active)
        object.__setattr__(self, "_pair_i", ends[: len(rows)])
        object.__setattr__(self, "_pair_j", ends[len(rows) :])
        object.__setattr__(self, "_weights", gm[rows, cols].astype(np.float64))

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def order(self) -> int:
        return self.points.shape[2]

    @property
    def pair_sign(self) -> float:
        """Global orientation factor applied to every pair term."""
        if (
            self.sign_flip_similarity
            and self.kind.orientation is Orientation.SIMILARITY_LIKE
        ):
            return -1.0
        return 1.0


def reduce_point(w: MappingMatrix, x: GrassmannPoint) -> GrassmannPoint:
    """Map one point to the reduced manifold: the Q factor of QR(W^T X)."""
    if x.ambient_dim != w.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: map {w.ambient_dim}, point {x.ambient_dim}"
        )
    q, _ = orthonormalize(w.w.T @ x.basis)
    return GrassmannPoint(q)


def _checked_map(w, p: Problem) -> np.ndarray:
    wm = w.w if isinstance(w, MappingMatrix) else np.asarray(w, dtype=np.float64)
    if wm.shape != (p.ambient_dim, p.target_dim):
        raise DimensionMismatch(
            f"map shape {wm.shape} != ({p.ambient_dim}, {p.target_dim})"
        )
    return wm


def _reduce_active(wm: np.ndarray, p: Problem):
    """Y = W^T X and its QR for the samples that touch a pair, in _active order."""
    y = np.matmul(wm.T, p.points)[p._active]
    return (y, *orthonormalize(y))


def _pair_chunks(p: Problem):
    step = max(1, PAIR_BLOCK_BYTES // (8 * p.target_dim * p.order))
    for start in range(0, len(p._weights), step):
        yield slice(start, start + step)


def cost(w, p: Problem) -> float:
    """Evaluate the affinity-weighted objective at w.

    Accepts a MappingMatrix or a raw D x d array (the raw form supports
    finite-difference probes, which step off the orthonormal constraint).
    """
    wm = _checked_map(w, p)
    if not len(p._weights):
        return 0.0
    _, q, _ = _reduce_active(wm, p)
    total = 0.0
    for c in _pair_chunks(p):
        a = q[p._pair_i[c]].mT @ q[p._pair_j[c]]
        total += float(p._weights[c] @ pair_measures(p.kind, a))
    return p.pair_sign * total


def euclidean_grad(w, p: Problem) -> np.ndarray:
    """Ambient-space gradient of ``cost`` at w (a D x d matrix)."""
    _, grad, _ = cost_and_grad(w, p)
    return grad


def cost_and_grad(w, p: Problem) -> tuple[float, np.ndarray, int]:
    """Cost, Euclidean gradient, and the number of skipped singular pairs.

    Pairs whose measure gradient requires an inverse that does not exist
    numerically are skipped (their cost contribution is kept). If more than
    MAX_SKIP_FRACTION of the weighted pairs get skipped the evaluation
    aborts, since the gradient would no longer represent the objective.
    """
    wm = _checked_map(w, p)
    grad = np.zeros(wm.shape)
    if not len(p._weights):
        return 0.0, grad, 0
    y, q, r = _reduce_active(wm, p)
    dq = np.zeros_like(q)
    total = 0.0
    skipped = 0
    for c in _pair_chunks(p):
        i, j, weights = p._pair_i[c], p._pair_j[c], p._weights[c]
        qi, qj = q[i], q[j]
        values, da, ok = pair_measure_grads(p.kind, qi.mT @ qj)
        total += float(weights @ values)
        skipped += len(ok) - int(np.count_nonzero(ok))
        da *= weights[:, None, None]
        np.add.at(dq, i, qj @ da.mT)
        np.add.at(dq, j, qi @ da)

    if skipped > MAX_SKIP_FRACTION * len(p._weights):
        raise SingularPair(
            f"{skipped} of {len(p._weights)} weighted pairs skipped as singular; "
            "gradient would not represent the objective"
        )

    dy = qr_pullback(y, q, r, p.pair_sign * dq)
    # sum X_i dY_i^T sample by sample: no reshaped copy of the D x n bases
    for k, i in enumerate(p._active):
        grad += p.points[i] @ dy[k].T
    return p.pair_sign * total, grad, skipped
