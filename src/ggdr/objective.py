"""Affinity-weighted objective over reduced subspaces, and its gradients.

Each sample X_i on G(n, D) is mapped to Y_i = W^T X_i and re-orthonormalized
by a positive-diagonal QR at every evaluation, so measures always act on
valid points of G(n, d). The cost sums the chosen measure over the signed
neighbor-graph pairs; the kernel measure's contribution is negated by default
so that within-class similarity is maximized rather than minimized.

Every evaluation works on stacked arrays: one batched W^T X, one batched QR
of the samples that touch a pair, and the pair products Q_i^T Q_j as
(P, n, n) stacks in chunks of bounded memory. The Euclidean gradient sums
each chunk's pair gradients per sample as segment sums (``np.add.reduceat``
over segments fixed when the Problem is built), pulls the per-sample sums
back through the QR in one batch (by linearity, once per sample, not once
per pair) and contracts X_i dY_i^T over blocks of samples.
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


@dataclass(frozen=True, eq=False)
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
    # the pair chunks, sized by PAIR_BLOCK_BYTES when the Problem is built,
    # each with the i- and j-side segments of the gradient scatter (_segments)
    _chunks: tuple = field(init=False, repr=False)

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
        step = max(1, PAIR_BLOCK_BYTES // (8 * self.target_dim * order))
        chunks = []
        for start in range(0, len(rows), step):
            c = slice(start, start + step)
            chunks.append(
                (c, _segments(self._pair_i[c]), _segments(self._pair_j[c]))
            )
        object.__setattr__(self, "_chunks", tuple(chunks))

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


def _segments(ends: np.ndarray):
    """How to sum per-pair terms per sample: (order, starts, samples).

    ends[order] is sorted, its runs of one sample begin at starts, and
    samples[s] is the sample of run s; order is None when ends is already
    sorted, as on the i side of a chunk (pairs are in row-major order).
    """
    order = None
    if not (ends[1:] >= ends[:-1]).all():
        order = np.argsort(ends, kind="stable")
    ordered = ends if order is None else ends[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return order, starts, ordered[starts]


def _scatter_add(dq: np.ndarray, terms: np.ndarray, segments) -> None:
    """dq[ends[k]] += terms[k] for every pair k, as one sum per segment."""
    order, starts, samples = segments
    dq[samples] += np.add.reduceat(terms if order is None else terms[order], starts)


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
    for c, _, _ in p._chunks:
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
    for c, i_side, j_side in p._chunks:
        weights = p._weights[c]
        qi, qj = q[p._pair_i[c]], q[p._pair_j[c]]
        values, da, ok = pair_measure_grads(p.kind, qi.mT @ qj)
        total += float(weights @ values)
        skipped += len(ok) - int(np.count_nonzero(ok))
        da *= weights[:, None, None]
        _scatter_add(dq, qj @ da.mT, i_side)
        _scatter_add(dq, qi @ da, j_side)

    if skipped > MAX_SKIP_FRACTION * len(p._weights):
        raise SingularPair(
            f"{skipped} of {len(p._weights)} weighted pairs skipped as singular; "
            "gradient would not represent the objective"
        )

    dy = qr_pullback(y, q, r, p.pair_sign * dq)
    # sum X_i dY_i^T in blocks of samples: tensordot copies each block of
    # D x n bases, so one contraction over the whole stack would copy it
    # whole. A block may copy as much as the D x d gradient holds: fewer
    # samples make a product too thin to beat one matmul per sample.
    block_bytes = max(PAIR_BLOCK_BYTES, grad.nbytes)
    step = max(1, block_bytes // (8 * p.ambient_dim * p.order))
    for start in range(0, len(p._active), step):
        block = slice(start, start + step)
        grad += np.tensordot(
            p.points[p._active[block]], dy[block], axes=([0, 2], [0, 2])
        )
    return p.pair_sign * total, grad, skipped
