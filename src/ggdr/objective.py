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
per pair), multiplying by the R^-1 that the QR's rank test computed, and
contracts X_i dY_i^T over blocks of samples.

Along a geodesic the batched W^T X is not needed at all: a GeodesicFrame
holds two d x n stacks per sample, projected once per search direction onto
the columns of W V and h V from ``manifold.geodesic_factor`` (an eigh of the
d x d Gram h^T h, no SVD of h), and a point of the geodesic reduces to
scaling their rows (see GeodesicFrame).
Maps and frame points share one evaluation core from the stack M on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .affinity import AffinityGraph
from .errors import DimensionMismatch, InvalidShape
from .manifold import (
    GrassmannPoint,
    MappingMatrix,
    orthonormalize,
    qr_with_inverse,
    sinc,
    stack_bases,
)

# measure, measure_grad, qr_pullback: not called here; kept as the lookup
# sites of perfbench/tracer.py
from .metrics import (  # noqa: F401
    PAIR_BLOCK_BYTES,
    MeasureKind,
    Orientation,
    measure,
    measure_grad,
    pair_measure_grads,
    pair_measures,
    qr_pullback,
    qr_pullback_inverse,
)

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


@dataclass(frozen=True, eq=False)
class GeodesicFrame:
    """A problem's samples seen from the geodesic w(t) from w along h.

    On the factor (w V, h V, s, V) of ``manifold.geodesic_factor``,
    w(t) = (w V cos(S t) + h V t sinc(S t)) V^T, so w(t)^T X_i = V M_i(t)
    with the d x n matrices
        M_i(t) = cos(S t) A_i + t sinc(S t) B_i,
        A_i = (w V)^T X_i,  B_i = (h V)^T X_i
    (``a`` and ``b``, for the samples that touch a pair). V is orthogonal,
    so QR(V M) = (V Q, R): the pair products, the rank test and the cost at
    w(t) are those of the stack M(t), and the gradient is
    (sum_i X_i dM_i^T) V^T. ``cost`` and ``cost_and_grad`` take
    ``frame.at(t)`` in place of a map, without forming w(t).
    """

    s: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def at(self, t: float) -> GeodesicFrame:
        return replace(self, t=t)


def geodesic_frame(w, h: np.ndarray, factor, p: Problem) -> GeodesicFrame:
    """The frame of p's samples for the geodesic from the map w along h.

    ``factor`` is ``manifold.geodesic_factor(w, h)``.
    """
    wm = _checked_map(w, p)
    if h.shape != wm.shape:
        raise DimensionMismatch("tangent vector shaped for a different map")
    wv, hv, s, v = factor
    a = np.matmul(wv.T, p.points)[p._active]
    b = np.matmul(hv.T, p.points)[p._active]
    return GeodesicFrame(s, v, a, b)


def cost(w, p: Problem) -> float:
    """Evaluate the affinity-weighted objective at w.

    Accepts a MappingMatrix, a raw D x d array (the raw form supports
    finite-difference probes, which step off the orthonormal constraint) or
    a point ``frame.at(t)`` of a GeodesicFrame.
    """
    return _evaluate(w, p, with_grad=False)[0]


def euclidean_grad(w, p: Problem) -> np.ndarray:
    """Ambient-space gradient of ``cost`` at w (a D x d matrix)."""
    _, grad, _ = cost_and_grad(w, p)
    return grad


def cost_and_grad(w, p: Problem) -> tuple[float, np.ndarray, int]:
    """Cost, Euclidean gradient, and 0 skipped pairs.

    Takes w as ``cost`` does; the cost is bit-equal to ``cost(w, p)``.
    Every pair contributes to the gradient (see
    ``metrics.pair_measure_grads``). The third item, always 0, stays because
    perfbench/tracer.py reads it as each call's skipped-pair count.
    """
    return *_evaluate(w, p, with_grad=True), 0


def _stack(w, p: Problem):
    """The d x n matrices M_i whose QR the cost sees, for the samples that
    touch a pair, and the d x d factor that takes sum_i X_i dM_i^T to the
    gradient (None for a map, where M_i = W^T X_i)."""
    if isinstance(w, GeodesicFrame):
        if w.a.shape != (len(p._active), p.target_dim, p.order):
            raise DimensionMismatch("frame built for a different problem")
        s, t = w.s[:, None], w.t
        return np.cos(s * t) * w.a + (t * sinc(s * t)) * w.b, w.v.T
    return np.matmul(_checked_map(w, p).T, p.points)[p._active], None


def _evaluate(w, p: Problem, with_grad: bool):
    """The cost, and with_grad the gradient, at a map or a frame point: one
    core from the stack M on."""
    m, vt = _stack(w, p)
    grad = np.zeros((p.ambient_dim, p.target_dim)) if with_grad else None
    if not len(p._weights):
        return 0.0, grad
    q, _, r_inv = qr_with_inverse(m)
    dq = np.zeros_like(q) if with_grad else None
    total = 0.0
    for c, i_side, j_side in p._chunks:
        weights = p._weights[c]
        qi, qj = q[p._pair_i[c]], q[p._pair_j[c]]
        if not with_grad:
            total += float(weights @ pair_measures(p.kind, qi.mT @ qj))
            continue
        values, da = pair_measure_grads(p.kind, qi.mT @ qj)
        total += float(weights @ values)
        da *= weights[:, None, None]
        _scatter_add(dq, qj @ da.mT, i_side)
        _scatter_add(dq, qi @ da, j_side)
    if not with_grad:
        return p.pair_sign * total, None

    dm = qr_pullback_inverse(q, r_inv, p.pair_sign * dq)
    # sum X_i dM_i^T in blocks of samples: tensordot copies each block of
    # D x n bases, so one contraction over the whole stack would copy it
    # whole. A block may copy as much as the D x d gradient holds: fewer
    # samples make a product too thin to beat one matmul per sample.
    block_bytes = max(PAIR_BLOCK_BYTES, grad.nbytes)
    step = max(1, block_bytes // (8 * p.ambient_dim * p.order))
    for start in range(0, len(p._active), step):
        block = slice(start, start + step)
        grad += np.tensordot(
            p.points[p._active[block]], dm[block], axes=([0, 2], [0, 2])
        )
    if vt is not None:
        grad = grad @ vt
    return p.pair_sign * total, grad
