"""Subspace measures and their analytic gradients.

Five measures between equal-order subspaces, all functions of the n x n
product A = Q1^T Q2 whose singular values are the principal-angle cosines:

    projection (squared)        n - ||A||_F^2            = ||sin theta||^2
    Fubini-Study                arccos |det A|           = arccos(prod cos)
    Binet-Cauchy dist (squared) 2 - 2 |det A|
    projection kernel (squared) 2n - 2 ||A||_F^2
    Binet-Cauchy kernel         det(A A^T)               = prod cos^2

The first four shrink to 0 as subspaces coincide; the kernel grows to 1, so
it carries a similarity orientation that callers must account for.

Gradients are taken with respect to the orthonormal representatives and
pulled back through the positive-diagonal QR factorization to the mapped
(pre-normalization) matrices, then to the map itself. Everything works on
n x n or d x n blocks; D x D projectors are never formed.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotSquare,
    SingularPair,
    SingularR,
)
from .manifold import GrassmannPoint, RANK_RTOL

DET_TOL = 1e-12

# objective's pair chunks and pipeline's row blocks take about this many bytes
PAIR_BLOCK_BYTES = 1 << 18

# guarded roundoff events, keyed by guard name; inspect via health_counters()
_health: Counter = Counter()


def health_counters() -> dict[str, int]:
    return dict(_health)


def reset_health_counters() -> None:
    _health.clear()


class Orientation(enum.Enum):
    DISTANCE_LIKE = "distance"
    SIMILARITY_LIKE = "similarity"


class MeasureKind(enum.Enum):
    """The five measures; enum values double as CLI codes."""

    PROJECTION_SQ = "p"
    FUBINI_STUDY = "fs"
    BINET_CAUCHY_DIST_SQ = "bc"
    PROJECTION_KERNEL_DIST_SQ = "pk"
    BINET_CAUCHY_KERNEL = "bck"

    @property
    def orientation(self) -> Orientation:
        if self is MeasureKind.BINET_CAUCHY_KERNEL:
            return Orientation.SIMILARITY_LIKE
        return Orientation.DISTANCE_LIKE


@dataclass(frozen=True)
class PairGradient:
    """Partial derivatives of a measure w.r.t. both orthonormal arguments."""

    g1: np.ndarray
    g2: np.ndarray


def _as_basis(x) -> np.ndarray:
    if isinstance(x, GrassmannPoint):
        return x.basis
    return np.asarray(x, dtype=np.float64)


def _product(q1, q2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b1, b2 = _as_basis(q1), _as_basis(q2)
    if b1.shape != b2.shape:
        raise DimensionMismatch(f"shapes differ: {b1.shape} vs {b2.shape}")
    return b1.T @ b2, b1, b2


def measure(kind: MeasureKind, q1, q2) -> float:
    """Evaluate one measure between two equal-shape subspace bases."""
    a, _, _ = _product(q1, q2)
    n = a.shape[0]
    if kind is MeasureKind.PROJECTION_SQ:
        return max(0.0, n - float(np.sum(a * a)))
    if kind is MeasureKind.PROJECTION_KERNEL_DIST_SQ:
        return max(0.0, 2.0 * n - 2.0 * float(np.sum(a * a)))
    absdet = abs(float(np.linalg.det(a)))
    if kind is MeasureKind.FUBINI_STUDY:
        return float(np.arccos(min(1.0, max(0.0, absdet))))
    if kind is MeasureKind.BINET_CAUCHY_DIST_SQ:
        return max(0.0, 2.0 - 2.0 * absdet)
    if kind is MeasureKind.BINET_CAUCHY_KERNEL:
        return min(1.0, max(0.0, absdet * absdet))
    raise ValueError(f"unknown measure kind: {kind!r}")


def measure_grad(kind: MeasureKind, q1, q2) -> PairGradient:
    """Analytic gradient of ``measure`` w.r.t. both orthonormal arguments.

    The determinant-based measures require A = Q1^T Q2 invertible and raise
    SingularPair otherwise; the Fubini-Study coefficient is clamped away from
    |det A| = 1 (coincident subspaces), counted under
    ``fubini_study_grad_clamped``.
    """
    a, b1, b2 = _product(q1, q2)

    if kind is MeasureKind.PROJECTION_SQ:
        g1 = 2.0 * (b1 - b2 @ (b2.T @ b1))
        g2 = 2.0 * (b2 - b1 @ (b1.T @ b2))
        return PairGradient(g1, g2)

    if kind is MeasureKind.PROJECTION_KERNEL_DIST_SQ:
        return PairGradient(-4.0 * (b2 @ (b2.T @ b1)), -4.0 * (b1 @ (b1.T @ b2)))

    det = float(np.linalg.det(a))
    if not math.isfinite(det) or abs(det) < DET_TOL:
        raise SingularPair(
            f"|det(Q1^T Q2)| = {abs(det):.3e} below {DET_TOL:.0e}; "
            "subspace pair too close to orthogonal for this gradient"
        )
    inv = np.linalg.inv(a)
    absdet_grad = abs(det) * inv.T  # d|det A| / dA

    if kind is MeasureKind.FUBINI_STUDY:
        c = abs(det)
        if c > 1.0 - DET_TOL:
            c = 1.0 - DET_TOL
            _health["fubini_study_grad_clamped"] += 1
        da = -absdet_grad / math.sqrt(1.0 - c * c)
        return PairGradient(b2 @ da.T, b1 @ da)

    if kind is MeasureKind.BINET_CAUCHY_DIST_SQ:
        da = -2.0 * absdet_grad
        return PairGradient(b2 @ da.T, b1 @ da)

    if kind is MeasureKind.BINET_CAUCHY_KERNEL:
        # det(A A^T) (A A^T)^{-1} assembled as M^T M with M = det(A) A^{-1},
        # which stays bounded as the determinant shrinks
        m = det * inv
        sym = m.T @ m
        sym = sym + sym.T
        return PairGradient(b2 @ (b2.T @ b1) @ sym, b1 @ sym @ (b1.T @ b2))

    raise ValueError(f"unknown measure kind: {kind!r}")


# Every measure is f(s) for s = ||A||_F^2 (p, pk) or s = |det A| (fs, bc, bck)
# of A = Q1^T Q2. Code -> (f(s, n), f'(s)), with the clamps of ``measure``.
_FROBENIUS = ("p", "pk")
_TABLE = {
    "p": (lambda s, n: np.maximum(0.0, n - s), lambda s: -1.0),
    "pk": (lambda s, n: np.maximum(0.0, 2.0 * n - 2.0 * s), lambda s: -2.0),
    "fs": (
        lambda s, n: np.arccos(np.clip(s, 0.0, 1.0)),
        lambda s: -1.0 / np.sqrt(1.0 - np.minimum(s, 1.0 - DET_TOL) ** 2),
    ),
    "bc": (lambda s, n: np.maximum(0.0, 2.0 - 2.0 * s), lambda s: -2.0),
    "bck": (lambda s, n: np.clip(s * s, 0.0, 1.0), lambda s: 2.0 * s),
}


def _invariant(kind: MeasureKind, a: np.ndarray) -> np.ndarray:
    if kind.value in _FROBENIUS:
        return np.sum(a * a, axis=(-2, -1))
    return np.abs(np.linalg.det(a))


def pair_measures(kind: MeasureKind, a: np.ndarray) -> np.ndarray:
    """``measure`` of every product A = Q1^T Q2 in a stack (..., n, n)."""
    return _TABLE[kind.value][0](_invariant(kind, a), a.shape[-1])


def pair_measure_grads(kind: MeasureKind, a: np.ndarray):
    """Measures, gradients dL/dA, and a mask of the pairs that have one.

    For a stack of products A = Q1^T Q2 (P, n, n); dL/dQ1 = Q2 dA^T and
    dL/dQ2 = Q1 dA. As in ``measure_grad``, a pair with |det A| below
    DET_TOL (or not finite) has no determinant-based gradient: its mask
    entry is False and its dA zero; Fubini-Study clamps are counted.
    """
    value, slope = _TABLE[kind.value]
    s = _invariant(kind, a)
    if kind.value in _FROBENIUS:
        da = 2.0 * np.reshape(slope(s), (-1, 1, 1)) * a
        return value(s, a.shape[-1]), da, np.ones(len(a), dtype=bool)
    ok = np.isfinite(s) & (s >= DET_TOL)
    if kind is MeasureKind.FUBINI_STUDY:
        clamped = np.count_nonzero(s[ok] > 1.0 - DET_TOL)
        _health["fubini_study_grad_clamped"] += int(clamped)
    da = np.zeros_like(a)
    # d|det A|/dA = |det A| A^{-T}
    da[ok] = (slope(s[ok]) * s[ok])[:, None, None] * np.linalg.inv(a[ok]).mT
    return value(s, a.shape[-1]), da, ok


def btril(a: np.ndarray) -> np.ndarray:
    """Adjoint of L -> L - L^T: strictly-lower(A) - strictly-lower(A^T), matrix-wise."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NotSquare(f"need a square matrix, got {a.shape}")
    return np.tril(a, -1) - np.tril(a.mT, -1)


def qr_pullback(
    x: np.ndarray, q: np.ndarray, r: np.ndarray, dq: np.ndarray
) -> np.ndarray:
    """Pull a gradient in Q back through the QR factorization of x.

    Given x = q r (positive-diagonal convention) and the incoming gradient
    dQbar = dL/dQ of a function of the Q factor alone, returns

        dL/dX = ((I - Q Q^T) dQbar + Q btril(Q^T dQbar)) R^{-T}.

    A stack (..., m, k) is handled matrix by matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    dq = np.asarray(dq, dtype=np.float64)
    if x.shape != q.shape or x.shape != dq.shape:
        raise DimensionMismatch("x, q, dq must share the m x k shape")
    k = q.shape[-1]
    if r.shape != q.shape[:-2] + (k, k):
        raise DimensionMismatch("r must be k x k matching q's column count")
    rdiag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(rdiag.min(axis=-1) <= RANK_RTOL * rdiag.max(axis=-1)):
        raise SingularR("triangular factor numerically singular")
    qt_dq = q.mT @ dq
    rhs = dq - q @ qt_dq + q @ btril(qt_dq)
    # rhs @ R^{-T}; R has no entries below the diagonal for LU to pivot on,
    # so this is one triangular back substitution per matrix
    return np.linalg.solve(r, rhs.mT).mT
