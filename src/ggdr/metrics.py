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

Each measure is defined once, in ``_TABLE``, as a function of ||A||_F^2 or
|det A|, and runs on stacks of products in ``pair_measures`` and
``pair_measure_grads``. ``measure`` and ``measure_grad`` are their one-pair
case; ``tests/oracles.py`` holds the independent closed forms. Every pair has
a gradient, through the adjugate of A where |det A| is differentiated.

Gradients are taken with respect to the orthonormal representatives and
pulled back through the positive-diagonal QR factorization to the mapped
(pre-normalization) matrices, then to the map itself. Everything works on
n x n or d x n blocks; D x D projectors are never formed.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSquare, SingularR
from .manifold import RANK_RTOL

# the Fubini-Study slope is clamped to |det A| <= 1 - DET_TOL
DET_TOL = 1e-12

# objective's pair chunks take about this many bytes, pipeline's row blocks of
# products four times as many
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


@dataclass(frozen=True, eq=False)
class PairGradient:
    """Partial derivatives of a measure w.r.t. both orthonormal arguments."""

    g1: np.ndarray
    g2: np.ndarray


def _product(q1, q2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # a GrassmannPoint's basis, or the array itself
    b1, b2 = (np.asarray(getattr(q, "basis", q), np.float64) for q in (q1, q2))
    if b1.shape != b2.shape:
        raise DimensionMismatch(f"shapes differ: {b1.shape} vs {b2.shape}")
    return b1.T @ b2, b1, b2


def measure(kind: MeasureKind, q1, q2) -> float:
    """Evaluate one measure between two equal-shape subspace bases.

    The one-pair case of ``pair_measures``. A basis holding NaN or +-inf
    gives NaN, not a clamped value that would read as a perfect match.
    """
    return float(pair_measures(kind, _product(q1, q2)[0][None])[0])


def measure_grad(kind: MeasureKind, q1, q2) -> PairGradient:
    """Analytic gradient of ``measure`` w.r.t. both orthonormal arguments.

    The one-pair case of ``pair_measure_grads``, where its Fubini-Study
    clamps are counted: NaN for a basis holding NaN or +-inf, as ``measure``.
    """
    a, b1, b2 = _product(q1, q2)
    da = pair_measure_grads(kind, a[None])[1][0]
    g1, g2 = b2 @ da.T, b1 @ da
    if kind is MeasureKind.PROJECTION_SQ:
        # off the manifold p extends as ||Q1 Q1^T - Q2 Q2^T||^2 / 2, whose
        # gradient adds 2 Q: normal to the Grassmannian, dropped by the pullback
        return PairGradient(g1 + 2.0 * b1, g2 + 2.0 * b2)
    return PairGradient(g1, g2)


# Every measure is f(s) for s = ||A||_F^2 (p, pk) or s = |det A| (fs, bc, bck)
# of A = Q1^T Q2. Code -> (f(s, n), f'(s)), clamped to each measure's range.
# A NaN s gives NaN for both (0 * s passes it on to the constant slopes).
_FROBENIUS = ("p", "pk")
_TABLE = {
    "p": (lambda s, n: np.maximum(0.0, n - s), lambda s: 0.0 * s - 1.0),
    "pk": (lambda s, n: np.maximum(0.0, 2.0 * n - 2.0 * s), lambda s: 0.0 * s - 2.0),
    "fs": (
        lambda s, n: np.arccos(np.clip(s, 0.0, 1.0)),
        lambda s: -1.0 / np.sqrt(1.0 - np.minimum(s, 1.0 - DET_TOL) ** 2),
    ),
    "bc": (lambda s, n: np.maximum(0.0, 2.0 - 2.0 * s), lambda s: 0.0 * s - 2.0),
    "bck": (lambda s, n: np.clip(s * s, 0.0, 1.0), lambda s: 2.0 * s),
}


def _invariant(kind: MeasureKind, a: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """||A||_F^2 or |det A| of each n x n matrix A whose rows and columns run
    along ``axes`` of a (given as nonnegative indices unless the default).

    An infinite invariant is returned as NaN, which every clamp passes on.
    """
    if kind.value not in _FROBENIUS:
        s = np.abs(np.linalg.det(np.moveaxis(a, axes, (-2, -1))))
    elif axes == (-2, -1):
        s = np.sum(a * a, axis=axes)
    else:  # in a's own layout, and without a squared copy of a
        every = list(range(a.ndim))
        s = np.einsum(a, every, a, every, [i for i in every if i not in axes])
    return np.where(s == np.inf, np.nan, s)


def pair_measures(kind: MeasureKind, a: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """The measure of every product A = Q1^T Q2 in a stack (..., n, n).

    With ``axes``, A's rows and columns run along those two axes of a, as in
    a GEMM block (k, n, M, n) with axes (1, 3); the result has a's other
    axes, (k, M) there.
    """
    return _TABLE[kind.value][0](_invariant(kind, a, axes), a.shape[axes[1]])


def pair_measure_grads(kind: MeasureKind, a: np.ndarray):
    """Measures and gradients dL/dA of a stack of products A = Q1^T Q2 (P, n, n).

    dL/dQ1 = Q2 dA^T and dL/dQ2 = Q1 dA. For the determinant measures,
    d|det A|/dA = sign(det A) adj(A)^T (0 at the kink det A = 0), adj(A) by
    the Faddeev-LeVerrier recursion, with no inverse. Its error against the
    SVD adjugate grows with n: 1e-14 relative for n <= 6, 3e-14 at n = 8,
    2e-13 at 12, 6e-12 at 16. One LU gives |det A| and its sign, so values
    equal ``pair_measures`` bit for bit. NaN or +-inf in A gives NaN values
    and gradients. The Fubini-Study slope is clamped away from |det A| = 1
    (coincident subspaces), counted under ``fubini_study_grad_clamped``.
    """
    value, slope = _TABLE[kind.value]
    n = a.shape[-1]
    if kind.value in _FROBENIUS:
        s = _invariant(kind, a)
        return value(s, n), 2.0 * np.reshape(slope(s), (-1, 1, 1)) * a
    det = np.linalg.det(a)
    s = np.where(np.isinf(det), np.nan, np.abs(det))
    if kind is MeasureKind.FUBINI_STUDY:
        _health["fubini_study_grad_clamped"] += int(np.sum(s > 1.0 - DET_TOL))
    # M_1 = I, M_{k+1} = A M_k - tr(A M_k)/k I, adj(A) = (-1)^(n+1) M_n
    m = eye = np.eye(n)
    for k in range(1, n):
        am = a @ m
        m = am - (np.trace(am, axis1=-2, axis2=-1) / k)[:, None, None] * eye
    coeff = (-1.0) ** (n + 1) * np.sign(det) * slope(s)
    return value(s, n), coeff[:, None, None] * m.mT


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
    return qr_pullback_inverse(q, np.linalg.inv(r), dq)


def qr_pullback_inverse(
    q: np.ndarray, r_inv: np.ndarray, dq: np.ndarray
) -> np.ndarray:
    """``qr_pullback`` given R^{-1} (as ``manifold.qr_with_inverse`` returns it).

    Unchecked: the caller vouches for the shapes and for R's conditioning.
    """
    qt_dq = q.mT @ dq
    rhs = dq - q @ qt_dq + q @ btril(qt_dq)
    return rhs @ r_inv.mT
