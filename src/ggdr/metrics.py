"""Subspace measures and their analytic gradients.

Five measures between equal-order subspaces, all functions of the n x n
product A = Q1^T Q2 whose singular values are the principal-angle cosines:

    projection (squared)        n - ||A||_F^2            = ||sin theta||^2
    Fubini-Study                arccos |det A|           = arccos(prod cos)
    Binet-Cauchy dist (squared) 2 - 2 |det A|
    projection kernel (squared) 2n - 2 ||A||_F^2
    Binet-Cauchy kernel         det(A A^T)               = prod cos^2

The first four shrink to 0 as subspaces coincide; the kernel grows to 1
(``MeasureKind.similarity_like``), which ``objective.Problem.pair_sign`` and
``pipeline.pairwise_dissimilarity`` turn around.

Each measure is defined once, in ``_TABLE``, as a function of ||A||_F^2 or
|det A|, which ``_invariant`` alone computes. Every function here takes its
products as one layout, a stack (..., n, n): the objective's (P, n, n) pair
chunks, or a view (b, M, n, n) of a row block's GEMM. ``measure`` and
``measure_grad`` are the one-pair case of ``pair_measures`` and
``pair_measure_grads``; ``tests/oracles.py`` holds the independent closed
forms. Every pair has a gradient, through the adjugate of A where |det A| is
differentiated.

Each measure is monotone in its invariant s, nearer as s grows, so a
nearest-neighbour search ranks by s alone and needs |det A| only where a
pair can win its row. Hadamard's inequality |det A| <= prod_i ||A_{i,:}||
bounds every determinant from one contraction of the products;
``nearest_invariants`` takes LU determinants only for pairs whose bound,
widened by HADAMARD_RTOL, reaches the |det A| of the row's best-bound pair.

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
from .manifold import scaled_inverse

# the Fubini-Study slope is clamped to |det A| <= 1 - DET_TOL
DET_TOL = 1e-12

# a computed |det A| stays within Hadamard's bound widened by this, relative
HADAMARD_RTOL = 1e-12

# objective's pair chunks take about this many bytes, pipeline's row blocks of
# products four times as many
PAIR_BLOCK_BYTES = 1 << 18

# guarded roundoff events, keyed by guard name; inspect via health_counters()
_health: Counter = Counter()


def health_counters() -> dict[str, int]:
    return dict(_health)


def reset_health_counters() -> None:
    _health.clear()


class MeasureKind(enum.Enum):
    """The five measures; enum values double as CLI codes."""

    PROJECTION_SQ = "p"
    FUBINI_STUDY = "fs"
    BINET_CAUCHY_DIST_SQ = "bc"
    PROJECTION_KERNEL_DIST_SQ = "pk"
    BINET_CAUCHY_KERNEL = "bck"

    @property
    def similarity_like(self) -> bool:
        """True for the kernel, which grows as subspaces coincide."""
        return self is MeasureKind.BINET_CAUCHY_KERNEL


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


def _invariant(kind: MeasureKind, a: np.ndarray):
    """(s, det) of each product A in a stack (..., n, n): s = ||A||_F^2 with
    det None for p and pk, s = |det A| with det A (one LU) for the others.

    An infinite s is returned as NaN, which every clamp passes on.
    """
    if kind.value in _FROBENIUS:
        det, s = None, np.einsum("...ij,...ij->...", a, a)
    else:
        det = np.linalg.det(a)
        s = np.abs(det)
    return np.where(s == np.inf, np.nan, s), det


def hadamard_bound(a: np.ndarray) -> np.ndarray:
    """prod_i ||A_{i,:}|| >= |det A| (Hadamard) of each A in a stack (..., n, n).

    LU's |det A| and this product each carry roundoff, so a computed |det A|
    is held to the bound widened by HADAMARD_RTOL.
    """
    return np.sqrt(np.prod(np.einsum("...ij,...ij->...i", a, a), axis=-1))


def nearest_invariants(kind: MeasureKind, a: np.ndarray) -> np.ndarray:
    """The invariant s of each product in a block (k, M, n, n) that can
    still be its row's nearest neighbour, the largest s; -inf elsewhere.

    ``p`` and ``pk`` cost no determinant: every pair gets its s. For ``fs``,
    ``bc`` and ``bck`` each row's pair of largest Hadamard bound gives s0
    first; a pair whose bound, widened by HADAMARD_RTOL, is below s0 cannot
    reach it. Every other pair, NaN bounds included, gets its s from
    ``_invariant``, so an argmax of the result and its ties to the first
    index are those of the full block.
    """
    if kind.value in _FROBENIUS:
        return _invariant(kind, a)[0]
    k, m = a.shape[:2]
    bound = hadamard_bound(a)
    s0 = _invariant(kind, a[np.arange(k), np.argmax(bound, axis=1)])[0]
    rows, cols = np.nonzero(~(bound * (1.0 + HADAMARD_RTOL) < s0[:, None]))
    out = np.full((k, m), -np.inf)
    out[rows, cols] = _invariant(kind, a[rows, cols])[0]
    return out


def measures_of(kind: MeasureKind, s: np.ndarray, n: int) -> np.ndarray:
    """The measure f(s) of invariants s of order-n products, as ``_TABLE``."""
    return _TABLE[kind.value][0](s, n)


def pair_measures(kind: MeasureKind, a: np.ndarray) -> np.ndarray:
    """The measure of every product A = Q1^T Q2 in a stack (..., n, n)."""
    return measures_of(kind, _invariant(kind, a)[0], a.shape[-1])


def pair_measure_grads(kind: MeasureKind, a: np.ndarray):
    """Measures and gradients dL/dA of a stack of products A = Q1^T Q2 (P, n, n).

    dL/dQ1 = Q2 dA^T and dL/dQ2 = Q1 dA. For the determinant measures,
    d|det A|/dA = sign(det A) adj(A)^T (0 at the kink det A = 0), adj(A) by
    the Faddeev-LeVerrier recursion, with no inverse. Its error against the
    SVD adjugate grows with n, which nothing bounds: over 60 pairs
    Q2 = qr(Q1 + 0.3 G) at D = 4n + 8, G Gaussian, it reached 5e-15 relative
    for n <= 6, 2.8e-14 at n = 8, 1.6e-12 at 12, 1.3e-10 at 16 and 2.1e-7
    at 24. The invariant and det A come from ``_invariant``, as for
    ``pair_measures``, so values equal it bit for bit. NaN or +-inf in A
    gives NaN values and gradients. The Fubini-Study slope is clamped away
    from |det A| = 1 (coincident subspaces), counted under
    ``fubini_study_grad_clamped``.
    """
    value, slope = _TABLE[kind.value]
    n = a.shape[-1]
    s, det = _invariant(kind, a)
    if det is None:
        return value(s, n), 2.0 * np.reshape(slope(s), (-1, 1, 1)) * a
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

    A stack (..., m, k) is handled matrix by matrix. Raises SingularR for
    an R that ``manifold.orthonormalize``'s rank test rejects.
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
    inverse, top = scaled_inverse(r, SingularR)
    return qr_pullback_inverse(q, inverse / top[..., None], dq)


def qr_pullback_inverse(
    q: np.ndarray, r_inv: np.ndarray, dq: np.ndarray
) -> np.ndarray:
    """``qr_pullback`` given R^{-1} (as ``manifold.qr_with_inverse`` returns it).

    Unchecked: the caller vouches for the shapes and for R's conditioning.
    """
    qt_dq = q.mT @ dq
    rhs = dq - q @ qt_dq + q @ btril(qt_dq)
    return rhs @ r_inv.mT
