"""Grassmann manifold primitives.

A point on G(n, D) is an n-dimensional linear subspace of R^D, represented by
a D x n matrix with orthonormal columns; the representative is unique up to
right-multiplication by an n x n orthogonal matrix. The search space for the
learned map is itself a Grassmannian G(d, D), so the same machinery provides
geodesics and parallel transport for the optimizer.

All types are immutable after construction and compare and hash by identity
(an array field has no single truth value); all operations are pure.
The types check their invariants (orthonormality, horizontality) where data
enters or leaves the library; the geodesic, the transport and the tangent
projection work on plain D x d arrays, the optimizer's working state.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidShape,
    NumericalHealthWarning,
    RankDeficient,
)

ORTHONORMAL_TOL_POINT = 1e-10
ORTHONORMAL_TOL_MAP = 1e-8
TANGENT_TOL = 1e-8
RANK_RTOL = 1e-12
# the drift from orthonormality that cholesky_qr accepts
RETRACTION_GRAM_TOL = 1e-6


def _frozen_array(a, dtype=np.float64) -> np.ndarray:
    """A read-only array of a; a copy unless a and its owners are already read-only."""
    if isinstance(a, np.ndarray) and a.dtype == dtype:
        owner = a
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return a
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def gram_error(b: np.ndarray):
    """||B^T B - I||_F of a matrix, or of each matrix in a stack."""
    return np.linalg.norm(b.mT @ b - np.eye(b.shape[-1]), axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """An n-dimensional subspace of R^D held as a D x n orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        basis = _frozen_array(self.basis)
        if basis.ndim != 2:
            raise InvalidShape(f"basis must be 2-d, got shape {basis.shape}")
        stack_bases(basis[None])
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def order(self) -> int:
        return self.basis.shape[1]


# the stacks stack_bases has returned, by id: read-only with read-only
# owners, so each stays valid for as long as it lives
_checked = weakref.WeakValueDictionary()


def stack_bases(points) -> np.ndarray:
    """Equal-shape orthonormal bases as one validated, read-only (N, D, n) array.

    Takes an (N, D, n) array, copied unless it and its owners are already
    read-only, or a sequence of GrassmannPoints; an empty sequence gives a
    (0, 0, 0) array. Every basis needs 1 <= n < D and ||B^T B - I||_F within
    ORTHONORMAL_TOL_POINT, checked for the whole stack at once. A stack this
    function returned before is returned as it is, without a second check.
    """
    if _checked.get(id(points)) is points:
        return points
    if not isinstance(points, np.ndarray):
        bases = [p.basis for p in points]
        if len({b.shape for b in bases}) > 1:
            raise DimensionMismatch("points differ in shape")
        points = np.stack(bases) if bases else np.empty((0, 0, 0))
    bases = _frozen_array(points)
    if bases.ndim != 3:
        raise InvalidShape(f"need an (N, D, n) stack, got shape {bases.shape}")
    count, d_ambient, order = bases.shape
    if count and not 1 <= order < d_ambient:
        raise InvalidShape(f"need 1 <= n < D, got n={order}, D={d_ambient}")
    errors = gram_error(bases)
    bad = np.flatnonzero(~(errors <= ORTHONORMAL_TOL_POINT))
    if len(bad):
        raise InvalidShape(
            f"basis {bad[0]} of {count} not orthonormal: "
            f"||B^T B - I||_F = {errors[bad[0]]:.3e}"
        )
    _checked[id(bases)] = bases
    return bases


@dataclass(frozen=True, eq=False)
class MappingMatrix:
    """The learned D x d orthonormal map, a point on G(d, D).

    d = D is allowed (an isometry of subspaces, useful as a no-op baseline);
    training normally uses d < D.
    """

    w: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.w)
        if w.ndim != 2:
            raise InvalidShape(f"map must be 2-d, got shape {w.shape}")
        d_ambient, d_target = w.shape
        if not 1 <= d_target <= d_ambient:
            raise InvalidShape(
                f"need 1 <= d <= D, got d={d_target}, D={d_ambient}"
            )
        gram_err = gram_error(w)
        if not gram_err <= ORTHONORMAL_TOL_MAP:
            raise InvalidShape(
                f"map not orthonormal: ||W^T W - I||_F = {gram_err:.3e}"
            )
        object.__setattr__(self, "w", w)

    @property
    def ambient_dim(self) -> int:
        return self.w.shape[0]

    @property
    def target_dim(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A horizontal direction at a point of G(d, D): base^T h = 0."""

    h: np.ndarray
    base: MappingMatrix

    def __post_init__(self):
        h = _frozen_array(self.h)
        if h.shape != self.base.w.shape:
            raise DimensionMismatch(
                f"tangent shape {h.shape} != base shape {self.base.w.shape}"
            )
        drift = np.linalg.norm(self.base.w.T @ h)
        if drift > TANGENT_TOL:
            raise InvalidShape(
                f"not horizontal: ||W^T H||_F = {drift:.3e}"
            )
        object.__setattr__(self, "h", h)


def orthonormalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of a full-column-rank matrix with a fixed sign convention.

    Returns (q, r) with q column-orthonormal, r upper-triangular with strictly
    positive diagonal, and q @ r == m. The positive diagonal makes the
    factorization unique, hence reproducible across calls. A stack
    (..., m, k) is factored matrix by matrix.

    Raises RankDeficient for a non-finite entry, and when the Frobenius
    condition estimate ||R||_F ||R^-1||_F of m's triangular factor (of any
    matrix in a stack) reaches 1 / RANK_RTOL. The estimate lies between the
    2-norm condition number and k times it, so every matrix with
    sigma_min <= RANK_RTOL sigma_max is rejected, and so is one within a
    factor k of that threshold.
    """
    q, r, _ = qr_with_inverse(m)
    return q, r


def qr_with_inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``orthonormalize``, plus the inverse of r that its rank test computes.

    Returns (q, r, r_inv) with r_inv @ r == I to roundoff, for the QR
    pullback (``metrics.qr_pullback_inverse``), which then solves nothing.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or not 1 <= m.shape[-1] <= m.shape[-2]:
        raise InvalidShape(
            f"need a tall (or square) matrix with at least one column, got {m.shape}"
        )
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(-2, -1)).ravel()
        raise RankDeficient(
            _stack_prefix(m, int(np.argmin(finite)))
            + "non-finite entries (nan or inf)"
        )
    q, r = np.linalg.qr(m)
    inverse, top = scaled_inverse(r)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    # (D R)^-1 = R^-1 D for the diagonal sign matrix D
    r_inv = inverse * (signs / top)[..., None, :]
    return q * signs[..., None, :], signs[..., :, None] * r, r_inv


def scaled_inverse(r: np.ndarray, error=RankDeficient):
    """(R / t)^-1 and t = max_i |r_ii| (shape (..., 1)) of a triangular R, or
    of each in a stack, so R^-1 = (R / t)^-1 / t.

    Raises ``error`` when the Frobenius condition estimate
    ||R||_F ||R^-1||_F, that of R / t, reaches 1 / RANK_RTOL. Scaled, the
    norms cannot overflow; an all-zero diagonal stays unscaled.
    """
    top = np.abs(np.diagonal(r, axis1=-2, axis2=-1)).max(axis=-1, keepdims=True)
    top[top == 0.0] = 1.0
    scaled = r / top[..., None]
    with np.errstate(over="ignore"):
        try:
            inverse = np.linalg.inv(scaled)
            estimate = np.linalg.norm(scaled, axis=(-2, -1)) * np.linalg.norm(
                inverse, axis=(-2, -1)
            )
        except np.linalg.LinAlgError:
            # a zero pivot: cond, which inverts without raising, gives every
            # such R an infinite estimate
            estimate = np.linalg.cond(scaled, "fro")
    # an inverse past overflow gives inf or nan, and fails the test too
    bad = ~(estimate < 1.0 / RANK_RTOL)
    if bad.any():
        first = int(np.argmax(bad.ravel()))
        raise error(
            _stack_prefix(r, first)
            + "numerically rank-deficient: Frobenius condition estimate "
            f"||R||_F ||R^-1||_F = {estimate.ravel()[first]:.3e}, "
            f"limit {1.0 / RANK_RTOL:.0e}"
        )
    return inverse, top


def _stack_prefix(m: np.ndarray, index: int) -> str:
    return "" if m.ndim == 2 else f"matrix {index} of the stack: "


def _clamped_cosines(product: np.ndarray) -> np.ndarray:
    """Singular values of a basis product, clamped into [0, 1].

    Values above 1 + 1e-8 indicate the inputs were far from orthonormal and
    trigger a health warning before clamping.
    """
    sv = np.linalg.svd(product, compute_uv=False)
    overshoot = float(sv.max(initial=0.0))
    if overshoot > 1.0 + 1e-8:
        warnings.warn(
            f"cosine overshoot {overshoot - 1.0:.3e} beyond roundoff; "
            "inputs may not be orthonormal",
            NumericalHealthWarning,
            stacklevel=3,
        )
    return np.clip(sv, 0.0, 1.0)


def principal_angles(x1: GrassmannPoint, x2: GrassmannPoint) -> np.ndarray:
    """Canonical angles between two subspaces, ascending, each in [0, pi/2].

    Cosines come from the SVD of the n x n product x1^T x2; small angles are
    re-derived from the sine route svd(x2 - x1 (x1^T x2)), whose singular
    values are sin(theta), because arccos loses half the digits near zero.
    D x D projectors are never formed.
    """
    if x1.basis.shape != x2.basis.shape:
        raise DimensionMismatch(
            f"shapes differ: {x1.basis.shape} vs {x2.basis.shape}"
        )
    product = x1.basis.T @ x2.basis
    from_cos = np.sort(np.arccos(_clamped_cosines(product)))
    residual = x2.basis - x1.basis @ product
    sines = np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0)
    from_sin = np.sort(np.arcsin(sines))
    return np.where(from_cos < np.pi / 4, from_sin, from_cos)


def geodesic_distance(x1: GrassmannPoint, x2: GrassmannPoint) -> float:
    """Arc length of the shortest curve between two subspaces: ||theta||_2."""
    return float(np.linalg.norm(principal_angles(x1, x2)))


def geodesic_factor(w: np.ndarray, h: np.ndarray):
    """The factor of the direction h that the geodesic from w is built on.

    Returns (w V, h V, s, V) with h^T h = V diag(s^2) V^T, from the
    eigendecomposition of the d x d Gram (eigenvalues below 0 by roundoff
    count as 0). With the thin SVD h = U S V^T, h V = U S, so the step, the
    transport and ``objective.GeodesicFrame`` need no SVD of h: they use U
    only through
        U sin(S t) = h V t sinc(S t),
        U (1 - cos S t) U^T = h V (t^2 / 2) sinc^2(S t / 2) (h V)^T,
    whose coefficients are exact and finite at s = 0, so nothing divides by
    a singular value. The optimizer builds the factor once per search
    direction, for the frame, the step and both transports.
    """
    lam, v = np.linalg.eigh(h.T @ h)
    return w @ v, h @ v, np.sqrt(np.maximum(lam, 0.0)), v


def sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, and 1 at x = 0: ``np.sinc(x / pi)`` in half the numpy
    calls, which on the length-d vectors of a factor are most of its cost."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def geodesic_step(w: np.ndarray, h: np.ndarray, t: float, factor=None) -> np.ndarray:
    """Move along the exact Grassmann geodesic from the map w in direction h.

    With the thin SVD h = U S V^T the geodesic is
        w(t) = w V cos(S t) V^T + U sin(S t) V^T
             = (w V cos(S t) + h V t sinc(S t)) V^T,
    the second form on ``geodesic_factor(w, h)``, passed in as ``factor``
    by a caller that already has it. The result is orthonormal for an
    orthonormal w and a horizontal h (w^T h = 0) up to roundoff, which
    ``cholesky_qr`` removes. Takes and returns D x d arrays. The optimizer
    calls this once per accepted step: its trial steps never form w(t)
    (see ``objective.GeodesicFrame``).
    """
    if h.shape != w.shape:
        raise DimensionMismatch("tangent vector shaped for a different map")
    wv, hv, s, v = geodesic_factor(w, h) if factor is None else factor
    return cholesky_qr((wv * np.cos(s * t) + hv * (t * sinc(s * t))) @ v.T)


def cholesky_qr(s: np.ndarray) -> np.ndarray:
    """The Q factor of a near-orthonormal D x d matrix: S chol(S^T S)^-T.

    This is the positive-diagonal Q of ``orthonormalize`` (S^T S = R^T R),
    with a d x d Cholesky factor in place of a Householder QR of S. Its
    error grows with the square of S's condition number, so S must be
    orthonormal up to ||S^T S - I||_F <= RETRACTION_GRAM_TOL, far more
    drift than a geodesic step of an orthonormal map builds up; beyond
    that it raises RankDeficient.
    """
    gram = s.T @ s
    drift = np.linalg.norm(gram - np.eye(s.shape[1]))
    if not drift <= RETRACTION_GRAM_TOL:
        raise RankDeficient(
            f"not near-orthonormal: ||S^T S - I||_F = {drift:.3e}, "
            f"limit {RETRACTION_GRAM_TOL:.0e}"
        )
    return s @ np.linalg.inv(np.linalg.cholesky(gram)).T


def parallel_transport(
    hmove: np.ndarray,
    w0: np.ndarray,
    hdir: np.ndarray,
    t: float,
    factor=None,
    w1: np.ndarray | None = None,
) -> np.ndarray:
    """Transport hmove along the geodesic from w0 in direction hdir.

    Uses the closed form associated with the exact geodesic: with
    hdir = U S V^T,
        tau(hmove) = hmove - (w0 V sin(S t) + U (1 - cos S t)) U^T hmove
                   = hmove - (w0 V t sinc(S t) + h V (t^2 / 2) sinc^2(S t / 2))
                     (h V)^T hmove,
    the second form on ``geodesic_factor(w0, hdir)``. The result is
    horizontal at the geodesic endpoint and preserves the Frobenius norm
    (transport is an isometry). Takes and returns D x d arrays; ``factor``
    (as for ``geodesic_step``) and the endpoint
    ``w1 = geodesic_step(w0, hdir, t)`` may be passed in.
    """
    if hmove.shape != w0.shape or hdir.shape != w0.shape:
        raise DimensionMismatch("transport arguments have inconsistent shapes")
    if factor is None:
        factor = geodesic_factor(w0, hdir)
    if w1 is None:
        w1 = geodesic_step(w0, hdir, t, factor)
    wv, hv, s, _ = factor
    # t sinc(S t) = t sinc(S t / 2) cos(S t / 2): one sinc for both terms
    half = t * sinc(0.5 * t * s)
    turn = wv * (half * np.cos(0.5 * t * s)) + hv * (0.5 * half * half)
    moved = hmove - turn @ (hv.T @ hmove)
    # re-projection removes O(eps) drift so the result satisfies the
    # horizontality invariant at the corrected endpoint
    return moved - w1 @ (w1.T @ moved)


def project_tangent(w: np.ndarray, ambient: np.ndarray) -> np.ndarray:
    """Project an ambient D x d matrix onto the horizontal space at the map w."""
    ambient = np.asarray(ambient, dtype=np.float64)
    if ambient.shape != w.shape:
        raise DimensionMismatch(
            f"ambient shape {ambient.shape} != map shape {w.shape}"
        )
    return ambient - w @ (w.T @ ambient)


def random_point(ambient_dim: int, order: int, seed: int) -> GrassmannPoint:
    """Seeded uniform-ish random subspace: QR of a standard normal matrix."""
    if not 1 <= order < ambient_dim:
        raise InvalidShape(f"need 1 <= n < D, got n={order}, D={ambient_dim}")
    if seed < 0:
        raise InvalidShape(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    q, _ = orthonormalize(rng.standard_normal((ambient_dim, order)))
    return GrassmannPoint(q)
