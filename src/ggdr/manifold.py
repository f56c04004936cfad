"""Grassmann manifold primitives.

A point on G(n, D) is an n-dimensional linear subspace of R^D, represented by
a D x n matrix with orthonormal columns; the representative is unique up to
right-multiplication by an n x n orthogonal matrix. The search space for the
learned map is itself a Grassmannian G(d, D), so the same machinery provides
geodesics and parallel transport for the optimizer.

All types are immutable after construction and all operations are pure.
The types check their invariants (orthonormality, horizontality) where data
enters or leaves the library; the geodesic, the transport and the tangent
projection work on plain D x d arrays, the optimizer's working state.
"""

from __future__ import annotations

import warnings
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


@dataclass(frozen=True)
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


def stack_bases(points) -> np.ndarray:
    """Equal-shape orthonormal bases as one validated, read-only (N, D, n) array.

    Takes an (N, D, n) array, copied unless it and its owners are already
    read-only, or a sequence of GrassmannPoints; an empty sequence gives a
    (0, 0, 0) array. Every basis needs 1 <= n < D and ||B^T B - I||_F within
    ORTHONORMAL_TOL_POINT, checked for the whole stack at once.
    """
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
    return bases


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    Raises RankDeficient when the smallest singular value of m (of any matrix
    in a stack) falls below RANK_RTOL times the largest.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or not 1 <= m.shape[-1] <= m.shape[-2]:
        raise InvalidShape(
            f"need a tall (or square) matrix with at least one column, got {m.shape}"
        )
    q, r = np.linalg.qr(m)
    # singular values of r equal those of m; r is small (k x k)
    sv = np.linalg.svd(r, compute_uv=False)
    bad = (sv[..., 0] == 0.0) | (sv[..., -1] <= RANK_RTOL * sv[..., 0])
    if np.any(bad):
        first = int(np.argmax(bad.ravel()))
        top, low = sv.reshape(-1, sv.shape[-1])[first, [0, -1]]
        raise RankDeficient(
            ("" if m.ndim == 2 else f"matrix {first} of the stack: ")
            + f"numerically rank-deficient: sigma_min/sigma_max = "
            f"{0.0 if top == 0.0 else low / top:.3e}"
        )
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :], signs[..., :, None] * r


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


def geodesic_step(w: np.ndarray, h: np.ndarray, t: float, svd=None) -> np.ndarray:
    """Move along the exact Grassmann geodesic from the map w in direction h.

    With the thin SVD h = U S V^T the geodesic is
        w(t) = w V cos(S t) V^T + U sin(S t) V^T,
    re-orthonormalized afterwards to remove floating-point drift (for a
    near-orthonormal input the positive-diagonal QR is a pure correction; it
    cannot flip column signs). Takes and returns D x d arrays. A caller
    stepping along one h several times passes
    ``svd = np.linalg.svd(h, full_matrices=False)`` once.
    """
    if h.shape != w.shape:
        raise DimensionMismatch("tangent vector shaped for a different map")
    u, s, vt = np.linalg.svd(h, full_matrices=False) if svd is None else svd
    cos = np.cos(s * t)
    sin = np.sin(s * t)
    stepped = (w @ vt.T) * cos @ vt + (u * sin) @ vt
    q, _ = orthonormalize(stepped)
    return q


def parallel_transport(
    hmove: np.ndarray,
    w0: np.ndarray,
    hdir: np.ndarray,
    t: float,
    svd=None,
    w1: np.ndarray | None = None,
) -> np.ndarray:
    """Transport hmove along the geodesic from w0 in direction hdir.

    Uses the closed form associated with the exact geodesic: with
    hdir = U S V^T,
        tau(hmove) = hmove + ((-w0 V sin(S t) + U cos(S t)) - U) U^T hmove.
    The result is horizontal at the geodesic endpoint and preserves the
    Frobenius norm (transport is an isometry). Takes and returns D x d
    arrays; ``svd`` (as for ``geodesic_step``) and the endpoint
    ``w1 = geodesic_step(w0, hdir, t)`` may be passed in.
    """
    if hmove.shape != w0.shape or hdir.shape != w0.shape:
        raise DimensionMismatch("transport arguments have inconsistent shapes")
    if svd is None:
        svd = np.linalg.svd(hdir, full_matrices=False)
    if w1 is None:
        w1 = geodesic_step(w0, hdir, t, svd)
    u, s, vt = svd
    ut_h = u.T @ hmove
    rotated = (-(w0 @ vt.T) * np.sin(s * t) + u * np.cos(s * t)) @ ut_h
    moved = hmove - u @ ut_h + rotated
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
    rng = np.random.default_rng(seed)
    q, _ = orthonormalize(rng.standard_normal((ambient_dim, order)))
    return GrassmannPoint(q)
