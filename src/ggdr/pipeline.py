"""Experiment protocol: datasets, fitting, nearest-neighbor evaluation.

Feature matrices become subspaces by truncated SVD; labeled subspace
collections feed the affinity builder and optimizer; a nearest-neighbor
classifier under any of the five measures scores train/test splits before
and after reduction. A synthetic generator (class centers with tangent-space
Gaussian perturbations) provides controllable within/between-class structure
for experiments, and a finite-difference harness certifies the analytic
gradients end to end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .affinity import AffinityGraph, build_affinity, check_neighbors, default_kw
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidShape,
    NumericalHealthWarning,
    RankDeficient,
)
from .manifold import GrassmannPoint, MappingMatrix, orthonormalize, stack_bases

# measure, reduce_point: not called here; kept as perfbench/tracer.py's lookup sites
from .metrics import (  # noqa: F401
    PAIR_BLOCK_BYTES,
    MeasureKind,
    health_counters,
    measure,
    measures_of,
    nearest_invariants,
    pair_measures,
)
from .objective import (  # noqa: F401
    Problem,
    check_target_dim,
    cost,
    euclidean_grad,
    reduce_point,
)
from .optimizer import OptimOptions, OptimTrace, minimize

FD_STEP = 1e-6
GRAD_TOL = 1e-5
SVD_GAP_RTOL = 1e-10
# The span basis costs about D m^2 flops and saves about D d m per CG
# iteration, so it pays for itself after some (m / d) D / (D - m) iterations.
# fit takes it where that ratio is at most SPAN_COST_LIMIT: over 15
# iterations at D = 1024 and 4096, fits gained at ratios up to 9.1 (and 18
# at D = 4096) and lost from 21
SPAN_COST_LIMIT = 12
# CholeskyQR2 returns columns orthonormal to roundoff for a condition number
# below about eps^-1/2 (Yamamoto et al., 2015); an exactly repeated sample
# whose Cholesky does not fail read 1.6e8 or more
SPAN_COND_LIMIT = np.finfo(np.float64).eps ** -0.5


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Subspace samples with class labels and source ids.

    ``bases`` is one read-only (N, D, n) array, given as such or as a
    sequence of GrassmannPoints and validated by ``stack_bases``.
    """

    bases: np.ndarray
    labels: tuple
    provenance: tuple[str, ...]

    def __post_init__(self):
        bases = stack_bases(self.bases)
        labels = tuple(self.labels)
        provenance = tuple(self.provenance)
        if not (len(bases) == len(labels) == len(provenance)):
            raise DimensionMismatch(
                f"got {len(bases)} samples, {len(labels)} labels, "
                f"{len(provenance)} provenance entries"
            )
        if not len(bases):
            raise EmptyTrainingSet("dataset is empty")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", provenance)

    def __reduce__(self):
        return LabeledDataset, (self.bases, self.labels, self.provenance)

    @cached_property
    def samples(self) -> tuple[GrassmannPoint, ...]:
        """GrassmannPoint views of ``bases``, built on first use."""
        return tuple(map(GrassmannPoint, self.bases))

    @property
    def size(self) -> int:
        return len(self.bases)

    @property
    def ambient_dim(self) -> int:
        return self.bases.shape[1]

    @property
    def order(self) -> int:
        return self.bases.shape[2]

    def subset(self, indices) -> "LabeledDataset":
        idx = list(indices)
        return LabeledDataset(
            self.bases[idx],
            tuple(self.labels[i] for i in idx),
            tuple(self.provenance[i] for i in idx),
        )


@dataclass(frozen=True)
class SynthParams:
    """Synthetic-data knobs; ``signal_dim`` plants a recoverable structure.

    With ``signal_dim`` set, class centers are confined to a shared
    signal_dim-dimensional subspace while most of the within-class noise
    points away from it, so a dimensionality reduction that finds the signal
    subspace denoises the data. With ``signal_dim`` None the centers span the
    full space and the noise is isotropic in the tangent space.
    """

    classes: int
    samples_per_class: int
    ambient_dim: int
    order: int
    within_noise: float
    seed: int
    signal_dim: int | None = None

    def __post_init__(self):
        if min(self.classes, self.samples_per_class, self.ambient_dim, self.order) < 1:
            raise InvalidShape("all counts must be positive")
        if not self.order < self.ambient_dim:
            raise InvalidShape(
                f"need order < ambient dim, got {self.order} >= {self.ambient_dim}"
            )
        if self.seed < 0:
            raise InvalidShape(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.within_noise < np.inf:
            raise InvalidShape("noise scale must be finite and nonnegative")
        if self.signal_dim is not None and not (
            self.order < self.signal_dim <= self.ambient_dim
        ):
            raise InvalidShape(
                f"need order < signal_dim <= ambient dim, got "
                f"signal_dim={self.signal_dim}"
            )


def build_subspace(features: np.ndarray, order: int) -> GrassmannPoint:
    """Model a feature matrix as the span of its top left singular vectors.

    Keeps the first ``order`` left singular vectors (descending singular
    values).
    A vanishing gap between singular values order and order+1 leaves the
    subspace ill-determined; that case warns but still returns the
    deterministic choice. Column signs are fixed so equal inputs give
    bit-equal bases.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InvalidShape(f"features must be 2-d, got {features.shape}")
    d_ambient, m = features.shape
    if order < 1:
        raise InvalidShape(f"order must be positive, got {order}")
    if m < order:
        raise InvalidShape(f"need at least {order} columns, got {m}")
    u, s, _ = np.linalg.svd(features, full_matrices=False)
    if s[0] == 0.0 or s[order - 1] <= 1e-12 * s[0]:
        raise RankDeficient(
            f"features have numerical rank < {order} "
            f"(sigma_{order} = {s[order - 1]:.3e})"
        )
    if order < len(s) and (s[order - 1] - s[order]) <= SVD_GAP_RTOL * s[0]:
        warnings.warn(
            f"singular values {order} and {order + 1} nearly equal "
            f"({s[order - 1]:.6g} vs {s[order]:.6g}); subspace ill-determined",
            NumericalHealthWarning,
            stacklevel=2,
        )
    basis = u[:, :order].copy()
    anchor = np.abs(basis).argmax(axis=0)
    flip = basis[anchor, np.arange(order)] < 0
    basis[:, flip] *= -1.0
    return GrassmannPoint(basis)


def _measure_blocks(reduce, left, right, upper: bool = False):
    """Yield (a, b, reduce(products of left[a:b] with right)) by row block.

    ``reduce``, such as ``partial(pair_measures, kind)``, maps a
    (k, M, n, n) stack of products to a (k, M) array. ``right`` is copied
    once into a (D, M n) matrix, so a block's products are one GEMM,
    ((b - a) n x D)(D x M n), laid out as (b - a, n, M, n) and reduced
    through its (b - a, M, n, n) view, which copies nothing. With ``upper``
    (left is right) the rows are read from that copy and the columns start
    at a: only pairs on or above the diagonal. A block's rows and its
    products take about 4 PAIR_BLOCK_BYTES each.
    """
    count, ambient, order = left.shape
    cols = right.transpose(1, 0, 2).reshape(ambient, len(right) * order)
    step = max(1, 4 * PAIR_BLOCK_BYTES // (8 * order * max(ambient, cols.shape[1])))
    for a in range(0, count, step):
        b = min(a + step, count)
        if upper:
            start, rows = a, cols[:, a * order : b * order].T
        else:
            start, rows = 0, left[a:b].mT.reshape((b - a) * order, ambient)
        prods = rows @ cols[:, start * order :]
        prods = prods.reshape(b - a, order, -1, order).transpose(0, 2, 1, 3)
        values = reduce(prods)
        del rows, prods  # neither lives on into the next block's GEMM
        yield a, b, values


def _bases(samples) -> np.ndarray:
    """The (N, D, n) stack of samples; a LabeledDataset's is already validated."""
    if isinstance(samples, LabeledDataset):
        return samples.bases
    return stack_bases(samples)


def pairwise_dissimilarity(samples, kind: MeasureKind) -> np.ndarray:
    """Symmetric zero-diagonal dissimilarity matrix under one measure.

    Similarity-like measures are flipped (1 - value) so that smaller always
    means closer; only the ordering matters for neighbor selection. Each
    pair is evaluated once and mirrored, so the matrix is exactly symmetric.
    ``samples`` are GrassmannPoints or an (N, D, n) array, as for stack_bases,
    or a LabeledDataset, whose bases are not checked again.
    """
    bases = _bases(samples)
    out = np.zeros((len(bases), len(bases)))
    if not len(bases):
        return out
    blocks = _measure_blocks(partial(pair_measures, kind), bases, bases, upper=True)
    for a, b, values in blocks:
        if kind.similarity_like:
            values = 1.0 - values
        # keep the pairs above the diagonal, then mirror them into the
        # still-zero columns a:b below it
        values[np.tril_indices(b - a, 0, values.shape[1])] = 0.0
        out[a:b, a:] = values
        out[a:, a:b] += values.T
    return out


def _nn_predict(train: LabeledDataset, test_samples, kind: MeasureKind):
    """Labels, training indices, and measure values of each nearest neighbor.

    The nearest neighbour is the largest invariant s under every measure,
    ties going to the lowest index (``metrics.nearest_invariants``); the
    measure is then taken of the winners' s alone.
    """
    test, bases = _bases(test_samples), train.bases
    if not len(test):
        return [], [], []
    if test.shape[1:] != bases.shape[1:]:
        raise DimensionMismatch(
            f"test sample shape {test.shape[1:]}, train shape {bases.shape[1:]}"
        )
    indices = np.empty(len(test), dtype=np.int64)
    best = np.empty(len(test))
    for a, b, block in _measure_blocks(partial(nearest_invariants, kind), test, bases):
        indices[a:b] = np.argmax(block, axis=1)  # first index on ties
        best[a:b] = block[np.arange(b - a), indices[a:b]]
    values = measures_of(kind, best, test.shape[2]).tolist()
    indices = indices.tolist()
    return [train.labels[i] for i in indices], indices, values


def nn_classify(train: LabeledDataset, test_samples, kind: MeasureKind) -> list:
    """Nearest-neighbor labels under one measure; ties go to the lowest index.

    ``test_samples`` are GrassmannPoints or an (M, D, n) array, or a
    LabeledDataset, whose bases are not checked again.
    """
    return _nn_predict(train, test_samples, kind)[0]


def _reduce_dataset(ds: LabeledDataset, w: MappingMatrix) -> LabeledDataset:
    """Every sample mapped by w: one batched W^T X and one batched QR."""
    if w.ambient_dim != ds.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: map {w.ambient_dim}, points {ds.ambient_dim}"
        )
    check_target_dim(ds.order, w.target_dim, ds.ambient_dim)
    q, _ = orthonormalize(np.matmul(w.w.T, ds.bases))
    return LabeledDataset(q, ds.labels, ds.provenance)


def evaluate(
    train: LabeledDataset,
    test: LabeledDataset,
    kind: MeasureKind,
    w: MappingMatrix | None = None,
) -> float:
    """Nearest-neighbor accuracy, optionally after reduction by w."""
    if w is not None:
        train = _reduce_dataset(train, w)
        test = _reduce_dataset(test, w)
    preds = nn_classify(train, test, kind)
    hits = sum(1 for p, t in zip(preds, test.labels) if p == t)
    return hits / test.size


# within-class noise pointing away from the signal subspace is this much
# stronger than the in-signal component; the former is what a good map removes
OUT_OF_SIGNAL_NOISE_FACTOR = 4.0


def _unit_columns(t: np.ndarray) -> np.ndarray:
    return t / np.linalg.norm(t, axis=0, keepdims=True)


def synth_dataset(params: SynthParams) -> LabeledDataset:
    """Seeded synthetic classes: center subspaces plus tangent Gaussian spread.

    Every sample is orthonormalize(center + T) where T is a tangent
    perturbation with per-column norm ``within_noise`` (so the tilt angle per
    principal direction is roughly atan(within_noise)); zero noise returns
    each center verbatim. With ``signal_dim`` set, T gains an additional
    component of per-column norm OUT_OF_SIGNAL_NOISE_FACTOR * within_noise
    orthogonal to the signal subspace.
    """
    rng = np.random.default_rng(params.seed)
    d_ambient, order, sigma = params.ambient_dim, params.order, params.within_noise
    sig = None
    if params.signal_dim is not None and params.signal_dim < d_ambient:
        sig, _ = orthonormalize(rng.standard_normal((d_ambient, params.signal_dim)))
    bases = np.empty((params.classes * params.samples_per_class, d_ambient, order))
    labels, provenance = [], []
    for c in range(params.classes):
        if sig is None:
            center, _ = orthonormalize(rng.standard_normal((d_ambient, order)))
        else:
            coeff, _ = orthonormalize(rng.standard_normal((params.signal_dim, order)))
            center = sig @ coeff
        for s in range(params.samples_per_class):
            if sigma == 0.0:
                basis = center
            else:
                z = rng.standard_normal((d_ambient, order))
                if sig is not None:
                    z = sig @ (sig.T @ z)
                t_in = z - center @ (center.T @ z)
                step = sigma * _unit_columns(t_in)
                if sig is not None:
                    z_out = rng.standard_normal((d_ambient, order))
                    t_out = z_out - sig @ (sig.T @ z_out)
                    step = step + (
                        OUT_OF_SIGNAL_NOISE_FACTOR * sigma * _unit_columns(t_out)
                    )
                basis, _ = orthonormalize(center + step)
            bases[len(labels)] = basis
            labels.append(c)
            provenance.append(f"synth:c{c}:s{s}")
    return LabeledDataset(bases, labels, provenance)


def demo_analog_params(within_noise: float, seed: int) -> SynthParams:
    """Canonical small benchmark: 8 classes x 10 samples on G(6, 37).

    Class centers share a 10-dimensional signal subspace, so reductions to
    d >= 10 can in principle remove the out-of-signal noise entirely.
    """
    return SynthParams(
        classes=8,
        samples_per_class=10,
        ambient_dim=37,
        order=6,
        within_noise=within_noise,
        seed=seed,
        signal_dim=10,
    )


def fit(
    train: LabeledDataset,
    kind: MeasureKind,
    target_dim: int,
    kw: int | None = None,
    kb: int = 1,
    opts: OptimOptions | None = None,
    w0: MappingMatrix | None = None,
    sign_flip_similarity: bool = True,
) -> tuple[MappingMatrix, OptimTrace, AffinityGraph]:
    """Build the neighbor graph on the original manifold and train the map.

    The dimensions, kw, kb and w0 are checked before any O(N^2) work, and
    the graph is built from the original bases. Where ``_span_basis`` gives
    a basis U, CG runs on the m x d maps of Y_i = U^T X_i from U^T W0, and
    W = U Omega is returned; otherwise on the D x d maps themselves.
    """
    points = train.bases
    _, ambient, order = points.shape
    check_target_dim(order, target_dim, ambient)
    if kw is None:
        kw = default_kw(train.labels)
    check_neighbors(train.labels, kw, kb)
    if w0 is not None and w0.w.shape != (ambient, target_dim):
        raise InvalidShape(f"w0 shape {w0.w.shape} != ({ambient}, {target_dim})")
    opts = opts or OptimOptions()
    if opts.restart_period is None:  # d(D - d) of G(d, D) in any coordinates
        restart = max(1, target_dim * (ambient - target_dim))
        opts = replace(opts, restart_period=restart)
    dist = pairwise_dissimilarity(train, kind)
    graph = build_affinity(train.labels, dist, kw=kw, kb=kb)
    start = np.eye(ambient, target_dim) if w0 is None else w0.w
    u = _span_basis(start, points)
    if u is not None:
        # one GEMM, where a matmul of u.T with the stack takes one per sample
        points = np.tensordot(u, points, axes=([0], [1])).transpose(1, 0, 2)
        w0 = MappingMatrix(u.T @ start)
    problem = Problem(
        points,
        graph,
        kind,
        target_dim=target_dim,
        sign_flip_similarity=sign_flip_similarity,
    )
    w, trace = minimize(problem, w0=w0, opts=opts)
    return (w if u is None else MappingMatrix(u @ w.w)), trace, graph


def _span_basis(w0: np.ndarray, bases: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns U spanning [W0, X_1 ... X_N], or None.

    The cost sees W only through W^T X_i, so every gradient sum_i X_i dM_i^T
    lies in the span of the X_i, and the geodesic, both transports and the
    Cholesky clean-up stay in the span of W and h: CG from W0 never leaves
    span([W0, X]). U is its CholeskyQR2 basis (Fukaya et al., 2014): two
    passes of R = chol(A^T A), A <- A R^-1 on the D x m matrix A, all GEMMs.
    None where the basis would not pay for itself (SPAN_COST_LIMIT; always
    where m >= D), and where A is too ill-conditioned for CholeskyQR2, as a
    repeated sample makes it: a Cholesky fails, or the estimate
    ||R||_F ||R^-1||_F (at least the 2-norm condition number) reaches
    SPAN_COND_LIMIT.
    """
    count, ambient, order = bases.shape
    target = w0.shape[1]
    span = target + count * order
    if span * ambient > SPAN_COST_LIMIT * target * (ambient - span):
        return None
    u = np.concatenate([w0, *bases], axis=1)
    for _ in range(2):
        try:
            r = np.linalg.cholesky(u.T @ u, upper=True)
        except np.linalg.LinAlgError:
            return None
        r_inv = np.linalg.inv(r)
        if not np.linalg.norm(r) * np.linalg.norm(r_inv) < SPAN_COND_LIMIT:
            return None
        u = u @ r_inv
    return u


@dataclass(frozen=True)
class GradCheckReport:
    kind: MeasureKind
    trials: int
    max_rel_error: float
    failures: int
    clamp_events: int
    # always 0, as every trial has a gradient; the acceptance suite prints it
    skipped: int = 0

    def ok(self) -> bool:
        return self.failures == 0


def gradient_check(
    kind: MeasureKind,
    ambient_dim: int,
    target_dim: int,
    order: int,
    trials: int,
    seed: int,
) -> GradCheckReport:
    """Compare the analytic map gradient with central finite differences.

    Each trial draws a random map and a random two-point problem, then probes
    every entry of the map with step FD_STEP.
    """
    if min(trials, ambient_dim, target_dim, order) < 1 or seed < 0:
        raise InvalidShape(
            "trials and dimensions must be positive and the seed nonnegative, got "
            f"trials={trials}, D={ambient_dim}, d={target_dim}, n={order}, seed={seed}"
        )
    rng = np.random.default_rng(seed)
    graph = AffinityGraph(np.array([[0, 1], [1, 0]]), kw=1, kb=1)
    clamp_before = health_counters().get("fubini_study_grad_clamped", 0)
    max_err = 0.0
    failures = 0
    for _ in range(trials):
        wq, _ = orthonormalize(rng.standard_normal((ambient_dim, target_dim)))
        x1, _ = orthonormalize(rng.standard_normal((ambient_dim, order)))
        x2, _ = orthonormalize(rng.standard_normal((ambient_dim, order)))
        problem = Problem(np.stack([x1, x2]), graph, kind, target_dim=target_dim)
        analytic = euclidean_grad(wq, problem)
        fd = np.zeros_like(wq)
        for i in range(ambient_dim):
            for j in range(target_dim):
                wp = wq.copy()
                wp[i, j] += FD_STEP
                wm = wq.copy()
                wm[i, j] -= FD_STEP
                fd[i, j] = (cost(wp, problem) - cost(wm, problem)) / (2 * FD_STEP)
        scale = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-10)
        rel = float(np.linalg.norm(analytic - fd) / scale)
        max_err = max(max_err, rel)
        if rel > GRAD_TOL:
            failures += 1
    clamp_after = health_counters().get("fubini_study_grad_clamped", 0)
    return GradCheckReport(
        kind=kind,
        trials=trials,
        max_rel_error=max_err,
        failures=failures,
        clamp_events=clamp_after - clamp_before,
    )
