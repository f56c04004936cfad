"""Conjugate-gradient minimization on the Grassmannian of maps.

The loop follows the classic pattern: project the ambient gradient to the
horizontal space, combine it with the parallel-transported previous direction
via a CG coefficient, Armijo-backtrack along the exact geodesic, and
re-orthonormalize the iterate. Polak-Ribiere+ (with automatic reset) is the
default coefficient; Fletcher-Reeves is available for comparison, and the
periodic restart falls back to steepest descent every d(D-d) iterations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShape
from .manifold import (
    MappingMatrix,
    TangentVector,
    geodesic_step,
    parallel_transport,
    project_tangent,
)
from .objective import Problem, cost, cost_and_grad


class BetaRule(enum.Enum):
    POLAK_RIBIERE_PLUS = "pr+"
    FLETCHER_REEVES = "fr"


@dataclass(frozen=True)
class ArmijoParams:
    initial_step: float = 1.0
    sufficient_decrease: float = 1e-4
    contraction: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self):
        if not 0.0 < self.contraction < 1.0:
            raise InvalidShape("contraction must lie in (0, 1)")
        if self.initial_step <= 0 or self.sufficient_decrease <= 0:
            raise InvalidShape("step and sufficient-decrease must be positive")


@dataclass(frozen=True)
class OptimOptions:
    max_iter: int = 100
    rel_cost_tol: float = 1e-6
    grad_norm_tol: float = 1e-6
    beta_rule: BetaRule = BetaRule.POLAK_RIBIERE_PLUS
    line_search: ArmijoParams = field(default_factory=ArmijoParams)
    restart_period: int | None = None  # None: d(D - d), the manifold dimension

    def __post_init__(self):
        if self.max_iter < 0 or self.rel_cost_tol < 0 or self.grad_norm_tol < 0:
            raise InvalidShape("iteration cap and tolerances must be nonnegative")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    cost: float
    grad_norm: float
    step: float
    backtracks: int
    skipped_pairs: int


@dataclass
class OptimTrace:
    """Per-iteration history plus the termination summary."""

    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    line_search_failed: bool = False

    @property
    def iterations(self) -> int:
        """Number of accepted steps."""
        return sum(1 for rec in self.records if rec.step > 0)

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost

    def write_csv(self, path, params: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in (params or {}).items():
                fh.write(f"# {key}={value}\n")
            fh.write("iter,cost,grad_norm,step,backtracks,skipped_pairs\n")
            for rec in self.records:
                fh.write(
                    f"{rec.iteration},{rec.cost!r},{rec.grad_norm!r},"
                    f"{rec.step!r},{rec.backtracks},{rec.skipped_pairs}\n"
                )


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def minimize(
    p: Problem,
    w0: MappingMatrix | None = None,
    opts: OptimOptions | None = None,
    callback=None,
) -> tuple[MappingMatrix, OptimTrace]:
    """Minimize the problem's cost over orthonormal maps.

    Starts from the truncated identity unless w0 is given. Stops when the
    Riemannian gradient norm or the relative cost change falls below its
    tolerance, or after max_iter accepted steps. A failed line search returns
    the best iterate found, flagged on the trace rather than raised.

    ``callback(iteration, w, rgrad)`` runs at the start and after every
    accepted step, before termination checks.
    """
    opts = opts or OptimOptions()
    if w0 is None:
        w = MappingMatrix(np.eye(p.ambient_dim, p.target_dim))
    else:
        if w0.w.shape != (p.ambient_dim, p.target_dim):
            raise InvalidShape(
                f"w0 shape {w0.w.shape} != ({p.ambient_dim}, {p.target_dim})"
            )
        w = w0
    restart = opts.restart_period
    if restart is None:
        restart = max(1, p.target_dim * (p.ambient_dim - p.target_dim))
    ls = opts.line_search

    c, eg, skipped = cost_and_grad(w, p)
    rg = project_tangent(w, eg)
    rnorm = rg.norm
    if callback is not None:
        callback(0, w, rg)

    trace = OptimTrace()
    h: TangentVector | None = None
    it = 0
    while True:
        if rnorm <= opts.grad_norm_tol:
            trace.records.append(TraceRecord(it, c, rnorm, 0.0, 0, skipped))
            trace.converged = True
            trace.reason = "grad_norm"
            break
        if it >= opts.max_iter:
            trace.records.append(TraceRecord(it, c, rnorm, 0.0, 0, skipped))
            trace.reason = "max_iter"
            break

        if h is None:
            h = TangentVector(-rg.h, base=w)
        slope = _inner(rg.h, h.h)
        if slope >= 0.0:
            h = TangentVector(-rg.h, base=w)
            slope = -rnorm * rnorm

        # one SVD of h serves every trial step and both transports
        svd = np.linalg.svd(h.h, full_matrices=False)
        alpha = ls.initial_step
        backtracks = 0
        accepted = False
        while True:
            w_try = geodesic_step(w, h, alpha, svd)
            c_try = cost(w_try, p)
            if c_try <= c + ls.sufficient_decrease * alpha * slope:
                accepted = True
                break
            if backtracks >= ls.max_backtracks:
                break
            alpha *= ls.contraction
            backtracks += 1
        if not accepted:
            trace.records.append(TraceRecord(it, c, rnorm, 0.0, backtracks, skipped))
            trace.line_search_failed = True
            trace.reason = "line_search_failed"
            break

        trace.records.append(TraceRecord(it, c, rnorm, alpha, backtracks, skipped))

        c_new, eg_new, skipped_new = cost_and_grad(w_try, p)
        rg_old_moved = parallel_transport(rg, w, h, alpha, svd, w_try)
        h_moved = parallel_transport(h, w, h, alpha, svd, w_try)
        rg_new = project_tangent(w_try, eg_new)
        rnorm_new = rg_new.norm
        if callback is not None:
            callback(it + 1, w_try, rg_new)

        if opts.beta_rule is BetaRule.FLETCHER_REEVES:
            beta = (rnorm_new * rnorm_new) / (rnorm * rnorm)
        else:
            beta = _inner(rg_new.h, rg_new.h - rg_old_moved.h) / (rnorm * rnorm)
            beta = max(0.0, beta)
        if (it + 1) % restart == 0:
            beta = 0.0
        h = TangentVector(-rg_new.h + beta * h_moved.h, base=w_try)

        cost_drop = abs(c - c_new)
        cost_scale = max(abs(c), abs(c_new), 1.0)
        w, c, rg, rnorm, skipped = w_try, c_new, rg_new, rnorm_new, skipped_new
        it += 1
        if cost_drop <= opts.rel_cost_tol * cost_scale:
            trace.records.append(TraceRecord(it, c, rnorm, 0.0, 0, skipped))
            trace.converged = True
            trace.reason = "rel_cost"
            break

    return w, trace
