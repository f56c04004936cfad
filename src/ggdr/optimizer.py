"""Conjugate-gradient minimization on the Grassmannian of maps.

The loop follows the classic pattern: project the ambient gradient to the
horizontal space, combine it with the parallel-transported previous direction
via a CG coefficient, and Armijo-backtrack along the exact geodesic.
Polak-Ribiere+ (with automatic reset) is the default coefficient;
Fletcher-Reeves is available for comparison, and the periodic restart falls
back to steepest descent every d(D-d) iterations.

Each iteration factors its search direction h once, through the d x d Gram
h^T h (``manifold.geodesic_factor``; no SVD of h is taken), and the factor
serves the frame, the step and both transports. Trial steps are evaluated
in the frame of the search direction (``objective.GeodesicFrame``): per
iteration the samples are projected onto it once, and each trial step
scales d x n matrices instead of forming a D x d map. The accepted step's
gradient comes from the same frame point, so its cost is the one the line
search accepted, bit for bit; the new map is formed once, by
``geodesic_step``, for the transports and the next frame.

Only the first line search of a fit starts at INITIAL_STEP. Every later one
starts at min(INITIAL_STEP, 2 * alpha_prev * slope_prev / slope), from the
last accepted step alpha_prev and the slopes <rgrad, h> of that search and
this one: the initial-step rule of Nocedal & Wright, Numerical Optimization,
section 3.5, doubled, so the rule's own prediction is the second trial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape
from .manifold import (
    MappingMatrix,
    TangentVector,
    geodesic_factor,
    geodesic_step,
    parallel_transport,
    project_tangent,
)
from .objective import Problem, cost, cost_and_grad, geodesic_frame

# Armijo backtracking: the first trial step of a fit's first search (later
# searches start from the last accepted step, at most this), the
# sufficient-decrease constant, the factor that shrinks a rejected step, and
# the rejections allowed per iteration before the line search fails
INITIAL_STEP = 1.0
SUFFICIENT_DECREASE = 1e-4
CONTRACTION = 0.5
MAX_BACKTRACKS = 30


class BetaRule(enum.Enum):
    POLAK_RIBIERE_PLUS = "pr+"
    FLETCHER_REEVES = "fr"


@dataclass(frozen=True)
class OptimOptions:
    max_iter: int = 100
    rel_cost_tol: float = 1e-6
    grad_norm_tol: float = 1e-6
    beta_rule: BetaRule = BetaRule.POLAK_RIBIERE_PLUS
    # None: d(D - d), the dimension of G(d, D); pipeline.fit resolves it from
    # the data's D, also when it runs CG in span coordinates
    restart_period: int | None = None

    def __post_init__(self):
        # written as "not >= 0" so that NaN fails too
        if not (
            self.max_iter >= 0 and self.rel_cost_tol >= 0 and self.grad_norm_tol >= 0
        ):
            raise InvalidShape("iteration cap and tolerances must be nonnegative")
        if self.restart_period is not None and self.restart_period < 1:
            raise InvalidShape(
                f"restart period must be at least 1, got {self.restart_period}"
            )


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    cost: float
    grad_norm: float
    step: float
    backtracks: int
    # always 0, as every pair has a gradient; the trace CSV's pinned column
    skipped_pairs: int = 0


@dataclass
class OptimTrace:
    """Per-iteration history plus the stop rule that ended the fit."""

    records: list[TraceRecord]
    # "grad_norm", "rel_cost", "max_iter" or "line_search_failed"
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason in ("grad_norm", "rel_cost")

    @property
    def line_search_failed(self) -> bool:
        return self.reason == "line_search_failed"

    @property
    def iterations(self) -> int:
        """Number of accepted steps."""
        return sum(1 for rec in self.records if rec.step > 0)

    @property
    def objective_evals(self) -> int:
        """Objective evaluations the fit spent, derived from the records.

        One cost_and_grad at the start and after each accepted step, plus one
        cost per trial step: backtracks + 1 on each accepted record, and on
        the last record of a failed line search.
        """
        accepted = [rec for rec in self.records if rec.step > 0]
        trials = sum(rec.backtracks + 1 for rec in accepted)
        if self.line_search_failed:
            trials += self.records[-1].backtracks + 1
        return 1 + len(accepted) + trials

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
    return float(np.vdot(a, b))


def _stop_reason(opts, it, cost_drop, cost_scale, rnorm) -> str:
    """The stop rule that holds at iteration it, "" if none: rel_cost holds
    only after a step, and then wins over grad_norm and max_iter."""
    if it and cost_drop <= opts.rel_cost_tol * cost_scale:
        return "rel_cost"
    if rnorm <= opts.grad_norm_tol:
        return "grad_norm"
    if it >= opts.max_iter:
        return "max_iter"
    return ""


def _notify(callback, iteration: int, w: np.ndarray, rg: np.ndarray) -> None:
    wm = MappingMatrix(w)
    callback(iteration, wm, TangentVector(rg, base=wm))


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
    accepted step, before termination checks, with a MappingMatrix and a
    TangentVector. The loop itself keeps the map, the gradient and the
    search direction as plain arrays shaped like the problem's maps and
    validates only what it hands out. They are D x d, or m x d where
    ``pipeline.fit`` passes a problem in the coordinates of an
    m-dimensional span of the data.
    """
    opts = opts or OptimOptions()
    if w0 is None:
        w = np.eye(p.ambient_dim, p.target_dim)
    else:
        if w0.w.shape != (p.ambient_dim, p.target_dim):
            raise InvalidShape(
                f"w0 shape {w0.w.shape} != ({p.ambient_dim}, {p.target_dim})"
            )
        w = w0.w
    restart = opts.restart_period
    if restart is None:
        restart = max(1, p.target_dim * (p.ambient_dim - p.target_dim))

    c, eg, _ = cost_and_grad(w, p)
    rg = project_tangent(w, eg)
    rnorm = float(np.linalg.norm(rg))
    if callback is not None:
        _notify(callback, 0, w, rg)

    records = []
    h = -rg
    last_decrease = 0.0  # alpha * slope of the last accepted step; 0: none yet
    cost_drop = cost_scale = 0.0  # of the last accepted step
    it = 0
    while not (reason := _stop_reason(opts, it, cost_drop, cost_scale, rnorm)):
        slope = _inner(rg, h)
        if slope >= 0.0:
            h = -rg
            slope = -rnorm * rnorm

        # one factor of h serves the frame, the step and both transports
        factor = geodesic_factor(w, h)
        frame = geodesic_frame(w, h, factor, p)
        alpha = INITIAL_STEP
        if last_decrease < 0.0:
            alpha = min(INITIAL_STEP, 2.0 * last_decrease / slope)
        for backtracks in range(MAX_BACKTRACKS + 1):
            trial = frame.at(alpha)
            if cost(trial, p) <= c + SUFFICIENT_DECREASE * alpha * slope:
                break
            alpha *= CONTRACTION
        else:
            records.append(TraceRecord(it, c, rnorm, 0.0, MAX_BACKTRACKS))
            return MappingMatrix(w), OptimTrace(records, "line_search_failed")

        records.append(TraceRecord(it, c, rnorm, alpha, backtracks))
        last_decrease = alpha * slope

        c_new, eg_new, _ = cost_and_grad(trial, p)
        w_new = geodesic_step(w, h, alpha, factor)
        rg_old_moved = parallel_transport(rg, w, h, alpha, factor, w_new)
        h_moved = parallel_transport(h, w, h, alpha, factor, w_new)
        rg_new = project_tangent(w_new, eg_new)
        rnorm_new = float(np.linalg.norm(rg_new))
        if callback is not None:
            _notify(callback, it + 1, w_new, rg_new)

        if opts.beta_rule is BetaRule.FLETCHER_REEVES:
            beta = (rnorm_new * rnorm_new) / (rnorm * rnorm)
        else:
            beta = _inner(rg_new, rg_new - rg_old_moved) / (rnorm * rnorm)
            beta = max(0.0, beta)
        if (it + 1) % restart == 0:
            beta = 0.0
        h = -rg_new + beta * h_moved

        cost_drop = abs(c - c_new)
        cost_scale = max(abs(c), abs(c_new), 1.0)
        w, c, rg, rnorm = w_new, c_new, rg_new, rnorm_new
        it += 1

    records.append(TraceRecord(it, c, rnorm, 0.0, 0))
    return MappingMatrix(w), OptimTrace(records, reason)
