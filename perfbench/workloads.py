"""The three benchmark workloads, their inputs, and one measured round each.

Every workload draws its datasets from the run's seed with ``synth_dataset``
and writes them with ``save_dataset`` before anything is timed; the program
only ever sees the dataset directories. Every fit runs a fixed number of CG
iterations (tolerances 0), so the work per round depends on the seed only
through the line search's backtracks. Fits to convergence were tried first:
their iteration counts vary up to 5x between seeds (18 to 100 for one
measure), which no bound of 25% can absorb.

demo
    Why: the paper's canonical experiment, ``demo_analog_params(0.3, seed)``:
    8 classes x 10 samples on G(6, 37) with a shared 10-dimensional signal
    subspace, split 5/5 per class, mapped to d = 12 under all five measures
    (``p``, ``fs``, ``bc``, ``pk``, ``bck``), 10 iterations each. About 100
    graph pairs of 6x6 products per evaluation, so per-call overhead in
    ``objective``/``metrics`` and the line search's rejected trial steps set
    the time. Covering both the Frobenius family (``p``, ``pk``) and the
    determinant family (``fs``, ``bc``, ``bck``) lets a change that helps one
    and slows the other show up.
    Loads (traced self time per round): ``metrics`` (about 45%), the QR of
    each mapped sample, ``manifold.orthonormalize`` called from
    ``objective`` (about 38%), and ``objective``'s own loops (about 9%).
    Bypasses: ``manifold``'s geodesic and transport (about 5%),
    ``optimizer``, ``pipeline``, ``affinity`` and ``dataio`` (under 1%
    each) and ``cli`` (not called). ``objective`` plus ``metrics`` carry
    about 55% of the self time, so the prediction holds narrowly; with the
    per-sample QR that ``objective`` calls counted in, about 92%.
    A round fits three datasets drawn from the seed (seeds 3s, 3s+1, 3s+2),
    which averages out how hard one draw happens to be.

large-n
    Why: O(N^2) work. ``SynthParams(20, 40, 200, 5, 0.3, seed,
    signal_dim=10)`` split 20/20 gives 400 training and 400 test samples,
    mapped to d = 20 under ``p`` and ``bc``, 2 iterations each. That is about
    80k ``pairwise_dissimilarity`` pairs per fit and 160k ``nn_classify``
    comparisons per ``evaluate``; the graph has about 4.1k pairs per
    objective evaluation (``demo``: about 100), so ``objective`` is exercised
    through its pair loop rather than its per-sample QR. The first CG step is
    accepted at the initial step length here and the second backtracks 0 to
    10 times, so a line-search change moves ``fit_s`` less than on ``demo``.
    N = 1000 is left out: 10 iterations there take 27.6 s, too long for a
    benchmark that is run tens of times per change. The noise is 0.3, not
    0.5: after 5 iterations at 0.5 the held-out accuracy ranged from 0.41 to
    0.88 between seeds. Two iterations, not 5: at 5 the objective
    evaluations of the two fits ranged from 44 to 90 between seeds and the
    fit time spread by 30%; at 2 they range from 10 to 24.
    Loads: ``pipeline.pairwise_dissimilarity`` plus ``nn_classify``: about
    55% of an untraced round (each timed alone, fastest of three repeats,
    seed 11), and 61% of a traced one, whose leaf wrappers sit mostly inside
    those two calls and add about 30%. ``metrics.measure`` (``metrics`` is
    about 78% of traced self time) and ``objective``'s pair loop.
    Bypasses: ``manifold``'s geodesic and transport (D = 200, d = 20 is
    cheap; ``manifold`` is about 8%, mostly the per-sample QR),
    ``optimizer``, ``cli``, and ``dataio``: the 800 sample files are loaded
    once before the rounds, which ``setup_s`` times.

wide-d
    Why: a wide ambient space, through the command line. 6 classes x 8
    samples on G(4, 4096) (``signal_dim=16``, noise 0.3), split 4/4, written
    as basis CSVs; ``ggdr train --metric pk --dim 32`` for 15 iterations,
    then ``ggdr eval --model --preds``. Each ``W^T X`` is a GEMM of about
    1 Mflop (``demo``: 5 kflop), and each geodesic or transport takes the SVD
    of a 4096 x 32 matrix, so ``manifold`` dominates. ``dataio`` parses about
    0.8M floats per ``ggdr eval`` and writes the 131k-entry map. The only workload
    that trains and evaluates through the CLI, the file reads and the file
    writes. A change that batches per-sample calls should show little gain
    here.
    Loads: ``manifold`` (``geodesic_step``, ``parallel_transport``; about
    54% of self time, as predicted), then ``dataio`` (about 30%; both
    commands parse the CSVs again) and ``cli``.
    Bypasses: ``pipeline``'s O(N^2) loops (N = 24), ``affinity``,
    ``metrics`` (about 3%).

Before the timed rounds, ``prepare`` runs ``ggdr eval`` without a model
once per dataset and baseline measure: the accuracy before reduction, which
the ``demo`` check compares against. It is not timed, because it is the
same on every round. On ``large-n`` it covers ``p`` only, because one such
command there costs about as much as both fits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ggdr import cli
from ggdr.dataio import read_matrix_csv, save_dataset
from ggdr.errors import GgdrError
from ggdr.metrics import MeasureKind, health_counters
from ggdr.optimizer import OptimOptions
from ggdr.pipeline import SynthParams, demo_analog_params, synth_dataset

ORTHONORMAL_TOL = 1e-8  # the tolerance MappingMatrix enforces
CLAMP_COUNTER = "fubini_study_grad_clamped"


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: Callable[[int], list[SynthParams]]
    train_per_class: int
    measures: tuple[str, ...]
    # measures scored without a model by ``ggdr eval`` (accuracy before reduction)
    baseline_measures: tuple[str, ...]
    target_dim: int
    iterations: int
    via_cli: bool = False
    # mean accuracy after reduction must reach the mean before (acceptance test 07)
    require_gain: bool = False

    def shape(self, seed: int) -> tuple[int, int]:
        """(D, n) of the workload's samples."""
        params = self.datasets(seed)[0]
        return params.ambient_dim, params.order


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "demo",
            lambda seed: [demo_analog_params(0.3, 3 * seed + j) for j in range(3)],
            train_per_class=5,
            measures=("p", "fs", "bc", "pk", "bck"),
            baseline_measures=("p", "fs", "bc", "pk", "bck"),
            target_dim=12,
            iterations=10,
            require_gain=True,
        ),
        Workload(
            "large-n",
            lambda seed: [SynthParams(20, 40, 200, 5, 0.3, seed, signal_dim=10)],
            train_per_class=20,
            measures=("p", "bc"),
            baseline_measures=("p",),
            target_dim=20,
            iterations=2,
        ),
        Workload(
            "wide-d",
            lambda seed: [SynthParams(6, 8, 4096, 4, 0.3, seed, signal_dim=16)],
            train_per_class=4,
            measures=("pk",),
            baseline_measures=("pk",),
            target_dim=32,
            iterations=15,
            via_cli=True,
        ),
    )
}


def generate(wl: Workload, seed: int, work_dir: str) -> None:
    """Write each dataset's first train_per_class samples per class to
    ``data<j>/train`` and the rest to ``data<j>/test``."""
    for j, params in enumerate(wl.datasets(seed)):
        ds = synth_dataset(params)
        seen: dict = {}
        train_idx, test_idx = [], []
        for i, label in enumerate(ds.labels):
            seen[label] = seen.get(label, 0) + 1
            (train_idx if seen[label] <= wl.train_per_class else test_idx).append(i)
        save_dataset(os.path.join(work_dir, f"data{j}", "train"), ds.subset(train_idx))
        save_dataset(os.path.join(work_dir, f"data{j}", "test"), ds.subset(test_idx))


def dataset_dirs(work_dir: str) -> list[tuple[str, str]]:
    names = sorted(n for n in os.listdir(work_dir) if n.startswith("data"))
    return [
        (os.path.join(work_dir, n, "train"), os.path.join(work_dir, n, "test"))
        for n in names
    ]


# -- one round ----------------------------------------------------------


@dataclass
class FitRecord:
    """Exact outcome of one fit; equal across repeats of one seed."""

    iterations: int
    backtracks: int
    trials: int
    evals: int
    skipped: int
    clamps: int
    costs: str  # digest of every iterate's cost, bit for bit
    w_digest: str
    accuracy: float


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # keyed by fit, "<dataset>:<measure>"
    fits: dict = field(default_factory=dict)  # -> FitRecord
    fit_times: dict = field(default_factory=dict)  # -> s
    eval_times: dict = field(default_factory=dict)  # -> s

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation of the program; errors count as failures."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (GgdrError, np.linalg.LinAlgError, OSError) as exc:
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass
class Inputs:
    """What every round of a run shares, made once before the timed rounds."""

    dirs: list  # (train dir, test dir) per dataset
    # accuracy before reduction, keyed like Round.fits
    base_accuracy: dict = field(default_factory=dict)
    # (train, test) LabeledDatasets; library workloads only
    datasets: list = field(default_factory=list)


def prepare(wl: Workload, work_dir: str) -> tuple[Inputs, Round]:
    """Score every baseline measure with ``ggdr eval`` without a model and,
    for library workloads, load every dataset. Neither is timed: set-up is
    timed by ``setup_s``, and the baseline is the same on every round."""
    inputs, rnd = Inputs(dataset_dirs(work_dir)), Round()
    for j, (train_dir, test_dir) in enumerate(inputs.dirs):
        for measure in wl.baseline_measures:
            output = _cli_op(rnd, f"eval {j}:{measure} (no model)", [
                "eval", "--train", train_dir, "--test", test_dir, "--metric", measure,
            ])
            inputs.base_accuracy[f"{j}:{measure}"] = (
                math.nan if output is None else float(_field(output, "accuracy"))
            )
        if not wl.via_cli:
            inputs.datasets.append((
                rnd.op("load train", cli.load_dataset, train_dir),
                rnd.op("load test", cli.load_dataset, test_dir),
            ))
    return inputs, rnd


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def trace_counts(rows, line_search_failed: bool) -> dict:
    """Counts from the optimizer trace rows (cost, step, backtracks, skipped).

    A row with a positive step is an accepted iteration that tried
    backtracks + 1 steps; a failed line search adds its tried steps on its
    last row. Objective evaluations: one cost_and_grad at the start and after
    each accepted step, plus one cost per trial step. Each cost_and_grad
    reports its skipped pairs on exactly one row.
    """
    iterations = sum(1 for _, step, _, _ in rows if step > 0)
    trials = sum(bt + 1 for _, step, bt, _ in rows if step > 0)
    if line_search_failed:
        trials += rows[-1][2] + 1
    return {
        "iterations": iterations,
        "backtracks": sum(bt for _, _, bt, _ in rows),
        "trials": trials,
        "evals": 1 + iterations + trials,
        "skipped": sum(sk for _, _, _, sk in rows),
        "costs": _digest(repr([c for c, _, _, _ in rows]).encode()),
        "first_cost": rows[0][0],
        "final_cost": rows[-1][0],
    }


def _check_fit(rnd: Round, key: str, w: np.ndarray, counts: dict, reason: str) -> None:
    problems = []
    gram_err = float(np.linalg.norm(w.T @ w - np.eye(w.shape[1])))
    if not gram_err <= ORTHONORMAL_TOL:
        problems.append(f"map not orthonormal, ||W^T W - I|| = {gram_err:.3e}")
    if not counts["final_cost"] <= counts["first_cost"]:
        problems.append(
            f"final cost {counts['final_cost']!r} above initial {counts['first_cost']!r}"
        )
    if reason == "line_search_failed":
        problems.append("line search failed")
    if problems:
        rnd.fail(f"{key}: " + "; ".join(problems))


def _field(output: str, name: str) -> str:
    for token in output.split():
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    raise ValueError(f"no {name}= in CLI output {output!r}")


def _cli_op(rnd: Round, what: str, argv) -> str | None:
    """One CLI command, its output captured; a nonzero exit code is a failed operation."""
    rnd.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    output = out.getvalue() + err.getvalue()
    if code != 0:
        rnd.fail(f"{what}: exit code {code}: {output.strip()}")
        return None
    return output


def _library_round(wl: Workload, inputs: Inputs, out_dir, rnd: Round) -> None:
    opts = OptimOptions(max_iter=wl.iterations, rel_cost_tol=0.0, grad_norm_tol=0.0)
    clock = time.perf_counter
    for j, (train, test) in enumerate(inputs.datasets):
        if train is None or test is None:
            continue
        for measure in wl.measures:
            key = f"{j}:{measure}"
            kind = MeasureKind(measure)
            clamps0 = health_counters().get(CLAMP_COUNTER, 0)
            t0 = clock()
            result = rnd.op(f"fit {key}", cli.fit, train, kind, wl.target_dim, opts=opts)
            dt = clock() - t0
            if result is None:
                continue
            rnd.fit_times[key] = dt
            w, trace, _ = result
            clamps = health_counters().get(CLAMP_COUNTER, 0) - clamps0
            rows = [(r.cost, r.step, r.backtracks, r.skipped_pairs) for r in trace.records]
            counts = trace_counts(rows, trace.line_search_failed)
            _check_fit(rnd, key, w.w, counts, trace.reason)
            rnd.op(f"save {key}", cli.save_mapping, os.path.join(out_dir, f"W{j}_{measure}.csv"), w)
            t0 = clock()
            acc = rnd.op(f"evaluate {key}", cli.evaluate, train, test, kind, w)
            rnd.eval_times[key] = clock() - t0
            rnd.fits[key] = _record(counts, clamps, _digest(w.w.tobytes()), acc)


def _cli_round(wl: Workload, inputs: Inputs, out_dir, rnd: Round) -> None:
    clock = time.perf_counter
    for j, (train_dir, test_dir) in enumerate(inputs.dirs):
        for measure in wl.measures:
            key = f"{j}:{measure}"
            w_path = os.path.join(out_dir, f"W{j}_{measure}.csv")
            trace_path = os.path.join(out_dir, f"trace{j}_{measure}.csv")
            preds_path = os.path.join(out_dir, f"preds{j}_{measure}.csv")
            t0 = clock()
            output = _cli_op(rnd, f"train {key}", [
                "train", "--data", train_dir, "--metric", measure,
                "--dim", str(wl.target_dim), "--max-iter", str(wl.iterations),
                "--rel-tol", "0", "--grad-tol", "0",
                "--out", w_path, "--trace", trace_path,
            ])
            dt = clock() - t0
            if output is None:
                continue
            rnd.fit_times[key] = dt
            reason = _field(output, "reason")
            rows = _read_trace_csv(trace_path)
            counts = trace_counts(rows, reason == "line_search_failed")
            with open(w_path, "rb") as fh:
                w_bytes = fh.read()
            _check_fit(rnd, key, read_matrix_csv(w_path), counts, reason)
            t0 = clock()
            output = _cli_op(rnd, f"eval {key}", [
                "eval", "--train", train_dir, "--test", test_dir, "--metric", measure,
                "--model", w_path, "--preds", preds_path,
            ])
            rnd.eval_times[key] = clock() - t0
            acc = math.nan
            if output is not None:
                acc = float(_field(output, "accuracy"))
                if acc != _preds_accuracy(preds_path):
                    rnd.fail(f"{key}: --preds file disagrees with accuracy={acc!r}")
            rnd.fits[key] = _record(counts, 0, _digest(w_bytes), acc)


def _record(counts, clamps, w_digest, acc) -> FitRecord:
    return FitRecord(
        iterations=counts["iterations"],
        backtracks=counts["backtracks"],
        trials=counts["trials"],
        evals=counts["evals"],
        skipped=counts["skipped"],
        clamps=clamps,
        costs=counts["costs"],
        w_digest=w_digest,
        accuracy=math.nan if acc is None else acc,
    )


def _read_trace_csv(path) -> list[tuple]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("iter,"):
                continue
            _, cost, _, step, backtracks, skipped = line.strip().split(",")
            rows.append((float(cost), float(step), int(backtracks), int(skipped)))
    return rows


def _preds_accuracy(path) -> float:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    return sum(1 for r in rows if r[1] == r[2]) / len(rows)


def run_round(wl: Workload, inputs: Inputs, out_dir) -> Round:
    """One measured round: every dataset, every measure, fit then evaluate."""
    rnd = Round()
    t0, c0 = time.perf_counter(), time.process_time()
    (_cli_round if wl.via_cli else _library_round)(wl, inputs, out_dir, rnd)
    rnd.wall_s = time.perf_counter() - t0
    rnd.cpu_s = time.process_time() - c0
    scored = [k for k in rnd.fits if k in inputs.base_accuracy]
    if wl.require_gain and scored:
        before = statistics.fmean(inputs.base_accuracy[k] for k in scored)
        after = statistics.fmean(rnd.fits[k].accuracy for k in scored)
        if not after >= before:
            rnd.fail(f"mean accuracy after reduction {after!r} below {before!r} before")
    return rnd
