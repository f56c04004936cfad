"""Measuring process of one benchmark run (started by run.py).

Prepares the run's shared inputs (untimed), then runs rounds of one
workload for the given number of seconds, at least ``MIN_ROUNDS`` (with
``--trace 1``: ``MIN_TRACED_PAIRS`` pairs), and
prints one JSON object as its last stdout line. With ``--trace 0`` every
round is untraced and timed. With ``--trace 1`` rounds alternate untraced
and traced; the traced ones give the per-layer numbers, and their outputs
must match the untraced ones bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time

from envinfo import blas_record, library_versions
from tracer import Tracer, layer_of
from workloads import WORKLOADS, Round, prepare, run_round

LAYERS = ("cli", "dataio", "pipeline", "affinity", "optimizer", "objective", "metrics", "manifold")
MEASURES = ("p", "fs", "bc", "pk", "bck")
NN_SPANS = ("pipeline.nn_classify", "pipeline.nn_predict")
OBJECTIVE_SPANS = ("objective.cost", "objective.cost_and_grad")
# rounds a run makes at least: untraced ones, so that each fit's upper
# quartile is taken over several samples; with --trace 1, pairs of an untraced
# and a traced round, so that the traced counts are compared across repeats
MIN_ROUNDS = 4
MIN_TRACED_PAIRS = 2


def _consistent(first: Round, other: Round, label: str) -> list[str]:
    """Exact counts, costs, maps and accuracies must repeat for one seed."""
    problems = []
    for key, rec in first.fits.items():
        again = other.fits.get(key)
        if again != rec:
            problems.append(f"{label} {key}: {dataclasses.asdict(rec)} != "
                            f"{again and dataclasses.asdict(again)}")
    return problems


def layer_metrics(tracer: Tracer, rnd: Round, shape: tuple[int, int], target_dim: int) -> dict:
    """Per-layer counts and times of one traced round."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def within(span, name) -> bool:
        while span.name != name:
            if span.parent is None:
                return False
            span = by_id[span.parent]
        return True

    def leaf_calls(span, leaf) -> int:
        return span.leaves.get(leaf, (0,))[0]

    calls: dict = {}
    incl: dict = {}
    own: dict = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    raised: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + s.duration - s.child
        for leaf, (n, total, leaf_own, n_raised) in s.leaves.items():
            calls[leaf] = calls.get(leaf, 0) + n
            incl[leaf] = incl.get(leaf, 0.0) + total
            own[leaf] = own.get(leaf, 0.0) + leaf_own
            raised[leaf] = raised.get(leaf, 0) + n_raised
    for name, t in own.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += t

    def spans_named(*names):
        return [s for s in spans if s.name in names]

    def note_sum(names, key):
        return sum(s.note.get(key, 0) for s in spans_named(*names))

    evals = calls.get("objective.cost", 0) + calls.get("objective.cost_and_grad", 0)
    pair_measures = sum(leaf_calls(s, "metrics.measure") for s in spans_named(*OBJECTIVE_SPANS))
    d_ambient, order = shape
    cli_spans = [s for s in spans if within(s, "cli.main")]
    total = sum(s.duration for s in spans if s.parent is None)

    m = {
        "objective.cost.calls": calls.get("objective.cost", 0),
        "objective.cost.s": incl.get("objective.cost", 0.0),
        "objective.cost_and_grad.calls": calls.get("objective.cost_and_grad", 0),
        "objective.cost_and_grad.s": incl.get("objective.cost_and_grad", 0.0),
        "objective.pairs_per_eval": pair_measures / evals if evals else 0.0,
        "objective.skipped_pairs": note_sum(("objective.cost_and_grad",), "skipped"),
        "objective.reduce_flops": 2 * d_ambient * target_dim * order
        * calls.get("manifold.orthonormalize", 0),
    }
    for leaf in ("metrics.measure", "metrics.measure_grad", "metrics.qr_pullback"):
        m[f"{leaf}.calls"] = calls.get(leaf, 0)
        m[f"{leaf}.s"] = incl.get(leaf, 0.0)
    m["metrics.singular_pairs"] = raised.get("metrics.measure_grad", 0)
    m["metrics.fs_clamps"] = sum(f.clamps for f in rnd.fits.values())
    for name in ("manifold.orthonormalize", "manifold.geodesic_step", "manifold.parallel_transport"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = incl.get(name, 0.0)
    m["optimizer.minimize.self_s"] = own.get("optimizer.minimize", 0.0)
    for measure in MEASURES:
        fits = [f for key, f in rnd.fits.items() if key.endswith(":" + measure)]
        m[f"optimizer.iterations.{measure}"] = sum(f.iterations for f in fits)
        m[f"optimizer.backtracks.{measure}"] = sum(f.backtracks for f in fits)
        m[f"optimizer.objective_evals.{measure}"] = sum(f.evals for f in fits)
        trials = sum(f.trials for f in fits)
        m[f"optimizer.accepted_ratio.{measure}"] = (
            sum(f.iterations for f in fits) / trials if trials else 0.0
        )
    m["pipeline.pairwise_dissimilarity.s"] = incl.get("pipeline.pairwise_dissimilarity", 0.0)
    m["pipeline.pairwise_dissimilarity.pairs"] = sum(
        leaf_calls(s, "metrics.measure") for s in spans_named("pipeline.pairwise_dissimilarity")
    )
    nn = spans_named(*NN_SPANS)
    m["pipeline.nn_classify.s"] = sum(s.duration for s in nn)
    m["pipeline.nn_classify.comparisons"] = sum(leaf_calls(s, "metrics.measure") for s in nn)
    m["pipeline.fit.self_s"] = own.get("pipeline.fit", 0.0)
    m["affinity.build_affinity.s"] = incl.get("affinity.build_affinity", 0.0)
    m["affinity.edges"] = note_sum(("affinity.build_affinity",), "edges")
    for name in ("dataio.load_dataset", "dataio.save_mapping"):
        m[f"{name}.s"] = incl.get(name, 0.0)
        m[f"{name}.bytes"] = note_sum((name,), "bytes")
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    m["cli.nn_passes"] = sum(1 for s in cli_spans if s.name in NN_SPANS)
    m["cli.reductions"] = sum(leaf_calls(s, "objective.reduce_point") for s in cli_spans)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self[layer]
        m[f"self_share.{layer}"] = layer_self[layer] / total
    return m


def _trace_problems(m: dict, rnd: Round) -> list[str]:
    """The traced counts must agree with what the optimizer reported."""
    problems = []
    evals = sum(f.evals for f in rnd.fits.values())
    traced_evals = m["objective.cost.calls"] + m["objective.cost_and_grad.calls"]
    if traced_evals != evals:
        problems.append(f"traced objective evaluations {traced_evals} != {evals} from the optimizer trace")
    skipped = sum(f.skipped for f in rnd.fits.values())
    if not m["objective.skipped_pairs"] == m["metrics.singular_pairs"] == skipped:
        problems.append(
            f"skipped pairs disagree: cost_and_grad {m['objective.skipped_pairs']}, "
            f"measure_grad raised {m['metrics.singular_pairs']}, trace {skipped}"
        )
    return problems


def unit_of(name: str) -> str:
    if name.startswith("self_share.") or name == "trace.overhead" or ".accepted_ratio." in name:
        return "fraction"
    if name.endswith((".s", "self_s")) or name.startswith("self_s."):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("reduce_flops"):
        return "flop-computed"
    return "count"


def _is_count(name: str) -> bool:
    """Counts, and ratios of counts, repeat exactly; times and their shares do not."""
    return unit_of(name) != "s" and not name.startswith("self_share.")


def summary(values) -> dict:
    """Fastest, median, sample count, and the highest percentile with at
    least ten samples beyond it (None below eleven samples)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "min": values[0] if n else None,
           "median": statistics.median(values) if n else None,
           "percentile": None, "value": None}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["value"] = values[n - 11]
    return out


def upper_quartile(values) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def per_fit_upper_quartile(rounds: list[Round], attr: str) -> float:
    """Sum over the round's fits of each fit's upper quartile across rounds.

    The reference machine spends most of its time in a state 1.5x to 2x
    slower than its fastest, with fast spells of seconds to minutes. A fit's
    upper quartile over the rounds is its time in that common state, so it
    depends less on how many rounds met a fast spell than the median or the
    fastest time do. On two sets of ten runs per workload (four rounds
    each), the upper quartile spread 0.05 to 0.19 (interquartile range over
    median) with set medians at most 11% apart; the median spread 0.06 to
    0.21 with medians up to 23% apart, and the fastest time up to 0.36
    with medians up to 39% apart.
    """
    keys = getattr(rounds[0], attr)
    return sum(
        upper_quartile(getattr(r, attr)[key] for r in rounds if key in getattr(r, attr))
        for key in keys
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="JSONL file for the traced spans")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(args.work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    inputs, prologue = prepare(wl, args.work_dir)
    untraced: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    tracers: list[Tracer] = []
    problems: list[str] = []
    min_rounds = MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        untraced.append(run_round(wl, inputs, out_dir))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.root("bench.round"):
                    rnd = run_round(wl, inputs, out_dir)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, rnd, wl.shape(args.seed), wl.target_dim)
            problems += _trace_problems(metrics, rnd)
            problems += _consistent(untraced[0], rnd, "traced vs untraced")
            if traced:
                counts0 = {k: v for k, v in traced[0][1].items() if _is_count(k)}
                counts = {k: v for k, v in metrics.items() if _is_count(k)}
                if counts != counts0:
                    diff = {k: (counts0[k], counts[k]) for k in counts if counts[k] != counts0[k]}
                    problems.append(f"traced counts differ between repeats: {diff}")
            traced.append((rnd, metrics))
            tracers.append(tracer)
        # stop before a round that would end past the deadline
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds and len(untraced) >= min_rounds:
            break

    if args.spans:
        for i, tracer in enumerate(tracers):
            tracer.write_jsonl(args.spans, i)
    for rnd in untraced[1:]:
        problems += _consistent(untraced[0], rnd, "repeat")
    rounds = [prologue] + untraced + [rnd for rnd, _ in traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(problems)
    first = untraced[0]
    accuracy = statistics.fmean(f.accuracy for f in first.fits.values()) if first.fits else float("nan")

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in rounds for p in r.problems] + problems,
        "e2e": {
            "fit_s": per_fit_upper_quartile(untraced, "fit_times"),
            "eval_s": per_fit_upper_quartile(untraced, "eval_times"),
            "accuracy": accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "rounds": [
            {"traced": i >= len(untraced), "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "fit_times": r.fit_times, "eval_times": r.eval_times}
            for i, r in enumerate(rounds[1:])
        ],
        "timings": {
            f"{kind}_s.{key}": summary(getattr(r, f"{kind}_times")[key] for r in untraced
                                       if key in getattr(r, f"{kind}_times"))
            for kind in ("fit", "eval")
            for key in getattr(first, f"{kind}_times")
        },
        "fits": {k: dataclasses.asdict(v) for k, v in first.fits.items()},
        "base_accuracy": inputs.base_accuracy,
        "env": {**library_versions(), "blas": blas_record()},
    }
    if traced:
        per_layer = {}
        for name in traced[0][1]:
            values = [m[name] for _, m in traced]
            per_layer[name] = values[0] if _is_count(name) else statistics.median(values)
        per_layer["trace.overhead"] = (
            statistics.median(r.wall_s for r, _ in traced)
            / statistics.median(r.wall_s for r in untraced) - 1.0
        )
        result["per_layer"] = {
            name: {"value": value, "unit": unit_of(name)} for name, value in per_layer.items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
