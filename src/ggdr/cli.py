"""Command-line front end: synth, train, eval, gradcheck.

Exit codes: 0 success, 1 I/O or file-format problems, 2 parameter validation
failures, 3 numerical failures. Flags override an optional line-oriented
config file (``key = value``, ``#`` comments); every effective parameter is
echoed into the trace header so runs can be reproduced from their outputs.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .dataio import (
    load_dataset,
    load_mapping,
    save_dataset,
    save_mapping,
    text_lines,
)
from .errors import (
    DataFormatError,
    GgdrError,
    NumericalError,
    ValidationError,
)
from .manifold import MappingMatrix, orthonormalize
from .metrics import MeasureKind

# reduce_point, evaluate: looked up here by perfbench/tracer.py and workloads.py
from .objective import check_target_dim, reduce_point  # noqa: F401
from .optimizer import BetaRule, OptimOptions
from .pipeline import (  # noqa: F401
    SynthParams,
    _nn_predict,
    _reduce_dataset,
    evaluate,
    fit,
    gradient_check,
    synth_dataset,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

METRIC_CODES = {k.value: k for k in MeasureKind}
# config spellings of a boolean, matched case-insensitively
BOOLEANS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _boolean(raw: str) -> bool:
    if raw.lower() not in BOOLEANS:
        raise ValueError(f"expected one of {', '.join(BOOLEANS)}")
    return BOOLEANS[raw.lower()]


def _period(raw: str) -> int | None:
    return None if raw == "auto" else int(raw)


# the parameters train reads, each from a flag or a config line of the same
# name; the only list of them: (cast of the flag's or line's text, default, help)
TRAIN_KEYS = {
    "kw": (int, None, "within-class neighbors (default: min class size - 1)"),
    "kb": (int, 1, "between-class neighbors (default 1)"),
    "seed": (int, 0, "seed for --init random (default 0)"),
    "init": (str, "identity", "identity (default) or random"),
    "literal-similarity": (
        _boolean, False, "keep the raw sign of similarity-like measures"
    ),
    "max-iter": (int, OptimOptions.max_iter, "CG iteration limit"),
    "rel-tol": (float, OptimOptions.rel_cost_tol, "relative cost-drop tolerance"),
    "grad-tol": (float, OptimOptions.grad_norm_tol, "gradient-norm tolerance"),
    "beta-rule": (str, OptimOptions.beta_rule.value, "CG beta: pr+ (default) or fr"),
    "restart": (
        _period, OptimOptions.restart_period, "CG restart period, or auto: d(D-d)"
    ),
}


def _parse_config(path) -> dict:
    values = {}
    try:
        for lineno, line in text_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    return values


def _resolve(args, key: str):
    """Flag value if given, else config value, else the TRAIN_KEYS default.

    Both a flag and a config line arrive as text and are cast here, so a bad
    value fails the same way by either route.
    """
    cast, default, _ = TRAIN_KEYS[key]
    raw = getattr(args, key.replace("-", "_"))
    if raw is None:
        raw = args._config.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValidationError(f"{key}={raw!r}: {exc}") from exc


def _metric(code: str) -> MeasureKind:
    if code not in METRIC_CODES:
        raise ValidationError(
            f"unknown metric {code!r}; choose from {sorted(METRIC_CODES)}"
        )
    return METRIC_CODES[code]


def _load(directory, order: int | None):
    """``load_dataset``, which must give a dataset of the order asked for."""
    ds = load_dataset(directory, order=order)
    if order is not None and ds.order != order:
        raise ValidationError(
            f"--order {order} does not match dataset order {ds.order}"
        )
    return ds


def cmd_train(args) -> int:
    for key in args._config:
        if key not in TRAIN_KEYS:
            raise ValidationError(
                f"unknown config key {key!r}; train reads {', '.join(TRAIN_KEYS)}"
            )
    metric = _metric(args.metric)
    dim = args.dim
    given = {key: _resolve(args, key) for key in TRAIN_KEYS}
    seed, init = given["seed"], given["init"]
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    if init not in ("identity", "random"):
        raise ValidationError(f"--init must be identity or random, got {init!r}")
    rule = given["beta-rule"]
    try:
        beta_rule = BetaRule(rule)
    except ValueError as exc:
        raise ValidationError(f"beta-rule must be pr+ or fr, got {rule!r}") from exc
    opts = OptimOptions(
        max_iter=given["max-iter"],
        rel_cost_tol=given["rel-tol"],
        grad_norm_tol=given["grad-tol"],
        beta_rule=beta_rule,
        restart_period=given["restart"],
    )

    ds = _load(args.data, args.order)
    # before a random init draws dim columns
    check_target_dim(ds.order, dim, ds.ambient_dim)
    w0 = None
    if init == "random":
        rng = np.random.default_rng(seed)
        q, _ = orthonormalize(rng.standard_normal((ds.ambient_dim, dim)))
        w0 = MappingMatrix(q)

    w, trace, graph = fit(
        ds,
        metric,
        target_dim=dim,
        kw=given["kw"],
        kb=given["kb"],
        opts=opts,
        w0=w0,
        sign_flip_similarity=not given["literal-similarity"],
    )
    save_mapping(args.out, w)
    # dict update keeps each key where **given put it
    params = {
        "command": "train",
        "data": args.data,
        "metric": metric.value,
        "dim": dim,
        "order": ds.order,
        **given,
        "kw": graph.kw,
        "kb": graph.kb,
        "restart": "auto" if given["restart"] is None else given["restart"],
    }
    if args.trace:
        trace.write_csv(args.trace, params=params)
    if args.graph_out:
        graph.to_csv(args.graph_out)
    print(
        f"final_cost={trace.final_cost!r} iterations={trace.iterations} "
        f"reason={trace.reason} evaluations={trace.objective_evals}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    metric = _metric(args.metric)
    train = _load(args.train, args.order)
    test = _load(args.test, args.order)
    if args.model:
        w = load_mapping(args.model)
        train, test = _reduce_dataset(train, w), _reduce_dataset(test, w)
    # one nearest-neighbor pass gives both the accuracy and the predictions
    labels, _, values = _nn_predict(train, test, metric)
    acc = sum(1 for p, t in zip(labels, test.labels) if p == t) / test.size
    if args.preds:
        with open(args.preds, "w", encoding="utf-8") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(("id", "true", "pred", "nn_distance"))
            rows.writerows(zip(test.provenance, test.labels, labels, map(repr, values)))
    print(f"accuracy={acc!r}")
    return EXIT_OK


def cmd_synth(args) -> int:
    params = SynthParams(
        classes=args.classes,
        samples_per_class=args.per_class,
        ambient_dim=args.ambient,
        order=args.order,
        within_noise=args.noise,
        seed=args.seed,
        signal_dim=args.signal_dim,
    )
    ds = synth_dataset(params)
    save_dataset(args.out, ds)
    print(f"wrote {ds.size} samples to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.metric == "all":
        kinds = list(MeasureKind)
    else:
        kinds = [_metric(args.metric)]
    worst = 0.0
    failures = 0
    for kind in kinds:
        rep = gradient_check(
            kind,
            ambient_dim=args.ambient,
            target_dim=args.dim,
            order=args.order,
            trials=args.trials,
            seed=args.seed,
        )
        worst = max(worst, rep.max_rel_error)
        failures += rep.failures
        print(
            f"metric={kind.value} trials={rep.trials} "
            f"max_rel_error={rep.max_rel_error:.3e} failures={rep.failures} "
            f"clamped={rep.clamp_events}"
        )
    print(f"overall max_rel_error={worst:.3e} failures={failures}")
    if failures:
        raise NumericalError(f"{failures} gradient check failures")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggdr",
        description=(
            "Learn an orthonormal map that compresses subspace-valued data "
            "onto a lower-dimensional, more class-discriminative Grassmannian."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    metric_help = "measure code: p, fs, pk, bc, bck"

    t = sub.add_parser("train", help="learn a mapping from a labeled dataset")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--metric", required=True, help=metric_help)
    t.add_argument("--dim", type=int, required=True, help="target dimension d")
    t.add_argument("--order", type=int, help="subspace order n (required for raw data)")
    t.add_argument("--out", required=True, help="output CSV for the map")
    t.add_argument("--trace", help="output CSV for the optimization trace")
    t.add_argument("--graph-out", help="output CSV for the affinity graph")
    for key, (cast, _, help_text) in TRAIN_KEYS.items():
        if cast is _boolean:
            t.add_argument(f"--{key}", action="store_const", const="1", help=help_text)
        else:
            t.add_argument(f"--{key}", help=help_text)
    t.add_argument("--config", help="line-oriented config file")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="nearest-neighbor accuracy of a dataset split")
    e.add_argument("--train", required=True, help="training dataset directory")
    e.add_argument("--test", required=True, help="test dataset directory")
    e.add_argument("--metric", required=True, help=metric_help)
    e.add_argument("--model", help="mapping CSV from train (omit: original manifold)")
    e.add_argument("--order", type=int, help="subspace order for raw datasets")
    e.add_argument("--preds", help="per-sample prediction CSV")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate a synthetic dataset directory")
    s.add_argument("--classes", type=int, required=True)
    s.add_argument("--per-class", type=int, required=True, dest="per_class")
    s.add_argument("--ambient", type=int, required=True, help="ambient dimension D")
    s.add_argument("--order", type=int, required=True, help="subspace order n")
    s.add_argument("--noise", type=float, required=True, help="within-class spread")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True, help="output dataset directory")
    s.add_argument(
        "--signal-dim",
        type=int,
        dest="signal_dim",
        help="confine class centers to a subspace of this dimension",
    )
    s.set_defaults(func=cmd_synth)

    g = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    g.add_argument("--metric", default="all", help=f"{metric_help}, or all")
    g.add_argument("--trials", type=int, default=50)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ambient", type=int, default=12)
    g.add_argument("--dim", type=int, default=6)
    g.add_argument("--order", type=int, default=2)
    g.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = getattr(args, "config", None)
        args._config = _parse_config(config) if config else {}
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GgdrError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
