"""Command-line front end: synth, train, eval, gradcheck.

Exit codes: 0 success, 1 I/O or file-format problems, 2 parameter validation
failures, 3 numerical failures. Flags override an optional line-oriented
config file (``key = value``, ``#`` comments); every effective parameter is
echoed into the trace header so runs can be reproduced from their outputs.
"""

from __future__ import annotations

import argparse
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
from .objective import reduce_point  # noqa: F401
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


def _resolve(args, key: str, cast, default):
    """Flag value if given, else config value, else the hard default."""
    flag_value = getattr(args, key.replace("-", "_"))
    if flag_value is not None:
        return flag_value
    config = getattr(args, "_config", {})
    if key in config:
        raw = config[key]
        if cast is bool:
            if raw.lower() not in BOOLEANS:
                raise ValidationError(
                    f"config value {key}={raw!r}: expected one of {', '.join(BOOLEANS)}"
                )
            return BOOLEANS[raw.lower()]
        try:
            return cast(raw)
        except ValueError as exc:
            raise ValidationError(f"config value {key}={raw!r}: {exc}") from exc
    return default


def _metric(code: str) -> MeasureKind:
    if code not in METRIC_CODES:
        raise ValidationError(
            f"unknown metric {code!r}; choose from {sorted(METRIC_CODES)}"
        )
    return METRIC_CODES[code]


def _optim_options(args) -> tuple[OptimOptions, dict]:
    rule = _resolve(args, "beta-rule", str, "pr+")
    try:
        beta_rule = BetaRule(rule)
    except ValueError as exc:
        raise ValidationError(f"beta-rule must be pr+ or fr, got {rule!r}") from exc
    opts = OptimOptions(
        max_iter=_resolve(args, "max-iter", int, 100),
        rel_cost_tol=_resolve(args, "rel-tol", float, 1e-6),
        grad_norm_tol=_resolve(args, "grad-tol", float, 1e-6),
        beta_rule=beta_rule,
        restart_period=_resolve(args, "restart", int, None),
    )
    shown = {
        "max-iter": opts.max_iter,
        "rel-tol": opts.rel_cost_tol,
        "grad-tol": opts.grad_norm_tol,
        "beta-rule": opts.beta_rule.value,
        "restart": opts.restart_period if opts.restart_period is not None else "auto",
    }
    return opts, shown


def cmd_train(args) -> int:
    metric = _metric(args.metric)
    dim = args.dim
    order = args.order
    if dim < 1:
        raise ValidationError(f"--dim must be positive, got {dim}")
    if order is not None and dim < order:
        raise ValidationError(f"--dim {dim} smaller than --order {order}")
    kb = _resolve(args, "kb", int, 1)
    kw = _resolve(args, "kw", int, None)
    if kb < 1 or (kw is not None and (kw < 1 or kb > kw)):
        raise ValidationError(f"need 1 <= kb <= kw, got kw={kw}, kb={kb}")
    seed = _resolve(args, "seed", int, 0)
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    literal = _resolve(args, "literal-similarity", bool, False)
    init = _resolve(args, "init", str, "identity")
    if init not in ("identity", "random"):
        raise ValidationError(f"--init must be identity or random, got {init!r}")
    opts, shown = _optim_options(args)

    ds = load_dataset(args.data, order=order)
    if order is not None and ds.order != order:
        raise ValidationError(
            f"--order {order} does not match dataset order {ds.order}"
        )
    if dim < ds.order or dim > ds.ambient_dim:
        raise ValidationError(
            f"--dim {dim} outside [{ds.order}, {ds.ambient_dim}] for this dataset"
        )

    w0 = None
    if init == "random":
        rng = np.random.default_rng(seed)
        q, _ = orthonormalize(rng.standard_normal((ds.ambient_dim, dim)))
        w0 = MappingMatrix(q)

    w, trace, graph = fit(
        ds,
        metric,
        target_dim=dim,
        kw=kw,
        kb=kb,
        opts=opts,
        w0=w0,
        sign_flip_similarity=not literal,
    )
    save_mapping(args.out, w)
    params = {
        "command": "train",
        "data": args.data,
        "metric": metric.value,
        "dim": dim,
        "order": ds.order,
        "kw": graph.kw,
        "kb": graph.kb,
        "seed": seed,
        "init": init,
        "literal-similarity": literal,
        **shown,
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
    train = load_dataset(args.train, order=args.order)
    test = load_dataset(args.test, order=args.order)
    if args.model:
        w = load_mapping(args.model)
        train, test = _reduce_dataset(train, w), _reduce_dataset(test, w)
    # one nearest-neighbor pass gives both the accuracy and the predictions
    labels, _, values = _nn_predict(train, test, metric)
    acc = sum(1 for p, t in zip(labels, test.labels) if p == t) / test.size
    if args.preds:
        with open(args.preds, "w", encoding="utf-8") as fh:
            fh.write("id,true,pred,nn_distance\n")
            for pid, true, pred, value in zip(
                test.provenance, test.labels, labels, values
            ):
                fh.write(f"{pid},{true},{pred},{value!r}\n")
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
    t.add_argument("--kw", type=int, help="within-class neighbors (default: min class size - 1)")
    t.add_argument("--kb", type=int, help="between-class neighbors (default 1)")
    t.add_argument("--out", required=True, help="output CSV for the map")
    t.add_argument("--trace", help="output CSV for the optimization trace")
    t.add_argument("--graph-out", help="output CSV for the affinity graph")
    t.add_argument("--seed", type=int, help="seed for --init random (default 0)")
    t.add_argument("--init", help="identity (default) or random")
    t.add_argument("--max-iter", type=int, dest="max_iter")
    t.add_argument("--rel-tol", type=float, dest="rel_tol")
    t.add_argument("--grad-tol", type=float, dest="grad_tol")
    t.add_argument("--beta-rule", dest="beta_rule", choices=["pr+", "fr"])
    t.add_argument("--restart", type=int, help="CG restart period (default d(D-d))")
    t.add_argument(
        "--literal-similarity",
        action="store_const",
        const=True,
        default=None,
        help="keep the raw sign of similarity-like measures in the objective",
    )
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GgdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
