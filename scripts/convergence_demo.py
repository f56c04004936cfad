#!/usr/bin/env python3
"""Convergence behavior on the synthetic demo benchmark.

Trains the map under each measure on the 8-class analog dataset and prints
the per-iteration cost so the descent profile can be eyeballed (or plotted
from the emitted CSVs).
"""

import argparse
from pathlib import Path

from ggdr import MeasureKind, OptimOptions, demo_analog_params, fit, synth_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--noise", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dim", type=int, default=12)
    ap.add_argument("--max-iter", type=int, default=100)
    ap.add_argument("--out-dir", type=Path, default=Path("traces"))
    args = ap.parse_args()

    ds = synth_dataset(demo_analog_params(args.noise, args.seed))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    opts = OptimOptions(max_iter=args.max_iter)
    for kind in MeasureKind:
        w, trace, _ = fit(ds, kind, target_dim=args.dim, opts=opts)
        path = args.out_dir / f"trace_{kind.value}.csv"
        trace.write_csv(path, params={"metric": kind.value, "dim": args.dim})
        head = ", ".join(f"{r.cost:.3f}" for r in trace.records[:6])
        print(
            f"{kind.value:>3}: {trace.iterations:3d} iterations, "
            f"{trace.objective_evals:4d} evaluations ({trace.reason}), "
            f"cost {head}, ... , {trace.final_cost:.6f} "
            f"-> {path}"
        )


if __name__ == "__main__":
    main()
