#!/usr/bin/env python3
"""Robustness study: tuning-free methods vs grid-tuned baselines.

On each bundled dataset, grid-searches the constant step-size for the
baselines (SVRG, loopless SVRG, SARAH, SVRG-BB), runs the adaptive methods
with the tuning-free heuristic, and writes two figures per dataset: the
convergence comparison at the best step-sizes, and a sensitivity panel of
final gradient norm vs step-size (capped at 10 so diverging settings stay
readable) with the heuristic methods drawn as flat reference lines.

Usage:
    python3 scripts/robustness_study.py [--datasets datasets/*.libsvm] [--out results/robustness]
"""

import argparse
from pathlib import Path

from vrkit.bench import DEFAULT_GRID, RunConfig, aggregate, final_metric, grid_search, run
from vrkit.svgplot import emit_plot

TUNED = ("svrg", "lsvrg", "sarah", "svrg-bb")
TUNING_FREE = ("adasvrg", "adasvrg-at")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", nargs="*",
                        default=["datasets/synth_a.libsvm", "datasets/synth_b.libsvm"])
    parser.add_argument("--loss", default="logistic",
                        choices=("logistic", "squared", "huber"))
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default="results/robustness")
    args = parser.parse_args()

    out_root = Path(args.out)
    for dataset in args.datasets:
        name = Path(dataset).stem
        curves = {}
        sensitivity = {}

        for algo in TUNED:
            config = RunConfig(dataset=dataset, loss=args.loss, algo=algo,
                               batch_size=args.batch_size, epochs=args.epochs,
                               seeds=args.seeds)
            best_eta, results = grid_search(config)
            rows = results[best_eta]["aggregate"]
            curves[f"{algo} (eta={best_eta:g})"] = (
                [r[0] for r in rows], [r[3] for r in rows], [r[4] for r in rows],
            )
            etas = sorted(results)
            sensitivity[algo] = (etas, [results[e]["metric"] for e in etas], None)
            print(f"{name} {algo}: best eta {best_eta:g}, "
                  f"final gradient norm {results[best_eta]['metric']:.3e}")

        for algo in TUNING_FREE:
            config = RunConfig(dataset=dataset, loss=args.loss, algo=algo,
                               batch_size=args.batch_size, epochs=args.epochs,
                               seeds=args.seeds, out=str(out_root / name / algo))
            output = run(config)
            rows = aggregate(output.traces)
            curves[algo] = ([r[0] for r in rows], [r[3] for r in rows], [r[4] for r in rows])
            metric = final_metric(output.traces)
            grid = sorted(DEFAULT_GRID)
            sensitivity[f"{algo} (heuristic)"] = (grid, [metric] * len(grid), None)
            print(f"{name} {algo}: final gradient norm {metric:.3e} (untuned)")

        comparison = out_root / f"{name}_comparison.svg"
        emit_plot(curves, comparison, title=f"{name}: best-tuned vs tuning-free")
        panel = out_root / f"{name}_sensitivity.svg"
        emit_plot(sensitivity, panel, xlabel="step-size", log_x=True, y_cap=10.0,
                  ylabel="final full gradient norm",
                  title=f"{name}: sensitivity to step-size")
        print(f"wrote {comparison} and {panel}")


if __name__ == "__main__":
    main()
