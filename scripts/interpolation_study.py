#!/usr/bin/env python3
"""Interpolation study: plain adaptive steps vs variance reduction vs hybrid.

Sweeps the mislabel fraction of a separable synthetic dataset and compares
AdaGrad, AdaSVRG and the hybrid hand-over method at a fixed pass budget,
writing each generated dataset (``mislabel_<f>/data.libsvm``), its traces
and one SVG per dataset.  With no mislabeling the stochastic method should
win outright and the hybrid should never hand over; with label noise the
hybrid should detect the stall and switch.

Usage:
    python3 scripts/interpolation_study.py [--n 2000] [--d 50] [--out results/interpolation]
"""

import argparse
from pathlib import Path

from vrkit.bench import RunConfig, aggregate, final_metric, run
from vrkit.data import SyntheticSpec, gen_separable, save_libsvm
from vrkit.svgplot import emit_plot

ALGOS = ("adagrad", "adasvrg", "hybrid")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--d", type=int, default=50)
    parser.add_argument("--margin", type=float, default=0.5)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--eta", type=float, default=1.0, help="AdaGrad step-size")
    parser.add_argument("--out", default="results/interpolation")
    args = parser.parse_args()

    out_root = Path(args.out)
    for mislabel in (0.0, 0.1, 0.2):
        spec = SyntheticSpec(n=args.n, d=args.d, mislabel_fraction=mislabel,
                             margin=args.margin, seed=23)
        out_dir = out_root / f"mislabel_{mislabel:g}"
        out_dir.mkdir(parents=True, exist_ok=True)
        save_libsvm(gen_separable(spec)[0], out_dir / "data.libsvm")
        series = {}
        for algo in ALGOS:
            config = RunConfig(
                dataset=str(out_dir / "data.libsvm"), loss="squared_hinge", l2=0.0,
                algo=algo, batch_size=args.batch_size, epochs=args.epochs, seeds=args.seeds,
                eta=args.eta if algo == "adagrad" else None, out=str(out_dir / algo),
            )
            output = run(config)
            rows = aggregate(output.traces)
            series[algo] = ([r[0] for r in rows], [r[3] for r in rows], [r[4] for r in rows])
            switched = [r.notes.get("switched") for r in output.results if r.notes]
            extra = f" switched={switched}" if algo == "hybrid" else ""
            print(f"mislabel={mislabel:g} {algo}: final gradient norm "
                  f"{final_metric(output.traces):.3e}{extra}")
        figure = out_root / f"mislabel_{mislabel:g}.svg"
        emit_plot(series, figure, title=f"mislabel fraction {mislabel:g}")
        print(f"wrote {figure}")


if __name__ == "__main__":
    main()
