"""Command-line benchmark driver.

Subcommands:

* ``run``            execute one config over its seeds, persist traces
* ``grid``           step-size grid search for a tuned baseline
* ``switch-search``  grid-search the manual hand-over epoch
* ``plot``           render aggregate files to a self-contained SVG
* ``gen-data``       write a synthetic dataset in LIBSVM format

Flags override config-file keys.  The ``VRKIT_JOBS`` environment variable
sets the default parallelism for seed execution.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .bench import RunConfig, config_from_mapping, parse_config_text
from .data import SyntheticSpec, gen_separable, save_libsvm
from .svgplot import emit_plot

_LOSS_CHOICES = ("logistic", "squared", "huber", "squared-hinge")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--dataset", help="LIBSVM file path, or 'synthetic'")
    parser.add_argument("--loss", choices=_LOSS_CHOICES)
    parser.add_argument("--algo", choices=bench.ALGORITHMS)
    parser.add_argument("--variant", choices=("scalar", "diag", "full"))
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--epochs", type=int, help="budget in effective passes")
    parser.add_argument("--seeds", help="count, or comma-separated explicit seeds")
    parser.add_argument("--eta", type=float, help="constant step-size")
    parser.add_argument("--theta", type=float, help="termination-test threshold")
    parser.add_argument("--epsilon", type=float, help="multistage target accuracy")
    parser.add_argument("--l2", type=float, help="L2 coefficient (default 1/n)")
    parser.add_argument("--p", type=float, help="loopless snapshot probability")
    parser.add_argument("--snapshot", choices=("last", "average"))
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--synthetic-n", type=int, dest="synthetic_n")
    parser.add_argument("--synthetic-d", type=int, dest="synthetic_d")
    parser.add_argument("--synthetic-mislabel", type=float, dest="synthetic_mislabel")
    parser.add_argument("--synthetic-margin", type=float, dest="synthetic_margin")
    parser.add_argument("--synthetic-seed", type=int, dest="synthetic_seed")


_FLAG_KEYS = (
    "dataset", "loss", "algo", "variant", "batch_size", "epochs", "seeds", "eta",
    "theta", "epsilon", "l2", "p", "snapshot", "jobs", "out",
    "synthetic_n", "synthetic_d", "synthetic_mislabel", "synthetic_margin",
    "synthetic_seed",
)


def _build_config(args: argparse.Namespace) -> RunConfig:
    mapping: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            mapping.update(parse_config_text(handle.read()))
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if "loss" in mapping and isinstance(mapping["loss"], str):
        mapping["loss"] = mapping["loss"].replace("-", "_")
    return config_from_mapping(mapping)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    output = bench.run(config)
    metric = bench.final_metric(output.traces)
    where = f" -> {output.out_dir}" if output.out_dir else ""
    print(f"{config.algo}: final median gradient norm {metric:.6g} "
          f"over {len(config.seeds)} seed(s){where}")
    for seed, result in zip(config.seeds, output.results):
        print(f"  seed {seed}: {result.termination_reason}, "
              f"{result.trace.final().passes:.2f} passes")
    return 0 if output.consistent() else 1


def _cmd_grid(args: argparse.Namespace) -> int:
    config = _build_config(args)
    best_eta, results = bench.grid_search(config)
    for eta in sorted(results):
        entry = results[eta]
        flag = " (diverged)" if any(entry["diverged"]) else ""
        print(f"  eta={eta:g}: final median gradient norm {entry['metric']:.6g}{flag}")
    print(f"best eta: {best_eta:g}")
    return 0


def _cmd_switch_search(args: argparse.Namespace) -> int:
    config = _build_config(args)
    best, results = bench.manual_switch_search(config)
    never = results[None]
    print(f"  never switch: final median loss {never:.6g}")
    for cand in sorted(k for k in results if k is not None):
        print(f"  switch after epoch {cand}: final median loss {results[cand]:.6g}")
    print("best: never switch" if best is None else f"best: switch after epoch {best}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    series: dict[str, tuple] = {}
    labels = args.labels.split(",") if args.labels else None
    for i, source in enumerate(args.inputs):
        path = Path(source)
        with open(path, "r", encoding="utf-8") as handle:
            rows = bench.aggregate_from_csv(handle.read())
        label = labels[i] if labels and i < len(labels) else path.parent.name or path.stem
        xs = [r[0] for r in rows]
        med = [r[3] for r in rows]
        std = [r[4] for r in rows]
        series[label] = (xs, med, std)
    emit_plot(
        series,
        args.out,
        y_cap=args.cap,
        title=args.title,
        log_x=args.log_x,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        mislabel_fraction=args.mislabel,
        margin=args.margin,
        seed=args.seed,
    )
    dataset, _ = gen_separable(spec)
    save_libsvm(dataset, args.out)
    print(f"wrote {args.out} (n={dataset.n}, d={dataset.d})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vrkit",
        description="Finite-sum optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one config over its seeds")
    _add_config_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    grid_p = sub.add_parser("grid", help="step-size grid search")
    _add_config_flags(grid_p)
    grid_p.set_defaults(fn=_cmd_grid)

    switch_p = sub.add_parser("switch-search", help="manual hand-over epoch search")
    _add_config_flags(switch_p)
    switch_p.set_defaults(fn=_cmd_switch_search)

    plot_p = sub.add_parser("plot", help="render aggregate CSVs to SVG")
    plot_p.add_argument("inputs", nargs="+", help="aggregate.csv files")
    plot_p.add_argument("--out", required=True)
    plot_p.add_argument("--labels", help="comma-separated series labels")
    plot_p.add_argument("--title")
    plot_p.add_argument("--cap", type=float, help="clip plotted values at this maximum")
    plot_p.add_argument("--log-x", action="store_true", dest="log_x")
    plot_p.set_defaults(fn=_cmd_plot)

    gen_p = sub.add_parser("gen-data", help="write a synthetic LIBSVM dataset")
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--d", type=int, required=True)
    gen_p.add_argument("--mislabel", type=float, default=0.0)
    gen_p.add_argument("--margin", type=float, default=0.1)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(fn=_cmd_gen_data)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
