"""Command-line benchmark driver.

Subcommands:

* ``run``       execute one config over its seeds, persist traces
* ``grid``      step-size grid search for a tuned baseline
* ``plot``      render aggregate files to a self-contained SVG
* ``gen-data``  write a synthetic dataset in LIBSVM format

A run reads its data from one LIBSVM file (the ``dataset`` key); ``gen-data``
writes synthetic ones, with one flag per :class:`SyntheticSpec` field
(``mislabel_fraction`` is ``--mislabel-fraction``).  Every config-file key
is also a flag, and flags override the keys of a ``--config`` file.  A
``ValueError`` (the library's input checks) or ``OSError`` from any command,
such as a batch size above n or a missing dataset file, exits 2 with a
usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import bench
from .bench import RunConfig, config_from_mapping, parse_config_text
from .data import SyntheticSpec, gen_separable, save_libsvm
from .svgplot import emit_plot


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key, kind in bench.config_keys().items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=kind)


def _build_config(args: argparse.Namespace) -> RunConfig:
    mapping: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            mapping.update(parse_config_text(handle.read()))
    for key in bench.config_keys():
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    return config_from_mapping(mapping)


def _cmd_run(config: RunConfig) -> int:
    output = bench.run(config)
    metric = bench.final_metric(output.traces)
    where = f" -> {config.out}" if config.out is not None else ""
    print(f"{config.algo}: final median gradient norm {metric:.6g} "
          f"over {len(config.seeds)} seed(s){where}")
    for seed, result in zip(config.seeds, output.results):
        print(f"  seed {seed}: {result.termination_reason}, "
              f"{result.trace.final().passes:.2f} passes")
    return 0 if output.consistent() else 1


def _cmd_grid(config: RunConfig) -> int:
    best_eta, results = bench.grid_search(config)
    for eta in sorted(results):
        entry = results[eta]
        flag = " (diverged)" if any(entry["diverged"]) else ""
        print(f"  eta={eta:g}: final median gradient norm {entry['metric']:.6g}{flag}")
    print(f"best eta: {best_eta:g}")
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
    spec = SyntheticSpec(**{f.name: getattr(args, f.name)
                            for f in fields(SyntheticSpec) if f.name in args})
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

    for name, fn, text in (
        ("run", _cmd_run, "execute one config over its seeds"),
        ("grid", _cmd_grid, "step-size grid search"),
    ):
        config_p = sub.add_parser(name, help=text)
        _add_config_flags(config_p)
        config_p.set_defaults(fn=fn)

    plot_p = sub.add_parser("plot", help="render aggregate CSVs to SVG")
    plot_p.add_argument("inputs", nargs="+", help="aggregate.csv files")
    plot_p.add_argument("--out", required=True)
    plot_p.add_argument("--labels", help="comma-separated series labels")
    plot_p.add_argument("--title")
    plot_p.add_argument("--cap", type=float, help="clip plotted values at this maximum")
    plot_p.add_argument("--log-x", action="store_true", dest="log_x")
    plot_p.set_defaults(fn=_cmd_plot)

    # one flag per SyntheticSpec field; flags left out keep the field defaults
    gen_p = sub.add_parser("gen-data", help="write a synthetic LIBSVM dataset",
                           argument_default=argparse.SUPPRESS)
    for f in fields(SyntheticSpec):
        gen_p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=bench._SCALARS[f.type], required=f.default is MISSING)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(fn=_cmd_gen_data)

    args = parser.parse_args(argv)
    try:
        # run and grid take a RunConfig; plot and gen-data the arguments
        return args.fn(_build_config(args) if "config" in args else args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
