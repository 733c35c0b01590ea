#!/usr/bin/env python3
"""In-process A/B timing of two vrkit source trees on the benchmark's configs.

Usage (from the repository root):

    python3 scripts/ab.py --parent PARENT_ROOT --change CHANGE_ROOT [--rounds 20]
    python3 scripts/ab.py --parent ROOT --rounds 20    # A/A: one tree against itself

Each root holds ``src/vrkit``.  The two packages are imported in this one
process under distinct names, and each builds the workloads of
``perfbench/workloads.py`` (this checkout's) with its own ``RunConfig`` and
``Problem``.  Every round runs each config once per side through
``bench.execute_seed``, the side that goes first alternating by round, on
that round's optimizer seeds, and compares the two traces' CSV and JSON lines
by bytes.  Times are CPU seconds of this process.  Per config, and per
workload over the sum of its configs, it prints each side's median ms per
pass, the median change/parent ratio, its quartiles, the rounds the change
won, each side's median final objective (the closing trace row's, over all
of its runs), and whether every trace was identical; the last line is the
same table as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(name: str, root: Path):
    """Import ``root/src/vrkit`` as package ``name`` and, with ``vrkit``
    bound to it for the import, ``perfbench/workloads.py`` as ``name``_workloads."""
    spec = importlib.util.spec_from_file_location(
        name, root / "src" / "vrkit" / "__init__.py",
        submodule_search_locations=[str(root / "src" / "vrkit")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    aliases = {"vrkit": package, "vrkit.bench": importlib.import_module(f"{name}.bench"),
               "vrkit.problems": package.problems}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return package, workloads


def summary(ms: dict, objectives: dict, identical: bool) -> dict:
    """One table row from each side's ms per pass, round by round, and its
    runs' final objectives."""
    ratios = [c / p for p, c in zip(ms["parent"], ms["change"])]
    q1, ratio, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {"parent_ms": statistics.median(ms["parent"]),
            "change_ms": statistics.median(ms["change"]),
            "ratio": ratio, "ratio_q1": q1, "ratio_q3": q3,
            "won": sum(c < p for p, c in zip(ms["parent"], ms["change"])),
            "parent_objective": statistics.median(objectives["parent"]),
            "change_objective": statistics.median(objectives["change"]),
            "identical": identical}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, help="default: --parent again (A/A)")
    parser.add_argument("--workload", nargs="+",
                        default=["protocol_dense", "sparse_b1", "fullmatrix_dense"])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--configs", type=int, help="only the first N configs of each input")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change or args.parent}
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads.py imports speed.py
    loaded = {side: load_side(f"ab_{side}_vrkit", root) for side, root in sides.items()}

    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            built = {side: workloads.WORKLOADS[name](args.seed, ROOT, Path(tmp))
                     for side, (_, workloads) in loaded.items()}
            seeds = built["parent"].sweep_seeds(args.seed, args.rounds)
            work = {side: [[0.0, 0.0] for _ in range(args.rounds)] for side in sides}
            finals = {side: [] for side in sides}
            index, same = 0, True
            for inputs in zip(*(w.inputs for w in built.values())):
                problems = {side: inp.setup() for side, inp in zip(sides, inputs)}
                configs = list(zip(*(inp.configs for inp in inputs)))
                for column, pair in enumerate(configs[:args.configs], start=index):
                    ms = {side: [] for side in sides}
                    objectives = {side: [] for side in sides}
                    identical = True
                    for r in range(args.rounds):
                        order = list(zip(sides, pair))
                        traces = {}
                        for side, config in order if r % 2 == 0 else order[::-1]:
                            bench = loaded[side][0].bench
                            start = time.process_time()
                            results = [bench.execute_seed(problems[side], config, seed)
                                       for seed in seeds[r][column]]
                            cpu = time.process_time() - start
                            passes = sum(result.counters.effective_passes(problems[side].n)
                                         for result in results)
                            ms[side].append(1e3 * cpu / passes)
                            work[side][r][0] += cpu
                            work[side][r][1] += passes
                            traces[side] = [(result.trace.to_csv(), result.trace.to_jsonl())
                                            for result in results]
                            objectives[side] += [result.trace.final().objective
                                                 for result in results]
                        identical &= traces["parent"] == traces["change"]
                    rows[f"{name}/{inputs[0].label}/{pair[0].algo}"] = summary(
                        ms, objectives, identical)
                    for side in sides:
                        finals[side] += objectives[side]
                    same &= identical
                index += len(configs)
            rows[f"{name}/overall"] = summary(
                {side: [1e3 * cpu / passes for cpu, passes in work[side]] for side in sides},
                finals, same)
    table = {"rounds": args.rounds, "rows": rows}
    print(f"{'config':44s} {'parent':>8s} {'change':>8s} {'ratio':>6s} {'q1':>6s} {'q3':>6s} "
          f"{'won':>7s} {'parent f':>12s} {'change f':>12s} traces")
    for key, row in rows.items():
        print(f"{key:44s} {row['parent_ms']:8.4f} {row['change_ms']:8.4f} {row['ratio']:6.3f} "
              f"{row['ratio_q1']:6.3f} {row['ratio_q3']:6.3f} {row['won']:3d}/{args.rounds:<3d} "
              f"{row['parent_objective']:12.6e} {row['change_objective']:12.6e} "
              f"{'identical' if row['identical'] else 'DIFFER'}")
    print(json.dumps(table))
    return table


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    main()
