"""Smoke tests: both study scripts run end to end at a tiny size.  Also
the tolerance fraction that ``scripts/bless_goldens.py --compare`` prints."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_interpolation_study(tmp_path):
    _run_script("interpolation_study.py", "--n", "200", "--d", "8", "--epochs", "3",
                "--seeds", "1", "--out", str(tmp_path))
    for mislabel in ("0", "0.1", "0.2"):
        assert (tmp_path / f"mislabel_{mislabel}.svg").is_file()
        assert (tmp_path / f"mislabel_{mislabel}" / "data.libsvm").is_file()
        for algo in ("adagrad", "adasvrg", "hybrid"):
            assert (tmp_path / f"mislabel_{mislabel}" / algo / "aggregate.csv").is_file()


def test_robustness_study(tmp_path):
    _run_script("robustness_study.py", "--datasets", str(ROOT / "datasets" / "synth_a.libsvm"),
                "--epochs", "2", "--seeds", "1", "--out", str(tmp_path))
    for figure in ("comparison", "sensitivity"):
        assert (tmp_path / f"synth_a_{figure}.svg").is_file()
    for algo in ("adasvrg", "adasvrg-at"):
        assert (tmp_path / "synth_a" / algo / "aggregate.csv").is_file()


def test_compare_prints_the_fraction_of_64_T_eps(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bless_goldens",
                                                  ROOT / "scripts" / "bless_goldens.py")
    bless = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bless)
    name = "sarah-inner5"
    case = bless.cases()[name]
    result = case()
    # T counts the full gradients at n each, not only the per-example work
    work = 48 + 64 * 3
    assert (result.counters.per_example_grad_evals, result.counters.full_grad_evals,
            case.problem().n) == (48, 3, 64)
    row = result.trace.rows[1]
    new = row.objective
    row.objective = new + 1e-12 * (1.0 + abs(new))
    result.final_iterate[0] = np.nextafter(result.final_iterate[0], np.inf)
    for suffix, text in bless.render(result).items():
        (tmp_path / f"{name}{suffix}").write_text(text, encoding="utf-8")
    monkeypatch.setattr(bless, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(bless, "cases", lambda: {name: case})
    assert bless.compare() == 1
    (line,) = capsys.readouterr().out.splitlines()
    fraction = abs(row.objective - new) / (1.0 + abs(new)) / (64 * work * np.finfo(float).eps)
    assert 0.1 < fraction < 1.0
    assert f"({fraction:.2g} of 64 T eps, T = {work}); " in line


def test_ab_on_two_copies_of_one_tree(tmp_path, monkeypatch, capsys):
    # scripts/ab.py at one round on two configs: both copies write the same
    # traces and reach the same median final objective, and the table has a
    # row per config plus the overall row
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src" / "vrkit", tmp_path / side / "src" / "vrkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    table = ab.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                     "--workload", "protocol_dense", "--configs", "1", "--rounds", "1"])
    assert list(table["rows"]) == ["protocol_dense/synth_a/sgd", "protocol_dense/synth_b/sgd",
                                   "protocol_dense/overall"]
    for row in table["rows"].values():
        assert row["identical"] and row["won"] in (0, 1)
        assert row["parent_ms"] > 0 and row["change_ms"] > 0
        assert row["ratio_q1"] == row["ratio"] == row["ratio_q3"]
        assert math.isfinite(row["parent_objective"])
        assert row["parent_objective"] == row["change_objective"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[0].startswith("config")
    assert [line.split()[0] for line in lines[1:4]] == list(table["rows"])
    assert json.loads(lines[-1]) == table
