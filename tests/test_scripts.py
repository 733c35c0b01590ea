"""Smoke tests: both study scripts run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

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
