"""Seeded optimizer output, byte for byte against tests/golden/.

The cases and their rendering live in scripts/bless_goldens.py, which also
writes the golden files.  A pure refactor must pass this test unchanged.

Cases on dense rows (every case but the ``sparse-*`` ones) take
BLAS products in the batch and full gradient oracles, and the full-matrix
cases an eigendecomposition, so their last bits depend on the BLAS build;
the ``sparse-*`` cases use the CSR oracle, which sums in scipy's order,
or, at b = 1 with the Euclidean or scalar metric, the optimizers'
just-in-time step on the CSR rows, which runs at b = 1 only.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bless_goldens", ROOT / "scripts" / "bless_goldens.py"
)
bless_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bless_goldens)

CASES = bless_goldens.cases()


def test_golden_files_match_cases():
    expected = {f"{name}{suffix}" for name in CASES for suffix in (".csv", ".json")}
    present = {path.name for path in bless_goldens.GOLDEN_DIR.iterdir()}
    assert present == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    with np.errstate(all="ignore"):
        result = CASES[name]()
    for suffix, text in bless_goldens.render(result).items():
        golden = (bless_goldens.GOLDEN_DIR / f"{name}{suffix}").read_bytes()
        assert text.encode("utf-8") == golden, f"{name}{suffix} differs from its golden file"


def test_compare_names_missing_and_orphan_files(tmp_path, monkeypatch, capsys):
    kept, dropped = "sgd-b1", "svrg-bb-fallback"
    with np.errstate(all="ignore"):
        for suffix, text in bless_goldens.render(CASES[kept]()).items():
            (tmp_path / f"{kept}{suffix}").write_text(text, encoding="utf-8")
    (tmp_path / f"{dropped}.json").write_text("{}\n", encoding="utf-8")
    (tmp_path / "deleted-case.csv").write_text("", encoding="utf-8")
    monkeypatch.setattr(bless_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(bless_goldens, "cases",
                        lambda: {name: CASES[name] for name in (kept, dropped)})
    assert bless_goldens.compare() == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{kept}: identical",
        f"{dropped}: no golden file",
        "deleted-case.csv: no case",
    ]


def test_compare_names_the_floats_that_differ(tmp_path, monkeypatch, capsys):
    name = "sgd-b1"
    with np.errstate(all="ignore"):
        result = CASES[name]()
    row = result.trace.rows[1]
    row.objective = float(np.nextafter(row.objective, np.inf))
    result.final_iterate[0] = np.nextafter(result.final_iterate[0], -np.inf)
    for suffix, text in bless_goldens.render(result).items():
        (tmp_path / f"{name}{suffix}").write_text(text, encoding="utf-8")
    monkeypatch.setattr(bless_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(bless_goldens, "cases", lambda: {name: CASES[name]})
    assert bless_goldens.compare() == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{name}: rows same, passes same, events same, counters same, "
                           "other fields same; max relative deviation ")
    assert line.endswith("; floats differ in: objective, final_iterate")


@pytest.mark.parametrize("argv", [["--comapre"], ["--compare", "--compare"], ["compare"]])
def test_unknown_argument_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    kept = tmp_path / "sgd-b1.csv"
    kept.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr(bless_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(bless_goldens.sys, "argv", ["bless_goldens.py", *argv])
    assert bless_goldens.main() == 2
    assert capsys.readouterr().err == "usage: bless_goldens.py [--compare]\n"
    assert [path.name for path in tmp_path.iterdir()] == [kept.name]
    assert kept.read_text(encoding="utf-8") == "kept\n"
