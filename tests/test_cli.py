import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from vrkit import load_libsvm
from vrkit.cli import main

from conftest import FOUR_ROWS

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


class TestGenData:
    def test_writes_parseable_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth.libsvm"
        code = main([
            "gen-data", "--n", "50", "--d", "6", "--mislabel-fraction", "0.1",
            "--margin", "0.2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        dataset = load_libsvm(out)
        assert dataset.n == 50 and dataset.d == 6
        assert set(np.unique(dataset.labels)) <= {-1.0, 1.0}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.libsvm", tmp_path / "b.libsvm"
        for out in (a, b):
            main(["gen-data", "--n", "30", "--d", "4", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestRunCommand:
    def test_run_with_flags(self, tmp_path, capsys):
        data = tmp_path / "data.libsvm"
        main(["gen-data", "--n", "64", "--d", "5", "--mislabel-fraction", "0.1",
              "--seed", "0", "--out", str(data)])
        out = tmp_path / "results"
        code = main([
            "run", "--dataset", str(data), "--loss", "logistic",
            "--algo", "adasvrg", "--batch-size", "8", "--epochs", "6",
            "--seeds", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "seed0.trace.csv").exists()
        assert (out / "seed1.trace.csv").exists()
        captured = capsys.readouterr()
        assert "final median gradient norm" in captured.out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = tmp_path / "data.libsvm"
        main(["gen-data", "--n", "64", "--d", "5", "--seed", "1", "--out", str(data)])
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"dataset = {data}\nalgo = svrg\neta = 0.5\nbatch_size = 8\n"
            f"epochs = 6\nseeds = 1\n",
            encoding="utf-8",
        )
        code = main(["run", "--config", str(cfg), "--algo", "sgd", "--epochs", "3"])
        assert code == 0
        assert "sgd" in capsys.readouterr().out


class TestBadConfigValue:
    @pytest.mark.parametrize("flag, value", [("--algo", "newton"), ("--loss", "nope")])
    def test_exits_with_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "data.libsvm", flag, value])
        assert exc.value.code == 2
        assert value in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shown", [
        (["run", "--algo", "svrg", "--eta", "-1"], "-1.0"),
        (["grid", "--grid=-0.1,0.1"], "-0.1"),
        (["grid", "--grid", ","], "empty step-size grid"),
        (["run", "--batch-size", "0"], "batch_size"),
        (["run", "--l2", "-1"], "l2"),
        (["run", "--l2", "inf"], "l2"),
        # settings the harness leaves at the library defaults have no flag
        (["run", "--algo", "svrg", "--eta", "0.1", "--jobs", "2"], "--jobs"),
        (["run", "--algo", "adasvrg-at", "--theta", "0.5"], "unrecognized arguments: --theta"),
        (["run", "--algo", "adasvrg-ms", "--epsilon", "0.01"],
         "unrecognized arguments: --epsilon"),
        (["run", "--algo", "lsvrg", "--eta", "0.1", "--p", "0.5"], "unrecognized arguments: --p"),
        (["run", "--loss", "huber", "--huber-delta", "1"],
         "unrecognized arguments: --huber-delta"),
        (["run", "--delta", "1e-8"], "unrecognized arguments: --delta"),
        (["run", "--snapshot", "last"], "unrecognized arguments: --snapshot"),
        (["switch-search"], "invalid choice"),
        # a method without a metric would ignore the variant
        (["run", "--algo", "svrg", "--variant", "full", "--eta", "0.1"], "variant"),
    ], ids=["run-eta", "grid-grid", "grid-empty", "run-batch-size", "run-l2", "run-l2-inf",
            "run-no-jobs", "run-theta", "run-epsilon", "run-p", "run-huber-delta", "run-delta",
            "run-snapshot", "switch-search", "run-variant-without-metric"])
    def test_bad_step_size_or_theta_exits_with_usage_error(self, argv, shown, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--dataset", "data.libsvm"])
        assert exc.value.code == 2
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize("flags, shown", [
        (["--batch-size", "5000"], "batch_size must be in [1, 1500]"),
        (["--dataset", "missing.libsvm"], "missing.libsvm"),
    ], ids=["batch-size-above-n", "missing-dataset"])
    def test_value_only_the_data_exposes_exits_with_usage_error(self, command, flags, shown,
                                                               capsys):
        # the config is valid; the library's checks raise once the data is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(DATASETS / "synth_a.libsvm"), "--algo", "svrg",
                  "--eta", "0.1", "--epochs", "1", "--seeds", "1", *flags])
        assert exc.value.code == 2
        assert shown in capsys.readouterr().err

    def test_feature_index_beyond_int32_exits_with_usage_error(self, tmp_path, capsys):
        # it used to escape as an OverflowError traceback with exit 1
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 1:1\n-1 3000000000:1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", str(data), "--algo", "svrg", "--eta", "0.1",
                  "--epochs", "1", "--seeds", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "line 2: feature index 3000000000 does not fit" in capsys.readouterr().err

    @pytest.mark.parametrize("algo_flags", [
        ["--algo", "adasvrg", "--batch-size", "1"],
        ["--algo", "svrg", "--eta", "0.1"],
    ], ids=["adasvrg", "svrg"])
    def test_dataset_without_features_exits_with_usage_error(self, algo_flags, tmp_path,
                                                             capsys):
        # a file of labels only parses to d = 0, which Dataset rejects
        data = tmp_path / "labels.libsvm"
        data.write_text("+1\n-1\n+1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", str(data), *algo_flags, "--epochs", "3",
                  "--seeds", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "dataset has no features" in capsys.readouterr().err

    def test_missing_dataset_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "svrg", "--eta", "0.1"])
        assert exc.value.code == 2
        assert "config needs a dataset path" in capsys.readouterr().err

    def test_grid_values_that_print_alike_exit_with_usage_error(self, tmp_path, capsys):
        # 0.1 and 0.10000001 both print eta=0.1 and write out/eta_0.1, the
        # second run overwriting the first
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--dataset", str(DATASETS / "synth_a.libsvm"), "--algo", "svrg",
                  "--epochs", "1", "--seeds", "1", "--grid", "0.1,0.10000001,0.1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "differ in their %g form" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_exits_with_usage_error(self, tmp_path, capsys):
        # a repeated seed would write one seed0.trace.csv and count it twice
        # in the printed median
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", str(DATASETS / "synth_a.libsvm"), "--algo", "svrg",
                  "--eta", "0.1", "--epochs", "3", "--seeds", "0,0,1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "seeds must differ" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthetic_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("synthetic_n = 64\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config key 'synthetic_n'" in capsys.readouterr().err

    def test_synthetic_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "data.libsvm", "--synthetic-n", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --synthetic-n" in capsys.readouterr().err

    def test_gen_data_requires_n(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--d", "3", "--out", str(tmp_path / "x.libsvm")])
        assert exc.value.code == 2
        assert "required: --n" in capsys.readouterr().err

    def test_bad_synthetic_spec_exits_with_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--n", "1", "--d", "3", "--out", str(tmp_path / "x.libsvm")])
        assert exc.value.code == 2
        assert "n must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["nan", "inf", "50"])
    def test_unreachable_margin_exits_with_usage_error(self, margin, tmp_path, capsys):
        # such a margin used to spin gen_separable's rejection loop forever
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--n", "10", "--d", "3", "--margin", margin,
                  "--out", str(tmp_path / "x.libsvm")])
        assert exc.value.code == 2
        assert "margin" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "x.libsvm").exists()


class TestRunExitCode:
    def test_flagged_divergence_still_exits_zero(self, tmp_path, capsys):
        # a run that blows up is recorded as diverged, which is a consistent
        # (flagged) outcome, so the command succeeds
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:1\n", encoding="utf-8")
        code = main([
            "run", "--dataset", str(data), "--loss", "squared", "--l2", "0.0",
            "--algo", "svrg", "--eta", "1000.0", "--batch-size", "1",
            "--epochs", "30", "--seeds", "1",
        ])
        assert code == 0
        assert "diverged" in capsys.readouterr().out


class TestGridCommand:
    def test_prints_best(self, tmp_path, capsys):
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:1\n", encoding="utf-8")
        code = main([
            "grid", "--dataset", str(data), "--loss", "squared", "--l2", "0.0",
            "--algo", "svrg", "--batch-size", "1", "--epochs", "15", "--seeds", "1",
        ])
        assert code == 0
        assert "best eta" in capsys.readouterr().out

    def test_all_diverging_grid_prints_its_step_size(self, tmp_path, capsys):
        # divergence is recorded in the traces: no numpy warning, and an
        # inf spread rather than nan in the aggregate
        data = tmp_path / "four.libsvm"
        data.write_text(FOUR_ROWS, encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "grid", "--dataset", str(data), "--algo", "svrg", "--grid", "1e308",
                "--batch-size", "1", "--epochs", "6", "--seeds", "2", "--out", str(out),
            ])
        assert code == 0
        assert "best eta: 1e+308" in capsys.readouterr().out
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        aggregate = (out / "eta_1e+308" / "aggregate.csv").read_text()
        assert "inf" in aggregate and "nan" not in aggregate


class TestPlotCommand:
    def test_renders_aggregates(self, tmp_path, capsys):
        data = tmp_path / "data.libsvm"
        main(["gen-data", "--n", "64", "--d", "5", "--seed", "2", "--out", str(data)])
        out = tmp_path / "res"
        main(["run", "--dataset", str(data), "--algo", "adasvrg", "--batch-size",
              "8", "--epochs", "5", "--seeds", "1", "--out", str(out)])
        svg = tmp_path / "fig.svg"
        code = main(["plot", str(out / "aggregate.csv"), "--out", str(svg),
                     "--labels", "adaptive", "--title", "demo"])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_trace_csv_input_exits_with_usage_error(self, tmp_path, capsys):
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:1\n", encoding="utf-8")
        out = tmp_path / "res"
        main(["run", "--dataset", str(data), "--algo", "adasvrg", "--batch-size", "1",
              "--epochs", "3", "--seeds", "1", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(out / "seed0.trace.csv"), "--out", str(tmp_path / "fig.svg")])
        assert exc.value.code == 2
        assert "aggregate CSV header" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_missing_input_exits_with_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "fig.svg")])
        assert exc.value.code == 2
        assert "missing.csv" in capsys.readouterr().err

