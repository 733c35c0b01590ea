import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vrkit import SyntheticSpec, Trace, TraceRow, bench, gen_separable, save_libsvm
from vrkit.bench import (
    RunConfig,
    aggregate,
    aggregate_from_csv,
    aggregate_to_csv,
    config_from_mapping,
    config_keys,
    config_to_text,
    final_metric,
    grid_search,
    parse_config_text,
    run,
)
from vrkit.svgplot import emit_plot

from conftest import FOUR_ROWS, scan_value_at_pass

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATASETS = Path(__file__).resolve().parent.parent / "datasets"


@pytest.fixture(scope="module")
def synthetic_config(tmp_path_factory):
    """Config factory on one small generated LIBSVM file."""
    data = tmp_path_factory.mktemp("data") / "synthetic.libsvm"
    save_libsvm(gen_separable(SyntheticSpec(n=64, d=5, mislabel_fraction=0.1, seed=3))[0], data)

    def make(**overrides) -> RunConfig:
        base = dict(
            dataset=str(data),
            loss="logistic",
            algo="adasvrg",
            batch_size=8,
            epochs=6,
            seeds=(0, 1),
        )
        base.update(overrides)
        return RunConfig(**base)

    return make


class TestConfig:
    def test_parse_flat_text(self):
        text = """
        # comment
        algo = svrg
        batch_size = 16
        epochs = 12
        eta = 0.25
        seeds = 0,2,5
        dataset = data/a.libsvm
        """
        config = config_from_mapping(parse_config_text(text))
        assert config.algo == "svrg"
        assert config.batch_size == 16
        assert config.eta == 0.25
        assert config.seeds == (0, 2, 5)
        assert config.dataset == "data/a.libsvm"

    def test_seed_count_expands(self):
        config = config_from_mapping({"seeds": "5", "dataset": "a.libsvm"})
        assert config.seeds == (0, 1, 2, 3, 4)

    def test_defaults_match_protocol(self, synthetic_config):
        config = synthetic_config()
        assert config.epochs == 6  # overridden; the dataclass default is 50
        assert RunConfig.__dataclass_fields__["epochs"].default == 50
        assert RunConfig.__dataclass_fields__["grid"].default == (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
        assert RunConfig.__dataclass_fields__["batch_size"].default == 64
        assert len(RunConfig.__dataclass_fields__["seeds"].default) == 5

    def test_validation(self, synthetic_config):
        with pytest.raises(ValueError):
            RunConfig(algo="newton", dataset="a.libsvm")
        with pytest.raises(ValueError):
            synthetic_config(seeds=())
        with pytest.raises(ValueError, match="differ in their %g form"):
            synthetic_config(grid=(0.1, 0.10000001))
        # a repeated seed would count one trace file twice in the aggregate
        with pytest.raises(ValueError, match="seeds must differ"):
            synthetic_config(seeds=(0, 0, 1))
        for algo in ("sgd", "svrg", "lsvrg", "sarah", "svrg-bb"):
            with pytest.raises(ValueError, match="variant"):
                RunConfig(algo=algo, variant="diag")

    def test_counts_must_be_integers(self, synthetic_config):
        # an in-memory float epochs or batch_size once ran into a TypeError
        # deep in range or rng.integers; numpy integers run as Python ones do
        for field, value in (("epochs", 2.5), ("epochs", 3.0), ("batch_size", 64.0),
                             ("batch_size", 8.5)):
            with pytest.raises(ValueError,
                               match=re.escape(f"{field} must be an integer, got {value!r}")):
                RunConfig(algo="svrg", eta=0.1, **{field: value})
        problem = bench.resolve_problem(synthetic_config())
        want = bench.execute_seed(problem, RunConfig(algo="svrg", eta=0.1, batch_size=8,
                                                     epochs=4), 0)
        got = bench.execute_seed(problem, RunConfig(algo="svrg", eta=0.1,
                                                    batch_size=np.int64(8),
                                                    epochs=np.int32(4)), 0)
        assert got.trace.to_csv() == want.trace.to_csv()

    def test_execute_seed_runs_a_config_without_dataset(self, synthetic_config):
        problem = bench.resolve_problem(synthetic_config())
        config = RunConfig(algo="svrg", eta=0.1, batch_size=8, epochs=4)
        result = bench.execute_seed(problem, config, 0)
        assert result.counters.full_grad_evals == 1

    @pytest.mark.parametrize("entry", [run, grid_search], ids=["run", "grid_search"])
    def test_run_and_grid_search_need_a_dataset(self, entry):
        with pytest.raises(ValueError, match="config needs a dataset path"):
            entry(RunConfig(algo="svrg", eta=0.1))

    def test_echo_roundtrip(self, synthetic_config):
        every_key = RunConfig(
            dataset="data.libsvm",
            loss="huber", l2=0.01, algo="adagrad", variant="diag", batch_size=16, epochs=9,
            seeds=(2, 7), eta=0.25, grid=(0.1, 1.0), out="results",
        )
        echoed = {line.partition(" = ")[0] for line in config_to_text(every_key).splitlines()}
        assert echoed == set(config_keys())
        # one explicit seed must not read back as a seed count
        for config in (synthetic_config(), every_key,
                       replace(every_key, seeds=(3,), grid=(0.5,))):
            again = config_from_mapping(parse_config_text(config_to_text(config)))
            assert again == config


class TestRun:
    def test_deterministic_outputs(self, tmp_path, synthetic_config):
        config = synthetic_config(seeds=(0,))
        first = run(replace(config, out=str(tmp_path / "a")))
        second = run(replace(config, out=str(tmp_path / "b")))
        for name in ("seed0.trace.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert first.consistent() and second.consistent()

    def test_run_directory_holds_one_trace_per_seed(self, tmp_path, synthetic_config):
        run(synthetic_config(seeds=(0, 3), out=str(tmp_path)))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "aggregate.csv", "config.txt", "seed0.trace.csv", "seed3.trace.csv"]

    @pytest.mark.parametrize("epochs", [0, 1, 50])
    @pytest.mark.parametrize("algo", bench.ALGORITHMS)
    def test_batch_size_above_n_is_rejected(self, synthetic_config, algo, epochs):
        config = synthetic_config(algo=algo, epochs=epochs)
        problem = bench.resolve_problem(config)
        config = replace(config, batch_size=problem.n + 1)
        message = re.escape(f"batch_size must be in [1, {problem.n}]")
        with pytest.raises(ValueError, match=message):
            bench.execute_seed(problem, config, 0)

    def test_zero_budget_initial_row_only(self, synthetic_config):
        config = synthetic_config(epochs=0, seeds=(0,))
        output = run(config)
        trace = output.traces[0]
        assert len(trace.rows) == 1
        assert trace.rows[0].passes == 0.0

    # (per_example_grad_evals, full_grad_evals) at n = 64, b = 8 for budgets
    # of 0, 1, 2 and 4 passes: the loop counts execute_seed derives from the
    # budget, including the outer-loop methods' zero loops below 3 passes and
    # adasvrg-ms's floor of 3 stages
    EPOCHS = (0, 1, 2, 4)
    COUNTS = {
        "sgd": [(0, 0), (64, 0), (128, 0), (256, 0)],
        "adagrad": [(0, 0), (64, 0), (128, 0), (256, 0)],
        "svrg": [(0, 0), (0, 0), (0, 0), (128, 1)],
        "lsvrg": [(0, 0), (32, 1), (80, 1), (160, 1)],
        "sarah": [(0, 0), (0, 0), (0, 0), (112, 1)],
        "svrg-bb": [(0, 0), (0, 0), (0, 0), (128, 1)],
        "adasvrg": [(0, 0), (0, 0), (0, 0), (128, 1)],
        "adasvrg-ms": [(0, 0), (24384, 21), (24384, 21), (24384, 21)],
        "adasvrg-at": [(0, 0), (0, 0), (0, 0), (128, 1)],
        "hybrid": [(0, 0), (64, 0), (128, 0), (384, 2)],
    }

    @pytest.mark.parametrize("epochs", EPOCHS)
    @pytest.mark.parametrize("algo", bench.ALGORITHMS)
    def test_every_algorithm_runs(self, synthetic_config, algo, epochs):
        output = run(synthetic_config(algo=algo, epochs=epochs, seeds=(0,), eta=0.1))
        assert output.consistent()
        assert output.results[0].trace.rows[0].passes == 0.0
        counters = output.results[0].counters
        assert (counters.per_example_grad_evals, counters.full_grad_evals) == \
            self.COUNTS[algo][self.EPOCHS.index(epochs)]


class TestAggregate:
    @staticmethod
    def _trace(values) -> Trace:
        rows = [TraceRow(float(p), float(v), grad_norm=float(v)) for p, v in enumerate(values)]
        return Trace(rows=rows)

    def test_median_definition(self):
        traces = [self._trace([1.0]), self._trace([2.0]), self._trace([100.0])]
        rows = aggregate(traces)
        assert rows[0][1] == 2.0  # objective median
        assert rows[0][3] == 2.0  # grad-norm median

    def test_common_grid_is_shortest_trace(self):
        traces = [self._trace([1, 1, 1, 1]), self._trace([2, 2])]
        rows = aggregate(traces)
        assert [r[0] for r in rows] == [0.0, 1.0]

    @staticmethod
    def _metric(trace, p, attr):
        value = scan_value_at_pass(trace, p, attr)
        return np.inf if value is None or not np.isfinite(value) else float(value)

    @classmethod
    def _reference_csv(cls, traces) -> str:
        """The aggregate as defined: per pass, median and std of each trace's
        latest recorded value, found by a plain scan over the rows, with
        missing or non-finite values as inf."""
        metric = cls._metric
        last = math.floor(min(t.rows[-1].passes for t in traces))
        rows = []
        for p in range(last + 1):
            obj = [metric(t, p, "objective") for t in traces]
            grad = [metric(t, p, "grad_norm") for t in traces]
            rows.append((float(p), float(np.median(obj)), float(np.std(obj)),
                         float(np.median(grad)), float(np.std(grad))))
        return aggregate_to_csv(rows)

    def test_aggregate_matches_a_plain_scan(self):
        # every golden trace alone, and in groups of 2, 5 and 9 (nine seeds
        # take numpy's unrolled summation path in the std)
        traces = [Trace.from_csv(path.read_text(encoding="utf-8"))
                  for path in sorted(GOLDEN_DIR.glob("*.csv"))]
        groups = [traces[i:i + size] for size in (1, 2, 5, 9)
                  for i in range(0, len(traces) - size + 1, size)]
        with np.errstate(invalid="ignore"):
            for group in groups:
                assert aggregate_to_csv(aggregate(group)) == self._reference_csv(group)
                # the final metric reads at the earliest closing row, not on the integer grid
                last = min(t.rows[-1].passes for t in group)
                assert final_metric(group) == float(
                    np.median([self._metric(t, last, "grad_norm") for t in group]))

    def test_csv_roundtrip(self):
        traces = [self._trace([3.0, 1.5]), self._trace([4.0, 2.5])]
        rows = aggregate(traces)
        text = aggregate_to_csv(rows)
        assert aggregate_from_csv(text) == rows

    def test_regeneration_is_byte_identical(self, tmp_path, synthetic_config):
        config = synthetic_config()
        run(replace(config, out=str(tmp_path)))
        paths = sorted(tmp_path.glob("seed*.trace.csv"))
        traces = [Trace.from_csv(path.read_text()) for path in paths]
        assert aggregate_to_csv(aggregate(traces)) == (tmp_path / "aggregate.csv").read_text()


class TestGridSearch:
    def test_singleton_grid_returns_it(self, synthetic_config):
        config = synthetic_config(algo="svrg", seeds=(0,))
        best, results = grid_search(replace(config, grid=(0.25,)))
        assert best == 0.25
        assert set(results) == {0.25}

    def test_quadratic_matches_analytic_contraction(self, tmp_path):
        # one-example squared loss (residual x - 1): per-step factor |1 - eta|,
        # so the best grid point is the closest to 1
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:1\n", encoding="utf-8")
        config = RunConfig(
            dataset=str(data), loss="squared", l2=0.0, algo="svrg",
            batch_size=1, epochs=30, seeds=(0,),
        )
        grid = (0.5, 0.9, 1.5)
        best, results = grid_search(replace(config, grid=grid))
        analytic = min(grid, key=lambda eta: abs(1 - eta))
        assert best == analytic
        metrics = {eta: results[eta]["metric"] for eta in grid}
        assert metrics[0.9] < metrics[0.5] == metrics[1.5]

    def test_superset_grid_never_worse(self, synthetic_config):
        config = synthetic_config(algo="svrg", seeds=(0,))
        small = (0.01, 1.0)
        large = (0.01, 0.1, 1.0, 10.0)
        best_small, res_small = grid_search(replace(config, grid=small))
        best_large, res_large = grid_search(replace(config, grid=large))
        assert res_large[best_large]["metric"] <= res_small[best_small]["metric"]

    def test_all_diverging_grid_still_ordered(self, synthetic_config):
        config = synthetic_config(algo="svrg", seeds=(0,), epochs=9)
        best, results = grid_search(replace(config, grid=(1e4, 1e6)))
        assert best in (1e4, 1e6)
        assert any(any(entry["diverged"]) for entry in results.values())

    def test_all_infinite_grid_picks_smallest_eta(self, tmp_path):
        # every step size overflows at once, so every metric is inf: a tie
        data = tmp_path / "four.libsvm"
        data.write_text(FOUR_ROWS, encoding="utf-8")
        config = RunConfig(dataset=str(data), algo="svrg", batch_size=1, epochs=6, seeds=(0,))
        with np.errstate(all="ignore"):
            best, results = grid_search(replace(config, grid=(1e308, 1e307)))
        assert best == 1e307
        assert all(entry["metric"] == math.inf for entry in results.values())

    def test_ties_break_to_smaller_eta(self, tmp_path):
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:1\n", encoding="utf-8")
        config = RunConfig(
            dataset=str(data), loss="squared", l2=0.0, algo="svrg",
            batch_size=1, epochs=30, seeds=(0,),
        )
        best, _ = grid_search(replace(config, grid=(0.5, 1.5)))  # same |1 - eta|
        assert best == 0.5

    def test_reads_the_dataset_once_and_writes_what_run_writes(self, monkeypatch, tmp_path,
                                                               synthetic_config):
        config = synthetic_config(algo="svrg", grid=(0.1, 1.0))
        loads = []
        load = bench.load_libsvm
        monkeypatch.setattr(bench, "load_libsvm", lambda path: loads.append(path) or load(path))
        _, results = grid_search(replace(config, out=str(tmp_path / "grid")))
        assert loads == [config.dataset]
        for eta in config.grid:
            alone = tmp_path / f"alone_{eta:g}"
            output = run(replace(config, eta=eta, out=str(alone)))
            assert results[eta]["aggregate"] == aggregate(output.traces)
            # config.txt names its own output directory
            for path in [*alone.glob("seed*"), alone / "aggregate.csv"]:
                assert path.read_bytes() == (tmp_path / "grid" / f"eta_{eta:g}" /
                                             path.name).read_bytes()

    def test_closing_row_decides(self):
        # 3 passes of svrg end between integer passes (rows at 0, 1, 2.02 and
        # 2.96), so a read on the integer grid gives both step sizes the
        # pass-1 snapshot row, the norm at w0
        config = RunConfig(dataset=str(DATASETS / "synth_a.libsvm"), algo="svrg",
                           epochs=3, seeds=2, grid=(0.1, 1.0))
        best, results = grid_search(config)
        assert best == 1.0
        assert results[1.0]["metric"] < results[0.1]["metric"]


class TestFinalMetric:
    def test_median_at_last_common_pass(self):
        t1 = Trace(rows=[TraceRow(0.0, 1.0, grad_norm=1.0), TraceRow(2.0, 0.5, grad_norm=0.5)])
        t2 = Trace(rows=[TraceRow(0.0, 1.0, grad_norm=1.0), TraceRow(3.0, 0.1, grad_norm=0.1)])
        t3 = Trace(rows=[TraceRow(0.0, 1.0, grad_norm=1.0), TraceRow(2.5, 0.9, grad_norm=0.9)])
        # last common pass = 2; step values there: 0.5, 1.0, 1.0
        assert final_metric([t1, t2, t3]) == 1.0
        # t4 closes at 2.5, between integer passes: its closing row counts
        t4 = Trace(rows=[TraceRow(0.0, 1.0, grad_norm=1.0), TraceRow(1.0, 0.8, grad_norm=0.8),
                         TraceRow(2.5, 0.2, grad_norm=0.2)])
        # last common pass = 2.5; step values there: 0.2, 1.0, 0.9
        assert final_metric([t4, t2, t3]) == 0.9


class TestSvgPlot:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot({}, tmp_path / "x.svg")

    def test_single_curve_renders_one_polyline(self, tmp_path):
        path = emit_plot(
            {"only": ([0, 1, 2], [1.0, 0.5, 0.25], [0.1, 0.05, 0.02])},
            tmp_path / "one.svg",
        )
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<polygon") == 1  # std band
        assert "#1f77b4" in text

    def test_cap_clips_values(self, tmp_path):
        capped = emit_plot(
            {"s": ([1.0, 2.0], [1e6, 1.0], None)}, tmp_path / "capped.svg", y_cap=10.0,
        ).read_text()
        manual = emit_plot(
            {"s": ([1.0, 2.0], [10.0, 1.0], None)}, tmp_path / "manual.svg",
        ).read_text()
        assert capped == manual

    def test_non_finite_points_dropped(self, tmp_path):
        path = emit_plot(
            {"s": ([0, 1, 2], [1.0, np.inf, 0.5], None)}, tmp_path / "drop.svg",
        )
        assert path.exists()
        with pytest.raises(ValueError):
            emit_plot({"s": ([0.0], [np.inf], None)}, tmp_path / "allbad.svg")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_std_leaves_a_gap_in_the_band(self, tmp_path, bad):
        # aggregate writes an inf std on a pass where one seed diverged
        text = emit_plot(
            {"s": ([0, 1, 2, 3, 4], [1.0, 0.5, 0.4, 0.3, 0.2], [0.1, 0.1, bad, 0.1, 0.1])},
            tmp_path / "gap.svg",
        ).read_text()
        assert text.count("<polyline") == 1
        assert text.count("<polygon") == 2  # the band on each side of the gap
        coords = [float(v) for attr in re.findall(r'points="([^"]*)"', text)
                  for v in re.split(r"[ ,]", attr)]
        coords += [float(v) for v in re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', text)]
        assert coords and all(math.isfinite(v) for v in coords)

    def test_band_is_clipped_to_the_axes_frame(self, tmp_path):
        # the y range comes from the medians, so a std above the median or a
        # wide one put band vertices at y = 6152 and 24.19, outside 40..400
        series = ([0, 1, 2], [1.0, 0.3, 0.2], [0.1, 0.5, 0.05])
        text = emit_plot({"s": series}, tmp_path / "band.svg").read_text()
        frame = re.search(r'<rect x="\d+" y="(\d+)" width="\d+" height="(\d+)" fill="none"',
                          text)
        top, bottom = int(frame[1]), int(frame[1]) + int(frame[2])
        band = re.search(r'<polygon points="([^"]*)"', text)[1]
        ys = [float(vertex.split(",")[1]) for vertex in band.split()]
        assert all(top <= y <= bottom for y in ys)
        assert min(ys) == top and max(ys) == bottom
        # the median line and the ticks are those of the plot without a band
        plain = emit_plot({"s": series[:2] + (None,)}, tmp_path / "plain.svg").read_text()
        assert re.sub(r"<polygon[^>]*>\n", "", text) == plain

    def test_log_x_drops_points_at_or_below_zero(self, tmp_path):
        # aggregate.csv starts at pass 0, which a log axis cannot show
        with_zero = emit_plot({"s": ([0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.25, 0.1], None)},
                              tmp_path / "zero.svg", log_x=True).read_text()
        without = emit_plot({"s": ([1.0, 2.0, 4.0], [0.5, 0.25, 0.1], None)},
                            tmp_path / "pos.svg", log_x=True).read_text()
        assert with_zero == without
        assert "1e-16" not in with_zero
        with pytest.raises(ValueError, match="x > 0"):
            emit_plot({"s": ([0.0, -1.0], [1.0, 0.5], None)}, tmp_path / "none.svg",
                      log_x=True)
