"""Experiment harness: aggregation, determinism, exchangeability, reports."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sourceset import conformal, experiment
from sourceset.conformal import NominalLevels, calibrate, evaluate_set, predict
from sourceset.diffusion import GenerativeConfig, sample_dataset
from sourceset.estimators import build_estimator
from sourceset.experiment import (
    ExperimentConfig,
    run_experiment,
    sweep,
    write_reports,
)
from sourceset.graph import graph_from_spec
from sourceset.util import substream


def small_config(**overrides):
    gen = GenerativeConfig(source_count=(1, 4), r0=(1.0, 6.0),
                           sigma_rec=(0.1, 0.4), n_snapshots=6)
    values = dict(
        graph_spec="ba:60,3",
        generative=gen,
        alphas=(0.2,),
        betas=(0.3,),
        estimator="oracle:1.0",
        n_cal=60,
        n_test=40,
        n_trials=8,
        seed=42,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_trials=0)
        with pytest.raises(ValueError):
            small_config(alphas=())
        with pytest.raises(ValueError):
            small_config(score_kinds=("pre", "exp"))
        with pytest.raises(ValueError):
            small_config(betas=(1.0,))

    def test_desk_scale_preset(self):
        cfg = ExperimentConfig.desk_scale("ba:200,3", small_config().generative)
        assert (cfg.n_cal, cfg.n_test, cfg.n_trials) == (500, 200, 100)

    def test_full_scale_defaults(self):
        cfg = ExperimentConfig("ba:200,3", small_config().generative)
        assert (cfg.n_cal, cfg.n_test, cfg.n_trials) == (7600, 400, 50)


class TestRunExperiment:
    def test_report_shape_and_ranges(self):
        cfg = small_config(alphas=(0.1, 0.3), betas=(0.3, 0.5), n_trials=4)
        report = run_experiment(cfg)
        assert len(report.cells) == len(cfg.score_kinds) * 4
        for cell in report.cells:
            assert cell.inclusion_rates.shape == (4,)
            assert np.all((cell.inclusion_rates >= 0) & (cell.inclusion_rates <= 1))
            assert np.all(cell.set_sizes >= 0)
            assert math.isfinite(cell.inclusion_stderr)

    def test_uninformative_estimator_keeps_coverage(self):
        cfg = small_config(n_trials=20, alphas=(0.2,), betas=(0.3,))
        report = run_experiment(cfg)
        for cell in report.cells:
            band = 3 * cell.inclusion_stderr
            assert cell.inclusion_mean >= (1 - cell.alpha) - band

    def test_set_size_monotone_in_alpha(self):
        cfg = small_config(alphas=(0.1, 0.5), n_trials=6)
        report = run_experiment(cfg)
        for kind in cfg.score_kinds:
            loose = report.cell(kind, 0.5, 0.3).size_mean
            tight = report.cell(kind, 0.1, 0.3).size_mean
            assert loose <= tight + 1e-12

    def test_single_trial_stderr_sentinel(self):
        report = run_experiment(small_config(n_trials=1))
        for cell in report.cells:
            assert math.isnan(cell.inclusion_stderr)
            assert math.isnan(cell.size_stderr)

    def test_matches_reference_pipeline_per_trial(self):
        """The vectorized trial loop must agree with the public per-sample API."""
        cfg = small_config(n_trials=1, alphas=(0.15,), betas=(0.4,),
                           score_kinds=("rec",))
        report = run_experiment(cfg)

        graph = graph_from_spec(cfg.graph_spec, seed=cfg.graph_seed)
        estimator = build_estimator(cfg.estimator, graph)
        pool = cfg.n_cal + cfg.n_test
        samples = sample_dataset(graph, cfg.generative, pool, cfg.seed,
                                 seed_path=(0, 0))
        probs = [estimator(s, substream(cfg.seed, 2, 0, i))
                 for i, s in enumerate(samples)]
        perm = substream(cfg.seed, 1, 0).permutation(pool)
        levels = NominalLevels(alpha=0.15, beta=0.4)
        cal = [(probs[i], samples[i].sources) for i in perm[:cfg.n_cal]]
        model = calibrate(cal, "rec", levels)
        included = []
        sizes = []
        for i in perm[cfg.n_cal:]:
            pset = predict(model, probs[i])
            metrics = evaluate_set(pset.nodes, samples[i].sources, levels.beta)
            included.append(metrics.included)
            sizes.append(pset.size)
        cell = report.cell("rec", 0.15, 0.4)
        assert cell.inclusion_rates[0] == np.mean(included)
        assert cell.set_sizes[0] == np.mean(sizes)

    @pytest.mark.parametrize("estimator", ["oracle:1.0", "heuristic"])
    def test_cells_independent_of_block_size(self, monkeypatch, estimator):
        """Scoring blocks of 1 row, 7 rows or the default budget give the same
        cells, float for float."""
        cfg = small_config(n_trials=2, alphas=(0.05, 0.2), betas=(0.0, 0.3, 0.7),
                           estimator=estimator)
        graph = graph_from_spec(cfg.graph_spec, seed=cfg.graph_seed)
        estimator_fn = build_estimator(cfg.estimator, graph)
        expected = [experiment._run_trial(graph, cfg, estimator_fn, None, t)
                    for t in range(cfg.n_trials)]
        row_bytes = np.dtype(np.longdouble).itemsize * graph.n_nodes
        for rows in (1, 7):
            monkeypatch.setattr(conformal, "_SCORE_BLOCK_BYTES", rows * row_bytes)
            for t in range(cfg.n_trials):
                assert experiment._run_trial(graph, cfg, estimator_fn, None, t) == expected[t]

    def test_repeated_levels_match_single_level_run(self):
        """A level listed twice names one cell; it equals the run that lists
        it once, float for float, and inclusion stays within [0, 1]."""
        cfg = small_config(n_trials=2, score_kinds=("rec", "rec"), alphas=(0.1, 0.1),
                           betas=(0.3, 0.3))
        single = run_experiment(replace(cfg, score_kinds=("rec",), alphas=(0.1,),
                                        betas=(0.3,)))
        repeated = run_experiment(cfg)
        want = single.cell("rec", 0.1, 0.3)
        for cell in repeated.cells:
            assert np.array_equal(cell.inclusion_rates, want.inclusion_rates)
            assert np.array_equal(cell.set_sizes, want.set_sizes)
            assert np.all(cell.inclusion_rates <= 1.0)

    def test_exchangeability_a_a_comparison(self):
        """Two different master seeds are an A/A pair: inclusion counts agree
        within a 3-sigma two-sample proportion band."""
        cfg_a = small_config(seed=101, n_trials=12)
        cfg_b = small_config(seed=202, n_trials=12)
        rep_a = run_experiment(cfg_a)
        rep_b = run_experiment(cfg_b)
        cell_a = rep_a.cells[0]
        cell_b = rep_b.cells[0]
        n = cfg_a.n_test * cfg_a.n_trials
        p_a = cell_a.inclusion_mean
        p_b = cell_b.inclusion_mean
        pooled = (p_a + p_b) / 2
        z_denom = math.sqrt(max(pooled * (1 - pooled) * 2 / n, 1e-12))
        assert abs(p_a - p_b) / z_denom <= 3.0


class TestSweep:
    def test_single_value_axis_matches_run_experiment(self):
        cfg = small_config(n_trials=3)
        [(value, report)] = sweep(cfg, "beta", [0.3])
        base = run_experiment(replace(cfg, betas=(0.3,)))
        assert value == 0.3
        for a, b in zip(report.cells, base.cells):
            assert np.array_equal(a.inclusion_rates, b.inclusion_rates)

    def test_beta_sweep_gives_one_report_per_value(self):
        cfg = small_config(n_trials=2)
        reports = sweep(cfg, "beta", [0.1, 0.5, 0.7])
        assert [v for v, _ in reports] == [0.1, 0.5, 0.7]
        for value, report in reports:
            assert {c.beta for c in report.cells} == {value}

    @pytest.mark.parametrize("axis", ["alpha", "beta"])
    def test_level_sweep_reports_byte_identical_to_per_value_runs(self, axis, tmp_path,
                                                                   monkeypatch):
        """A level sweep runs once, yet each report is the per-value run's."""
        cfg = small_config(n_trials=3)
        values = [0.1, 0.5, 0.3, 0.5] if axis == "beta" else [0.3, 0.1, 0.3]
        runs = []

        def counted(run_cfg):
            runs.append(run_cfg)
            return run_experiment(run_cfg)

        monkeypatch.setattr(experiment, "run_experiment", counted)
        reports = sweep(cfg, axis, values)
        assert len(runs) == 1
        assert [v for v, _ in reports] == values
        for k, (value, report) in enumerate(reports):
            base = run_experiment(replace(cfg, **{f"{axis}s": (value,)}))
            write_reports(report, tmp_path / f"t{k}.csv", tmp_path / f"s{k}.csv")
            write_reports(base, tmp_path / f"t{k}_base.csv", tmp_path / f"s{k}_base.csv")
            for name in (f"t{k}", f"s{k}"):
                assert ((tmp_path / f"{name}.csv").read_bytes()
                        == (tmp_path / f"{name}_base.csv").read_bytes())

    def test_r0_range_sweep(self):
        cfg = small_config(n_trials=2, graph_spec="complete:40")
        reports = sweep(cfg, "r0", [(1.0, 6.0), (8.0, 12.0)])
        assert len(reports) == 2

    def test_unknown_axis_and_empty_values(self):
        cfg = small_config(n_trials=2)
        with pytest.raises(ValueError):
            sweep(cfg, "gamma", [1])
        with pytest.raises(ValueError):
            sweep(cfg, "beta", [])


class TestReports:
    def test_csv_layout(self, tmp_path):
        cfg = small_config(n_trials=3)
        report = run_experiment(cfg)
        trials, summary = tmp_path / "trials.csv", tmp_path / "summary.csv"
        write_reports(report, trials, summary)
        t_lines = trials.read_text().splitlines()
        assert t_lines[0].startswith("# tool=sourceset")
        assert t_lines[1] == "score,alpha,beta,trial,inclusion_rate,mean_set_size,runtime_s"
        assert len(t_lines) == 2 + len(report.cells) * cfg.n_trials
        s_lines = summary.read_text().splitlines()
        assert s_lines[1].startswith("score,alpha,beta,n_trials,")
        assert len(s_lines) == 2 + len(report.cells)

    def test_reports_reproducible_byte_identical(self, tmp_path):
        cfg = small_config(n_trials=4)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        for tag, rep in (("a", r1), ("b", r2)):
            write_reports(rep, tmp_path / f"t_{tag}.csv", tmp_path / f"s_{tag}.csv")
        assert (tmp_path / "t_a.csv").read_bytes() == (tmp_path / "t_b.csv").read_bytes()
        assert (tmp_path / "s_a.csv").read_bytes() == (tmp_path / "s_b.csv").read_bytes()

    def test_timing_column_optional(self, tmp_path):
        cfg = small_config(n_trials=2)
        report = run_experiment(cfg)
        write_reports(report, tmp_path / "t.csv", tmp_path / "s.csv",
                      include_timing=True)
        rows = (tmp_path / "t.csv").read_text().splitlines()[2:]
        assert all(row.rsplit(",", 1)[1] != "" for row in rows)

    def test_stderr_sentinel_written_as_na(self, tmp_path):
        report = run_experiment(small_config(n_trials=1))
        write_reports(report, tmp_path / "t.csv", tmp_path / "s.csv")
        body = (tmp_path / "s.csv").read_text()
        assert ",NA," in body
