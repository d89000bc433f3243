"""CLI pipelines, exit codes, and byte-level reproducibility."""

import json

import numpy as np
import pytest

from sourceset import cli as cli_module
from sourceset import conformal
from sourceset.cli import main
from sourceset.conformal import NominalLevels, calibrate, evaluate_set
from sourceset.conformal import predict as conformal_predict
from sourceset.diffusion import load_dataset
from sourceset.estimators import build_estimator, save_prob_vectors
from sourceset.graph import graph_from_spec
from sourceset.util import read_jsonl, substream, write_jsonl_header


def run(*argv):
    return main(list(argv))


def simulate_args(out, seed=7, samples=10):
    return ("simulate", "--graph", "complete:20", "--sigma-inf", "0.25",
            "--sigma-rec", "0", "--sources", "1", "--samples", str(samples),
            "--snapshots", "4", "--seed", str(seed), "--out", str(out))


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_validation_error(self):
        assert run("simulate", "--frobnicate") == 1

    def test_unknown_command_is_validation_error(self):
        assert run("transmogrify") == 1

    def test_missing_file_is_validation_error(self, tmp_path):
        assert run("calibrate", "--data", str(tmp_path / "nope.jsonl"),
                   "--score", "rec", "--alpha", "0.1",
                   "--out", str(tmp_path / "m.json")) == 1

    def test_conflicting_rates_rejected(self, tmp_path):
        code = run("simulate", "--graph", "complete:5", "--sigma-inf", "0.2",
                   "--r0", "3", "--sources", "1", "--samples", "1",
                   "--seed", "1", "--out", str(tmp_path / "d.jsonl"))
        assert code == 1

    def test_r0_range_too_fast_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run("simulate", "--graph", "ba:200,3", "--r0", "1,40",
                   "--sigma-rec", "0.1,0.4", "--sources", "1", "--samples", "50",
                   "--seed", "1", "--out", str(out)) == 1
        assert "sigma_inf = 1.4" in capsys.readouterr().err
        assert not out.exists()

    def test_r0_on_graph_without_edges_is_validation_error(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("# nodes: 5\n")
        out = tmp_path / "d.jsonl"
        assert run("simulate", "--graph", f"file:{edges}", "--r0", "2",
                   "--sigma-rec", "0.2", "--sources", "1", "--samples", "3",
                   "--seed", "1", "--out", str(out)) == 1
        assert "requires a positive spectral radius" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["alpha", "beta"])
    def test_range_on_level_axis_is_validation_error(self, tmp_path, capsys, axis):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph_spec": "complete:5", "generative": {}}))
        assert run("sweep", "--config", str(cfg), "--axis", axis,
                   "--values", "0.1:0.2", "--out-dir", str(tmp_path / "o")) == 1
        assert f"--axis {axis} takes no LO:HI range, got '0.1:0.2'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("axis, token, expected", [
        ("r0", "1:2:3", "expected VALUE or LO:HI"),
        ("n_sources", "1:2:3", "expected VALUE or LO:HI"),
        ("r0", "x", "expected a number"),
        ("r0", "2:x", "expected a number"),
        ("alpha", "x", "expected a number"),
        ("n_sources", "1.5", "expected an integer"),
        ("n_sources", "", "expected an integer")])
    def test_bad_sweep_value_names_option_axis_and_token(self, tmp_path, capsys,
                                                         axis, token, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph_spec": "complete:5", "generative": {}}))
        out = tmp_path / "o"
        assert run("sweep", "--config", str(cfg), "--axis", axis,
                   "--values", f"2,{token}", "--out-dir", str(out)) == 1
        assert f"--values: bad {axis} value {token!r} ({expected})" in \
            capsys.readouterr().err
        assert not any(out.iterdir())

    def test_non_finite_probability_file_is_validation_error(self, tmp_path):
        data = tmp_path / "d.jsonl"
        probs = tmp_path / "probs.txt"
        model = tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        row = " ".join(["0.5"] * 19 + ["nan"])
        probs.write_text("# prob-vectors n_nodes=20\n"
                         + "".join(f"{i} {row}\n" for i in range(3)))
        assert run("calibrate", "--data", str(data), "--score", "min",
                   "--alpha", "0.5", "--estimator", f"file:{probs}",
                   "--out", str(model)) == 1
        assert not model.exists()

    @pytest.mark.parametrize("header, message", [
        ("", "line 1: expected 12 entries, got 15"),
        ("# prob-vectors n_nodes=15\n", "n_nodes=15 but the graph has 12 nodes")])
    def test_probability_rows_sized_for_another_graph_are_validation_error(
            self, tmp_path, capsys, header, message):
        data = tmp_path / "d.jsonl"
        probs = tmp_path / "probs.txt"
        model = tmp_path / "m.json"
        assert run("simulate", "--graph", "complete:12", "--sigma-inf", "0.2",
                   "--sources", "1,3", "--samples", "5", "--snapshots", "4",
                   "--seed", "1", "--out", str(data)) == 0
        row = " ".join(["0.5"] * 15)
        probs.write_text(header + "".join(f"{i} {row}\n" for i in range(5)))
        capsys.readouterr()
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.5", "--estimator", f"file:{probs}",
                   "--out", str(model)) == 1
        err = capsys.readouterr().err
        assert f"{probs}: " in err and message in err
        assert not model.exists()

    @pytest.mark.parametrize("override, field", [
        ({"--t-first": "0", "--snapshots": "1"}, "t_first"),
        ({"--t-first": "-2", "--snapshots": "1"}, "t_first"),
        ({"--sources": "0"}, "source_count"),
        ({"--sources": "0,3"}, "source_count"),
        ({"--samples": "0", "--snapshots": "0"}, "n_snapshots"),
        ({"--stride": "0"}, "stride"),
        ({"--horizon": "0"}, "horizon")])
    def test_window_or_source_count_without_valid_sample_is_validation_error(
            self, tmp_path, capsys, override, field):
        out = tmp_path / "d.jsonl"
        options = {"--graph": "complete:12", "--sigma-inf": "0.3", "--sigma-rec": "0.1",
                   "--seed": "1", "--samples": "5", "--out": str(out), **override}
        assert run("simulate", *(t for kv in options.items() for t in kv)) == 1
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples, seed", [(0, 1), (2, 3), (40, 1)])
    def test_window_past_horizon_from_a_reachable_start_refused(self, tmp_path, capsys,
                                                                 samples, seed):
        # a single source starts at 2, so 16 snapshots end at 17
        out = tmp_path / "d.jsonl"
        assert run("simulate", "--graph", "complete:12", "--sigma-inf", "0.2",
                   "--sigma-rec", "0.1", "--sources", "1,4", "--horizon", "16",
                   "--samples", str(samples), "--seed", str(seed),
                   "--out", str(out)) == 1
        assert "window ends at 17 but horizon is 16" in capsys.readouterr().err
        assert not out.exists()

    def test_window_fitting_every_reachable_start_accepted(self, tmp_path):
        # SI with two or more sources can only start at 1
        assert run("simulate", "--graph", "complete:12", "--sigma-inf", "0.2",
                   "--sigma-rec", "0", "--sources", "2,4", "--horizon", "16",
                   "--samples", "40", "--seed", "1",
                   "--out", str(tmp_path / "d.jsonl")) == 0

    @pytest.mark.parametrize("option, token, message", [
        ("--t-first", "2.5", "'2.5' is not an integer"),
        ("--sources", "1,x", "'x' is not an integer"),
        ("--sources", "2.0", "'2.0' is not an integer"),
        ("--sigma-rec", "0.1,y", "'y' is not a number"),
        ("--sigma-inf", "0.1,0.2,0.3", "expected VALUE or LO,HI, got '0.1,0.2,0.3'")])
    def test_bad_simulate_token_names_its_option(self, tmp_path, capsys, option, token,
                                                 message):
        options = {"--graph": "complete:12", "--sigma-inf": "0.2", "--seed": "1",
                   "--samples": "2", "--out": str(tmp_path / "d.jsonl"), option: token}
        assert run("simulate", *(t for kv in options.items() for t in kv)) == 1
        assert capsys.readouterr().err == \
            f"error: Invalid value for {option}: {message}\n"

    @pytest.mark.parametrize("command, target, line, message", [
        ("calibrate", "data", "[1, 2]", "record is not a JSON object"),
        ("predict", "model", '"x"', "record is not a JSON object"),
        ("evaluate", "sets", "7", "record is not a JSON object"),
        ("calibrate", "data", "{oops", "Expecting property name")])
    def test_bad_json_line_names_file_and_line(self, tmp_path, capsys, command, target,
                                               line, message):
        paths = {name: tmp_path / name for name in ("data", "model", "sets")}
        assert run(*simulate_args(paths["data"], samples=5)) == 0
        assert run("calibrate", "--data", str(paths["data"]), "--score", "rec",
                   "--alpha", "0.2", "--out", str(paths["model"])) == 0
        assert run("predict", "--model", str(paths["model"]), "--data",
                   str(paths["data"]), "--out", str(paths["sets"])) == 0
        path = paths[target]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lineno = len(path.read_text().splitlines())
        argv = {
            "calibrate": ("--data", paths["data"], "--score", "rec", "--alpha", "0.2"),
            "predict": ("--model", paths["model"], "--data", paths["data"]),
            "evaluate": ("--sets", paths["sets"], "--data", paths["data"])}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, *map(str, argv), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: line {lineno}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("field, token", [
        ("q_hat", "NaN"), ("q_hat", '"nan"'), ("q_hat", '"-inf"'),
        ("q_hat", "-Infinity"), ("q_hat", "[1]"), ("score", '"max"'), ("alpha", '"0.1"'),
        ("n_cal", '"x"')])
    def test_model_without_usable_threshold_is_validation_error(self, tmp_path, capsys,
                                                                 field, token):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=20)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        header, rec = model.read_text().splitlines()
        rec = json.dumps({**json.loads(rec), field: "TOKEN"}).replace('"TOKEN"', token)
        model.write_text(f"{header}\n{rec}\n")
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 1
        assert f"{model}: " in capsys.readouterr().err
        assert not sets.exists()

    @pytest.mark.parametrize("field", ["score", "alpha", "beta", "q_hat", "n_cal"])
    def test_model_without_a_field_names_file_and_field(self, tmp_path, capsys, field):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=20)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        header, rec = model.read_text().splitlines()
        rec = json.loads(rec)
        del rec[field]
        model.write_text(f"{header}\n{json.dumps(rec)}\n")
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 1
        assert capsys.readouterr().err == \
            f"error: {model}: model record lacks field {field!r}\n"
        assert not sets.exists()

    @pytest.mark.parametrize("field, value, expected", [
        ("graph_spec", 5, "a string"),
        ("graph_seed", "q", "an integer"),
        ("graph_seed", True, "an integer"),
        ("estimator", 5, "a string"),
        ("estimator_seed", 1.5, "an integer"),
        ("estimator_seed", "x", "an integer")])
    def test_model_header_field_of_wrong_type_names_file_and_field(
            self, tmp_path, capsys, field, value, expected):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=20)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec", "--alpha", "0.2",
                   "--estimator", "oracle:0.5", "--seed", "1", "--out", str(model)) == 0
        header, rec = model.read_text().splitlines()
        header = json.loads(header)
        header["config"][field] = value
        model.write_text(f"{json.dumps(header)}\n{rec}\n")
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 1
        assert capsys.readouterr().err == (f"error: {model}: header field {field!r} "
                                           f"must be {expected}, got {value!r}\n")
        assert not sets.exists()

    @pytest.mark.parametrize("field, value, expected", [
        ("graph_spec", 5, "a string"),
        ("graph_seed", "q", "an integer")])
    def test_dataset_header_field_of_wrong_type_names_file_and_field(
            self, tmp_path, capsys, field, value, expected):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        header, *records = data.read_text().splitlines()
        header = json.loads(header)
        header["config"][field] = value
        data.write_text("\n".join([json.dumps(header), *records]) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.5", "--out", str(model)) == 1
        assert capsys.readouterr().err == (f"error: {data}: header field {field!r} "
                                           f"must be {expected}, got {value!r}\n")
        assert not model.exists()

    @pytest.mark.parametrize("config", ["graph_spec", ["graph_spec"], 5, None])
    def test_dataset_header_config_not_an_object_names_file(self, tmp_path, capsys,
                                                            config):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        header, *records = data.read_text().splitlines()
        header = {**json.loads(header), "config": config}
        data.write_text("\n".join([json.dumps(header), *records]) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.5", "--out", str(model)) == 1
        assert capsys.readouterr().err == (f"error: {data}: header field 'config' "
                                           f"must be an object, got {config!r}\n")
        assert not model.exists()

    @pytest.mark.parametrize("config", [["estimator"], "estimator", 0.5])
    def test_model_header_config_not_an_object_names_file(self, tmp_path, capsys,
                                                          config):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=20)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        header, rec = model.read_text().splitlines()
        header = {**json.loads(header), "config": config}
        model.write_text(f"{json.dumps(header)}\n{rec}\n")
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 1
        assert capsys.readouterr().err == (f"error: {model}: header field 'config' "
                                           f"must be an object, got {config!r}\n")
        assert not sets.exists()

    def test_evaluate_duplicate_prediction_is_validation_error(self, tmp_path, capsys):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets, report = tmp_path / "sets.jsonl", tmp_path / "eval.csv"
        assert run(*simulate_args(data, samples=10)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 0
        lines = sets.read_text().splitlines(keepends=True)
        sets.write_text("".join(lines + lines[4:5]))
        capsys.readouterr()
        assert run("evaluate", "--sets", str(sets), "--data", str(data),
                   "--out", str(report)) == 1
        index = json.loads(lines[4])["index"]
        err = capsys.readouterr().err
        assert f"{sets}: duplicate prediction for sample {index}" in err
        assert not report.exists()

    @pytest.mark.parametrize("field, value", [
        ("index", [1]), ("index", -1), ("index", "1"), ("index", True), ("index", None),
        ("nodes", [99, 99, -5]), ("nodes", [3, 3]), ("nodes", [20]), ("nodes", [-1]),
        ("nodes", [1.5]), ("nodes", [[1, 2]]), ("nodes", [True]), ("nodes", None)])
    def test_evaluate_bad_prediction_record_is_validation_error(self, tmp_path, capsys,
                                                                field, value):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets, report = tmp_path / "sets.jsonl", tmp_path / "eval.csv"
        assert run(*simulate_args(data, samples=10)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 0
        lines = sets.read_text().splitlines(keepends=True)
        lines[3] = json.dumps({**json.loads(lines[3]), field: value}) + "\n"
        sets.write_text("".join(lines))
        capsys.readouterr()
        assert run("evaluate", "--sets", str(sets), "--data", str(data),
                   "--out", str(report)) == 1
        assert f"{sets}: " in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("config, expected", [
        ({"beta": "0.3"}, "header field 'beta' must be a number in [0, 1), got '0.3'"),
        ({"beta": 1.5}, "header field 'beta' must be a number in [0, 1), got 1.5"),
        ({"beta": True}, "header field 'beta' must be a number in [0, 1), got True"),
        ({"beta": -1}, "header field 'beta' must be a number in [0, 1), got -1"),
        ({"beta": float("nan")}, "header field 'beta' must be a number in [0, 1), got nan"),
        ({}, "header lacks 'beta'"),
        ([0.3], "header field 'config' must be an object, got [0.3]")])
    def test_evaluate_bad_sets_header_names_file_and_field(self, tmp_path, capsys,
                                                           config, expected):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets, report = tmp_path / "sets.jsonl", tmp_path / "eval.csv"
        assert run(*simulate_args(data, samples=10)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 0
        header, *records = sets.read_text().splitlines(keepends=True)
        sets.write_text(json.dumps({**json.loads(header), "config": config}) + "\n"
                        + "".join(records))
        capsys.readouterr()
        assert run("evaluate", "--sets", str(sets), "--data", str(data),
                   "--out", str(report)) == 1
        assert capsys.readouterr().err == f"error: {sets}: {expected}\n"
        assert not report.exists()

    def test_repeated_dataset_record_is_validation_error(self, tmp_path, capsys):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=5)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.2", "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(sets)) == 0
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join(lines + lines[2:3]))
        index = json.loads(lines[2])["index"]
        outputs = [tmp_path / name for name in ("m2.json", "sets2.jsonl", "eval.csv")]
        for argv, out in zip((
                ("calibrate", "--data", str(data), "--score", "rec", "--alpha", "0.2"),
                ("predict", "--model", str(model), "--data", str(data)),
                ("evaluate", "--sets", str(sets), "--data", str(data))), outputs):
            capsys.readouterr()
            assert run(*argv, "--out", str(out)) == 1, argv
            assert f"{data}: duplicate record for sample {index}" in \
                capsys.readouterr().err
            assert not out.exists()

    def test_evaluate_without_predictions_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        sets = tmp_path / "sets.jsonl"
        assert run(*simulate_args(data, samples=3)) == 0
        with open(sets, "w", encoding="utf-8") as fh:
            write_jsonl_header(fh, "predictions", 0, {"beta": 0.3})
        assert run("evaluate", "--sets", str(sets), "--data", str(data),
                   "--out", str(tmp_path / "eval.csv")) == 1
        assert "no predictions" in capsys.readouterr().err


    def test_dataset_from_another_graph_is_validation_error(self, tmp_path, capsys):
        def simulate_on(graph, out, seed):
            assert run("simulate", "--graph", graph, "--sigma-inf", "0.1",
                       "--sigma-rec", "0.1", "--sources", "1", "--samples", "20",
                       "--snapshots", "4", "--seed", str(seed), "--out", str(out)) == 0

        cal, test = tmp_path / "cal.jsonl", tmp_path / "test.jsonl"
        model, sets = tmp_path / "m.json", tmp_path / "sets.jsonl"
        simulate_on("ba:200,3", cal, 1)
        simulate_on("ba:100,3", test, 2)
        assert run("calibrate", "--data", str(cal), "--score", "rec",
                   "--alpha", "0.1", "--out", str(model)) == 0
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(sets)) == 1
        err = capsys.readouterr().err
        assert "100 nodes" in err and "has 200" in err
        assert not sets.exists()

    def test_dataset_header_naming_another_graph_is_validation_error(self, tmp_path,
                                                                     capsys):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        text = data.read_text().replace('"complete:20"', '"complete:30"', 1)
        data.write_text(text)
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.5", "--out", str(model)) == 1
        err = capsys.readouterr().err
        assert "20 nodes" in err and "has 30" in err
        assert not model.exists()

    def test_predict_refuses_file_estimator_from_model(self, tmp_path, capsys):
        # the rows belong to the calibration samples; reusing them would
        # score test sample i with calibration row i
        cal, test = tmp_path / "cal.jsonl", tmp_path / "test.jsonl"
        probs, model = tmp_path / "probs.txt", tmp_path / "m.json"
        sets = tmp_path / "sets.jsonl"
        for out, seed, n in ((cal, 1, 40), (test, 2, 20)):
            assert run("simulate", "--graph", "complete:12", "--sigma-inf", "0.2",
                       "--sigma-rec", "0.1", "--sources", "1,3", "--samples", str(n),
                       "--snapshots", "4", "--seed", str(seed), "--out", str(out)) == 0
        rows = []
        for s in load_dataset(cal)[0]:
            p = np.zeros(12)
            p[s.sources] = 1.0
            rows.append(f"{s.index} " + " ".join(map(repr, p.tolist())) + "\n")
        probs.write_text("# prob-vectors n_nodes=12\n" + "".join(rows))
        assert run("calibrate", "--data", str(cal), "--score", "rec", "--alpha", "0.1",
                   "--beta", "0.3", "--estimator", f"file:{probs}",
                   "--out", str(model)) == 0
        capsys.readouterr()
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(sets)) == 1
        assert "cannot be reused for a different dataset" in capsys.readouterr().err
        assert not sets.exists()

    @pytest.mark.parametrize("spec, message", [
        ("heuristic:foo", "heuristic takes no argument"),
        ("mc:x", "K_SIMS must be an integer >= 1"),
        ("mc:0", "K_SIMS must be an integer >= 1"),
        ("oracle:2", "NOISE must be a number in [0, 1]")])
    def test_malformed_estimator_spec_is_validation_error(self, tmp_path, capsys,
                                                          spec, message):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        capsys.readouterr()
        assert run("calibrate", "--data", str(data), "--score", "rec", "--alpha", "0.5",
                   "--estimator", spec, "--out", str(model)) == 1
        assert f"error: estimator spec {spec!r}: {message}" in capsys.readouterr().err
        assert not model.exists()

    def test_probability_file_without_a_sample_is_validation_error(self, tmp_path,
                                                                   capsys):
        data, probs = tmp_path / "d.jsonl", tmp_path / "probs.txt"
        model = tmp_path / "m.json"
        assert run(*simulate_args(data, samples=3)) == 0
        indices = [s.index for s in load_dataset(data)[0]]
        save_prob_vectors({i: np.full(20, 0.5) for i in indices[:-1]}, 20, probs)
        capsys.readouterr()
        assert run("calibrate", "--data", str(data), "--score", "rec", "--alpha", "0.5",
                   "--estimator", f"file:{probs}", "--out", str(model)) == 1
        assert (f"error: {probs}: no probability row for sample {indices[-1]}\n"
                == capsys.readouterr().err)
        assert not model.exists()

    def test_bad_status_character_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        assert run(*simulate_args(data, samples=3)) == 0
        lines = data.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["status"][1] = "X" + rec["status"][1][1:]
        lines[2] = json.dumps(rec) + "\n"
        data.write_text("".join(lines))
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.5", "--out", str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert f"sample {rec['index']}" in err and "'X'" in err


class TestSimulate:
    def test_writes_records_with_header(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(*simulate_args(out)) == 0
        records = list(read_jsonl(out))
        assert records[0]["record"] == "header"
        assert records[0]["tool"] == "sourceset"
        samples = [r for r in records if r["record"] == "sample"]
        assert len(samples) == 10
        # SI semantics: no R status anywhere
        assert all("R" not in "".join(r["status"]) for r in samples)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*simulate_args(a)) == 0
        assert run(*simulate_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*simulate_args(a, seed=1)) == 0
        assert run(*simulate_args(b, seed=2)) == 0
        assert a.read_bytes() != b.read_bytes()


class TestPipeline:
    def build_artifacts(self, tmp_path, estimator="oracle:0.3"):
        data = tmp_path / "cal.jsonl"
        test = tmp_path / "test.jsonl"
        model = tmp_path / "model.json"
        sets = tmp_path / "sets.jsonl"
        report = tmp_path / "eval.csv"
        assert run(*simulate_args(data, seed=5, samples=60)) == 0
        assert run(*simulate_args(test, seed=6, samples=20)) == 0
        assert run("calibrate", "--data", str(data), "--score", "rec",
                   "--alpha", "0.1", "--beta", "0.3",
                   "--estimator", estimator, "--seed", "9",
                   "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(sets)) == 0
        assert run("evaluate", "--sets", str(sets), "--data", str(test),
                   "--out", str(report)) == 0
        return data, test, model, sets, report

    def test_full_pipeline(self, tmp_path, capsys):
        _, _, model, sets, report = self.build_artifacts(tmp_path)
        model_rec = [r for r in read_jsonl(model) if r["record"] == "model"][0]
        assert model_rec["score"] == "rec"
        preds = [r for r in read_jsonl(sets) if r["record"] == "prediction"]
        assert len(preds) == 20
        lines = report.read_text().splitlines()
        assert lines[0] == "index,set_size,precision,recall,included"
        assert len(lines) == 21
        assert "inclusion_rate=" in capsys.readouterr().out

    def test_pipeline_matches_library(self, tmp_path, capsys):
        """CLI coverage equals the library pipeline on the same artifacts."""
        data, test, model, sets, report = self.build_artifacts(tmp_path)
        out = capsys.readouterr().out
        cli_rate = float(out.split("inclusion_rate=")[1].split()[0])
        cli_size = float(out.split("mean_set_size=")[1].split()[0])

        graph = graph_from_spec("complete:20")
        estimator = build_estimator("oracle:0.3", graph)
        cal_samples, _ = load_dataset(data)
        test_samples, _ = load_dataset(test)
        pairs = [(estimator(s, substream(9, s.index)), s.sources)
                 for s in cal_samples]
        lib_model = calibrate(pairs, "rec", NominalLevels(alpha=0.1, beta=0.3))
        included, sizes = [], []
        for s in test_samples:
            probs = estimator(s, substream(9, s.index))
            pset = conformal_predict(lib_model, probs)
            included.append(evaluate_set(pset.nodes, s.sources, 0.3).included)
            sizes.append(pset.size)
        assert cli_rate == np.mean(included)
        assert cli_size == np.mean(sizes)

    def test_sets_header_names_the_predicted_data(self, tmp_path):
        """The sets header's data is --data; the model's own provenance, with
        its calibration file, sits under model_config. The records are
        library predict's sets of the predicted samples."""
        data, test, model, sets, _ = self.build_artifacts(tmp_path)
        header, *records = read_jsonl(sets)
        model_header = next(read_jsonl(model))
        assert header["config"]["data"] == str(test)
        assert header["config"]["model"] == str(model)
        assert header["config"]["model_config"] == model_header["config"]
        assert model_header["config"]["data"] == str(data)
        estimator = build_estimator("oracle:0.3", graph_from_spec("complete:20"))
        lib_model = conformal.load_model(model)[0]
        samples, _ = load_dataset(test)
        assert [r["index"] for r in records] == [s.index for s in samples]
        for rec, s in zip(records, samples):
            pset = conformal_predict(lib_model, estimator(s, substream(9, s.index)))
            assert (rec["size"], rec["nodes"]) == (pset.size, pset.nodes.tolist())

    def test_prediction_reruns_byte_identical(self, tmp_path):
        data, test, model, sets, _ = self.build_artifacts(tmp_path)
        again = tmp_path / "sets2.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(again)) == 0
        assert sets.read_bytes() == again.read_bytes()


def mixed_window_dataset(tmp_path):
    """A dataset whose window length changes partway through the file: 30
    samples of 4 snapshots, then 25 of 3, numbered on after the first 30."""
    first, second, data = (tmp_path / name for name in
                           ("long.jsonl", "short.jsonl", "mixed.jsonl"))
    assert run(*simulate_args(first, seed=5, samples=30)) == 0
    short = list(simulate_args(second, seed=6, samples=25))
    short[short.index("--snapshots") + 1] = "3"
    assert run(*short) == 0
    header, *records = first.read_text().splitlines()
    for line in second.read_text().splitlines()[1:]:
        rec = json.loads(line)
        records.append(json.dumps({**rec, "index": rec["index"] + 30}))
    data.write_text("\n".join([header, *records]) + "\n")
    return data


class TestBlockPath:
    """calibrate and predict rank whole estimator blocks: the block size
    changes no byte of their files, and every set is library predict's."""

    @pytest.mark.parametrize("spec", ["heuristic", "oracle:0.5"])
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, spec):
        data = mixed_window_dataset(tmp_path)
        samples, _ = load_dataset(data)
        assert [s.x.n_snapshots for s in samples] == [4] * 30 + [3] * 25
        model, sets = tmp_path / "model.json", tmp_path / "sets.jsonl"
        estimator = build_estimator(spec, graph_from_spec("complete:20"))
        probs = [estimator(s, substream(5, s.index)) for s in samples]
        levels = NominalLevels(alpha=0.1, beta=0.3)
        for kind in conformal.SCORE_KINDS:
            written = []
            for rows in (None, 1, 7):
                if rows is not None:
                    monkeypatch.setattr(conformal, "_SCORE_BLOCK_BYTES", rows * 8 * 20)
                    assert conformal.block_rows(20) == rows
                assert run("calibrate", "--data", str(data), "--score", kind,
                           "--alpha", "0.1", "--beta", "0.3", "--estimator", spec,
                           "--seed", "5", "--out", str(model)) == 0
                assert run("predict", "--model", str(model), "--data", str(data),
                           "--out", str(sets)) == 0
                written.append((model.read_bytes(), sets.read_bytes()))
            monkeypatch.undo()
            assert written[1] == written[0] and written[2] == written[0]
            library = calibrate(zip(probs, (s.sources for s in samples)), kind, levels)
            assert conformal.load_model(model)[0] == library
            records = [r for r in read_jsonl(sets) if r["record"] == "prediction"]
            assert [r["index"] for r in records] == [s.index for s in samples]
            for rec, p in zip(records, probs):
                expected = conformal_predict(library, p)
                assert rec["nodes"] == expected.nodes.tolist()
                assert rec["size"] == expected.size


class TestEstimatorSubstreams:
    """Calibrate and predict create the per-sample estimator substream only
    for estimators that draw from it; streams are keyed by path, so skipping
    it changes no draw."""

    @pytest.fixture
    def created(self, monkeypatch):
        paths = []

        def recording(seed, *path):
            paths.append((seed, *path))
            return substream(seed, *path)

        monkeypatch.setattr(cli_module, "substream", recording)
        return paths

    @pytest.mark.parametrize("spec", ["heuristic", "file", "oracle:0.3"])
    def test_calibrate_and_predict(self, tmp_path, created, spec):
        data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run(*simulate_args(data, samples=12)) == 0
        indices = [s.index for s in load_dataset(data)[0]]
        if spec == "file":
            rng = np.random.default_rng(3)
            save_prob_vectors({i: rng.random(20) for i in indices}, 20,
                              tmp_path / "p.txt")
            spec = f"file:{tmp_path / 'p.txt'}"
        assert run("calibrate", "--data", str(data), "--score", "rec", "--alpha",
                   "0.2", "--estimator", spec, "--seed", "4", "--out", str(model)) == 0
        random = spec.startswith("oracle:")
        assert created == ([(4, i) for i in indices] if random else [])
        if spec.startswith("file:"):
            return  # predict refuses file: models
        created.clear()
        assert run("predict", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "sets.jsonl")) == 0
        assert created == ([(4, i) for i in indices] if random else [])


class TestSweepCommand:
    def write_config(self, tmp_path):
        cfg = {
            "graph_spec": "ba:40,2",
            "generative": {"source_count": [1, 3], "r0": [1.0, 5.0],
                           "sigma_rec": [0.1, 0.4], "n_snapshots": 4},
            "alphas": [0.2], "betas": [0.3],
            "estimator": "oracle:1.0",
            "n_cal": 40, "n_test": 20, "n_trials": 3, "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_single_run(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert (out / "trials.csv").exists()
        assert (out / "summary.csv").exists()

    def test_axis_sweep_writes_per_value_files(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--axis", "beta",
                   "--values", "0.1,0.5", "--out-dir", str(out)) == 0
        assert (out / "summary_beta_0.1.csv").exists()
        assert (out / "summary_beta_0.5.csv").exists()

    def test_source_count_range_keeps_float_report_names(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--axis", "n_sources",
                   "--values", "2:3,1", "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "summary_n_sources_1.csv", "summary_n_sources_2.0-3.0.csv",
            "trials_n_sources_1.csv", "trials_n_sources_2.0-3.0.csv"]

    @pytest.mark.parametrize("token", ["1.5:3.7", "1:2.5", "inf:3"])
    def test_source_count_range_with_fractional_end_rejected(self, tmp_path, capsys,
                                                             token):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--axis", "n_sources",
                   "--values", token, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == (f"error: --values: bad n_sources value "
                                           f"{token!r} (expected whole-number ends)\n")
        assert not any(out.iterdir())

    def test_axis_without_values_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert run("sweep", "--config", str(cfg), "--axis", "beta",
                   "--out-dir", str(tmp_path / "o")) == 1

    def test_bad_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert run("sweep", "--config", str(path),
                   "--out-dir", str(tmp_path / "o")) == 1
        path.write_text(json.dumps({"graph_spec": "ba:40,2"}))
        assert run("sweep", "--config", str(path),
                   "--out-dir", str(tmp_path / "o")) == 1

    def test_config_without_valid_sample_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["generative"]["n_snapshots"] = 0
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and "n_snapshots must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["heuristic:x", "mc:0"])
    def test_malformed_estimator_spec_rejected(self, tmp_path, capsys, spec):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["estimator"] = spec
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and f"estimator spec {spec!r}" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["n_trial"] = cfg.pop("n_trials")
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(path), "--out-dir", str(out)) == 1
        assert "'n_trial'" in capsys.readouterr().err
        assert not out.exists()

    # the end-to-end determinism config: every probe there is refused
    PROBE_CONFIG = {"graph_spec": "complete:20", "generative": {"n_snapshots": 4},
                    "n_cal": 20, "n_test": 10, "n_trials": 2, "seed": 3}

    @pytest.mark.parametrize("field, value, message", [
        ("n_cal", 10.5, "n_cal must be an integer, got 10.5"),
        ("n_cal", True, "n_cal must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("graph_seed", "x", "graph_seed must be an integer, got 'x'"),
        ("graph_seed", 1.5, "graph_seed must be an integer, got 1.5"),
        ("estimator", 5, "estimator must be a string, got 5"),
        ("graph_spec", 12, "graph_spec must be a string, got 12"),
        ("score_kinds", "pre", "score_kinds must be a list, got 'pre'")])
    def test_experiment_field_type_refused(self, tmp_path, capsys, field, value,
                                           message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.PROBE_CONFIG, field: value}))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n_snapshots", 2.5, "n_snapshots must be an integer, got 2.5"),
        ("stride", 1.5, "stride must be an integer, got 1.5"),
        ("horizon", 10.5, "horizon must be an integer, got 10.5"),
        ("t_first", 2.5, "t_first must be an integer or 'auto', got 2.5"),
        ("r0", "5", "r0 must be a finite number or a [low, high] pair"),
        ("r0", [1, "x"], "r0 must be a finite number or a [low, high] pair"),
        ("r0", [1, 2, 3], "r0 must be a finite number or a [low, high] pair"),
        ("sigma_rec", [0.4, 0.1], "sigma_rec range (0.4, 0.1) has low > high"),
        ("source_count", [1.5, 3], "source_count must be a whole number")])
    def test_generative_field_type_refused(self, tmp_path, capsys, field, value,
                                           message):
        cfg = {**self.PROBE_CONFIG,
               "generative": {**self.PROBE_CONFIG["generative"], field: value}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and message in err
        assert not out.exists()

    def test_whole_float_source_count_accepted(self, tmp_path):
        cfg = {**self.PROBE_CONFIG,
               "generative": {**self.PROBE_CONFIG["generative"], "source_count": 2.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")) == 0

    def test_sweep_reruns_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--config", str(cfg), "--out-dir", str(out_a)) == 0
        assert run("sweep", "--config", str(cfg), "--out-dir", str(out_b)) == 0
        assert ((out_a / "trials.csv").read_bytes()
                == (out_b / "trials.csv").read_bytes())


class TestOracleCheck:
    def test_passes_and_exits_zero(self, capsys):
        assert run("oracle-check", "--n", "10", "--trials", "200", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "bruteforce_mismatches=0" in out
        assert "all equivalence checks passed" in out

    @pytest.mark.parametrize("option, value, message", [
        ("--n", "20", "20 is not in the range 1<=x<=16"),
        ("--n", "0", "0 is not in the range 1<=x<=16"),
        ("--trials", "0", "0 is not in the range x>=1"),
        ("--trials", "-3", "-3 is not in the range x>=1")])
    def test_rejects_options_out_of_range(self, capsys, option, value, message):
        options = {"--n": "10", "--trials": "5", "--seed": "1", option: value}
        assert run("oracle-check", *(t for kv in options.items() for t in kv)) == 1
        captured = capsys.readouterr()
        assert f"Invalid value for '{option}': {message}" in captured.err
        assert "passed" not in captured.out
