"""Command-line entry point wiring simulation, calibration, prediction,
evaluation, sweeps, and the randomized equivalence checks.

Exit codes: 0 success, 1 validation error (bad flags, missing files, schema
violations), 2 runtime error. All randomness is controlled by --seed flags
and every output file starts with a provenance header, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from sourceset import conformal, experiment
from sourceset.conformal import NominalLevels
from sourceset.diffusion import GenerativeConfig, load_dataset, sample_dataset, save_dataset
from sourceset.estimators import build_estimator, estimate_blocks, parse_estimator_spec
from sourceset.graph import graph_from_spec
from sourceset.util import substream, write_jsonl_header, read_jsonl


def _parse_range(text: str, cast):
    """Parse 'x' as a fixed value or 'lo,hi' as a uniform range."""
    parts = text.split(",")
    if len(parts) == 1:
        return cast(parts[0])
    if len(parts) == 2:
        return (cast(parts[0]), cast(parts[1]))
    raise click.BadParameter(f"expected VALUE or LO,HI, got {text!r}")


@click.group()
def cli():
    """Recall-controlled conformal source detection on networks."""


@cli.command()
@click.option("--graph", "graph_spec", required=True,
              help="Graph spec: complete:N | er:N,P | ba:N,M | file:PATH.")
@click.option("--graph-seed", type=int, default=0, show_default=True)
@click.option("--sigma-inf", default=None, help="Infection rate VALUE or LO,HI.")
@click.option("--r0", default=None, help="Reproduction number VALUE or LO,HI.")
@click.option("--sigma-rec", default="0.0", show_default=True,
              help="Recovery rate VALUE or LO,HI (0 gives the SI model).")
@click.option("--sources", default="1", show_default=True,
              help="Source count VALUE or LO,HI.")
@click.option("--samples", type=int, required=True, help="Number of samples.")
@click.option("--horizon", type=int, default=40, show_default=True)
@click.option("--snapshots", type=int, default=16, show_default=True)
@click.option("--stride", type=int, default=1, show_default=True)
@click.option("--t-first", default="auto", show_default=True,
              help="First observation instant, or 'auto'.")
@click.option("--seed", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def simulate(graph_spec, graph_seed, sigma_inf, r0, sigma_rec, sources, samples,
             horizon, snapshots, stride, t_first, seed, out_path):
    """Simulate a labeled diffusion dataset and write it as JSON lines."""
    if (sigma_inf is None) == (r0 is None):
        raise click.UsageError("give exactly one of --sigma-inf / --r0")
    graph = graph_from_spec(graph_spec, seed=graph_seed)
    gen = GenerativeConfig(
        source_count=_parse_range(sources, int),
        r0=_parse_range(r0, float) if r0 is not None else None,
        sigma_inf=_parse_range(sigma_inf, float) if sigma_inf is not None else None,
        sigma_rec=_parse_range(sigma_rec, float),
        horizon=horizon, n_snapshots=snapshots, stride=stride,
        t_first=t_first if t_first == "auto" else int(t_first),
    )
    data = sample_dataset(graph, gen, samples, seed)
    config = {"graph_spec": graph_spec, "graph_seed": graph_seed,
              "generative": gen.to_dict(), "n_samples": samples}
    save_dataset(data, out_path, seed, config)
    click.echo(f"wrote {len(data)} samples to {out_path}")


def _require_file(path: str) -> None:
    if not Path(path).exists():
        raise click.ClickException(f"missing file: {path}")


def _check_node_counts(samples, graph, graph_spec: str, data_path: str) -> None:
    """Every sample must cover exactly the nodes of the graph it is scored on."""
    for s in samples:
        if s.x.n_nodes != graph.n_nodes:
            raise click.ClickException(
                f"{data_path}: sample {s.index} has {s.x.n_nodes} nodes but the "
                f"graph {graph_spec} has {graph.n_nodes}")


def _header_field(config: dict, path: str, field: str, kind: type, default=None):
    """config[field] of a file's header, which must be a `kind` (str or int,
    never a bool); `default` when the field is absent and a default is given."""
    if field not in config:
        if default is None:
            raise click.ClickException(f"{path}: header lacks {field!r}")
        return default
    value = config[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        noun = "a string" if kind is str else "an integer"
        raise click.ClickException(
            f"{path}: header field {field!r} must be {noun}, got {value!r}")
    return value


def _header_graph(config: dict, path: str):
    """The graph a dataset or model header's config names."""
    return graph_from_spec(_header_field(config, path, "graph_spec", str),
                           seed=_header_field(config, path, "graph_seed", int, 0))


def _estimates(spec: str, graph, samples, seed: int):
    """(sample, probability vector) pairs in order, estimated block by block
    as they are consumed; a sample's estimator stream is substream(seed,
    sample index). The estimator is built, and its spec checked, at the call."""
    blocks = estimate_blocks(build_estimator(spec, graph), samples,
                             lambda sample: substream(seed, sample.index))
    return ((s, probs) for block, block_probs in blocks
            for s, probs in zip(block, block_probs))


@cli.command()
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--score", type=click.Choice(conformal.SCORE_KINDS), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--estimator", "estimator_spec", default="heuristic", show_default=True,
              help="heuristic | oracle:NOISE | mc:K_SIMS | file:PATH.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for estimator randomness (substream per sample index).")
@click.option("--out", "out_path", required=True, type=click.Path())
def calibrate(data_path, score, alpha, beta, estimator_spec, seed, out_path):
    """Calibrate a prediction threshold on a simulated dataset."""
    _require_file(data_path)
    samples, header = load_dataset(data_path)
    if not samples:
        raise click.ClickException(f"{data_path}: no samples")
    graph_config = header.get("config", {})
    graph = _header_graph(graph_config, data_path)
    _check_node_counts(samples, graph, graph_config["graph_spec"], data_path)
    # estimated block by block as calibrate consumes them
    pairs = ((probs, s.sources)
             for s, probs in _estimates(estimator_spec, graph, samples, seed))
    levels = NominalLevels(alpha=alpha, beta=beta)
    model = conformal.calibrate(pairs, score, levels)
    config = {"estimator": estimator_spec, "estimator_seed": seed,
              "data": str(data_path), **graph_config}
    conformal.save_model(model, out_path, seed=seed, config=config)
    q = "inf" if model.q_hat == float("inf") else repr(model.q_hat)
    click.echo(f"calibrated q_hat={q} on {model.n_cal} samples -> {out_path}")


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def predict(model_path, data_path, out_path):
    """Predict source sets for every sample in a dataset file."""
    _require_file(model_path)
    _require_file(data_path)
    model, model_header = conformal.load_model(model_path)
    model_config = model_header.get("config", {})
    estimator_spec = _header_field(model_config, model_path, "estimator", str, "heuristic")
    if parse_estimator_spec(estimator_spec)[0] == "file":
        raise click.ClickException(
            f"{model_path} was calibrated with estimator {estimator_spec!r}: its "
            f"rows are the calibration samples' probabilities, so a file: "
            f"estimator cannot be reused for a different dataset")
    samples, _ = load_dataset(data_path)
    graph = _header_graph(model_config, model_path)
    _check_node_counts(samples, graph, model_config["graph_spec"], data_path)
    est_seed = _header_field(model_config, model_path, "estimator_seed", int, 0)
    estimates = _estimates(estimator_spec, graph, samples, est_seed)
    config = {"model": str(model_path), "data": str(data_path),
              "score": model.score, "alpha": model.levels.alpha,
              "beta": model.levels.beta, **model_config}
    with open(out_path, "w", encoding="utf-8") as fh:
        write_jsonl_header(fh, "predictions", est_seed, config)
        for s, probs in estimates:
            pset = conformal.predict(model, probs)
            rec = {"record": "prediction", "index": s.index,
                   "size": pset.size, "nodes": pset.nodes.tolist()}
            fh.write(json.dumps(rec) + "\n")
    click.echo(f"wrote {len(samples)} prediction sets to {out_path}")


@cli.command()
@click.option("--sets", "sets_path", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def evaluate(sets_path, data_path, out_path):
    """Score prediction sets against true sources; writes per-sample CSV."""
    _require_file(sets_path)
    _require_file(data_path)
    samples, _ = load_dataset(data_path)
    by_index = {s.index: s for s in samples}
    header = {}
    rows = {}
    for rec in read_jsonl(sets_path):
        if rec.get("record") == "header":
            header = rec
            continue
        if rec.get("record") != "prediction":
            continue
        idx = rec.get("index")
        if type(idx) is not int or idx < 0:
            raise click.ClickException(
                f"{sets_path}: prediction index {idx!r} is not a non-negative integer")
        if idx not in by_index:
            raise click.ClickException(f"{sets_path}: prediction for unknown sample {idx}")
        if idx in rows:
            raise click.ClickException(
                f"{sets_path}: duplicate prediction for sample {idx}")
        nodes, n_nodes = rec.get("nodes"), by_index[idx].x.n_nodes
        if (not isinstance(nodes, list)
                or not all(type(v) is int and 0 <= v < n_nodes for v in nodes)
                or len(set(nodes)) != len(nodes)):
            raise click.ClickException(
                f"{sets_path}: prediction for sample {idx}: nodes must be distinct "
                f"node ids below {n_nodes}")
        rows[idx] = np.asarray(nodes, dtype=np.int64)
    if not rows:
        raise click.ClickException(f"{sets_path}: no predictions")
    beta = header.get("config", {}).get("beta")
    if beta is None:
        raise click.ClickException("prediction header lacks beta")
    included = 0
    total_size = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("index,set_size,precision,recall,included\n")
        for idx, nodes in rows.items():
            metrics = conformal.evaluate_set(nodes, by_index[idx].sources, beta)
            included += int(metrics.included)
            total_size += nodes.size
            fh.write(f"{idx},{nodes.size},{metrics.precision!r},"
                     f"{metrics.recall!r},{int(metrics.included)}\n")
    n = len(rows)
    click.echo(f"inclusion_rate={included / n!r} mean_set_size={total_size / n!r} "
               f"n={n} beta={beta!r}")


def _config_from_file(path: str) -> experiment.ExperimentConfig:
    _require_file(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"{path}: invalid JSON ({exc})")
    if not isinstance(raw, dict) or not isinstance(raw.get("generative"), dict):
        raise click.ClickException(f"{path}: config needs a 'generative' object")

    def tuples(fields: dict) -> dict:
        return {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}

    # an unknown or missing key is a TypeError that names it
    try:
        return experiment.ExperimentConfig(**{
            **tuples(raw), "generative": GenerativeConfig(**tuples(raw["generative"]))})
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"{path}: bad config: {exc}")


def _sweep_value(tok: str, axis: str):
    """One --values token: LO:HI (a float pair, with whole-number ends for
    n_sources) for r0 and n_sources, else an integer for n_sources and a
    float for the other axes."""
    parts = tok.split(":")
    if len(parts) > 1 and axis not in ("r0", "n_sources"):
        raise click.UsageError(f"--axis {axis} takes no LO:HI range, got {tok!r}")
    if len(parts) > 2:
        raise click.UsageError(f"--values: bad {axis} value {tok!r} "
                               f"(expected VALUE or LO:HI)")
    cast = int if axis == "n_sources" and len(parts) == 1 else float
    try:
        values = [cast(part) for part in parts]
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise click.UsageError(f"--values: bad {axis} value {tok!r} "
                               f"(expected {kind})") from None
    # a source-count range stays float, keeping report names like 2.0-5.0,
    # but its ends must be whole numbers
    if axis == "n_sources" and not all(float(v).is_integer() for v in values):
        raise click.UsageError(f"--values: bad {axis} value {tok!r} "
                               f"(expected whole-number ends)")
    return tuple(values) if len(values) == 2 else values[0]


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--axis", type=click.Choice(["none", "alpha", "beta", "r0", "n_sources"]),
              default="none", show_default=True)
@click.option("--values", default=None,
              help="Comma-separated axis values (ranges as LO:HI for r0 and n_sources).")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--timing/--no-timing", default=False, show_default=True,
              help="Include wall-clock runtimes in the per-trial CSV.")
def sweep(config_path, axis, values, out_dir, timing):
    """Run the repeated-splits experiment, optionally sweeping one axis."""
    cfg = _config_from_file(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if axis == "none":
        report = experiment.run_experiment(cfg)
        experiment.write_reports(report, out / "trials.csv", out / "summary.csv",
                                 include_timing=timing)
        click.echo(f"wrote {out / 'trials.csv'} and {out / 'summary.csv'}")
        return
    if not values:
        raise click.UsageError("--values is required when --axis is set")
    parsed = [_sweep_value(tok, axis) for tok in values.split(",")]
    for value, report in experiment.sweep(cfg, axis, parsed):
        tag = str(value).replace(" ", "").replace("(", "").replace(")", "") \
            .replace(",", "-")
        experiment.write_reports(report, out / f"trials_{axis}_{tag}.csv",
                                 out / f"summary_{axis}_{tag}.csv",
                                 include_timing=timing)
    click.echo(f"wrote {2 * len(parsed)} report files to {out}")


@cli.command(name="oracle-check")
@click.option("--n", "n_nodes", type=int, default=10, show_default=True,
              help="Graph size for the randomized instances (<= 16).")
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def oracle_check(n_nodes, trials, seed):
    """Randomized exact-equivalence checks of the fast prediction rule."""
    report = conformal.run_equivalence_checks(n_nodes, trials, seed)
    click.echo(f"trials={report.trials} "
               f"bruteforce_mismatches={report.bruteforce_mismatches} "
               f"crc_set_mismatches={report.crc_set_mismatches} "
               f"max_lambda_gap={report.max_lambda_gap!r}")
    if not report.all_passed:
        raise click.ClickException("equivalence checks failed")
    click.echo("all equivalence checks passed")


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        click.echo(f"runtime error: {exc}", err=True)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
