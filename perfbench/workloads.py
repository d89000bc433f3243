"""The benchmark's three workloads.

Each workload drives `sourceset` through its public API in this process,
builds every input itself from the workload seed, and checks its own outputs
with rules that hold for any seed and any RNG contract of the simulator.

A workload runs a fixed number of passes, derived from the requested seconds
and the pass time measured at the commit that introduced the benchmark, so
that the same amount of work is timed on every commit. Pass i repeats unit
i % units. Each timing counts at the fastest repeat of its unit (see Ledger).
The end-to-end metrics it returns are:

    wall_s               seconds of all passes together
    trial_s              median seconds per unit (desk-heuristic: one experiment
                         trial; fullscale-conformal: one pass; cli-chain:
                         one chain of five commands)
    calibrate_s          median seconds per public `calibrate` call
    crc_calibrate_s      median seconds per public `crc_calibrate` call
    predict_sets_per_s   prediction sets per second of public `predict`

On fullscale-conformal the last three are the timed passes themselves. The
other workloads make those calls in their output check, on their own inputs
(n_cal = 500), and time them there; see perfbench/README.md.

An operation is one trial, one CLI command, or one calibrate / predict /
crc_calibrate call. It fails if it raises, exits non-zero, or fails the check.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sourceset import cli, conformal, experiment
from sourceset.conformal import SCORE_KINDS, NominalLevels, required_hits
from sourceset.diffusion import GenerativeConfig, load_dataset, sample_dataset
from sourceset.estimators import PROB_FLOOR, build_estimator
from sourceset.graph import (barabasi_albert_graph, graph_from_spec, save_edge_list,
                             spectral_radius)
from sourceset.util import read_jsonl, substream

# substream layout documented in sourceset.experiment
DATA_STREAM, SPLIT_STREAM, EST_STREAM = 0, 1, 2

# the acceptance suite's desk shape
DESK_GEN = GenerativeConfig(source_count=(1, 10), r0=(1.0, 10.0),
                            sigma_rec=(0.1, 0.4), n_snapshots=16)
ALPHAS = (0.05, 0.1, 0.15)
BETAS = (0.1, 0.3, 0.5, 0.7)
LEVELS = NominalLevels(alpha=0.1, beta=0.3)

# the criterion-10 graph size
FULL_NODES = 774

LAMBDA_TOL = 1e-12  # criterion 4's tolerance on lambda = 1 + q_hat(min)

# calls that take milliseconds in a check are timed this many times
CHECK_REPEATS = 3


@dataclass
class Ledger:
    """Operation counts, keyed timings and check failures of one run.

    Every timing carries the key of its unit of work; samples with the same
    key repeat identical work. A unit counts at its fastest sample: on a
    shared host a repeat only gets slower through interference, so the
    fastest repeat is the steadiest estimate of the unit's own cost.
    """

    attempted: int = 0
    failed: int = 0
    timings: dict[str, list[tuple[object, float, int]]] = field(
        default_factory=lambda: defaultdict(list))  # metric -> (key, seconds, items)
    errors: list[str] = field(default_factory=list)

    def op(self, fn, *args, **kwargs):
        """Run one operation; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is a result, not a crash
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, metric: str, key, seconds: float, items: int = 1) -> None:
        self.timings[metric].append((key, seconds, items))

    def timed(self, metric: str, key, fn, *args, repeats: int = 1):
        """Time `repeats` identical calls; return the first call's result."""
        results = []
        for _ in range(repeats):
            start = time.perf_counter()
            results.append(self.op(fn, *args))
            self.record(metric, key, time.perf_counter() - start)
        return results[0]

    def predict_all(self, key, model, probs_list, repeats: int = 1):
        """Public `predict` over a batch, each repeat one throughput sample."""
        for _ in range(repeats):
            start = time.perf_counter()
            sets = [self.op(conformal.predict, model, p) for p in probs_list]
            self.record("predict", key, time.perf_counter() - start, len(sets))
        return sets

    def fastest(self, metric: str) -> dict:
        best: dict = {}
        for key, seconds, _ in self.timings[metric]:
            best[key] = min(seconds, best.get(key, math.inf))
        return best

    def metrics(self) -> dict[str, float]:
        passes = self.fastest("pass")
        batches = self.fastest("predict")
        return {
            "wall_s": sum(passes[key] for key, _, _ in self.timings["pass"]),
            "trial_s": statistics.median(passes.values()),
            "calibrate_s": statistics.median(self.fastest("calibrate").values()),
            "crc_calibrate_s": statistics.median(self.fastest("crc").values()),
            "predict_sets_per_s": (
                sum(items for _, _, items in self.timings["predict"])
                / sum(batches[key] for key, _, _ in self.timings["predict"])),
        }

    def plain(self) -> dict[str, tuple[float, float, int]]:
        """(median, 90th percentile, count) of every raw timing, for reading."""
        out = {}
        for metric, samples in self.timings.items():
            values = sorted(seconds for _, seconds, _ in samples)
            p90 = values[min(len(values) - 1, math.ceil(0.9 * len(values)) - 1)]
            out[metric] = (statistics.median(values), p90, len(values))
        return out


@dataclass(frozen=True)
class Shape:
    """Input sizes of a workload; `tiny` shapes serve the smoke test."""

    n_cal: int
    n_test: int
    n_nodes: int
    units: int     # distinct units of work; pass i repeats unit i % units
    pass_s: float  # seconds per pass at the introducing commit (2-core Xeon)


def pass_count(seconds: float, shape: Shape) -> int:
    return max(1, round(seconds / shape.pass_s))


class Workload:
    """Timed passes plus the checks of their outputs.

    `run_pass` does the timed work and appends the checks of its outputs to
    `pending`. The runner drains `pending` between passes, spreading the
    public calls that checks time across the whole run.
    """

    name = ""
    why = ""
    shapes: dict[str, Shape] = {}

    def __init__(self, seed: int, shape: str, workdir: Path):
        self.seed = seed
        self.shape = self.shapes[shape]
        self.workdir = workdir
        self.pending: list = []  # callables taking the Ledger

    def setup(self) -> None:
        """Build every input from the seed; may run several times."""

    def run_pass(self, index: int, ledger: Ledger) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# desk-heuristic: run_experiment at the acceptance suite's desk shape
# ---------------------------------------------------------------------------


class DeskHeuristic(Workload):
    name = "desk-heuristic"
    why = ("run_experiment, heuristic estimator, desk shape: the paper's experiment "
           "loop, bound by simulation")
    shapes = {"full": Shape(n_cal=500, n_test=200, n_nodes=200, units=5, pass_s=0.7),
              "tiny": Shape(n_cal=40, n_test=20, n_nodes=40, units=3, pass_s=0.1)}

    def config(self, index: int) -> experiment.ExperimentConfig:
        return experiment.ExperimentConfig.desk_scale(
            f"ba:{self.shape.n_nodes},3", DESK_GEN, alphas=ALPHAS,
            betas=BETAS, estimator="heuristic", n_cal=self.shape.n_cal,
            n_test=self.shape.n_test, n_trials=1,
            seed=self.seed * 10_000 + index)

    def setup(self) -> None:
        self.configs = [self.config(i) for i in range(self.shape.units)]
        self.checked = False

    def run_pass(self, index: int, ledger: Ledger) -> None:
        unit = index % self.shape.units
        cfg = self.configs[unit]
        start = time.perf_counter()
        report = ledger.op(self._trial, cfg)
        ledger.record("pass", unit, time.perf_counter() - start)
        if report is not None and not self.checked:
            self.checked = True
            self.pending.append(lambda ledger: self._rederive(cfg, report))

    def _trial(self, cfg):
        report = experiment.run_experiment(cfg)
        experiment.write_reports(report, self.workdir / "trials.csv",
                                 self.workdir / "summary.csv")
        return report

    def _rederive(self, cfg, report) -> None:
        """Rebuild the trial's inputs from the documented substream layout,
        then queue one check per cell and one risk-control check per level."""
        graph = graph_from_spec(cfg.graph_spec, seed=cfg.graph_seed)
        pool = cfg.n_cal + cfg.n_test
        samples = sample_dataset(graph, cfg.generative, pool, cfg.seed,
                                 lambda1=spectral_radius(graph),
                                 seed_path=(DATA_STREAM, 0))
        estimator = build_estimator(cfg.estimator, graph)
        probs = [np.asarray(estimator(s, substream(cfg.seed, EST_STREAM, 0, i)),
                            dtype=np.float64) for i, s in enumerate(samples)]
        perm = substream(cfg.seed, SPLIT_STREAM, 0).permutation(pool)
        cal = [(probs[i], samples[i].sources) for i in perm[:cfg.n_cal]]
        test = [(probs[i], samples[i].sources) for i in perm[cfg.n_cal:]]
        min_models = {}

        def cell(kind, levels, ledger):
            model = ledger.timed("calibrate", kind, conformal.calibrate, cal, kind, levels)
            if model is None:
                return
            if kind == "min":
                min_models[levels] = model
            sets = ledger.predict_all(kind, model, [p for p, _ in test])
            if any(s is None for s in sets):
                return
            hits = [conformal.evaluate_set(s.nodes, y, levels.beta).included
                    for s, (_, y) in zip(sets, test)]
            got = (sum(hits) / cfg.n_test, sum(s.size for s in sets) / cfg.n_test)
            stats = report.cell(kind, levels.alpha, levels.beta)
            want = (stats.inclusion_rates[0], stats.set_sizes[0])
            if got != want:
                ledger.fail(f"cell ({kind}, {levels.alpha}, {levels.beta}): public API "
                            f"gives inclusion, size {got}; run_experiment gives {want}")

        def risk_control(levels, ledger):
            lam = ledger.timed("crc", levels, conformal.crc_calibrate, cal, levels,
                               repeats=CHECK_REPEATS)
            if lam is not None and levels in min_models:
                crc_matches_min(ledger, lam, min_models[levels], [p for p, _ in test])

        grid = [NominalLevels(alpha=a, beta=b) for a in cfg.alphas for b in cfg.betas]
        # min-score cells come before the risk-control checks that reuse them
        for kind in cfg.score_kinds:
            for levels in grid:
                self.pending.append(functools.partial(cell, kind, levels))
        for levels in grid:
            self.pending.append(functools.partial(risk_control, levels))


def crc_matches_min(ledger: Ledger, lam: float, min_model, test_probs) -> None:
    """Criterion 4: lambda = 1 + q_hat(min) and identical prediction sets."""
    q_hat = min_model.q_hat
    if math.isinf(lam) or math.isinf(q_hat):
        same = math.isinf(lam) and math.isinf(q_hat)
    else:
        same = abs(lam - (1.0 + q_hat)) <= LAMBDA_TOL
    if not same:
        ledger.fail(f"crc lambda {lam!r} != 1 + q_hat(min) = {1.0 + q_hat!r}")
        return
    for p in test_probs:
        if not np.array_equal(conformal.crc_predict(lam, p),
                              conformal.predict(min_model, p).nodes):
            ledger.fail(f"crc set differs from min-score set at lambda {lam!r}")
            return


# ---------------------------------------------------------------------------
# fullscale-conformal: library calibrate / predict / crc at n_cal = 7600
# ---------------------------------------------------------------------------


def draw_pairs(rng: np.random.Generator, n_pairs: int, n_nodes: int):
    """(probability vector, source set) pairs shaped like estimator output.

    1-10 sources per sample; each vector mixes the source indicator with
    uniform noise at a random weight. Every other vector is rounded to a few
    levels and lifted by PROB_FLOOR, so ties occur as in heuristic output.
    """
    pairs = []
    for i in range(n_pairs):
        k = int(rng.integers(1, min(10, n_nodes) + 1))
        sources = np.sort(rng.choice(n_nodes, size=k, replace=False))
        signal = np.zeros(n_nodes)
        signal[sources] = 1.0
        weight = rng.random()
        probs = weight * signal + (1.0 - weight) * rng.random(n_nodes)
        if i % 2:
            probs = np.minimum(np.round(probs * 4.0) / 4.0 + PROB_FLOOR, 1.0)
        pairs.append((probs, sources))
    return pairs


class FullscaleConformal(Workload):
    name = "fullscale-conformal"
    why = ("calibrate, predict and crc_calibrate at 7600 / 400 on N = 774 with no "
           "simulation: the only conformal-bound workload")
    shapes = {"full": Shape(n_cal=7600, n_test=400, n_nodes=FULL_NODES, units=1, pass_s=7.5),
              "tiny": Shape(n_cal=60, n_test=20, n_nodes=30, units=1, pass_s=0.1)}

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.cal = draw_pairs(rng, self.shape.n_cal, self.shape.n_nodes)
        self.test = draw_pairs(rng, self.shape.n_test, self.shape.n_nodes)
        self.test_probs = [p for p, _ in self.test]

    def run_pass(self, index: int, ledger: Ledger) -> None:
        start = time.perf_counter()
        models = {kind: ledger.timed("calibrate", kind, conformal.calibrate,
                                     self.cal, kind, LEVELS)
                  for kind in SCORE_KINDS}
        sets = {}
        for kind, model in models.items():
            if model is not None:
                sets[kind] = ledger.predict_all(kind, model, self.test_probs)
                for s, (_, y) in zip(sets[kind], self.test):
                    if s is not None:
                        conformal.evaluate_set(s.nodes, y, LEVELS.beta)
        lam = ledger.timed("crc", None, conformal.crc_calibrate, self.cal, LEVELS)
        crc_sets = None
        if lam is not None:
            crc_sets = [ledger.op(conformal.crc_predict, lam, p) for p in self.test_probs]
        ledger.record("pass", None, time.perf_counter() - start)
        self.pending.append(functools.partial(self._check, models, sets, lam, crc_sets))

    def _check(self, models, sets, lam, crc_sets, ledger: Ledger) -> None:
        """Every set is a prefix of probability_order; crc equals min-score."""
        orders = [conformal.probability_order(p) for p in self.test_probs]
        for kind, kind_sets in sets.items():
            for s, order in zip(kind_sets, orders):
                if s is not None and not np.array_equal(s.nodes, np.sort(order[:s.size])):
                    ledger.fail(f"{kind} set is not a prefix of probability_order")
        if lam is None or models.get("min") is None:
            return
        before = ledger.failed
        crc_matches_min(ledger, lam, models["min"], self.test_probs)
        if ledger.failed == before and crc_sets is not None:
            for got, s in zip(crc_sets, sets["min"]):
                if got is not None and s is not None and not np.array_equal(got, s.nodes):
                    ledger.fail("crc_predict set differs from the min-score set")
                    break


# ---------------------------------------------------------------------------
# cli-chain: the practitioner's five commands, in process
# ---------------------------------------------------------------------------


class CliChain(Workload):
    name = "cli-chain"
    why = ("simulate x2, calibrate, predict, evaluate through sourceset.cli.main on "
           "a 774-node edge-list file: dataset file I/O bound")
    shapes = {"full": Shape(n_cal=500, n_test=200, n_nodes=FULL_NODES, units=2, pass_s=4.0),
              "tiny": Shape(n_cal=30, n_test=15, n_nodes=40, units=2, pass_s=0.2)}

    def setup(self) -> None:
        graph = barabasi_albert_graph(self.shape.n_nodes, 3, seed=0)
        self.edges = self.workdir / "graph.edges"
        save_edge_list(graph, self.edges)

    def commands(self, index: int, files: dict[str, str]) -> list[list[str]]:
        simulate = ["simulate", "--graph", f"file:{self.edges}", "--r0", "1,10",
                    "--sigma-rec", "0.1,0.4", "--sources", "1,10"]
        base = self.seed * 10_000 + 2 * index
        return [
            simulate + ["--samples", str(self.shape.n_cal), "--seed", str(base),
                        "--out", files["cal"]],
            simulate + ["--samples", str(self.shape.n_test), "--seed", str(base + 1),
                        "--out", files["test"]],
            ["calibrate", "--data", files["cal"], "--score", "rec",
             "--alpha", str(LEVELS.alpha), "--beta", str(LEVELS.beta),
             "--estimator", "heuristic", "--out", files["model"]],
            ["predict", "--model", files["model"], "--data", files["test"],
             "--out", files["sets"]],
            ["evaluate", "--sets", files["sets"], "--data", files["test"],
             "--out", files["eval"]],
        ]

    def run_pass(self, index: int, ledger: Ledger) -> None:
        unit = index % self.shape.units
        chain_dir = self.workdir / f"chain{index}"
        chain_dir.mkdir(exist_ok=True)
        files = {name: str(chain_dir / f"{name}.{ext}") for name, ext in (
            ("cal", "jsonl"), ("test", "jsonl"), ("model", "json"), ("sets", "jsonl"),
            ("eval", "csv"))}
        commands = self.commands(unit, files)
        codes, echoed = [], ""
        start = time.perf_counter()
        for argv in commands:
            out = io.StringIO()
            ledger.attempted += 1
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            codes.append(code)
            echoed = out.getvalue()
        ledger.record("pass", unit, time.perf_counter() - start)
        for argv, code in zip(commands, codes):
            if code != 0:
                ledger.fail(f"`sourceset {argv[0]}` exited {code}")
        if all(code == 0 for code in codes):
            self.pending.append(functools.partial(self._check, unit, files, echoed))

    def _check(self, unit: int, files: dict[str, str], echoed: str,
               ledger: Ledger) -> None:
        self.check_rate(ledger, files, echoed)
        self.check_against_library(ledger, unit, files)
        for path in files.values():
            Path(path).unlink()

    def check_rate(self, ledger: Ledger, files: dict[str, str], echoed: str) -> None:
        """`evaluate`'s inclusion rate equals the rate recomputed from the files."""
        sources = {}
        for rec in read_jsonl(files["test"]):
            if rec.get("record") == "sample":
                sources[rec["index"]] = set(rec["sources"])
        included = total = 0
        for rec in read_jsonl(files["sets"]):
            if rec.get("record") == "prediction":
                truth = sources[rec["index"]]
                hits = len(truth.intersection(rec["nodes"]))
                included += hits >= required_hits(len(truth), LEVELS.beta)
                total += 1
        fields = dict(tok.split("=", 1) for tok in echoed.split())
        expected = repr(included / total) if total else "none"
        if fields.get("inclusion_rate") != expected:
            ledger.fail(f"evaluate printed inclusion_rate={fields.get('inclusion_rate')}"
                        f", the sets file gives {expected}")

    def check_against_library(self, ledger: Ledger, unit: int,
                              files: dict[str, str]) -> None:
        """The CLI's threshold and sets equal the public library's on the same files."""
        cal, header = load_dataset(files["cal"])
        test, _ = load_dataset(files["test"])
        graph = graph_from_spec(header["config"]["graph_spec"],
                                seed=header["config"].get("graph_seed", 0))
        estimator = build_estimator("heuristic", graph)
        # the CLI's default estimator seed is 0, one substream per sample index
        cal_pairs = [(estimator(s, substream(0, s.index)), s.sources) for s in cal]
        test_probs = [estimator(s, substream(0, s.index)) for s in test]

        model = ledger.timed("calibrate", (unit, "rec"), conformal.calibrate, cal_pairs,
                             "rec", LEVELS, repeats=CHECK_REPEATS)
        cli_model, _ = conformal.load_model(files["model"])
        if model is None or model.q_hat != cli_model.q_hat:
            ledger.fail(f"library q_hat {getattr(model, 'q_hat', None)!r} != CLI "
                        f"q_hat {cli_model.q_hat!r}")
            return
        sets = ledger.predict_all(unit, model, test_probs, repeats=CHECK_REPEATS)
        cli_sets = {rec["index"]: rec["nodes"] for rec in read_jsonl(files["sets"])
                    if rec.get("record") == "prediction"}
        for s, sample in zip(sets, test):
            if s is None or s.nodes.tolist() != cli_sets.get(sample.index):
                ledger.fail(f"library set for sample {sample.index} != CLI set")
                break
        min_model = ledger.timed("calibrate", (unit, "min"), conformal.calibrate,
                                 cal_pairs, "min", LEVELS, repeats=CHECK_REPEATS)
        lam = ledger.timed("crc", unit, conformal.crc_calibrate, cal_pairs, LEVELS,
                           repeats=CHECK_REPEATS)
        if min_model is not None and lam is not None:
            crc_matches_min(ledger, lam, min_model, test_probs)


WORKLOADS = {w.name: w for w in (DeskHeuristic, FullscaleConformal, CliChain)}
