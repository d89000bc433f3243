"""End-to-end evaluation harness: repeated splits, inclusion rates, CSV reports.

Each trial draws a fresh pooled dataset, splits it uniformly at random into
calibration and test halves (pool-then-split keeps the halves exchangeable by
construction), calibrates one threshold per (score, alpha, beta) cell, and
evaluates inclusion (recall >= 1-beta) and set size on the test half. Results
aggregate over trials with mean and standard error.

Substream layout under the master seed:
    (0, trial, i)  dataset sample i of a trial
    (1, trial)     calibration/test split permutation
    (2, trial, i)  estimator randomness for sample i, created only for the
                   estimators that draw from it ("oracle:", "mc:")
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sourceset import conformal
from sourceset.conformal import NominalLevels, SCORE_KINDS
from sourceset.diffusion import GenerativeConfig, sample_dataset
from sourceset.estimators import build_estimator, estimate_blocks, parse_estimator_spec
from sourceset.graph import Graph, graph_from_spec, spectral_radius
from sourceset.util import config_hash, substream, VERSION, TOOL_NAME

_STREAM_DATA, _STREAM_SPLIT, _STREAM_EST = 0, 1, 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one repeated-splits experiment.

    Defaults mirror the full-scale evaluation protocol (7600 calibration /
    400 test samples over 50 splits); `desk_scale` is the fast preset used
    by the acceptance suite.
    """

    graph_spec: str
    generative: GenerativeConfig
    alphas: tuple[float, ...] = (0.05, 0.1, 0.15)
    betas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
    score_kinds: tuple[str, ...] = SCORE_KINDS
    estimator: str = "heuristic"
    n_cal: int = 7600
    n_test: int = 400
    n_trials: int = 50
    seed: int = 0
    graph_seed: int = 0

    def __post_init__(self):
        for name in ("graph_spec", "estimator"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("alphas", "betas", "score_kinds"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        for name, least in (("n_cal", 1), ("n_test", 1), ("n_trials", 1),
                            ("seed", 0), ("graph_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if not self.alphas or not self.betas:
            raise ValueError("need at least one alpha and one beta")
        for kind in self.score_kinds:
            if kind not in SCORE_KINDS:
                raise ValueError(f"unknown score kind {kind!r}")
        parse_estimator_spec(self.estimator)  # grammar only; a file: path is not read
        # fail fast on invalid levels
        for a in self.alphas:
            for b in self.betas:
                NominalLevels(alpha=a, beta=b)

    @classmethod
    def desk_scale(cls, graph_spec: str, generative: GenerativeConfig,
                   **overrides) -> "ExperimentConfig":
        values = dict(n_cal=500, n_test=200, n_trials=100)
        values.update(overrides)
        return cls(graph_spec=graph_spec, generative=generative, **values)

    def to_dict(self) -> dict:
        return {
            "graph_spec": self.graph_spec,
            "generative": self.generative.to_dict(),
            "alphas": list(self.alphas),
            "betas": list(self.betas),
            "score_kinds": list(self.score_kinds),
            "estimator": self.estimator,
            "n_cal": self.n_cal,
            "n_test": self.n_test,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "graph_seed": self.graph_seed,
        }


@dataclass
class CellStats:
    """Per-(score, alpha, beta) results across trials."""

    score: str
    alpha: float
    beta: float
    inclusion_rates: np.ndarray
    set_sizes: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.inclusion_rates.size

    @property
    def inclusion_mean(self) -> float:
        return float(self.inclusion_rates.mean())

    @property
    def inclusion_stderr(self) -> float:
        if self.n_trials < 2:
            return math.nan
        return float(self.inclusion_rates.std(ddof=1) / math.sqrt(self.n_trials))

    @property
    def size_mean(self) -> float:
        return float(self.set_sizes.mean())

    @property
    def size_stderr(self) -> float:
        if self.n_trials < 2:
            return math.nan
        return float(self.set_sizes.std(ddof=1) / math.sqrt(self.n_trials))


@dataclass
class TrialReport:
    """Aggregated experiment output plus per-trial raw vectors."""

    config: ExperimentConfig
    cells: list[CellStats]
    trial_runtimes: list[float] = field(default_factory=list)
    total_runtime: float = 0.0

    def cell(self, score: str, alpha: float, beta: float) -> CellStats:
        for c in self.cells:
            if c.score == score and c.alpha == alpha and c.beta == beta:
                return c
        raise KeyError(f"no cell ({score}, {alpha}, {beta})")


def _run_trial(graph: Graph, cfg: ExperimentConfig, estimator, lambda1: float | None,
               trial: int) -> dict[tuple[str, float, float], tuple[float, float]]:
    pool_n = cfg.n_cal + cfg.n_test
    samples = sample_dataset(graph, cfg.generative, pool_n, cfg.seed,
                             lambda1=lambda1, seed_path=(_STREAM_DATA, trial))
    perm = substream(cfg.seed, _STREAM_SPLIT, trial).permutation(pool_n)
    # repeated levels name the same cell; each cell is scored once
    kinds, alphas, betas = (tuple(dict.fromkeys(levels))
                            for levels in (cfg.score_kinds, cfg.alphas, cfg.betas))

    def blocks(indices):
        # each estimator block is ranked once and shared by every cell
        for block, probs in estimate_blocks(
                estimator, (samples[i] for i in indices),
                lambda sample: substream(cfg.seed, _STREAM_EST, trial, sample.index)):
            yield conformal.RankedBlock(probs, [s.sources for s in block])

    cal_scores: dict[tuple[str, float], list[np.ndarray]] = {
        (kind, beta): [] for kind in kinds for beta in betas}
    for block in blocks(perm[:cfg.n_cal]):
        for kind, beta in cal_scores:
            cal_scores[kind, beta].append(block.shrunk_scores(kind, beta))
    q_hats = {(kind, alpha, beta): conformal.finite_sample_quantile(
                  np.concatenate(cal_scores[kind, beta]), alpha)
              for kind in kinds for alpha in alphas for beta in betas}

    # a test set is its row's largest closure scoring <= q_hat, as in predict;
    # each block reads the sets of all of a kind's cells at once
    included = dict.fromkeys(q_hats, 0)
    total_size = dict.fromkeys(q_hats, 0)
    for block in blocks(perm[cfg.n_cal:]):
        for kind in kinds:
            cells = [cell for cell in q_hats if cell[0] == kind]
            floors = block.test_set_floors(kind, [q_hats[cell] for cell in cells])
            sizes = np.count_nonzero(block.probs >= floors[:, :, None], axis=(1, 2))
            for cell, size, floor in zip(cells, sizes, floors):
                total_size[cell] += int(size)
                included[cell] += int(np.count_nonzero(block.included(floor, cell[2])))
    return {cell: (included[cell] / cfg.n_test, total_size[cell] / cfg.n_test)
            for cell in q_hats}


def run_experiment(cfg: ExperimentConfig, graph: Graph | None = None) -> TrialReport:
    """Run all trials and aggregate per-cell statistics.

    Deterministic for a fixed config: per-trial seeds derive from the master
    seed, so reruns produce identical reports.
    """
    started = time.perf_counter()
    if graph is None:
        graph = graph_from_spec(cfg.graph_spec, seed=cfg.graph_seed)
    lambda1 = spectral_radius(graph) if cfg.generative.needs_lambda1 else None
    estimator = build_estimator(cfg.estimator, graph)

    outcomes = []
    runtimes = []
    for trial in range(cfg.n_trials):
        t0 = time.perf_counter()
        outcomes.append(_run_trial(graph, cfg, estimator, lambda1, trial))
        runtimes.append(time.perf_counter() - t0)

    cells = []
    for kind in cfg.score_kinds:
        for alpha in cfg.alphas:
            for beta in cfg.betas:
                inc = np.asarray([o[(kind, alpha, beta)][0] for o in outcomes])
                size = np.asarray([o[(kind, alpha, beta)][1] for o in outcomes])
                cells.append(CellStats(score=kind, alpha=alpha, beta=beta,
                                       inclusion_rates=inc, set_sizes=size))
    return TrialReport(config=cfg, cells=cells, trial_runtimes=runtimes,
                       total_runtime=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[tuple[object, TrialReport]]:
    """One report per axis value; all reports share the master seed, so sweeps
    over nominal levels are paired on identical datasets.

    An alpha or beta sweep runs the experiment once over all its values and
    splits the cells by value. A cell depends only on its own (score, alpha,
    beta), so each report equals a run with that value alone, except that
    its runtimes are those of the shared run. An r0 or n_sources sweep
    builds the graph once and runs every value on it.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if axis in ("alpha", "beta"):
        field_name = f"{axis}s"
        unique = tuple(dict.fromkeys(float(v) for v in values))
        shared = run_experiment(replace(cfg, **{field_name: unique}))
        reports = []
        for value in values:
            level = float(value)
            cells = [c for c in shared.cells if getattr(c, axis) == level]
            reports.append((value, TrialReport(
                config=replace(cfg, **{field_name: (level,)}), cells=cells,
                trial_runtimes=shared.trial_runtimes,
                total_runtime=shared.total_runtime)))
        return reports
    if axis not in ("r0", "n_sources"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    # every value runs on the one graph of the spec
    graph = graph_from_spec(cfg.graph_spec, seed=cfg.graph_seed)
    reports = []
    for value in values:
        if axis == "r0":
            rng = tuple(value) if isinstance(value, (tuple, list)) \
                else (float(value), float(value))
            sub = replace(cfg, generative=replace(cfg.generative, r0=rng,
                                                  sigma_inf=None))
        else:
            count = tuple(int(v) for v in value) if isinstance(value, (tuple, list)) \
                else (int(value), int(value))
            sub = replace(cfg, generative=replace(cfg.generative, source_count=count))
        reports.append((value, run_experiment(sub, graph=graph)))
    return reports


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return repr(float(x))


def _comment_header(cfg: ExperimentConfig) -> str:
    return (f"# tool={TOOL_NAME} version={VERSION} seed={cfg.seed} "
            f"config_hash={config_hash(cfg.to_dict())}\n")


def write_reports(report: TrialReport, trials_path, summary_path,
                  include_timing: bool = False) -> None:
    """Write the per-trial and aggregated CSV reports.

    Timing values are wall-clock and vary between runs, so the runtime_s
    column is left empty unless include_timing=True; with timing off,
    identical config + seed produces byte-identical files.
    """
    cfg = report.config
    with open(trials_path, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(cfg))
        fh.write("score,alpha,beta,trial,inclusion_rate,mean_set_size,runtime_s\n")
        for cell in report.cells:
            for t in range(cell.n_trials):
                runtime = _fmt(report.trial_runtimes[t]) if include_timing else ""
                fh.write(f"{cell.score},{_fmt(cell.alpha)},{_fmt(cell.beta)},{t},"
                         f"{_fmt(cell.inclusion_rates[t])},"
                         f"{_fmt(cell.set_sizes[t])},{runtime}\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(cfg))
        fh.write("score,alpha,beta,n_trials,inclusion_mean,inclusion_stderr,"
                 "set_size_mean,set_size_stderr\n")
        for cell in report.cells:
            fh.write(f"{cell.score},{_fmt(cell.alpha)},{_fmt(cell.beta)},"
                     f"{cell.n_trials},{_fmt(cell.inclusion_mean)},"
                     f"{_fmt(cell.inclusion_stderr)},{_fmt(cell.size_mean)},"
                     f"{_fmt(cell.size_stderr)}\n")
