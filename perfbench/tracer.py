"""Per-module tracing for the benchmark, done entirely from outside the package.

`Tracer.install()` replaces public functions of the `sourceset` modules with
timing wrappers, at the module attribute the caller looks up (for example
`sourceset.experiment.sample_dataset`, because `experiment` imported the name
from `diffusion`). `Tracer.remove()` puts the originals back.

Each span records its own self time: its duration minus the part covered by
the wrapped calls it made. Counts are taken at the same boundaries. Time spent
computing those counts is charged to no module, so that it shows up only as
tracing overhead.

Only public names are wrapped. A missing name raises `TraceError` instead of
silently reporting zero for that module.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from sourceset import cli, conformal, diffusion, experiment
from sourceset.diffusion import SUSCEPTIBLE
from sourceset.estimators import PROB_FLOOR

# per-layer metric name -> unit, in the order they are reported
METRICS = {
    "graph.load_s": "s",
    "graph.spectral_s": "s",
    "graph.edges": "count",
    "diffusion.simulate_s": "s",
    "diffusion.samples": "count",
    "diffusion.node_steps": "count",
    "diffusion.save_s": "s",
    "diffusion.load_s": "s",
    "diffusion.bytes_written": "bytes",
    "diffusion.bytes_read": "bytes",
    "estimators.score_s": "s",
    "estimators.calls": "count",
    "estimators.mc_cascades": "count",
    "estimators.floor_share": "share",
    "conformal.calibrate_s": "s",
    "conformal.predict_s": "s",
    "conformal.crc_s": "s",
    "conformal.rank_s": "s",
    "conformal.quantile_s": "s",
    "conformal.cal_scores": "count",
    "conformal.inf_thresholds": "count",
    "conformal.tie_share": "share",
    "experiment.self_s": "s",
    "experiment.report_s": "s",
    "cli.simulate_s": "s",
    "cli.calibrate_s": "s",
    "cli.predict_s": "s",
    "cli.evaluate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# self-time metrics of each module; they never overlap, so their sum is the
# module's share of the traced run (cli.<command>_s are inclusive, not self)
MODULE_SELF = {
    "graph": ("graph.load_s", "graph.spectral_s"),
    "diffusion": ("diffusion.simulate_s", "diffusion.save_s", "diffusion.load_s"),
    "estimators": ("estimators.score_s",),
    "conformal": ("conformal.calibrate_s", "conformal.predict_s", "conformal.crc_s",
                  "conformal.rank_s", "conformal.quantile_s"),
    "experiment": ("experiment.self_s", "experiment.report_s"),
    "cli": ("cli.self_s",),
}

CLI_COMMANDS = ("simulate", "calibrate", "predict", "evaluate")


class TraceError(RuntimeError):
    """A public name the tracer must wrap does not exist."""


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # per open span: time covered by children
        self._originals: list[tuple[object, str, object]] = []

    # -- span machinery -----------------------------------------------------

    def _timed(self, fn, self_metric, args, kwargs, inclusive_metric=None):
        covered = [0.0]
        self._open.append(covered)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.seconds[self_metric] += elapsed - covered[0]
            if inclusive_metric is not None:
                self.seconds[inclusive_metric] += elapsed
            if self._open:
                self._open[-1][0] += elapsed

    def _untimed(self, fn, *args):
        """Run bookkeeping so that no enclosing span is charged for it."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if self._open:
                self._open[-1][0] += time.perf_counter() - start

    def _span(self, metric, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed(fn, metric, args, kwargs)
            if after is not None:
                self._untimed(after, result, args, kwargs)
            return result
        return wrapper

    def _patch(self, module, name, make_wrapper):
        original = getattr(module, name, None)
        if original is None:
            raise TraceError(f"{module.__name__}.{name} is missing; "
                             "the traced run cannot attribute its time")
        setattr(module, name, make_wrapper(original))
        self._originals.append((module, name, original))

    # -- counters -----------------------------------------------------------

    def _count_edges(self, graph, args, kwargs):
        self.counts["graph.edges"] += graph.n_edges

    def _count_samples(self, samples, args, kwargs):
        self.counts["diffusion.samples"] += len(samples)

    def _count_node_steps(self, traj, args, kwargs):
        self.counts["diffusion.node_steps"] += traj.n_nodes * traj.horizon

    def _count_written(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["diffusion.bytes_written"] += os.path.getsize(path)

    def _count_read(self, result, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counts["diffusion.bytes_read"] += os.path.getsize(path)

    def _count_quantile(self, q_hat, args, kwargs):
        values = np.asarray(args[0] if args else kwargs["values"], dtype=np.float64)
        self.counts["conformal.cal_scores"] += values.size
        if np.isinf(q_hat):
            self.counts["conformal.inf_thresholds"] += 1
        else:
            self.counts["conformal.tied_scores"] += int(np.count_nonzero(values == q_hat))

    def _count_crc(self, lam, args, kwargs):
        if np.isinf(lam):
            self.counts["conformal.inf_thresholds"] += 1

    def _wrap_estimator(self, estimator, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        kind, _, arg = spec.partition(":")
        k_sims = (int(arg) if arg else 50) if kind == "mc" else 0  # build_estimator's default

        def count(probs, sample, rng):
            probs = np.asarray(probs)
            self.counts["estimators.calls"] += 1
            self.counts["estimators.entries"] += probs.size
            self.counts["estimators.floor_entries"] += int(np.count_nonzero(probs <= PROB_FLOOR))
            if k_sims:
                # documented candidate rule of estimate_monte_carlo: the I/R
                # support of the first snapshot, or every node when it is empty
                first = sample.x.statuses[:, 0]
                support = int(np.count_nonzero(first != SUSCEPTIBLE))
                self.counts["estimators.mc_cascades"] += (support or first.size) * k_sims

        @functools.wraps(estimator)
        def traced(sample, rng):
            probs = self._timed(estimator, "estimators.score_s", (sample, rng), {})
            self._untimed(count, probs, sample, rng)
            return probs
        return traced

    # -- install / remove ---------------------------------------------------

    def _wrap_estimator_factory(self, build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            estimator = build(*args, **kwargs)
            return self._untimed(self._wrap_estimator, estimator, args, kwargs)
        return wrapper

    def _wrap_cli_main(self, main):
        @functools.wraps(main)
        def wrapper(argv=None):
            command = argv[0] if argv else ""
            inclusive = f"cli.{command}_s" if command in CLI_COMMANDS else None
            return self._timed(main, "cli.self_s", (argv,), {}, inclusive)
        return wrapper

    def install(self) -> None:
        span = self._span
        for module in (experiment, cli):
            self._patch(module, "graph_from_spec",
                        lambda f: span("graph.load_s", f, self._count_edges))
            self._patch(module, "sample_dataset",
                        lambda f: span("diffusion.simulate_s", f, self._count_samples))
            self._patch(module, "build_estimator", self._wrap_estimator_factory)
        for module in (experiment, diffusion):
            self._patch(module, "spectral_radius", lambda f: span("graph.spectral_s", f))
        # simulate is part of sample_dataset's span; wrapped only to count work
        self._patch(diffusion, "simulate",
                    lambda f: span("diffusion.simulate_s", f, self._count_node_steps))
        self._patch(cli, "save_dataset",
                    lambda f: span("diffusion.save_s", f, self._count_written))
        self._patch(cli, "load_dataset",
                    lambda f: span("diffusion.load_s", f, self._count_read))
        self._patch(conformal, "calibrate", lambda f: span("conformal.calibrate_s", f))
        self._patch(conformal, "predict", lambda f: span("conformal.predict_s", f))
        self._patch(conformal, "crc_calibrate",
                    lambda f: span("conformal.crc_s", f, self._count_crc))
        self._patch(conformal, "crc_predict", lambda f: span("conformal.crc_s", f))
        self._patch(conformal, "probability_order", lambda f: span("conformal.rank_s", f))
        self._patch(conformal, "finite_sample_quantile",
                    lambda f: span("conformal.quantile_s", f, self._count_quantile))
        self._patch(experiment, "run_experiment", lambda f: span("experiment.self_s", f))
        self._patch(experiment, "write_reports", lambda f: span("experiment.report_s", f))
        self._patch(cli, "main", self._wrap_cli_main)

    def remove(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        values = {}
        for name, unit in METRICS.items():
            if unit == "s":
                values[name] = self.seconds[name]
            else:
                values[name] = self.counts[name]
        entries = self.counts["estimators.entries"]
        values["estimators.floor_share"] = (
            self.counts["estimators.floor_entries"] / entries if entries else 0.0)
        scores = self.counts["conformal.cal_scores"]
        values["conformal.tie_share"] = (
            self.counts["conformal.tied_scores"] / scores if scores else 0.0)
        values["trace.overhead_s"] = overhead_s
        return values

    def module_seconds(self) -> dict[str, float]:
        return {module: sum(self.seconds[m] for m in names)
                for module, names in MODULE_SELF.items()}
