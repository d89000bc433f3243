"""Discrete-time SIR/SI simulation and labeled dataset generation.

The simulator is an independent-cascade process: at each step every infected
node attempts to infect each susceptible neighbor with probability sigma_inf,
so a susceptible node with k infected neighbors turns infected with
probability 1 - (1 - sigma_inf)^k. Updates are synchronous: infections and
recoveries at step t both read the statuses at t - 1, and a node infected at
step t cannot recover at step t. Setting sigma_rec = 0 yields the SI model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from sourceset.graph import Graph, spectral_radius
from sourceset.util import as_generator, substream, write_jsonl_header, read_jsonl

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2
STATUS_ALPHABET = "SIR"
_STATUS_CODE = {c: i for i, c in enumerate(STATUS_ALPHABET)}

# Substream layout used by sample_dataset: sample i draws from
# substream(seed, *seed_path, i). Experiment code reserves path prefixes.
DEFAULT_HORIZON = 40
DEFAULT_SNAPSHOTS = 16


@dataclass(frozen=True)
class SirParams:
    """Infection/recovery rates plus the simulation length.

    If built from a basic reproduction number r0 via `from_r0`, the infection
    rate is derived as sigma_inf = r0 * sigma_rec / lambda1 where lambda1 is
    the graph's spectral radius; the derived value must land in (0, 1].
    """

    sigma_inf: float
    sigma_rec: float
    horizon: int = DEFAULT_HORIZON
    r0: float | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma_inf <= 1.0:
            raise ValueError(f"sigma_inf must be in (0, 1], got {self.sigma_inf}")
        if not 0.0 <= self.sigma_rec < 1.0:
            raise ValueError(f"sigma_rec must be in [0, 1), got {self.sigma_rec}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @classmethod
    def from_r0(cls, r0: float, sigma_rec: float, lambda1: float,
                horizon: int = DEFAULT_HORIZON) -> "SirParams":
        if sigma_rec <= 0.0:
            raise ValueError("r0 parameterization requires sigma_rec > 0")
        if lambda1 <= 0.0:
            raise ValueError("r0 parameterization requires a positive spectral radius")
        sigma_inf = r0 * sigma_rec / lambda1
        if not 0.0 < sigma_inf <= 1.0:
            raise ValueError(
                f"derived sigma_inf = {sigma_inf} outside (0, 1] "
                f"(r0={r0}, sigma_rec={sigma_rec}, lambda1={lambda1})")
        return cls(sigma_inf=sigma_inf, sigma_rec=sigma_rec, horizon=horizon, r0=r0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Full status history: statuses[t, v] for t = 0..horizon."""

    statuses: np.ndarray  # (horizon + 1, n_nodes) int8
    sources: np.ndarray   # sorted node indices

    @property
    def horizon(self) -> int:
        return self.statuses.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        return self.statuses.shape[1]

    def status_at(self, t: int) -> np.ndarray:
        return self.statuses[t]


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Observed input: statuses[v, j] at observation instants times[j]."""

    statuses: np.ndarray  # (n_nodes, n_snapshots) int8
    times: np.ndarray     # strictly increasing observation instants

    def __post_init__(self):
        if self.times.size < 1:
            raise ValueError("need at least one snapshot")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("observation times must be strictly increasing")

    @property
    def n_nodes(self) -> int:
        return self.statuses.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.statuses.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One (observed snapshots, true source set) pair with its generative params."""

    index: int
    x: SnapshotMatrix
    sources: np.ndarray
    params: SirParams


def _check_sources(sources, n_nodes: int) -> np.ndarray:
    arr = np.unique(np.asarray(sources, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("source set must be non-empty")
    if arr.min() < 0 or arr.max() >= n_nodes:
        raise ValueError("source index out of range")
    return arr


def simulate(graph: Graph, params: SirParams, sources, seed) -> Trajectory:
    """Run one SIR cascade from the given source set.

    Deterministic for a fixed seed: infection attempts are drawn in
    (infected node asc, neighbor asc) order, then recovery draws in
    infected-node order.
    """
    src = _check_sources(sources, graph.n_nodes)
    rng = as_generator(seed)
    frames = np.empty((params.horizon + 1, graph.n_nodes), dtype=np.int8)
    frames[0] = SUSCEPTIBLE
    frames[0, src] = INFECTED
    for t in range(1, params.horizon + 1):
        prev = frames[t - 1]
        cur = prev.copy()
        infected = np.flatnonzero(prev == INFECTED)
        if infected.size:
            contacts = graph.neighbors_of_many(infected)
            contacts = contacts[prev[contacts] == SUSCEPTIBLE]
            if contacts.size:
                hits = contacts[rng.random(contacts.size) < params.sigma_inf]
                cur[hits] = INFECTED
            if params.sigma_rec > 0.0:
                recovered = infected[rng.random(infected.size) < params.sigma_rec]
                cur[recovered] = RECOVERED
        frames[t] = cur
    return Trajectory(statuses=frames, sources=src)


def observe(traj: Trajectory, t_first: int, n_snapshots: int = DEFAULT_SNAPSHOTS,
            stride: int = 1) -> SnapshotMatrix:
    """Extract the observed snapshot window t_first, t_first+stride, ..."""
    if t_first < 1:
        raise ValueError("t_first must be >= 1")
    if n_snapshots < 1 or stride < 1:
        raise ValueError("n_snapshots and stride must be >= 1")
    t_last = t_first + (n_snapshots - 1) * stride
    if t_last > traj.horizon:
        raise ValueError(
            f"observation window ends at {t_last} but horizon is {traj.horizon}")
    times = np.arange(t_first, t_last + 1, stride, dtype=np.int64)
    return SnapshotMatrix(statuses=traj.statuses[times].T.copy(), times=times)


# ---------------------------------------------------------------------------
# Dataset sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerativeConfig:
    """Distributions for one generative configuration.

    Range fields accept either a (low, high) pair for a uniform draw or a
    single number for a fixed value. Exactly one of r0 / sigma_inf must be
    set; with r0, sigma_inf is derived per sample from the graph's spectral
    radius. t_first is either an explicit instant or "auto": observation
    starts at 2 when the outbreak is slow to notice (single source, or
    r0 in [1, 15]) and at 1 otherwise.
    """

    source_count: tuple[int, int] | int = (1, 15)
    r0: tuple[float, float] | float | None = (1.0, 15.0)
    sigma_inf: tuple[float, float] | float | None = None
    sigma_rec: tuple[float, float] | float = (0.1, 0.4)
    horizon: int = DEFAULT_HORIZON
    n_snapshots: int = DEFAULT_SNAPSHOTS
    stride: int = 1
    t_first: int | str = "auto"

    def __post_init__(self):
        if (self.r0 is None) == (self.sigma_inf is None):
            raise ValueError("exactly one of r0 / sigma_inf must be given")
        if isinstance(self.t_first, str) and self.t_first != "auto":
            raise ValueError(f"t_first must be an integer or 'auto', got {self.t_first!r}")

    def to_dict(self) -> dict:
        return {
            "source_count": self.source_count, "r0": self.r0,
            "sigma_inf": self.sigma_inf, "sigma_rec": self.sigma_rec,
            "horizon": self.horizon, "n_snapshots": self.n_snapshots,
            "stride": self.stride, "t_first": self.t_first,
        }


def _draw(rng: np.random.Generator, spec) -> float:
    if isinstance(spec, (tuple, list)):
        lo, hi = spec
        if hi < lo:
            raise ValueError(f"bad range {spec}")
        return float(lo) if lo == hi else float(rng.uniform(lo, hi))
    return float(spec)


def _upper(spec) -> float:
    """Largest value `_draw` can return for a range or fixed-value spec."""
    return float(max(spec)) if isinstance(spec, (tuple, list)) else float(spec)


def _draw_int(rng: np.random.Generator, spec) -> int:
    if isinstance(spec, (tuple, list)):
        lo, hi = int(spec[0]), int(spec[1])
        if hi < lo:
            raise ValueError(f"bad range {spec}")
        return lo if lo == hi else int(rng.integers(lo, hi + 1))
    return int(spec)


def auto_first_observation(n_sources: int, r0: float | None) -> int:
    """Start observing at 2 for slow outbreaks (single source or r0 in [1, 15])."""
    if n_sources == 1:
        return 2
    if r0 is not None and 1.0 <= r0 <= 15.0:
        return 2
    return 1


def sample_dataset(graph: Graph, gen: GenerativeConfig, n_samples: int, seed: int,
                   lambda1: float | None = None,
                   seed_path: tuple[int, ...] = ()) -> list[LabeledSample]:
    """Draw i.i.d. labeled samples under one generative configuration.

    Sample i uses the RNG substream (seed, *seed_path, i), so datasets are
    byte-identical on re-run and independent of execution order. Source sets
    are drawn uniformly without replacement from all nodes. An r0 range whose
    upper ends derive sigma_inf > 1 is rejected before the first sample.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    max_sources = gen.source_count[1] if isinstance(gen.source_count, (tuple, list)) \
        else gen.source_count
    if max_sources > graph.n_nodes:
        raise ValueError("source_count exceeds number of nodes")
    needs_lambda1 = gen.r0 is not None or gen.t_first == "auto"
    if needs_lambda1 and lambda1 is None:
        lambda1 = spectral_radius(graph)
    if gen.r0 is not None:
        # sigma_inf = r0 * sigma_rec / lambda1 is largest at both upper ends
        worst = _upper(gen.r0) * _upper(gen.sigma_rec) / lambda1
        if worst > 1.0:
            raise ValueError(
                f"r0 range can derive sigma_inf = {worst:.6g} > 1 "
                f"(r0 up to {_upper(gen.r0)}, sigma_rec up to "
                f"{_upper(gen.sigma_rec)}, lambda1={lambda1:.6g})")
    samples = []
    for i in range(n_samples):
        rng = substream(seed, *seed_path, i)
        k = _draw_int(rng, gen.source_count)
        sigma_rec = _draw(rng, gen.sigma_rec)
        if gen.r0 is not None:
            r0 = _draw(rng, gen.r0)
            sigma_inf = r0 * sigma_rec / lambda1
        else:
            sigma_inf = _draw(rng, gen.sigma_inf)
            r0 = sigma_inf * lambda1 / sigma_rec if sigma_rec > 0.0 and lambda1 else None
        sources = np.sort(rng.choice(graph.n_nodes, size=k, replace=False))
        t_first = gen.t_first if isinstance(gen.t_first, int) \
            else auto_first_observation(k, r0)
        t_last = t_first + (gen.n_snapshots - 1) * gen.stride
        if t_last > gen.horizon:
            raise ValueError(
                f"observation window ends at {t_last} but horizon is {gen.horizon}")
        params = SirParams(sigma_inf=sigma_inf, sigma_rec=sigma_rec,
                           horizon=t_last, r0=r0)
        traj = simulate(graph, params, sources, rng)
        x = observe(traj, t_first, gen.n_snapshots, gen.stride)
        samples.append(LabeledSample(index=i, x=x, sources=sources, params=params))
    return samples


# ---------------------------------------------------------------------------
# Dataset serialization (JSON lines; one record per sample)
# ---------------------------------------------------------------------------
#
# First line: provenance header. Sample records:
#   {"record": "sample", "index": i, "times": [...],
#    "status": ["SSIR...", ...]    one length-N string per snapshot,
#    "sources": [...], "sigma_inf": f, "sigma_rec": f, "r0": f|null,
#    "horizon": h}


def _status_strings(x: SnapshotMatrix) -> list[str]:
    chars = np.array(list(STATUS_ALPHABET))
    return ["".join(chars[x.statuses[:, j]]) for j in range(x.n_snapshots)]


def save_dataset(samples: list[LabeledSample], path, seed, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl_header(fh, "dataset", seed, config)
        for s in samples:
            rec = {
                "record": "sample",
                "index": s.index,
                "times": s.x.times.tolist(),
                "status": _status_strings(s.x),
                "sources": s.sources.tolist(),
                "sigma_inf": s.params.sigma_inf,
                "sigma_rec": s.params.sigma_rec,
                "r0": s.params.r0,
                "horizon": s.params.horizon,
            }
            fh.write(json.dumps(rec) + "\n")


def load_dataset(path) -> tuple[list[LabeledSample], dict]:
    """Read a dataset file; returns (samples, header)."""
    header: dict = {}
    samples: list[LabeledSample] = []
    for rec in read_jsonl(path):
        if rec.get("record") == "header":
            header = rec
            continue
        if rec.get("record") != "sample":
            raise ValueError(f"{path}: unexpected record {rec.get('record')!r}")
        times = np.asarray(rec["times"], dtype=np.int64)
        cols = []
        for snap in rec["status"]:
            cols.append([_STATUS_CODE[c] for c in snap])
        statuses = np.asarray(cols, dtype=np.int8).T
        x = SnapshotMatrix(statuses=statuses, times=times)
        params = SirParams(sigma_inf=rec["sigma_inf"], sigma_rec=rec["sigma_rec"],
                           horizon=rec["horizon"], r0=rec.get("r0"))
        samples.append(LabeledSample(
            index=rec["index"], x=x,
            sources=np.asarray(rec["sources"], dtype=np.int64), params=params))
    return samples, header
