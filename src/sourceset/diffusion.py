"""Discrete-time SIR/SI simulation and labeled dataset generation.

The simulator is an independent-cascade process in product form: at each
step a susceptible node with k infected neighbors turns infected iff
u < 1 - (1 - sigma_inf)^k, and an infected node recovers iff u < sigma_rec,
where u is that node's own uniform for that step. A node is never both
susceptible and infected, so one uniform per node and step drives both
rules. Updates are synchronous: infections and recoveries at step t both
read the statuses at t - 1, and a node infected at step t cannot recover at
step t. Setting sigma_rec = 0 yields the SI model.

`simulate_batch` advances many independent cascades (rows) together. Row r
reads only its own uniforms, uniforms[r, t - 1, v] for node v at step t, so
its trajectory does not depend on the batch it runs in. The rows of a call
are treated as one graph of rows * N nodes, node v of row r being flat node
r * N + v, with one flat arc table built per call. Infected-neighbor counts
are kept per flat node and updated each step by one scatter of +1 (S -> I)
or -1 (I -> R) over the arcs of the nodes whose status just changed; no
N x N array is built.

One cascade loop. Every cascade reaches `simulate_batch` through
`simulate_cascades(graph, bound, cascades)`: `simulate` as a batch of one,
`sample_dataset` with one cascade per sample, and the Monte Carlo estimator
with one per (candidate, run). A cascade is a (sources, params, rng, times)
tuple: its start nodes, the params whose rates it runs with, the rng of its
uniforms and its increasing observation instants, none past `bound`.

Draw order. A cascade draws one uniform block of shape (times[-1],
n_nodes) from its rng, row t - 1 for step t, and nothing else; rows draw in
row order, so cascades that share an rng (the Monte Carlo rows) take
consecutive blocks. `simulate(graph, params, sources, rng)` observes
0..horizon and so draws rng.random((horizon, n_nodes)). `sample_dataset`
gives sample i the substream (seed, *seed_path, i) and draws from it, in
order: the source count, sigma_rec, r0 (or sigma_inf), the source set, then
the uniform block up to its last observed instant t_last. A sample is
therefore the same for every chunk size, and equals `simulate` run on its
substream right after the source set is drawn.

Chunks. `simulate_cascades` pulls its cascades lazily,
`sim_chunk_rows(graph, bound)` at a time, so at most one chunk of cascades
(and of sample rngs) is alive: SIM_CHUNK_BYTES divided by the larger of a
row's uniforms (8 * n_nodes * bound bytes) and its flat arc tables
(8 * (len(indices) + 2 * n_nodes) bytes). On sparse graphs the uniforms
are larger; on a dense graph with a short window the arc tables are, and
they set the chunk. One uniform buffer serves every chunk; a row ending
before the chunk's longest is padded with 1.0, which freezes it.
`sample_dataset`'s bound is the window end of the latest first instant a
sample can take, and a config whose window passes the horizon from such an
instant is refused before any draw.

Dataset files. `save_dataset` writes one JSON line per sample, encoding the
status strings with one bytes translation per sample, and `load_dataset`
decodes them the same way; the files are the bytes `json.dumps` gives for
the record (see the format note above `save_dataset`).

Observed windows. `simulate_cascades` gathers the observed window of
every row of a chunk in one index, a time-major (rows, n_snapshots, n_nodes) array; a
sample's `SnapshotMatrix.statuses` is the transposed (n_nodes, n_snapshots)
view of its row, the layout `load_dataset` also produces. `Trajectory` and
`observe` are for single cascades from `simulate`; datasets do not use them.
"""

from __future__ import annotations

import itertools
import json
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from sourceset.graph import Graph, spectral_radius
from sourceset.util import (as_generator, check_node_set, read_jsonl, substream,
                            write_jsonl_header)

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2
STATUS_ALPHABET = "SIR"
# translate tables between status codes and characters. Every byte outside
# the alphabet maps to 0xff: the ASCII decode of encoded text refuses it, and
# the decoder looks for it.
_ENCODE = STATUS_ALPHABET.encode("ascii").ljust(256, b"\xff")
_DECODE = bytes(STATUS_ALPHABET.index(chr(b)) if chr(b) in STATUS_ALPHABET else 0xFF
                for b in range(256))
# by a node's new status: S -> I adds 1 to its neighbors' k, I -> R takes 1
_MOVE_SIGN = np.array([0, 1, -1])

# a simulation chunk's uniforms, or its arc tables where those are larger,
# take about this many bytes (see sim_chunk_rows). Both add to peak memory
# one for one; larger chunks gained little.
SIM_CHUNK_BYTES = 1 << 20

# Substream layout used by sample_dataset: sample i draws from
# substream(seed, *seed_path, i). Experiment code reserves path prefixes.
DEFAULT_HORIZON = 40
DEFAULT_SNAPSHOTS = 16


def sim_chunk_rows(graph: Graph, horizon: int) -> int:
    """Rows per simulation chunk of `horizon` steps on `graph`, at least 1:
    a row weighs the larger of its n_nodes * horizon float64 uniforms and
    the len(indices) + 2 * n_nodes int64 arc-table entries `simulate_batch`
    holds for it."""
    n = graph.n_nodes
    return max(1, SIM_CHUNK_BYTES // (8 * max(n * horizon, graph.indices.size + 2 * n)))


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
        if self.horizon >= 2**63:  # observation times are int64
            raise ValueError(f"horizon must be < 2**63, got {self.horizon}")
        if self.r0 is not None and not 0.0 < self.r0 < np.inf:  # also rejects NaN
            raise ValueError(f"r0 must be null or a finite number > 0, got {self.r0}")

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


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Observed input: statuses[v, j] at observation instants times[j]."""

    statuses: np.ndarray  # (n_nodes, n_snapshots) int8
    times: np.ndarray     # strictly increasing observation instants

    def __post_init__(self):
        if self.times.size < 1:
            raise ValueError("need at least one snapshot")
        if (self.times[1:] <= self.times[:-1]).any():
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


def simulate_batch(graph: Graph, sources: np.ndarray, sigma_inf, sigma_rec,
                   uniforms: np.ndarray) -> np.ndarray:
    """Run independent SIR cascades together, one per row.

    sources: (rows, n_nodes) bool, True where a row's cascade starts
    infected. sigma_inf, sigma_rec: per-row rates, shape (rows,), or one
    rate for every row.
    uniforms: (rows, horizon, n_nodes) values in [0, 1]; a row padded with
    1.0 from some step on stays frozen from there. Returns the statuses
    (rows, horizon + 1, n_nodes) int8. Every row depends only on its own
    inputs, bit for bit. The call holds a flat arc table of
    rows * len(graph.indices) int64 entries.
    """
    rows, horizon, n = uniforms.shape
    if sources.shape != (rows, n):
        raise ValueError(f"sources shape {sources.shape} != {(rows, n)}")
    if n != graph.n_nodes:
        raise ValueError(f"uniforms cover {n} nodes, graph has {graph.n_nodes}")
    # thresholds per row, status and k infected neighbors (k <= max degree):
    # 1 - (1 - sigma_inf)^k when susceptible, sigma_rec when infected, 0 when
    # recovered
    width = int(graph.degrees.max(initial=0)) + 1
    table = np.zeros((rows, 3, width))
    table[:, SUSCEPTIBLE, 0] = 1.0
    table[:, SUSCEPTIBLE, 1:] = 1.0 - np.asarray(sigma_inf, dtype=np.float64)[..., None]
    np.cumprod(table[:, SUSCEPTIBLE], axis=1, out=table[:, SUSCEPTIBLE])
    np.subtract(1.0, table[:, SUSCEPTIBLE], out=table[:, SUSCEPTIBLE])
    table[:, INFECTED] = np.asarray(sigma_rec, dtype=np.float64)[..., None]
    table = table.ravel()

    # code[r, v] indexes row r's table: (r * 3 + status) * width + k
    status = np.where(sources, INFECTED, SUSCEPTIBLE).astype(np.int8)
    code = (np.arange(rows)[:, None] * 3 + status) * width
    flat_code = code.ravel()
    flat_status = status.ravel()

    # the rows as one graph of rows * n nodes: flat node r * n + v has the
    # arcs r * len(indices) + indptr[v] .. of the flat arc table
    row = np.arange(rows, dtype=np.int64)[:, None]
    arc_head = (graph.indices + row * n).ravel()
    arc_first = (graph.indptr[:-1] + row * graph.indices.size).ravel()
    degree = np.tile(graph.degrees, rows)

    def scatter(flat_nodes: np.ndarray) -> None:
        """Add the sign of each node's last move (S -> I: +1, I -> R: -1)
        to the k of each of its neighbors."""
        counts = degree[flat_nodes]
        ends = np.cumsum(counts)
        arcs = np.repeat(arc_first[flat_nodes] - ends + counts, counts)
        arcs += np.arange(ends[-1])
        np.add.at(flat_code, arc_head[arcs],
                  np.repeat(_MOVE_SIGN[flat_status[flat_nodes]], counts))

    start = np.flatnonzero(sources)
    if start.size:
        scatter(start)
    out = np.empty((rows, horizon + 1, n), dtype=np.int8)
    out[:, 0] = status
    for t in range(horizon):
        moved = uniforms[:, t] < table[code]
        status += moved  # S -> I and I -> R are both +1
        out[:, t + 1] = status
        changed = np.flatnonzero(moved)
        if changed.size:
            flat_code[changed] += width
            scatter(changed)
    return out


def simulate_cascades(graph: Graph, bound: int, cascades):
    """Simulate cascades, each a (sources, params, rng, times) tuple, pulled
    `sim_chunk_rows(graph, bound)` at a time; no instant passes `bound`.
    Yields each chunk's (cascades, windows), windows[r] being row r's
    (m, n_nodes) int8 statuses at its `times`. Row r draws its (times[-1],
    n_nodes) uniforms from its rng, in row order, into one buffer that every
    chunk reuses, and is padded with 1.0 after them.
    """
    cascades = iter(cascades)
    chunk_rows = sim_chunk_rows(graph, bound)
    block = np.empty((chunk_rows, bound, graph.n_nodes))
    while chunk := list(itertools.islice(cascades, chunk_rows)):
        rows = len(chunk)
        uniforms = block[:rows, :max(times[-1] for *_, times in chunk)]
        start = np.zeros((rows, graph.n_nodes), dtype=bool)
        for r, (sources, _, rng, times) in enumerate(chunk):
            start[r, sources] = True
            rng.random(out=uniforms[r, :times[-1]])
            uniforms[r, times[-1]:] = 1.0
        rates = np.array([(p.sigma_inf, p.sigma_rec) for _, p, _, _ in chunk])
        statuses = simulate_batch(graph, start, rates[:, 0], rates[:, 1], uniforms)
        yield chunk, statuses[np.arange(rows)[:, None], [times for *_, times in chunk]]


def simulate(graph: Graph, params: SirParams, sources, seed) -> Trajectory:
    """Run one SIR cascade from the given source set: a batch of one.

    Deterministic for a fixed seed: draws one uniform block of shape
    (horizon, n_nodes) from it, row t - 1 for step t.
    """
    src = check_node_set(sources, graph.n_nodes)
    cascade = (src, params, as_generator(seed), np.arange(params.horizon + 1))
    [(_, windows)] = simulate_cascades(graph, params.horizon, [cascade])
    return Trajectory(statuses=windows[0], sources=src)


def _window_end(t_first: int, n_snapshots: int, stride: int, horizon: int) -> int:
    """Last instant of the window t_first, t_first + stride, ... of
    n_snapshots instants; refused when it passes `horizon`."""
    t_last = t_first + (n_snapshots - 1) * stride
    if t_last > horizon:
        raise ValueError(f"observation window ends at {t_last} but horizon is {horizon}")
    return t_last


def observe(traj: Trajectory, t_first: int, n_snapshots: int = DEFAULT_SNAPSHOTS,
            stride: int = 1) -> SnapshotMatrix:
    """Extract the observed snapshot window t_first, t_first+stride, ..."""
    if t_first < 1:
        raise ValueError("t_first must be >= 1")
    if n_snapshots < 1 or stride < 1:
        raise ValueError("n_snapshots and stride must be >= 1")
    t_last = _window_end(t_first, n_snapshots, stride, traj.horizon)
    times = np.arange(t_first, t_last + 1, stride, dtype=np.int64)
    return SnapshotMatrix(statuses=traj.statuses[times].T.copy(), times=times)


# ---------------------------------------------------------------------------
# Dataset sampling
# ---------------------------------------------------------------------------


def _read_range(name: str, spec, whole: bool) -> tuple:
    """(lo, hi) of a range field: a finite real v as (v, v), or a two-item
    list of finite reals with lo <= hi; floats, or ints when `whole`, which
    also requires whole numbers. Each error names the field."""
    pair = tuple(spec) if isinstance(spec, (tuple, list)) else (spec, spec)
    kind = "whole number" if whole else "finite number"
    if len(pair) != 2 or not all(
            # the float bound also refuses NaN, inf and ints no float holds
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max and (not whole or float(v).is_integer())
            for v in pair):
        raise ValueError(f"{name} must be a {kind} or a [low, high] pair of "
                         f"{kind}s, got {spec!r}")
    if pair[1] < pair[0]:
        raise ValueError(f"{name} range {spec!r} has low > high")
    return tuple(int(v) for v in pair) if whole else tuple(float(v) for v in pair)


@dataclass(frozen=True)
class GenerativeConfig:
    """Distributions for one generative configuration.

    Range fields accept either a (low, high) pair for a uniform draw or a
    single number for a fixed value; source counts are whole numbers. Exactly
    one of r0 / sigma_inf must be set; with r0, sigma_inf is derived per
    sample from the graph's spectral radius. t_first is either an explicit
    instant or "auto": observation starts at 2 when the outbreak is slow to
    notice (single source, or r0 in [1, 15]) and at 1 otherwise.

    Field types and ranges are checked here, each error naming its field;
    samples draw from `bounds`, each set range field's (lo, hi).
    """

    source_count: tuple[int, int] | int = (1, 15)
    r0: tuple[float, float] | float | None = (1.0, 15.0)
    sigma_inf: tuple[float, float] | float | None = None
    sigma_rec: tuple[float, float] | float = (0.1, 0.4)
    horizon: int = DEFAULT_HORIZON
    n_snapshots: int = DEFAULT_SNAPSHOTS
    stride: int = 1
    t_first: int | str = "auto"
    bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.r0 is None) == (self.sigma_inf is None):
            raise ValueError("exactly one of r0 / sigma_inf must be given")
        # windows and source counts no sample can satisfy, rejected before
        # any sample is simulated
        for name in ("horizon", "n_snapshots", "stride", "t_first"):
            value = getattr(self, name)
            if name == "t_first" and value == "auto":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                also = " or 'auto'" if name == "t_first" else ""
                raise ValueError(f"{name} must be an integer{also}, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        rate = "r0" if self.r0 is not None else "sigma_inf"
        bounds = {name: _read_range(name, getattr(self, name), name == "source_count")
                  for name in ("source_count", "sigma_rec", rate)}
        if bounds["source_count"][0] < 1:
            raise ValueError(f"source_count must be >= 1, got {self.source_count!r}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def needs_lambda1(self) -> bool:
        """Whether sampling reads the graph's spectral radius: to derive
        sigma_inf from r0, or r0 from sigma_inf for the "auto" start."""
        return self.r0 is not None or self.t_first == "auto"

    def to_dict(self) -> dict:
        return {
            "source_count": self.source_count, "r0": self.r0,
            "sigma_inf": self.sigma_inf, "sigma_rec": self.sigma_rec,
            "horizon": self.horizon, "n_snapshots": self.n_snapshots,
            "stride": self.stride, "t_first": self.t_first,
        }


def _draw(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo if lo == hi else float(rng.uniform(lo, hi))


def auto_first_observation(n_sources: int, r0: float | None) -> int:
    """Start observing at 2 for slow outbreaks (single source or r0 in [1, 15]), else 1."""
    slow = n_sources == 1 or (r0 is not None and 1.0 <= r0 <= 15.0)
    return 2 if slow else 1


def _latest_first_observation(gen: GenerativeConfig, lambda1: float | None) -> int:
    """The latest first observation instant a sample of `gen` can take: its
    t_first, or for "auto" the slow start when the bounds reach it (a
    source-count minimum of 1, or an r0 range meeting [1, 15]), else 1.

    A sigma_inf config's r0 = sigma_inf * lambda1 / sigma_rec spans
    [sinf_lo * lambda1 / srec_hi, sinf_hi * lambda1 / srec_lo], computed as
    the draws compute it; there is no r0 when sigma_rec or lambda1 is 0.
    """
    if gen.t_first != "auto":
        return gen.t_first
    r0 = gen.bounds.get("r0")
    rec_lo, rec_hi = gen.bounds["sigma_rec"]
    if r0 is None and rec_hi > 0.0 and lambda1:
        inf_lo, inf_hi = gen.bounds["sigma_inf"]
        r0 = (inf_lo * lambda1 / rec_hi,
              inf_hi * lambda1 / rec_lo if rec_lo > 0.0 else np.inf)
    # the point of the r0 range nearest to [1, 15] lies in it iff they meet
    nearest = None if r0 is None else min(max(r0[0], 1.0), r0[1])
    return auto_first_observation(gen.bounds["source_count"][0], nearest)


def _draw_sample(rng: np.random.Generator, graph: Graph, gen: GenerativeConfig,
                 lambda1: float | None) -> tuple:
    """Draw one sample's sources and rates from `rng`: its cascade (sources,
    params, rng, times) for `simulate_cascades`."""
    lo, hi = gen.bounds["source_count"]
    k = lo if lo == hi else int(rng.integers(lo, hi + 1))
    sigma_rec = _draw(rng, gen.bounds["sigma_rec"])
    if gen.r0 is not None:
        r0 = _draw(rng, gen.bounds["r0"])
        sigma_inf = SirParams.from_r0(r0, sigma_rec, lambda1).sigma_inf
    else:
        sigma_inf = _draw(rng, gen.bounds["sigma_inf"])
        r0 = sigma_inf * lambda1 / sigma_rec if sigma_rec > 0.0 and lambda1 else None
    sources = np.sort(rng.choice(graph.n_nodes, size=k, replace=False))
    t_first = auto_first_observation(k, r0) if gen.t_first == "auto" else gen.t_first
    times = np.arange(t_first, t_first + gen.n_snapshots * gen.stride, gen.stride)
    params = SirParams(sigma_inf=sigma_inf, sigma_rec=sigma_rec,
                       horizon=int(times[-1]), r0=r0)
    return sources, params, rng, times


def sample_dataset(graph: Graph, gen: GenerativeConfig, n_samples: int, seed: int,
                   lambda1: float | None = None,
                   seed_path: tuple[int, ...] = ()) -> list[LabeledSample]:
    """Draw i.i.d. labeled samples under one generative configuration.

    Sample i uses the RNG substream (seed, *seed_path, i) in the draw order
    of the module docstring, so datasets are byte-identical on re-run and
    independent of execution order. Samples are simulated in chunks of
    `sim_chunk_rows` rows; the chunk size changes no sample. Source sets
    are drawn uniformly without replacement from all nodes. More sources
    than nodes, an r0 range whose upper ends derive sigma_inf > 1, an r0
    config on a graph without edges and a window that passes the horizon
    from a first instant some sample can take are rejected before the
    first sample.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if gen.bounds["source_count"][1] > graph.n_nodes:
        raise ValueError("source_count exceeds number of nodes")
    if gen.needs_lambda1 and lambda1 is None:
        lambda1 = spectral_radius(graph)
    if gen.r0 is not None:
        r0_max, rec_max = gen.bounds["r0"][1], gen.bounds["sigma_rec"][1]
        if lambda1 <= 0.0:  # a graph without edges: from_r0 refuses it
            SirParams.from_r0(r0_max, rec_max, lambda1)
        # sigma_inf = r0 * sigma_rec / lambda1 is largest at both upper ends
        worst = r0_max * rec_max / lambda1
        if worst > 1.0:
            raise ValueError(
                f"r0 range can derive sigma_inf = {worst:.6g} > 1 "
                f"(r0 up to {r0_max}, sigma_rec up to {rec_max}, "
                f"lambda1={lambda1:.6g})")
    # the window of the latest start a sample can take bounds every window
    longest = _window_end(_latest_first_observation(gen, lambda1), gen.n_snapshots,
                          gen.stride, gen.horizon)
    cascades = (_draw_sample(substream(seed, *seed_path, i), graph, gen, lambda1)
                for i in range(n_samples))
    samples = []
    for chunk, windows in simulate_cascades(graph, longest, cascades):
        for (sources, params, _, times), window in zip(chunk, windows):
            x = SnapshotMatrix(statuses=window.T, times=times)
            samples.append(LabeledSample(index=len(samples), x=x, sources=sources,
                                         params=params))
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
    n = x.n_nodes
    text = x.statuses.T.tobytes().translate(_ENCODE).decode("ascii")
    return [text[j * n:(j + 1) * n] for j in range(x.n_snapshots)]


def _parse_statuses(strings, n_times: int, where: str) -> np.ndarray:
    """Status strings of one sample record -> writable (n_nodes, n_snapshots)
    int8 codes; `where` names the record in error messages."""
    if not isinstance(strings, list) or not all(isinstance(snap, str) for snap in strings):
        raise ValueError(f"{where}: status must be a list of strings")
    if len(strings) != n_times:
        raise ValueError(f"{where}: {len(strings)} status strings "
                         f"for {n_times} observation times")
    n = len(strings[0]) if strings else 0
    if any(len(snap) != n for snap in strings):
        raise ValueError(f"{where}: status strings of unequal length")
    text = "".join(strings)
    codes = bytearray(text.encode("utf-8")).translate(_DECODE)
    if 0xFF in codes:
        bad = next(c for c in text if c not in STATUS_ALPHABET)
        raise ValueError(f"{where}: status character {bad!r} "
                         f"outside {STATUS_ALPHABET!r}")
    # a bytearray buffer keeps the array writable
    return np.frombuffer(codes, dtype=np.int8).reshape(len(strings), n).T


def _parse_sources(values, n_nodes: int, where: str) -> np.ndarray:
    """The source list of one sample record: distinct integer node ids below
    n_nodes, in file order; `where` names the record in error messages."""
    if (not isinstance(values, list) or not values
            or not all(type(v) is int for v in values)):
        raise ValueError(f"{where}: sources must be a non-empty list of integer node ids")
    bad = next((v for v in values if not 0 <= v < n_nodes), None)
    if bad is not None:
        raise ValueError(f"{where}: source {bad} out of range for {n_nodes} nodes")
    if len(set(values)) != len(values):
        raise ValueError(f"{where}: repeated source node")
    return np.asarray(values, dtype=np.int64)


def _check_field_types(rec: dict, where: str) -> None:
    """Types of one sample record's times, rates, horizon and r0, with bools
    refused; `where` names the record in error messages."""

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    times = rec.get("times")
    if not isinstance(times, list) or not times or not all(type(t) is int for t in times):
        raise ValueError(f"{where}: times must be a non-empty list of integers")
    for key in ("sigma_inf", "sigma_rec"):
        if not number(rec.get(key)):
            raise ValueError(f"{where}: {key} must be a number")
    if type(rec.get("horizon")) is not int:
        raise ValueError(f"{where}: horizon must be an integer")
    if rec.get("r0") is not None and not number(rec["r0"]):
        raise ValueError(f"{where}: r0 must be a number or null")


def _sample_line(s: LabeledSample) -> str:
    """One sample record as `json.dumps` writes it. The status strings hold
    only S, I and R, which JSON writes verbatim, so they are spliced in
    without passing through the encoder."""
    head = json.dumps({"record": "sample", "index": s.index,
                       "times": s.x.times.tolist()})
    tail = json.dumps({"sources": s.sources.tolist(),
                       "sigma_inf": s.params.sigma_inf,
                       "sigma_rec": s.params.sigma_rec,
                       "r0": s.params.r0,
                       "horizon": s.params.horizon})
    status = '", "'.join(_status_strings(s.x))
    return f'{head[:-1]}, "status": ["{status}"], {tail[1:]}\n'


def save_dataset(samples: list[LabeledSample], path, seed, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl_header(fh, "dataset", seed, config)
        fh.writelines(_sample_line(s) for s in samples)


def load_dataset(path) -> tuple[list[LabeledSample], dict]:
    """Read a dataset file; returns (samples, header).

    Sample indices must be distinct non-negative integers: they key the
    per-sample estimator streams, and a repeated index would be calibrated
    and predicted twice. A record's times must be a non-empty, strictly
    increasing list of integers in [1, horizon], the range `observe` and
    `sample_dataset` produce, its status a list of strings, its sources
    distinct node ids of the sample, its rates numbers, its horizon an
    integer below 2**63 and its r0 null or a finite number > 0; each error
    names the sample.
    """
    header: dict = {}
    samples: list[LabeledSample] = []
    indices: set = set()
    for rec in read_jsonl(path):
        if rec.get("record") == "header":
            header = rec
            continue
        if rec.get("record") != "sample":
            raise ValueError(f"{path}: unexpected record {rec.get('record')!r}")
        index = rec.get("index")
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise ValueError(f"{path}: sample index {index!r} is not a "
                             f"non-negative integer")
        if index in indices:
            raise ValueError(f"{path}: duplicate record for sample {index}")
        indices.add(index)
        where = f"{path}: sample {index}"
        _check_field_types(rec, where)
        times = rec["times"]
        statuses = _parse_statuses(rec.get("status"), len(times), where)
        try:
            # order before range, so unordered times keep their message, and
            # both before the int64 conversion, which 2**63 or more overflows
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("observation times must be strictly increasing")
            params = SirParams(sigma_inf=rec["sigma_inf"], sigma_rec=rec["sigma_rec"],
                               horizon=rec["horizon"], r0=rec.get("r0"))
            if times[0] < 1 or times[-1] > params.horizon:
                raise ValueError("times must lie in [1, horizon]")
            x = SnapshotMatrix(statuses=statuses, times=np.asarray(times, dtype=np.int64))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        sources = _parse_sources(rec.get("sources"), x.n_nodes, where)
        samples.append(LabeledSample(index=index, x=x, sources=sources, params=params))
    return samples, header
