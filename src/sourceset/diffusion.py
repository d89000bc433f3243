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

Draw order. `simulate(graph, params, sources, rng)` draws one block
rng.random((horizon, n_nodes)) and nothing else. `sample_dataset` gives
sample i the substream (seed, *seed_path, i) and draws from it, in order:
the source count, sigma_rec, r0 (or sigma_inf), the source set, then the
uniform block of shape (t_last, n_nodes), t_last being the last observed
instant. A sample is therefore the same for every chunk size, and equals
`simulate` run on its substream right after the source set is drawn.

Chunks. `sample_dataset` and the Monte Carlo estimator simulate
`sim_chunk_rows(graph, horizon)` rows at a time: SIM_CHUNK_BYTES divided by
the larger of a row's uniforms (8 * n_nodes * horizon bytes) and its flat
arc tables (8 * (len(indices) + 2 * n_nodes) bytes). On sparse graphs the
uniforms are larger; on a dense graph with a short window the arc tables
are, and they set the chunk.

Dataset files. `save_dataset` writes one JSON line per sample, encoding the
status strings with one bytes translation per sample, and `load_dataset`
decodes them the same way; the files are the bytes `json.dumps` gives for
the record (see the format note above `save_dataset`).

Observed windows. `sample_dataset` gathers the observed window of every row
of a chunk in one index, a time-major (rows, n_snapshots, n_nodes) array; a
sample's `SnapshotMatrix.statuses` is the transposed (n_nodes, n_snapshots)
view of its row, the layout `load_dataset` also produces. `Trajectory` and
`observe` are for single cascades from `simulate`; datasets do not use them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def simulate(graph: Graph, params: SirParams, sources, seed) -> Trajectory:
    """Run one SIR cascade from the given source set: a batch of one.

    Deterministic for a fixed seed: draws one uniform block of shape
    (horizon, n_nodes) from it, row t - 1 for step t.
    """
    src = check_node_set(sources, graph.n_nodes)
    rng = as_generator(seed)
    start = np.zeros((1, graph.n_nodes), dtype=bool)
    start[0, src] = True
    uniforms = rng.random((1, params.horizon, graph.n_nodes))
    statuses = simulate_batch(graph, start, params.sigma_inf, params.sigma_rec,
                              uniforms)
    return Trajectory(statuses=statuses[0], sources=src)


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
        # windows and source counts no sample can satisfy, rejected before
        # any sample is simulated
        for name in ("horizon", "n_snapshots", "stride", "t_first"):
            value = getattr(self, name)
            if not isinstance(value, str) and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        counts = self.source_count if isinstance(self.source_count, (tuple, list)) \
            else (self.source_count,)
        if min(counts) < 1:
            raise ValueError(f"source_count must be >= 1, got {self.source_count!r}")

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


def _window_end(gen: GenerativeConfig, t_first: int) -> int:
    return t_first + (gen.n_snapshots - 1) * gen.stride


def _draw_sample(rng: np.random.Generator, graph: Graph, gen: GenerativeConfig,
                 lambda1: float | None) -> tuple[np.ndarray, SirParams, int]:
    """Draw one sample's sources, rates and first observation instant."""
    k = _draw_int(rng, gen.source_count)
    sigma_rec = _draw(rng, gen.sigma_rec)
    if gen.r0 is not None:
        r0 = _draw(rng, gen.r0)
        sigma_inf = SirParams.from_r0(r0, sigma_rec, lambda1).sigma_inf
    else:
        sigma_inf = _draw(rng, gen.sigma_inf)
        r0 = sigma_inf * lambda1 / sigma_rec if sigma_rec > 0.0 and lambda1 else None
    sources = np.sort(rng.choice(graph.n_nodes, size=k, replace=False))
    t_first = gen.t_first if isinstance(gen.t_first, int) \
        else auto_first_observation(k, r0)
    t_last = _window_end(gen, t_first)
    if t_last > gen.horizon:
        raise ValueError(
            f"observation window ends at {t_last} but horizon is {gen.horizon}")
    params = SirParams(sigma_inf=sigma_inf, sigma_rec=sigma_rec,
                       horizon=t_last, r0=r0)
    return sources, params, t_first


def sample_dataset(graph: Graph, gen: GenerativeConfig, n_samples: int, seed: int,
                   lambda1: float | None = None,
                   seed_path: tuple[int, ...] = ()) -> list[LabeledSample]:
    """Draw i.i.d. labeled samples under one generative configuration.

    Sample i uses the RNG substream (seed, *seed_path, i) in the draw order
    of the module docstring, so datasets are byte-identical on re-run and
    independent of execution order. Samples are simulated in chunks of
    `sim_chunk_rows` rows; the chunk size changes no sample. Source sets
    are drawn uniformly without replacement from all nodes. An r0 range
    whose upper ends derive sigma_inf > 1, and an r0 config on a graph
    without edges, are rejected before the first sample.
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
        if lambda1 <= 0.0:  # a graph without edges: from_r0 refuses it
            SirParams.from_r0(_upper(gen.r0), _upper(gen.sigma_rec), lambda1)
        # sigma_inf = r0 * sigma_rec / lambda1 is largest at both upper ends
        worst = _upper(gen.r0) * _upper(gen.sigma_rec) / lambda1
        if worst > 1.0:
            raise ValueError(
                f"r0 range can derive sigma_inf = {worst:.6g} > 1 "
                f"(r0 up to {_upper(gen.r0)}, sigma_rec up to "
                f"{_upper(gen.sigma_rec)}, lambda1={lambda1:.6g})")
    n = graph.n_nodes
    longest = _window_end(gen, gen.t_first if isinstance(gen.t_first, int) else 2)
    chunk = sim_chunk_rows(graph, longest)
    offsets = gen.stride * np.arange(gen.n_snapshots)
    # one uniform buffer serves every chunk; 1.0 freezes a row past its end
    block = np.empty((min(chunk, n_samples), longest, n))
    samples = []
    for lo in range(0, n_samples, chunk):
        drawn = []
        for i in range(lo, min(lo + chunk, n_samples)):
            rng = substream(seed, *seed_path, i)
            drawn.append((rng, *_draw_sample(rng, graph, gen, lambda1)))
        rows = len(drawn)
        horizon = max(params.horizon for _, _, params, _ in drawn)
        start = np.zeros((rows, n), dtype=bool)
        uniforms = block[:rows, :horizon]
        for r, (rng, sources, params, _) in enumerate(drawn):
            start[r, sources] = True
            rng.random(out=uniforms[r, :params.horizon])
            uniforms[r, params.horizon:] = 1.0
        statuses = simulate_batch(
            graph, start, [params.sigma_inf for _, _, params, _ in drawn],
            [params.sigma_rec for _, _, params, _ in drawn], uniforms)
        # every row's observed window in one gather: (rows, n_snapshots, n)
        times = np.array([t_first for *_, t_first in drawn])[:, None] + offsets
        window = statuses[np.arange(rows)[:, None], times]
        for r, (_, sources, params, _) in enumerate(drawn):
            x = SnapshotMatrix(statuses=window[r].T, times=times[r])
            samples.append(LabeledSample(index=lo + r, x=x, sources=sources,
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
