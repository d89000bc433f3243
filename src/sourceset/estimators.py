"""Per-node source-probability estimators.

Every estimator maps observed snapshots to a vector of values in [0, 1],
one per node, where larger means "more likely a source". The downstream
set-prediction guarantee holds for any such vector, so estimator quality
affects only how small the prediction sets are. A probability floor keeps
every entry strictly positive, which keeps all score variants finite.

`build_estimator` parses a spec into an `Estimator`, whose `batch` scores a
block of samples; `estimate_blocks` feeds it a sequence block by block. Its
blocks follow the ranking rule, `conformal.block_rows`, so the experiment
ranks each estimator block as it is, with no pool-wide list of rows. The
heuristic's batch is `estimate_heuristic_batch` over the block's stacked
time-major (rows, m, n_nodes) snapshots, and `estimate_heuristic` is its
batch of one, so a block row and the per-sample vector are the same bits.
The other estimators score row by row. `batch` is given a function
`rng_of(sample)` rather than the rngs themselves: "oracle:" and "mc:" call
it once per row, and "heuristic" and "file:" draw nothing and never call it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from sourceset.conformal import block_rows
from sourceset.diffusion import (SUSCEPTIBLE, LabeledSample, SirParams, SnapshotMatrix,
                                 sim_chunk_rows, simulate_batch)
from sourceset.graph import Graph
from sourceset.util import as_generator

PROB_FLOOR = 1e-6

# Heuristic weights: earliness of first infection dominates, with a bonus for
# infected nodes whose neighborhood is still mostly untouched at first sight.
HEURISTIC_EARLINESS_WEIGHT = 0.6
HEURISTIC_NEIGHBOR_WEIGHT = 0.4
HEURISTIC_DECAY = 0.5


def validate_prob_vector(probs: np.ndarray, n_nodes: int | None = None) -> np.ndarray:
    """Check the estimator output contract; returns the validated array."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("probability vector must be 1-dimensional")
    if n_nodes is not None and arr.size != n_nodes:
        raise ValueError(f"expected {n_nodes} entries, got {arr.size}")
    if arr.size == 0:
        raise ValueError("probability vector is empty")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects NaN
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.any(arr > 0.0):
        raise ValueError("probability vector needs at least one positive entry")
    return arr


def estimate_heuristic_batch(statuses: np.ndarray, graph: Graph) -> np.ndarray:
    """Score nodes by how early they were seen infected and how fresh the
    infection looks around them, for a stack of samples at once.

    statuses: (rows, m, n_nodes) time-major snapshots, row r's snapshot j at
    statuses[r, j]. Returns (rows, n_nodes); each row depends only on its
    own snapshots, bit for bit.

    earliness(v) = HEURISTIC_DECAY ** j where j is the first snapshot in
    which v is I or R (1.0 when already infected in the first snapshot).
    neighbor_deficit(v) = fraction of v's neighbors still susceptible in the
    first snapshot, for nodes infected there (degree-0 infected nodes get 1).
    Nodes never seen infected get the probability floor.
    """
    rows, m, n = statuses.shape
    if n != graph.n_nodes:
        raise ValueError(f"snapshots cover {n} nodes, graph has {graph.n_nodes}")
    ever = statuses != SUSCEPTIBLE
    seen = ever.any(axis=1)
    first_col = np.argmax(ever, axis=1)  # 0 where never seen
    earliness = np.where(seen, (HEURISTIC_DECAY ** np.arange(m))[first_col], 0.0)

    first = statuses[:, 0]
    # susceptible neighbors per node: one row-wise prefix sum over the CSR lists
    prefix = np.zeros((rows, graph.indices.size + 1), dtype=np.int64)
    np.cumsum(first[:, graph.indices] == SUSCEPTIBLE, axis=1, out=prefix[:, 1:])
    susceptible_nbrs = prefix[:, graph.indptr[1:]] - prefix[:, graph.indptr[:-1]]
    degrees = graph.degrees
    deficit = np.where(degrees > 0, susceptible_nbrs / np.maximum(degrees, 1), 1.0)
    deficit[first == SUSCEPTIBLE] = 0.0

    probs = np.clip(HEURISTIC_EARLINESS_WEIGHT * earliness
                    + HEURISTIC_NEIGHBOR_WEIGHT * deficit, 0.0, 1.0)
    probs[~seen] = PROB_FLOOR
    return np.maximum(probs, PROB_FLOOR)


def estimate_heuristic(x: SnapshotMatrix, graph: Graph) -> np.ndarray:
    """The heuristic of one sample: `estimate_heuristic_batch` of one row."""
    return estimate_heuristic_batch(x.statuses.T[None], graph)[0]


def estimate_monte_carlo(x: SnapshotMatrix, graph: Graph, params: SirParams,
                         k_sims: int, seed) -> np.ndarray:
    """Score candidates by how well forward simulations from them reproduce
    the observed spread.

    Candidates are the infected/recovered support of the first snapshot (all
    nodes if that support is empty). For each candidate, k_sims cascades are
    run through `simulate_batch`, one row per (candidate, run) in that order,
    each drawing its uniform block from `seed` in row order. The fitness is
    the mean Jaccard similarity between the simulated and observed
    ever-infected sets at the matched observation instants.
    Fitness is mapped to [PROB_FLOOR, 1] by dividing by the best candidate.

    `params` are the rates the cascades run with; `build_estimator` passes
    the sample's own true generative rates, which a practitioner would not
    know, so Monte Carlo set sizes are an optimistic reference, not a
    realistic baseline.
    """
    if k_sims < 1:
        raise ValueError("k_sims must be >= 1")
    rng = as_generator(seed)
    n = x.n_nodes
    candidates = np.flatnonzero(x.statuses[:, 0] != SUSCEPTIBLE)
    if candidates.size == 0:
        candidates = np.arange(n)
    starts = np.repeat(candidates, k_sims)
    horizon = max(int(x.times.max()), 1)
    obs_ir = (x.statuses != SUSCEPTIBLE).T  # (m, n)
    obs_weights = obs_ir.astype(np.float64)
    obs_sizes = obs_ir.sum(axis=1)
    chunk = sim_chunk_rows(graph, horizon)
    block = np.empty((min(chunk, starts.size), horizon, n))
    jaccard = np.empty((starts.size, x.times.size))
    for lo in range(0, starts.size, chunk):
        rows = starts[lo:lo + chunk]
        start = np.zeros((rows.size, n), dtype=bool)
        start[np.arange(rows.size), rows] = True
        # rows draw their uniform blocks from rng in row order, so the
        # chunk size changes no row
        uniforms = rng.random(out=block[:rows.size])
        statuses = simulate_batch(graph, start, params.sigma_inf, params.sigma_rec,
                                  uniforms)
        sim_ir = statuses[:, x.times] != SUSCEPTIBLE  # (rows, m, n)
        inter = np.einsum("rmn,mn->rm", sim_ir, obs_weights)  # exact integers
        union = (sim_ir.sum(axis=2) + obs_sizes[None, :]) - inter
        jaccard[lo:lo + rows.size] = np.where(union > 0, inter / np.maximum(union, 1),
                                              1.0)
    # averaged once over all rows, so float rounding does not see the chunks
    fitness = jaccard.mean(axis=1).reshape(candidates.size, k_sims).mean(axis=1)

    probs = np.full(n, PROB_FLOOR)
    best = fitness.max()
    if best > 0.0:
        probs[candidates] = PROB_FLOOR + (1.0 - PROB_FLOOR) * (fitness / best)
    return probs


def estimate_oracle(sample: LabeledSample, noise: float, seed) -> np.ndarray:
    """Test-double estimator that interpolates between the true source
    indicator (noise=0) and pure uniform noise (noise=1)."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must be in [0, 1]")
    rng = as_generator(seed)
    n = sample.x.n_nodes
    indicator = np.zeros(n)
    indicator[sample.sources] = 1.0
    return (1.0 - noise) * indicator + noise * rng.random(n)


# ---------------------------------------------------------------------------
# Precomputed probability files
# ---------------------------------------------------------------------------
#
# Plain-text format for plugging in external models: a '#' header line
# "# prob-vectors n_nodes=N", then one row per sample:
# "<sample_id> <p_0> ... <p_{N-1}>" with N reals in [0, 1].


def save_prob_vectors(vectors: dict[int, np.ndarray], n_nodes: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# prob-vectors n_nodes={n_nodes}\n")
        for idx in sorted(vectors):
            row = " ".join(repr(float(p)) for p in vectors[idx])
            fh.write(f"{idx} {row}\n")


def load_prob_vectors(path, n_nodes: int | None = None) -> dict[int, np.ndarray]:
    """Read a probability file into {sample index: vector}.

    Every row must have the header's n_nodes entries when there is a header.
    With `n_nodes` given (the node count of the graph the rows are scored
    on), the header and every row must match it too. Errors name the file
    and the line.
    """
    vectors: dict[int, np.ndarray] = {}
    expected = n_nodes
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    if "n_nodes=" in line:
                        declared = int(re.search(r"n_nodes=(\S*)", line).group(1))
                        if n_nodes is not None and declared != n_nodes:
                            raise ValueError(f"header declares n_nodes={declared} "
                                             f"but the graph has {n_nodes} nodes")
                        expected = declared
                    continue
                tokens = line.split()
                idx = int(tokens[0])
                if idx in vectors:
                    raise ValueError(f"duplicate row for sample {idx}")
                probs = np.asarray([float(t) for t in tokens[1:]], dtype=np.float64)
                vectors[idx] = validate_prob_vector(probs, expected)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return vectors


# ---------------------------------------------------------------------------
# Estimator factory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimator:
    """A built estimator spec.

    `batch(samples, rng_of)` returns the (len(samples), n_nodes) probability
    vectors of a block, row r from `samples[r]`. An estimator that draws
    calls `rng_of(samples[r])` once for row r; one that draws nothing never
    calls it. Calling the record as `(sample, rng)` runs its batch of one
    with `rng` as that row's rng.
    """

    batch: Callable[[Sequence[LabeledSample], Callable], np.ndarray]

    def __call__(self, sample: LabeledSample, rng) -> np.ndarray:
        return self.batch([sample], lambda _: rng)[0]


def parse_estimator_spec(spec: str) -> tuple[str, object]:
    """(kind, argument) of a spec; raises ValueError naming a malformed one.

    Grammar: "heuristic" | "oracle:NOISE" | "mc:K_SIMS" | "file:PATH", with
    NOISE a float in [0, 1] (default 0) and K_SIMS an integer >= 1 (default
    50). The argument is None for "heuristic" and PATH for "file:"; the
    file is not read here.
    """
    kind, sep, arg = spec.partition(":")
    if kind == "heuristic":
        if sep:
            raise ValueError(f"estimator spec {spec!r}: heuristic takes no argument")
        return kind, None
    if kind == "oracle":
        try:
            noise = float(arg) if arg else 0.0
        except ValueError:
            noise = None
        if noise is None or not 0.0 <= noise <= 1.0:  # also rejects NaN
            raise ValueError(f"estimator spec {spec!r}: NOISE must be a number in [0, 1]")
        return kind, noise
    if kind == "mc":
        try:
            k_sims = int(arg) if arg else 50
        except ValueError:
            k_sims = 0
        if k_sims < 1:
            raise ValueError(f"estimator spec {spec!r}: K_SIMS must be an integer >= 1")
        return kind, k_sims
    if kind == "file":
        if not arg:
            raise ValueError(f"estimator spec {spec!r}: file: needs a PATH")
        return kind, arg
    raise ValueError(f"unknown estimator spec {spec!r}")


def _per_row(estimate) -> Estimator:
    """An Estimator whose batch stacks `estimate(sample, rng_of)` row by row."""
    return Estimator(batch=lambda samples, rng_of: np.stack(
        [estimate(s, rng_of) for s in samples]))


def build_estimator(spec: str, graph: Graph) -> Estimator:
    """The `Estimator` of a spec (grammar in `parse_estimator_spec`).

    A "file:" spec reads and checks its probability file here; a sample
    with no row in it is a ValueError naming the file and the sample.
    """
    kind, arg = parse_estimator_spec(spec)
    if kind == "heuristic":
        return Estimator(batch=lambda samples, rng_of: estimate_heuristic_batch(
            np.stack([s.x.statuses.T for s in samples]), graph))
    if kind == "oracle":
        return _per_row(lambda sample, rng_of: estimate_oracle(
            sample, arg, rng_of(sample)))
    if kind == "mc":
        return _per_row(lambda sample, rng_of: estimate_monte_carlo(
            sample.x, graph, sample.params, arg, rng_of(sample)))
    table = load_prob_vectors(arg, n_nodes=graph.n_nodes)

    def lookup(sample, rng_of):
        if sample.index not in table:
            raise ValueError(f"{arg}: no probability row for sample {sample.index}")
        return table[sample.index]

    return _per_row(lookup)


def estimate_blocks(estimator: Estimator, samples, rng_of):
    """Probability vectors of `samples`, in order, block by block.

    Yields (block, probs) pairs: `block` is a run of at most
    `conformal.block_rows(n_nodes)` consecutive samples of one window length,
    the rows of one `RankedBlock`, and `probs` its `estimator.batch(block,
    rng_of)` (rows, n_nodes) array. Only estimators that draw call `rng_of`,
    once per row, so the others create no rng.
    """
    block = []
    for sample in samples:
        if block and (len(block) == block_rows(block[0].x.n_nodes)
                      or sample.x.n_snapshots != block[0].x.n_snapshots):
            yield block, estimator.batch(block, rng_of)
            block = []
        block.append(sample)
    if block:
        yield block, estimator.batch(block, rng_of)
