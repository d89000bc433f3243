"""Per-node source-probability estimators.

Every estimator maps observed snapshots to a vector of values in [0, 1],
one per node, where larger means "more likely a source". The downstream
set-prediction guarantee holds for any such vector, so estimator quality
affects only how small the prediction sets are. A probability floor keeps
every entry strictly positive, which keeps all score variants finite.
"""

from __future__ import annotations

import numpy as np

from sourceset.diffusion import (INFECTED, RECOVERED, SUSCEPTIBLE, LabeledSample,
                                 SirParams, SnapshotMatrix)
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


def estimate_heuristic(x: SnapshotMatrix, graph: Graph) -> np.ndarray:
    """Score nodes by how early they were seen infected and how fresh the
    infection looks around them.

    earliness(v) = HEURISTIC_DECAY ** j where j is the first snapshot column
    in which v is I or R (1.0 when already infected in the first snapshot).
    neighbor_deficit(v) = fraction of v's neighbors still susceptible in the
    first snapshot, for nodes infected there (degree-0 infected nodes get 1).
    Nodes never seen infected get the probability floor.
    """
    n = x.n_nodes
    ever = x.statuses != SUSCEPTIBLE  # (n, m)
    seen = ever.any(axis=1)
    first_col = np.where(seen, np.argmax(ever, axis=1), 0)
    earliness = np.where(seen, HEURISTIC_DECAY ** first_col, 0.0)

    first = x.statuses[:, 0]
    infected_now = first != SUSCEPTIBLE
    deficit = np.zeros(n)
    for v in np.flatnonzero(infected_now):
        nbrs = graph.neighbors(v)
        if nbrs.size == 0:
            deficit[v] = 1.0
        else:
            deficit[v] = np.count_nonzero(first[nbrs] == SUSCEPTIBLE) / nbrs.size

    probs = np.clip(HEURISTIC_EARLINESS_WEIGHT * earliness
                    + HEURISTIC_NEIGHBOR_WEIGHT * deficit, 0.0, 1.0)
    probs[~seen] = PROB_FLOOR
    return np.maximum(probs, PROB_FLOOR)


def _batch_infected_or_removed(graph: Graph, params: SirParams,
                               start_nodes: np.ndarray, times: np.ndarray,
                               k_sims: int, rng: np.random.Generator) -> np.ndarray:
    """Forward-simulate single-source cascades for a batch of candidates.

    Returns a boolean array (n_candidates * k_sims, len(times), n_nodes) that
    marks nodes ever infected (I or R) at each requested instant. Uses the
    product form of the cascade step, which has the same law as the
    per-contact simulator, and is vectorized across the whole batch.
    """
    n = graph.n_nodes
    rows = start_nodes.size * k_sims
    status = np.zeros((rows, n), dtype=np.int8)
    status[np.arange(rows), np.repeat(start_nodes, k_sims)] = INFECTED
    adj = graph.dense_adjacency
    out = np.zeros((rows, times.size, n), dtype=bool)
    t_max = int(times.max())
    col = {int(t): j for j, t in enumerate(times)}
    one_minus = 1.0 - params.sigma_inf
    for t in range(1, t_max + 1):
        infected = status == INFECTED
        k_counts = infected.astype(np.float32) @ adj
        p_inf = 1.0 - np.power(one_minus, k_counts)
        fresh = (status == SUSCEPTIBLE) & (rng.random((rows, n)) < p_inf)
        if params.sigma_rec > 0.0:
            recovered = infected & (rng.random((rows, n)) < params.sigma_rec)
            status[recovered] = RECOVERED
        status[fresh] = INFECTED
        if t in col:
            out[:, col[t], :] = status != SUSCEPTIBLE
    return out


def estimate_monte_carlo(x: SnapshotMatrix, graph: Graph, params: SirParams,
                         k_sims: int, seed) -> np.ndarray:
    """Score candidates by how well forward simulations from them reproduce
    the observed spread.

    Candidates are the infected/recovered support of the first snapshot (all
    nodes if that support is empty). For each candidate, k_sims cascades are
    run and the fitness is the mean Jaccard similarity between the simulated
    and observed ever-infected sets at the matched observation instants.
    Fitness is mapped to [PROB_FLOOR, 1] by dividing by the best candidate.
    """
    if k_sims < 1:
        raise ValueError("k_sims must be >= 1")
    rng = as_generator(seed)
    n = x.n_nodes
    candidates = np.flatnonzero(x.statuses[:, 0] != SUSCEPTIBLE)
    if candidates.size == 0:
        candidates = np.arange(n)
    sim_params = SirParams(sigma_inf=params.sigma_inf, sigma_rec=params.sigma_rec,
                           horizon=max(int(x.times.max()), 1), r0=params.r0)
    sim_ir = _batch_infected_or_removed(graph, sim_params, candidates, x.times,
                                        k_sims, rng)
    obs_ir = (x.statuses != SUSCEPTIBLE).T  # (m, n)
    inter = np.einsum("rmn,mn->rm", sim_ir, obs_ir.astype(np.float64))
    union = (sim_ir.sum(axis=2) + obs_ir.sum(axis=1)[None, :]) - inter
    jaccard = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
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


def load_prob_vectors(path) -> dict[int, np.ndarray]:
    vectors: dict[int, np.ndarray] = {}
    n_nodes = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "n_nodes=" in line:
                    n_nodes = int(line.split("n_nodes=")[1].split()[0])
                continue
            tokens = line.split()
            idx = int(tokens[0])
            probs = np.asarray([float(t) for t in tokens[1:]], dtype=np.float64)
            vectors[idx] = validate_prob_vector(probs, n_nodes)
    return vectors


# ---------------------------------------------------------------------------
# Estimator factory
# ---------------------------------------------------------------------------


def build_estimator(spec: str, graph: Graph):
    """Build a `(sample, rng) -> probs` callable from a spec string.

    Grammar: "heuristic" | "oracle:NOISE" | "mc:K_SIMS" | "file:PATH".
    The rng argument carries the per-sample substream; estimators that are
    deterministic functions of the input ignore it.
    """
    kind, _, arg = spec.partition(":")
    if kind == "heuristic":
        return lambda sample, rng: estimate_heuristic(sample.x, graph)
    if kind == "oracle":
        noise = float(arg) if arg else 0.0
        return lambda sample, rng: estimate_oracle(sample, noise, rng)
    if kind == "mc":
        k_sims = int(arg) if arg else 50
        return lambda sample, rng: estimate_monte_carlo(
            sample.x, graph, sample.params, k_sims, rng)
    if kind == "file":
        table = load_prob_vectors(arg)

        def lookup(sample, rng):
            if sample.index not in table:
                raise KeyError(f"no probability row for sample {sample.index}")
            return table[sample.index]

        return lookup
    raise ValueError(f"unknown estimator spec {spec!r}")
