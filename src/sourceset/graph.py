"""Undirected simple graphs: ingestion, generation, and spectral quantities.

Graphs are immutable after construction (safe to share across workers) and
store adjacency in CSR form with dense 0-based node ids, which keeps the
simulation hot loops array-indexed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""


class SpectralRadiusError(RuntimeError):
    """Power iteration failed to converge; carries the last eigenvalue iterate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph over nodes 0..n_nodes-1.

    Attributes:
        n_nodes: Number of nodes (isolated nodes allowed).
        indptr: CSR row offsets, shape (n_nodes + 1,).
        indices: Concatenated, per-node ascending neighbor lists.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        return int(self.indices.size // 2)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def _arc_sources(self) -> np.ndarray:
        """Source node of every CSR arc, aligned with `indices`."""
        return np.repeat(np.arange(self.n_nodes), self.degrees)

    def edge_set(self) -> set[tuple[int, int]]:
        """All edges as (min, max) pairs."""
        src = self._arc_sources()
        mask = src < self.indices
        return set(zip(src[mask].tolist(), self.indices[mask].tolist()))

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        n = self.n_nodes
        if self.indptr.shape != (n + 1,):
            raise ValueError("indptr length mismatch")
        if self.indptr[0] != 0 or np.any(self.degrees < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if self.indices.size != self.indptr[-1]:
            raise ValueError("indices length mismatch")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("neighbor index out of range")
        src = self._arc_sources()
        unsorted = (src[1:] == src[:-1]) & (np.diff(self.indices) <= 0)
        if unsorted.any():
            raise ValueError(
                f"neighbor list of {src[1:][unsorted][0]} not strictly ascending")
        loops = src == self.indices
        if loops.any():
            raise ValueError(f"self-loop at {src[loops][0]}")
        # rows are sorted, so symmetric means the reversed keys sort back to them
        if not np.array_equal(src * n + self.indices, np.sort(self.indices * n + src)):
            raise ValueError("adjacency not symmetric")


def build_graph(n_nodes: int, edges) -> Graph:
    """Construct a Graph from (u, v) pairs: an iterable or an (m, 2) int array.

    Duplicate edges, in either orientation, are merged; self-loops and ids
    outside 0..n_nodes-1 raise ValueError. Every graph is built here.
    """
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    pairs = np.sort(pairs, axis=1)
    lo, hi = pairs.T
    loops = lo == hi
    if loops.any():
        raise ValueError(f"self-loop at node {lo[loops][0]}")
    outside = (lo < 0) | (hi >= n_nodes)
    if outside.any():
        u, v = pairs[outside][0]
        raise ValueError(f"edge ({u}, {v}) out of range for n_nodes={n_nodes}")
    edges = pairs[np.unique(lo * n_nodes + hi, return_index=True)[1]]
    src, dst = np.concatenate((edges, edges[:, ::-1])).T
    indices = dst[np.lexsort((dst, src))]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    return Graph(n_nodes=n_nodes, indptr=indptr, indices=indices)


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------
#
# Format: optional '#' comment lines, one "u v" pair of non-negative integers
# per line, whitespace-delimited. A comment directive "# nodes: N" declares an
# explicit node count; otherwise n_nodes = 1 + max index over every line,
# self-loop lines included. Self-loops and duplicate edges are dropped
# (counted, not fatal).


def read_edge_file(path) -> tuple[int | None, np.ndarray]:
    """Parse an edge-list file into (declared node count or None, rows):
    the pair lines as an (m, 2) int64 array, self-loops and duplicates kept.
    """
    declared = None
    rows: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:"):
                    try:
                        declared = int(body.split(":", 1)[1])
                    except ValueError:
                        raise GraphFormatError(
                            f"{path}:{lineno}: bad node-count directive {line!r}")
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two integers, got {line!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer token in {line!r}")
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{lineno}: negative node index in {line!r}")
            rows.append((u, v))
    if not rows and declared is None:
        raise GraphFormatError(f"{path}: empty edge list")
    try:
        return declared, np.array(rows, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise GraphFormatError(f"{path}: node index too large") from None


def load_edge_list(path, remap: bool = False) -> Graph:
    """Load an edge-list text file.

    With remap=False, node ids are used as dense indices and
    n_nodes = 1 + max id (or the '# nodes: N' directive when present).
    With remap=True, the ids left after dropping self-loops are remapped
    to dense 0-based ids (sorted by original id) and the mapping is
    persisted to '<path>.idmap' as two-column "original_id dense_id" text.
    """
    declared, rows = read_edge_file(path)
    edges = rows[rows[:, 0] != rows[:, 1]]
    if remap:
        originals, dense = np.unique(edges, return_inverse=True)
        edges = dense.reshape(edges.shape)
        n = originals.size
        with open(f"{path}.idmap", "w", encoding="utf-8") as fh:
            fh.write("# original_id dense_id\n")
            fh.writelines(f"{orig} {i}\n" for i, orig in enumerate(originals.tolist()))
    else:
        max_index = int(rows.max()) if rows.size else -1
        n = declared if declared is not None else max_index + 1
        if max_index >= n:
            raise GraphFormatError(
                f"{path}: node index {max_index} exceeds declared count {n}")
    graph = build_graph(n, edges)
    dropped = len(rows) - graph.n_edges
    if dropped:
        log.info("%s: dropped %d duplicate/self-loop line(s)", path, dropped)
    return graph


def save_edge_list(graph: Graph, path) -> None:
    """Write a graph back out in the edge-list text format, edges sorted."""
    src = graph._arc_sources()
    upper = src < graph.indices
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {graph.n_nodes}\n")
        fh.writelines(f"{u} {v}\n" for u, v in
                      zip(src[upper].tolist(), graph.indices[upper].tolist()))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return build_graph(n, np.column_stack(np.triu_indices(n, k=1)))


def erdos_renyi_graph(n: int, p: float, seed) -> Graph:
    """G(n, p) with each pair included independently. Connectivity not guaranteed."""
    if n < 2:
        raise ValueError("erdos_renyi needs n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("erdos_renyi needs 0 < p <= 1")
    from sourceset.util import as_generator

    rng = as_generator(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return build_graph(n, np.column_stack((iu[mask], iv[mask])))


def barabasi_albert_graph(n: int, m: int, seed) -> Graph:
    """Preferential-attachment graph.

    Construction (fixed, so edge counts are predictable): start from a
    complete graph on the first m nodes, then attach each new node with m
    edges to distinct existing nodes chosen proportionally to degree.
    Total edges: m*(n-m) + m*(m-1)/2.
    """
    if n < 2:
        raise ValueError("barabasi_albert needs n >= 2")
    if not 1 <= m < n:
        raise ValueError("barabasi_albert needs 1 <= m < n")
    from sourceset.util import as_generator

    rng = as_generator(seed)
    edges: list[tuple[int, int]] = [(u, v) for u in range(m) for v in range(u + 1, m)]
    # pool holds one entry per edge endpoint, so uniform draws are
    # degree-weighted
    pool: list[int] = [u for u, v in edges] + [v for u, v in edges]
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if pool:
                cand = pool[int(rng.integers(0, len(pool)))]
            else:
                cand = int(rng.integers(0, new))
            targets.add(cand)
        for t in sorted(targets):
            edges.append((t, new))
            pool.append(t)
        pool.extend([new] * m)
    return build_graph(n, edges)


def graph_from_spec(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a compact spec string.

    Grammar: "complete:N" | "er:N,P" | "ba:N,M" | "file:PATH".
    Generator specs are deterministic for a fixed (spec, seed).
    """
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"bad graph spec {spec!r}; expected kind:args")
    try:
        if kind == "complete":
            return complete_graph(int(arg))
        if kind == "er":
            n_s, p_s = arg.split(",")
            return erdos_renyi_graph(int(n_s), float(p_s), seed)
        if kind == "ba":
            n_s, m_s = arg.split(",")
            return barabasi_albert_graph(int(n_s), int(m_s), seed)
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from None
    if kind == "file":
        return load_edge_list(arg)
    raise ValueError(f"unknown graph kind {kind!r} in spec {spec!r}")


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def spectral_radius(graph: Graph, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """Largest adjacency eigenvalue via power iteration.

    Starts from the all-ones vector (which has positive overlap with every
    component's Perron vector) and iterates on A + I so that bipartite
    +/- eigenvalue pairs cannot stall convergence. Stops when the residual
    ||(A + I) x - theta x|| <= tol, which for a symmetric matrix bounds the
    distance from theta to an exact eigenvalue.
    """
    if graph.n_nodes == 0:
        raise ValueError("graph is empty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if graph.indices.size == 0:
        return 0.0
    n = graph.n_nodes
    src = np.repeat(np.arange(n), graph.degrees)

    def matvec(x: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=x[graph.indices], minlength=n)

    x = np.full(n, 1.0 / np.sqrt(n))
    theta = 0.0
    for _ in range(max_iter):
        y = matvec(x) + x
        theta = float(x @ y)
        residual = float(np.linalg.norm(y - theta * x))
        if residual <= tol:
            return theta - 1.0
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
    raise SpectralRadiusError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        estimate=theta - 1.0,
    )
