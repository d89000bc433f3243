"""Shared plumbing: deterministic RNG substreams and output-file provenance."""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOOL_NAME = "sourceset"
VERSION = "0.1.0"


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a namespaced substream of a master seed.

    Built on numpy's SeedSequence spawn keys: the stream for a given
    (master_seed, path) pair is fixed, documented, and independent of how
    many sibling substreams exist. This is what makes datasets and
    experiments reproducible under both serial and pooled execution.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def check_node_set(nodes, n_nodes: int) -> np.ndarray:
    """Sorted distinct int64 ids of a non-empty node set of a graph with
    n_nodes nodes; raises ValueError otherwise."""
    arr = np.unique(np.asarray(nodes, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("node set must be non-empty")
    if arr.min() < 0 or arr.max() >= n_nodes:
        raise ValueError("node index out of range")
    return arr


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def file_header(kind: str, seed, config: dict) -> dict:
    """Provenance record written as the first line of every output file.

    Contains no timestamps, so identical runs produce identical bytes.
    """
    return {
        "record": "header",
        "tool": TOOL_NAME,
        "version": VERSION,
        "kind": kind,
        "seed": seed,
        "config_hash": config_hash(config),
        "config": config,
    }


def write_jsonl_header(fh, kind: str, seed, config: dict) -> None:
    fh.write(json.dumps(file_header(kind, seed, config), sort_keys=True) + "\n")


def read_jsonl(path):
    """Yield parsed records from a JSON-lines file, header included. A line
    that is not valid JSON, or not a JSON object, is a ValueError naming the
    file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:  # a JSONDecodeError is a ValueError
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValueError("record is not a JSON object")
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                yield rec
