"""Recall-controlled conformal set prediction over per-node probabilities.

Pipeline: each calibration sample's true source set is shrunk to its
top-(1-beta) fraction by predicted probability, scored with a monotone
set score, and the finite-sample (1-alpha)(1+1/n) quantile of those scores
becomes the prediction threshold. A test set then contains every node whose
singleton score is within the threshold, which guarantees recall >= 1-beta
with probability >= 1-alpha whenever calibration and test data are
exchangeable, regardless of the estimator.

The guarantee is that lower bound. The matching upper bound, coverage
<= 1-alpha+1/(n+1), needs almost-surely distinct calibration scores. Test
scores tied at the threshold all pass the `<=` rule, so ties can only add
coverage: a perfect estimator ties every calibration score and gets exactly
its source set every time.

Score variants (all computed on the upward closure of the argument set):
    pre: negative mean probability over the closure.
    rec: probability mass of the closure divided by the total mass.
    min: negative smallest probability in the closure.

Numerical contract: the score formulas exist once (`_closure_scores`) and
read one ranked view, `RankedBlock`: a block of equal-length rows ranked with
one row-wise sort and one row-wise float64 cumulative sum.
Calibration, risk control and the experiment loop rank blocks of samples
and read every source-set decision off them; set_score, singleton_scores,
prediction and the brute-force oracle rank a one-row block.
A block's rows are capped so that its prefix sums fit
`_SCORE_BLOCK_BYTES`. Scores depend only on values, never on how ties are
ordered (a block turns -0.0 into 0.0 in its sorted values, the one tie whose
members differ in bits), and every row is summed in sequence in float64, so
a row of a block and the same vector ranked alone give bit-identical scores
on every platform, threshold comparisons see identical rounding on both
sides, and a row total's relative error is at most (N - 1) * eps.
`shrink_set`, `upward_closure` and `probability_order` stay value-based, as
the reference the block is tested against. Rank arithmetic like
ceil((1-alpha)(n+1)) is computed with a small nudge so float products that
represent exact integers do not overshoot.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from sourceset.util import check_node_set, substream, write_jsonl_header, read_jsonl

SCORE_KINDS = ("pre", "rec", "min")

_CEIL_NUDGE = 1e-9
_BRUTEFORCE_MAX_NODES = 16
# a RankedBlock's prefix sums stay within this many bytes; all of a block's
# arrays then take about 3 times as much. Larger blocks only save per-block
# overhead: on a 2-vCPU Xeon, 7600 samples at N = 774 scored 'pre' in 0.10 s
# with 1 MiB against 0.13 s with 64 KiB, but the scoring loop's peak of
# traced memory grew from 1.3 MB to 3.2 MB.
_SCORE_BLOCK_BYTES = 1 << 16


def stable_ceil(x: float) -> int:
    """Ceiling that forgives float noise just below the next integer.

    Products like (1 - beta) * k or (1 - alpha) * (n + 1) often land a few
    ulps above the exact integer they denote; a plain ceil would then
    overshoot by one and silently change set sizes and quantile ranks.
    """
    return int(math.ceil(x - _CEIL_NUDGE))


def required_hits(set_size: int, beta: float) -> int:
    """Smallest intersection count that certifies recall >= 1 - beta.

    Comparing integer hit counts against this rank is exact, unlike
    comparing the float ratio hits/set_size against 1 - beta.
    """
    return max(1, stable_ceil((1.0 - beta) * set_size))


@dataclass(frozen=True)
class NominalLevels:
    """User-specified miscoverage budget (alpha) and recall slack (beta).

    beta = 1 is rejected: shrinking could then return an empty set, on which
    every score is undefined.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class ConformalModel:
    """Calibrated threshold for one (score kind, alpha, beta) setting.

    q_hat = +inf is valid (the prediction set is every node); NaN and -inf
    are rejected, since every set would silently come out empty.
    """

    score: str
    levels: NominalLevels
    q_hat: float
    n_cal: int

    def __post_init__(self):
        if self.score not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score!r}")
        if math.isnan(self.q_hat) or self.q_hat == -math.inf:
            raise ValueError(f"q_hat must be a number or +inf, got {self.q_hat!r}")
        if not isinstance(self.n_cal, numbers.Integral) or isinstance(self.n_cal, bool) \
                or self.n_cal < 1:
            raise ValueError(f"n_cal must be a positive integer, got {self.n_cal!r}")


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Nodes whose singleton score passed the calibrated threshold."""

    nodes: np.ndarray
    threshold_used: float

    @property
    def size(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True)
class SetMetrics:
    precision: float
    recall: float
    included: bool


# ---------------------------------------------------------------------------
# Canonical score evaluation
# ---------------------------------------------------------------------------


def _as_vector(probs) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probability vector must be non-empty and 1-dimensional")
    return arr


def _check_range(lowest, highest) -> None:
    """Reject probabilities whose smallest or largest value is outside [0, 1]."""
    # NaN fails both comparisons and +-inf fails one, so this also rejects them
    if not (lowest >= 0.0 and highest <= 1.0):
        raise ValueError("probability vector must be finite and within [0, 1]")


def _check_probs(probs) -> np.ndarray:
    arr = _as_vector(probs)
    _check_range(arr.min(), arr.max())
    return arr


def probability_order(probs: np.ndarray) -> np.ndarray:
    """Node indices sorted by (probability desc, index asc).

    This total order breaks ties everywhere downstream; the closure itself
    stays value-based so tied nodes always enter together.
    """
    return np.argsort(-probs, kind="stable")


def _at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[r, index[r]] for every row r of a C-contiguous block, read
    through one flat index."""
    rows, width = values.shape
    return values.reshape(-1)[index + np.arange(0, rows * width, width)[:, None]]


def _closure_scores(kind: str, ascending: np.ndarray, prefix, closure_size):
    """Scores of the closures holding the `closure_size` largest probabilities.

    The one implementation of the score formulas. Each row of `ascending`
    holds probabilities in ascending order, and the same row of `prefix`
    their running sums in descending order after a leading 0; `closure_size`
    holds one row of sizes per block row. `prefix` is read only by the
    mass-based kinds.
    """
    if kind == "pre":
        return -(_at(prefix, closure_size) / closure_size)
    if kind == "rec":
        total = prefix[:, -1:]
        if not total.min() > 0.0:
            raise ValueError("'rec' score needs positive total probability mass")
        return _at(prefix, closure_size) / total
    if kind == "min":
        return -_at(ascending, ascending.shape[1] - closure_size)
    raise ValueError(f"unknown score kind {kind!r}")


class RankedBlock:
    """Rows of one length N, optionally each with its source set, ranked together.

    One sort and one row-wise float64 prefix sum serve every row:
    prefix[r, k] is the sum of the k largest probabilities of row r,
    accumulated in sequence, so a row total's relative error is at most
    (N - 1) * eps and a row's values and sums are the same bit for bit in
    any block. A closure holds the largest values of its row, so every score
    is a lookup into these arrays, and scores need only values, never
    positions.

    Built from a (rows, N) float64 array, which the block only reads, and,
    for its source-set methods, one int64 node-id array per row;
    ranked_blocks builds blocks of samples and _ranked_row a block of one
    vector. Source sets are checked with the messages of check_node_set and
    stored deduplicated and sorted by (row, node) in `source_rows` and
    `source_nodes`, with `source_counts[r]` distinct sources in row r.
    """

    def __init__(self, probs: np.ndarray, sources: list[np.ndarray] | None = None):
        self.probs = probs
        rows, n = probs.shape
        # -0.0 as 0.0, so no score depends on where the sort puts the two
        # zeros among ties
        self.ascending = probs + 0.0
        self.ascending.sort(axis=1)
        # NaN sorts last, so each row's ends bound all of its values
        _check_range(self.ascending[:, 0].min(), self.ascending[:, -1].max())
        self._prefix = None
        if sources is None:
            return
        nodes = np.concatenate(sources)
        # before the keys are packed, so no id can alias a node of another row
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            raise ValueError("node index out of range")
        row_starts = np.repeat(np.arange(rows, dtype=np.int64) * n,
                               [s.size for s in sources])
        keys = np.unique(row_starts + nodes)
        self.source_rows, self.source_nodes = np.divmod(keys, n)
        self.source_counts = np.bincount(self.source_rows, minlength=rows)
        if not self.source_counts.all():
            raise ValueError("node set must be non-empty")
        # each row's source probabilities in descending order, rows in turn
        values = probs[self.source_rows, self.source_nodes]
        self._source_desc = values[np.lexsort((-values, self.source_rows))]
        self._source_start = np.cumsum(self.source_counts) - self.source_counts

    @property
    def prefix(self) -> np.ndarray:
        """(rows, N + 1) prefix sums, computed on first use: 'min' needs none."""
        if self._prefix is None:
            self._prefix = np.zeros((self.probs.shape[0], self.probs.shape[1] + 1))
            np.cumsum(self.ascending[:, ::-1], axis=1, out=self._prefix[:, 1:])
        return self._prefix

    def scores(self, kind: str, closure_size: np.ndarray) -> np.ndarray:
        """Scores for a 2-D array with one row of closure sizes per block row."""
        prefix = None if kind == "min" else self.prefix
        return _closure_scores(kind, self.ascending, prefix, closure_size)

    def required_hits(self, beta: float) -> np.ndarray:
        """Per row, required_hits(source_counts[r], beta), same float arithmetic."""
        keep = np.ceil((1.0 - beta) * self.source_counts - _CEIL_NUDGE).astype(np.int64)
        return np.maximum(keep, 1)

    def source_threshold(self, keep) -> np.ndarray:
        """Per row, the keep[r]-th largest source probability (keep may be a
        scalar for every row)."""
        return self._source_desc[self._source_start + keep - 1]

    def included(self, passing: np.ndarray, beta: float) -> np.ndarray:
        """Per row, whether at least required_hits of the row's sources are
        True in the (rows, N) mask `passing`."""
        hits = np.bincount(self.source_rows[passing[self.source_rows, self.source_nodes]],
                           minlength=self.source_counts.size)
        return hits >= self.required_hits(beta)

    def shrunk_scores(self, kind: str, beta: float) -> np.ndarray:
        """Per row, the score of shrink_set(probs, sources, beta).

        The shrunken set's closure threshold is the required_hits-th largest
        source probability of the row, and its closure holds every
        probability >= that value.
        """
        threshold = self.source_threshold(self.required_hits(beta))
        sizes = np.count_nonzero(self.ascending >= threshold[:, None], axis=1)
        return self.scores(kind, sizes[:, None])[:, 0]

    def node_closure_sizes(self) -> np.ndarray:
        """(rows, N): the closure size of every node's singleton set.

        A value's closure holds every value from the first of its ties in
        ascending order on. The sizes are read off along the ascending order
        and put back to the nodes through a row-wise argsort, whose order
        among ties is irrelevant because tied nodes share their size.
        """
        sizes = np.empty(self.probs.shape, dtype=np.int64)
        for size, order, values in zip(sizes, self.probs.argsort(axis=1), self.ascending):
            size[order] = values.searchsorted(values, side="left")
        return np.subtract(self.probs.shape[1], sizes, out=sizes)


def _block_rows(n_nodes: int) -> int:
    """Rows per RankedBlock, so that its prefix sums fit the budget."""
    return max(1, _SCORE_BLOCK_BYTES // (np.dtype(np.float64).itemsize * n_nodes))


def ranked_blocks(samples):
    """RankedBlocks over an iterable of (probability vector, source set) pairs.

    Consumes the iterable block by block. A block is a run of consecutive
    samples of one length, at most _block_rows of them; a change of length
    starts a new block, so samples of mixed lengths are accepted.
    """
    block, sources = None, []
    for p, y in samples:
        p = _as_vector(p)
        if sources and (p.size != block.shape[1] or len(sources) == len(block)):
            yield RankedBlock(block[:len(sources)], sources)
            sources = []
        if not sources:
            block = np.empty((_block_rows(p.size), p.size))
        block[len(sources)] = p
        sources.append(np.asarray(y, dtype=np.int64).ravel())
    if sources:
        yield RankedBlock(block[:len(sources)], sources)


def upward_closure(probs, members) -> np.ndarray:
    """All nodes whose probability is >= the smallest probability in `members`."""
    probs = _check_probs(probs)
    members = check_node_set(members, probs.size)
    threshold = probs[members].min()
    return np.flatnonzero(probs >= threshold)


def shrink_set(probs, members, beta: float) -> np.ndarray:
    """Keep the ceil((1-beta)|members|) members with the largest probability.

    Ties broken toward smaller node index. Always keeps at least one node.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    probs = _check_probs(probs)
    members = check_node_set(members, probs.size)
    keep = required_hits(members.size, beta)
    order = np.argsort(-probs[members], kind="stable")
    return np.sort(members[order[:keep]])


def _ranked_row(probs, members=None) -> RankedBlock:
    """A one-row RankedBlock of a probability vector, with the source set
    `members` when one is given."""
    sources = None if members is None else [np.asarray(members, dtype=np.int64).ravel()]
    return RankedBlock(_as_vector(probs)[None, :], sources)


def set_score(kind: str, probs, members) -> float:
    """Monotone non-conformity score of a node set.

    Evaluated on the upward closure of `members`, so scoring a set and
    scoring its closure give bit-identical results, and enlarging the
    closure can only increase the score.
    """
    return float(_ranked_row(probs, members).shrunk_scores(kind, 0.0)[0])


def singleton_scores(kind: str, probs) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every single-node set, evaluated along the canonical order.

    Returns (order, scores) where order is probability_order(probs) and
    scores[j] is the score of {order[j]}, non-decreasing in j. Computed once
    per probability vector in O(N log N); entries are bit-identical to
    set_score(kind, probs, [order[j]]).
    """
    block = _ranked_row(probs)
    order = probability_order(block.probs[0])
    return order, block.scores(kind, block.node_closure_sizes())[0, order]


# ---------------------------------------------------------------------------
# Calibration and prediction
# ---------------------------------------------------------------------------


def finite_sample_quantile(values, alpha: float) -> float:
    """Rank-ceil((1-alpha)(n+1)) smallest value; +inf when the rank overflows n.

    An infinite threshold makes the prediction set the full node set, which
    is the correct answer when n is too small for level alpha.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one calibration value")
    rank = stable_ceil((1.0 - alpha) * (arr.size + 1))
    if rank > arr.size:
        return math.inf
    rank = max(rank, 1)
    return float(np.partition(arr, rank - 1)[rank - 1])


def calibrate(samples, kind: str, levels: NominalLevels) -> ConformalModel:
    """Calibrate a threshold on (probability vector, source set) pairs.

    Each source set is shrunk to its top-(1-beta) fraction before scoring.
    The stored threshold is the exact calibration-score float, so later
    <= comparisons are reproducible. `samples` may be any iterable; it is
    consumed and scored block by block (see ranked_blocks).
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    scores = [block.shrunk_scores(kind, levels.beta) for block in ranked_blocks(samples)]
    if not scores:
        raise ValueError("need at least one calibration sample")
    scores = np.concatenate(scores)
    q_hat = finite_sample_quantile(scores, levels.alpha)
    return ConformalModel(score=kind, levels=levels, q_hat=q_hat, n_cal=scores.size)


def predict(model: ConformalModel, probs) -> PredictionSet:
    """Nodes whose singleton score is within the calibrated threshold.

    Each node's score is compared on its own, as in the experiment loop. The
    singleton scores are non-decreasing as probability falls, so the result
    is a closure-prefix; an infinite threshold returns all nodes.
    """
    block = _ranked_row(probs)
    scores = block.scores(model.score, block.node_closure_sizes())[0]
    return PredictionSet(nodes=(scores <= model.q_hat).nonzero()[0],
                         threshold_used=model.q_hat)


def evaluate_set(nodes, true_sources, beta: float) -> SetMetrics:
    """Precision/recall of a predicted set, plus the recall >= 1-beta flag.

    The flag compares integer hit counts so exact boundaries (e.g. 7 of 10
    at beta = 0.3) are decided correctly.
    """
    y = np.unique(np.asarray(true_sources, dtype=np.int64))
    if y.size == 0:
        raise ValueError("true source set must be non-empty")
    pred = np.unique(np.asarray(nodes, dtype=np.int64))
    hits = int(np.intersect1d(pred, y, assume_unique=True).size)
    precision = hits / pred.size if pred.size else 0.0
    recall = hits / y.size
    included = hits >= required_hits(y.size, beta)
    return SetMetrics(precision=precision, recall=recall, included=included)


# ---------------------------------------------------------------------------
# Risk-control formulation (threshold family over 1 - probability)
# ---------------------------------------------------------------------------


def crc_calibrate(samples, levels: NominalLevels) -> float:
    """Smallest lambda with (violations(lambda) + 1) / (n + 1) <= alpha.

    The family C_lambda = {v : 1 - prob(v) <= lambda} controls recall
    directly (Angelopoulos et al., Conformal Risk Control). Sample i is
    violated, covering fewer than required_hits of its sources, exactly when
    lambda < t_i = 1 - its required_hits-th largest source probability. The
    loss is binary and monotone, so lambda_hat is finite_sample_quantile of
    the t_i (+inf: the full node set), or the smallest 1 - prob of any source
    when every sample may be violated. Each t_i is a 1 - prob value, so this
    is the float a scan over all candidates returns, equal to 1 + the 'min'
    score threshold to the last bit. Consumes `samples` as calibrate does.
    """
    t, t_any = [], []
    for block in ranked_blocks(samples):
        t.append(1.0 - block.source_threshold(block.required_hits(levels.beta)))
        t_any.append(1.0 - block.source_threshold(1))
    if not t:
        raise ValueError("need at least one calibration sample")
    t = np.concatenate(t)
    if math.floor(levels.alpha * (t.size + 1) + _CEIL_NUDGE) > t.size:
        return float(np.concatenate(t_any).min())
    return finite_sample_quantile(t, levels.alpha)


def crc_predict(lambda_hat: float, probs) -> np.ndarray:
    """Prediction set of the threshold family at the calibrated lambda."""
    probs = _check_probs(probs)
    return np.flatnonzero((1.0 - probs) <= lambda_hat)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def bruteforce_prediction_set(probs, q_hat: float, kind: str) -> np.ndarray:
    """Exact subset-enumeration prediction set for small graphs.

    Includes node v iff the minimum score over all 2^N - 1 non-empty subsets
    containing v is <= q_hat. This is exponential and guarded to N <= 16; it
    exists to cross-check the O(N log N) prefix rule, which must produce the
    same set for every monotone score.
    """
    block = _ranked_row(probs)
    n = block.probs.shape[1]
    if n > _BRUTEFORCE_MAX_NODES:
        raise ValueError(f"brute force refuses N > {_BRUTEFORCE_MAX_NODES} nodes")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member_bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    thresholds = np.min(np.where(member_bits, block.probs, np.inf), axis=1)
    sizes = np.count_nonzero(block.ascending >= thresholds[:, None], axis=1)
    scores = block.scores(kind, sizes[None, :])[0]
    included = [bool(np.min(scores[member_bits[:, v]]) <= q_hat) for v in range(n)]
    return np.flatnonzero(included)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def save_model(model: ConformalModel, path, seed=None, config: dict | None = None) -> None:
    """Write a calibrated model as JSON lines with an explicit 'inf' token."""
    config = config or {}
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl_header(fh, "model", seed, config)
        rec = {
            "record": "model",
            "score": model.score,
            "alpha": model.levels.alpha,
            "beta": model.levels.beta,
            "q_hat": "inf" if math.isinf(model.q_hat) else model.q_hat,
            "n_cal": model.n_cal,
        }
        fh.write(json.dumps(rec) + "\n")


_MODEL_FIELDS = ("score", "alpha", "beta", "q_hat", "n_cal")


def load_model(path) -> tuple[ConformalModel, dict]:
    """Read a model file; returns (model, header). A model record that lacks
    one of the fields `save_model` writes, or holds an unusable value, is
    refused with an error naming the file."""
    header: dict = {}
    model = None
    for rec in read_jsonl(path):
        if rec.get("record") == "header":
            header = rec
        elif rec.get("record") == "model":
            missing = next((f for f in _MODEL_FIELDS if f not in rec), None)
            if missing is not None:
                raise ValueError(f"{path}: model record lacks field {missing!r}")
            q = rec["q_hat"]
            try:
                model = ConformalModel(
                    score=rec["score"],
                    levels=NominalLevels(alpha=rec["alpha"], beta=rec["beta"]),
                    q_hat=math.inf if q == "inf" else float(q),
                    n_cal=rec["n_cal"],
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: {exc}") from None
    if model is None:
        raise ValueError(f"{path}: no model record found")
    return model, header


# ---------------------------------------------------------------------------
# Equivalence self-checks (drives the oracle-check CLI command)
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    trials: int
    bruteforce_mismatches: int
    crc_set_mismatches: int
    max_lambda_gap: float

    @property
    def all_passed(self) -> bool:
        return (self.bruteforce_mismatches == 0 and self.crc_set_mismatches == 0
                and self.max_lambda_gap <= 1e-12)


_CHECK_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
_CHECK_BETAS = (0.0, 0.1, 0.3, 0.5, 0.7)


def _random_calibration(rng: np.random.Generator, n_nodes: int, n_samples: int):
    samples = []
    for _ in range(n_samples):
        probs = rng.random(n_nodes)
        size = int(rng.integers(1, n_nodes + 1))
        sources = np.sort(rng.choice(n_nodes, size=size, replace=False))
        samples.append((probs, sources))
    return samples


def run_equivalence_checks(n_nodes: int, trials: int, seed: int) -> EquivalenceReport:
    """Randomized cross-checks of the fast prediction rule.

    Per trial: (i) the brute-force subset-enumeration set must equal the
    prefix-rule set for all score kinds, on both a uniform-random and a
    calibration-derived threshold; (ii) the risk-control pipeline must equal
    the min-score pipeline, with thresholds related by lambda = 1 + q.
    """
    if n_nodes > _BRUTEFORCE_MAX_NODES:
        raise ValueError(f"n_nodes must be <= {_BRUTEFORCE_MAX_NODES}")
    bf_bad = 0
    crc_bad = 0
    max_gap = 0.0
    for t in range(trials):
        rng = substream(seed, t)
        probs = rng.random(n_nodes)
        levels = NominalLevels(alpha=float(rng.choice(_CHECK_ALPHAS)),
                               beta=float(rng.choice(_CHECK_BETAS)))
        cal = _random_calibration(rng, n_nodes, int(rng.integers(3, 40)))
        for kind in SCORE_KINDS:
            model = calibrate(cal, kind, levels)
            thresholds = [model.q_hat, float(rng.uniform(-1.2, 1.2))]
            for q in thresholds:
                fast = predict(ConformalModel(kind, levels, q, model.n_cal), probs)
                brute = bruteforce_prediction_set(probs, q, kind)
                if not np.array_equal(fast.nodes, brute):
                    bf_bad += 1
        min_model = calibrate(cal, "min", levels)
        lam = crc_calibrate(cal, levels)
        if math.isinf(min_model.q_hat) or math.isinf(lam):
            if math.isinf(min_model.q_hat) != math.isinf(lam):
                max_gap = math.inf
        else:
            max_gap = max(max_gap, abs(lam - (1.0 + min_model.q_hat)))
        crc_set = crc_predict(lam, probs)
        min_set = predict(min_model, probs)
        if not np.array_equal(crc_set, min_set.nodes):
            crc_bad += 1
    return EquivalenceReport(trials=trials, bruteforce_mismatches=bf_bad,
                             crc_set_mismatches=crc_bad, max_lambda_gap=max_gap)
