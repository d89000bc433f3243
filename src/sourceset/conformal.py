"""Recall-controlled conformal set prediction over per-node probabilities.

Pipeline: each calibration sample's true source set is shrunk to its
top-(1-beta) fraction by predicted probability, scored with a monotone
set score, and the finite-sample (1-alpha)(1+1/n) quantile of those scores
becomes the prediction threshold. A test set is then the largest upward
closure whose score is within the threshold: it holds every closure that
passes, so it holds the shrunken true source set whenever that set's score
passes. This guarantees recall >= 1-beta with probability >= 1-alpha whenever
calibration and test data are exchangeable, regardless of the estimator.

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
read one ranked view, `RankedBlock`: a block of equal-length rows whose
ascending values and float64 suffix sums, aligned to them, are built
together on first use, by one row-wise sort and one row-wise sum from each
row's largest value down. A closure holds every value >= its threshold, so
its smallest value is the threshold itself: 'min' reads that value and no
sorted view, and risk control reads only source thresholds. Test sets are
read off the same view flattened, by one rule (`_test_set_floors`): every
closure of every row is found by the flat position of its threshold, the
first value of a run of ties, and scored from the suffix sum there, never
node by node: a float mean can rise by an ulp as a closure grows, so the
nodes whose own closure passes need not form a closure, while the largest
passing closure is the brute-force oracle's set in floats. Calibration,
risk control, the experiment loop and the CLI's calibrate and predict rank
blocks of samples and read every source-set and test-set decision off them;
set_score, singleton_scores and the brute-force oracle rank a one-row
block, and library predict sorts its one vector into the same view with no
block built. A block's rows are capped so that its suffix sums fit
`_SCORE_BLOCK_BYTES`. Scores depend only on values, never on how ties are
ordered (-0.0 is read as 0.0, the one tie whose members differ in bits),
and every row is summed in sequence in float64, so a row of a block and the
same vector ranked alone give bit-identical scores on every platform,
threshold comparisons see identical rounding on both sides, and a row
total's relative error is at most (N - 1) * eps.
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
BRUTEFORCE_MAX_NODES = 16
# a RankedBlock's (rows, N) suffix sums stay within this many bytes; all of
# a block's arrays then take about 3 times as much. Larger blocks only save
# per-block overhead. On a 2-vCPU Xeon (medians of 8 interleaved in-process
# rounds, timed when blocks held (rows, N + 1) prefix sums in place of the
# suffix sums, at the same rows per block), 64 / 128 / 256 KiB scored 7600
# samples at N = 774 in 99 / 91 / 84 ms ('pre'), 104 / 88 / 84 ms ('rec')
# and 44 / 31 / 28 ms ('min'), and ran crc_calibrate in 43 / 31 / 27 ms; 500
# samples at N = 200 took 2.7 / 2.5 / 2.8 ms ('pre'), so 256 KiB is slower
# there. block_rows also caps the blocks of estimators.estimate_blocks, and
# so the experiment's and the CLI's ranked blocks. Peak RSS over 3 desk
# trials (ba:200,3, 700 samples each) was 42.4-42.5 MB at these 81-row
# blocks against 41.8-42.0 MB at 40 rows; it was 43.4-43.7 MB at 81 rows
# when the heuristic counted every node's susceptible neighbours, where it
# now reads only the CSR lists of the nodes infected at first sight.
_SCORE_BLOCK_BYTES = 1 << 17


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


def _check_alpha(alpha) -> None:
    """Refuse an alpha that is not a number in (0, 1): a bool, NaN or a
    value outside that range."""
    if not isinstance(alpha, numbers.Real) or isinstance(alpha, bool):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class NominalLevels:
    """User-specified miscoverage budget (alpha) and recall slack (beta).

    beta = 1 is rejected: shrinking could then return an empty set, on which
    every score is undefined.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not isinstance(self.beta, numbers.Real) or isinstance(self.beta, bool):
            raise ValueError(f"beta must be a number, got {self.beta!r}")
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
    """The nodes of the largest upward closure whose score passed the
    calibrated threshold."""

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


def _check_range(probs: np.ndarray) -> None:
    """Reject probabilities whose smallest or largest value is outside [0, 1]."""
    # NaN propagates through minimum and fails both comparisons, and +-inf
    # fails one, so this also rejects them. The ufunc reductions skip the
    # method wrappers of min and max, which a one-row block pays per call.
    if not (np.minimum.reduce(probs, axis=None) >= 0.0
            and np.maximum.reduce(probs, axis=None) <= 1.0):
        raise ValueError("probability vector must be finite and within [0, 1]")


def _check_probs(probs) -> np.ndarray:
    arr = _as_vector(probs)
    _check_range(arr)
    return arr


def probability_order(probs: np.ndarray) -> np.ndarray:
    """Node indices sorted by (probability desc, index asc).

    This total order breaks ties everywhere downstream; the closure itself
    stays value-based so tied nodes always enter together.
    """
    return np.argsort(-probs, kind="stable")


def _closure_scores(kind: str, smallest=None, mass=None, size=None, total=None):
    """Scores of upward closures, from what each score kind reads.

    The one implementation of the score formulas. 'min' reads `smallest`,
    each closure's smallest probability, which is its threshold. 'pre' reads
    `mass`, each closure's probabilities summed in descending order, and
    `size`, its node count; 'rec' reads `mass` and `total`, the mass of the
    closure's whole row. Each kind reads only those; a caller may pass
    more, as one that scores 'pre' and 'rec' alike does.
    """
    if kind == "pre":
        return -(mass / size)
    if kind == "rec":
        if not np.minimum.reduce(total, axis=None) > 0.0:
            raise ValueError("'rec' score needs positive total probability mass")
        return mass / total
    if kind == "min":
        # -0.0 as 0.0, so no score depends on which zero a threshold is
        return -(smallest + 0.0)
    raise ValueError(f"unknown score kind {kind!r}")


def _sorted_view(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's values in ascending order, -0.0 as 0.0, and their suffix
    sums, for a 1-D or 2-D array: suffix[..., j] is the sum of
    ascending[..., j:], accumulated one value after another from the largest
    down, so suffix[..., 0] is the row's total and a row sums alike in any
    block."""
    ascending = probs + 0.0
    ascending.sort(axis=-1)
    suffix = np.empty_like(ascending)
    np.add.accumulate(ascending[..., ::-1], axis=-1, out=suffix[..., ::-1])
    return ascending, suffix


def _test_set_floors(kind: str, q_hats, rows: int, sorted_view) -> np.ndarray:
    """The one rule for test sets: (len(q_hats), rows) floors, each that of
    the largest upward closure of its row whose score is <= its threshold
    (+inf when none is); see RankedBlock.test_set_floors.

    `sorted_view()` returns the rows' ascending values and suffix sums, as
    `_sorted_view` builds them, which 'min' does not read. Both are read
    raveled, row after row. Every closure is found by the flat position
    `at` of its threshold, the first value of a run of ties: it sits at
    `at - at // N * N` in its row, holds N - that many nodes and sums to
    suffix.flat[at].
    """
    q = np.asarray(q_hats, dtype=np.float64).reshape(-1, 1)
    if kind == "min":
        return (-q).repeat(rows, axis=1)
    ascending, suffix = sorted_view()
    n = ascending.shape[-1]
    ascending, suffix = ascending.ravel(), suffix.ravel()
    first = np.empty(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    first[::n] = True
    # each row's closures, its largest first; numpy divides by a scalar far
    # faster than it takes a remainder
    at = first.nonzero()[0]
    start = at - at // n * n
    passing = _closure_scores(kind, mass=suffix[at], size=n - start,
                              total=suffix[at - start]) <= q
    return np.minimum.reduceat(np.where(passing, ascending[at], np.inf),
                               (start == 0).nonzero()[0], axis=1)


class RankedBlock:
    """Rows of one length N, optionally each with its source set, ranked together.

    A closure holds every probability of its row that is >= its threshold,
    so its smallest value is that threshold and its mass the sum of its
    size largest values. 'min' reads the threshold and needs no ranking.
    For 'pre' and 'rec', one row-wise sort and one row-wise float64 sum,
    built together on first use, serve every row: `ascending` holds each
    row's values in ascending order and `suffix`, aligned to it, the sum of
    each value and all larger ones of its row, accumulated in sequence from
    the largest down. So a closure whose threshold sits at position j holds
    N - j nodes and sums to suffix[r, j], a row total's relative error is at
    most (N - 1) * eps, and a row's values and sums are the same bit for bit
    in any block. Scores need only values, never positions.

    Built from a (rows, N) float64 array, which the block only reads and
    checks to lie in [0, 1], and, for its source-set methods, one int64
    node-id array per row; ranked_blocks builds blocks of samples, the
    experiment one block per estimator block, and _ranked_row a block of one
    vector. Source sets are checked with the messages of check_node_set and
    stored deduplicated and sorted by (row, node) in `source_rows` and
    `source_nodes`, with `source_counts[r]` distinct sources in row r.
    """

    def __init__(self, probs: np.ndarray, sources: list[np.ndarray] | None = None):
        self.probs = probs
        rows, n = probs.shape
        _check_range(probs)
        # views built on first use, by the score kinds that read them
        self._ascending = self._suffix = None
        if sources is None:
            return
        if len(sources) != rows:
            raise ValueError(f"{len(sources)} source sets for {rows} probability rows")
        nodes = np.concatenate(sources)
        # before the keys are packed, so no id can alias a node of another row
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            raise ValueError("node index out of range")
        keys = np.repeat(np.arange(rows, dtype=np.int64) * n,
                         [s.size for s in sources]) + nodes
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        self.source_rows, self.source_nodes = np.divmod(keys[distinct], n)
        self.source_counts = np.bincount(self.source_rows, minlength=rows)
        if not self.source_counts.all():
            raise ValueError("node set must be non-empty")
        # each row's source probabilities in descending order, rows in turn
        values = probs[self.source_rows, self.source_nodes]
        self._source_desc = values[np.lexsort((-values, self.source_rows))]
        self._source_start = np.cumsum(self.source_counts) - self.source_counts

    @property
    def ascending(self) -> np.ndarray:
        """(rows, N): each row's probabilities in ascending order, -0.0 as
        0.0, sorted on first use, when `suffix` is summed too."""
        if self._ascending is None:
            self._ascending, self._suffix = _sorted_view(self.probs)
        return self._ascending

    @property
    def suffix(self) -> np.ndarray:
        """(rows, N): suffix[r, j] is the sum of ascending[r, j:], from the
        largest value down, so suffix[r, 0] is row r's total."""
        if self._suffix is None:
            self.ascending  # builds both views
        return self._suffix

    def threshold_scores(self, kind: str, threshold: np.ndarray) -> np.ndarray:
        """Scores of the closures {v : probs[r, v] >= threshold[r, j]}, for a
        (rows, k) array whose entries are each a value of their row."""
        if kind == "min":
            return _closure_scores(kind, smallest=threshold)
        sizes = np.count_nonzero(self.probs[:, None, :] >= threshold[:, :, None], axis=2)
        return self.sized_scores(kind, np.arange(sizes.shape[0])[:, None], sizes)

    def sized_scores(self, kind: str, row, size) -> np.ndarray:
        """'pre' or 'rec' scores of the closures of size[i] nodes of row
        row[i], for arrays that broadcast together, sizes in 1..N."""
        suffix = self.suffix
        return _closure_scores(kind, mass=suffix[row, suffix.shape[1] - size], size=size,
                               total=suffix[row, 0])

    def test_set_floors(self, kind: str, q_hats) -> np.ndarray:
        """(len(q_hats), rows): per threshold q in `q_hats` and row r, the
        floor f of row r's test set at q, {v : probs[r, v] >= f}: the
        largest upward closure whose score is <= q (+inf when none is).

        This is the brute-force oracle's set: a node is in it iff some
        closure containing the node scores <= q. 'min' scores a closure
        -threshold, which grows as the closure does, so its floor is -q and
        no row is sorted. 'pre' and 'rec' score each closure along the
        sorted view, at the first value of each run of ties in ascending
        order (a closure's threshold), and keep the least passing
        threshold. 'rec' scores never fall as a closure grows, but a float
        mean can rise by an ulp, so comparing each node's own closure score
        with q would drop the top of a 'pre' set whose larger closure passes.
        """
        return _test_set_floors(kind, q_hats, self.probs.shape[0],
                                lambda: (self.ascending, self.suffix))

    def required_hits(self, beta: float) -> np.ndarray:
        """Per row, required_hits(source_counts[r], beta), same float arithmetic."""
        keep = np.ceil((1.0 - beta) * self.source_counts - _CEIL_NUDGE).astype(np.int64)
        return np.maximum(keep, 1)

    def source_threshold(self, keep) -> np.ndarray:
        """Per row, the keep[r]-th largest source probability (keep may be a
        scalar for every row)."""
        return self._source_desc[self._source_start + keep - 1]

    def included(self, floors: np.ndarray, beta: float) -> np.ndarray:
        """Per row, whether the row's set {v : probs[r, v] >= floors[r]}
        holds at least required_hits of its sources: the set is an upward
        closure, so it does iff it holds the required_hits-th largest."""
        return self.source_threshold(self.required_hits(beta)) >= floors

    def shrunk_scores(self, kind: str, beta: float) -> np.ndarray:
        """Per row, the score of shrink_set(probs, sources, beta).

        The shrunken set's closure threshold is the required_hits-th largest
        source probability of the row.
        """
        threshold = self.source_threshold(self.required_hits(beta))
        return self.threshold_scores(kind, threshold[:, None])[:, 0]


def block_rows(n_nodes: int) -> int:
    """Rows per RankedBlock, so that its suffix sums fit the budget."""
    return max(1, _SCORE_BLOCK_BYTES // (np.dtype(np.float64).itemsize * n_nodes))


def ranked_blocks(samples):
    """RankedBlocks over an iterable of (probability vector, source set) pairs.

    Consumes the iterable block by block. A block is a run of consecutive
    samples of one length, at most block_rows of them; a change of length
    starts a new block, so samples of mixed lengths are accepted.
    """
    block, sources = None, []
    for p, y in samples:
        p = _as_vector(p)
        if sources and (p.size != block.shape[1] or len(sources) == len(block)):
            yield RankedBlock(block[:len(sources)], sources)
            sources = []
        if not sources:
            block = np.empty((block_rows(p.size), p.size))
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
    scores[j] is the score of {order[j]}, bit-identical to set_score(kind,
    probs, [order[j]]). Computed once per probability vector in
    O(N log N), along the sorted view: the j-th largest value's closure
    runs through the last of its ties. The scores need not be monotone in
    j: a 'pre' mean can rise by an ulp as the closure grows, so a set of
    the nodes whose singleton score passes a threshold need not be a
    closure, and prediction does not read these.
    """
    block = _ranked_row(probs)
    order = probability_order(block.probs[0])
    ascending = block.ascending[0]
    descending = ascending[::-1]
    if kind == "min":
        return order, _closure_scores(kind, smallest=descending)
    sizes = ascending.size - ascending.searchsorted(descending, side="left")
    return order, block.sized_scores(kind, 0, sizes)


# ---------------------------------------------------------------------------
# Calibration and prediction
# ---------------------------------------------------------------------------


def finite_sample_quantile(values, alpha: float) -> float:
    """Rank-ceil((1-alpha)(n+1)) smallest value; +inf when the rank overflows n.

    An infinite threshold makes the prediction set the full node set, which
    is the correct answer when n is too small for level alpha. An alpha
    outside (0, 1) is refused as NominalLevels refuses it.
    """
    _check_alpha(alpha)
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
    return calibrate_blocks(ranked_blocks(samples), kind, levels)


def calibrate_blocks(blocks, kind: str, levels: NominalLevels) -> ConformalModel:
    """`calibrate` on an iterable of RankedBlocks with source sets, one
    calibration sample per row, consumed block by block. A caller that holds
    its vectors as blocks already, as the CLI does with an estimator's, ranks
    them as they are; the scores do not depend on how rows are blocked."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    scores = [block.shrunk_scores(kind, levels.beta) for block in blocks]
    if not scores:
        raise ValueError("need at least one calibration sample")
    scores = np.concatenate(scores)
    q_hat = finite_sample_quantile(scores, levels.alpha)
    return ConformalModel(score=kind, levels=levels, q_hat=q_hat, n_cal=scores.size)


def predict(model: ConformalModel, probs) -> PredictionSet:
    """The largest upward closure whose score is within the calibrated
    threshold (RankedBlock.test_set_floors, read off the vector's sorted
    view with no block built), as nodes in index order.

    Any set that holds every passing closure holds this one, and it is
    the brute-force oracle's set; it may be empty, and an infinite
    threshold returns all nodes.
    """
    probs = _check_probs(probs)
    floor = _test_set_floors(model.score, model.q_hat, 1, lambda: _sorted_view(probs))[0, 0]
    return PredictionSet(nodes=(probs >= floor).nonzero()[0], threshold_used=model.q_hat)


def _as_set(nodes) -> np.ndarray:
    """The distinct int64 entries of `nodes`, ascending; a strictly
    increasing 1-D array already is that, and is not sorted again."""
    arr = np.asarray(nodes, dtype=np.int64)
    if arr.ndim == 1 and (arr[1:] > arr[:-1]).all():
        return arr
    return np.unique(arr)


def evaluate_set(nodes, true_sources, beta: float) -> SetMetrics:
    """Precision/recall of a predicted set, plus the recall >= 1-beta flag.

    The flag compares integer hit counts so exact boundaries (e.g. 7 of 10
    at beta = 0.3) are decided correctly. Both arguments count as sets:
    duplicates count once. A strictly increasing 1-D argument, as predict's
    nodes and a dataset's sources are, is read as it is, with no sort.
    """
    y = _as_set(true_sources)
    if y.size == 0:
        raise ValueError("true source set must be non-empty")
    pred = _as_set(nodes)
    if pred.size:
        # where each source would sit in the set, and whether it is there
        hits = int(np.count_nonzero(pred.take(pred.searchsorted(y), mode="clip") == y))
    else:
        hits = 0
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
    the t_i (+inf: the full node set), the rank `calibrate` reads. Each t_i
    is a 1 - prob value, so this is the float a scan over all candidates
    returns, equal to 1 + the 'min' score threshold to the last bit.
    Consumes `samples` as calibrate does.
    """
    t = [1.0 - block.source_threshold(block.required_hits(levels.beta))
         for block in ranked_blocks(samples)]
    if not t:
        raise ValueError("need at least one calibration sample")
    return finite_sample_quantile(np.concatenate(t), levels.alpha)


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
    exists to cross-check RankedBlock.test_set_floors, the largest passing
    closure, which must give the same set for every score kind.
    """
    block = _ranked_row(probs)
    n = block.probs.shape[1]
    if n > BRUTEFORCE_MAX_NODES:
        raise ValueError(f"brute force refuses N > {BRUTEFORCE_MAX_NODES} nodes")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member_bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    thresholds = np.min(np.where(member_bits, block.probs, np.inf), axis=1)
    scores = block.threshold_scores(kind, thresholds[None, :])[0]
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

    Per trial: (i) the brute-force subset-enumeration set must equal
    predict's set for all score kinds, on both a uniform-random and a
    calibration-derived threshold, and so must each row's set read off one
    RankedBlock of the test vector and up to three calibration vectors;
    (ii) the risk-control pipeline must equal the min-score pipeline, with
    thresholds related by lambda = 1 + q.
    """
    if not 1 <= n_nodes <= BRUTEFORCE_MAX_NODES:
        raise ValueError(f"n_nodes must be in [1, {BRUTEFORCE_MAX_NODES}], got {n_nodes!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    bf_bad = 0
    crc_bad = 0
    max_gap = 0.0
    for t in range(trials):
        rng = substream(seed, t)
        probs = rng.random(n_nodes)
        levels = NominalLevels(alpha=float(rng.choice(_CHECK_ALPHAS)),
                               beta=float(rng.choice(_CHECK_BETAS)))
        cal = _random_calibration(rng, n_nodes, int(rng.integers(3, 40)))
        block = RankedBlock(np.array([probs] + [p for p, _ in cal[:3]]))
        for kind in SCORE_KINDS:
            model = calibrate(cal, kind, levels)
            thresholds = [model.q_hat, float(rng.uniform(-1.2, 1.2))]
            for q, floors in zip(thresholds, block.test_set_floors(kind, thresholds)):
                fast = predict(ConformalModel(kind, levels, q, model.n_cal), probs)
                brute = bruteforce_prediction_set(probs, q, kind)
                if not np.array_equal(fast.nodes, brute):
                    bf_bad += 1
                for r, (row, floor) in enumerate(zip(block.probs, floors)):
                    row_brute = brute if r == 0 else bruteforce_prediction_set(row, q, kind)
                    if not np.array_equal(np.flatnonzero(row >= floor), row_brute):
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
