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

Numerical contract: scores are evaluated through one canonical path,
`RankedProbs` (sorted order + extended-precision prefix sums), shared by
set_score, calibration, prediction, the experiment loop and the brute-force
oracle, so threshold comparisons see identical rounding on both sides.
`shrink_set` and `upward_closure` stay value-based, as the reference the
fast path is tested against. Rank arithmetic like ceil((1-alpha)(n+1)) is
computed with a small nudge so float products that represent exact integers
do not overshoot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from sourceset.util import check_node_set, substream, write_jsonl_header, read_jsonl

SCORE_KINDS = ("pre", "rec", "min")

_CEIL_NUDGE = 1e-9
_BRUTEFORCE_MAX_NODES = 16


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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class ConformalModel:
    """Calibrated threshold for one (score kind, alpha, beta) setting."""

    score: str
    levels: NominalLevels
    q_hat: float
    n_cal: int


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


def _check_probs(probs) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probability vector must be non-empty and 1-dimensional")
    # NaN fails both comparisons and +-inf fails one, so this also rejects them
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("probability vector must be finite and within [0, 1]")
    return arr


def probability_order(probs: np.ndarray) -> np.ndarray:
    """Node indices sorted by (probability desc, index asc).

    This total order breaks ties everywhere downstream; the closure itself
    stays value-based so tied nodes always enter together.
    """
    return np.argsort(-probs, kind="stable")


class RankedProbs:
    """One probability vector ranked once, for every score evaluated on it.

    Holds the canonical order, the probabilities in that order and their
    prefix sums: prefix[k] is the sum of the k largest probabilities,
    accumulated in extended precision so prefix evaluation agrees with a
    direct sum to well under 1e-12 even for thousands of nodes. A closure is
    a prefix of the order, so every score is a lookup into these arrays.
    """

    __slots__ = ("order", "sorted_vals", "prefix")

    def __init__(self, probs):
        probs = _check_probs(probs)
        self.order = probability_order(probs)
        self.sorted_vals = probs[self.order]
        self.prefix = np.empty(probs.size + 1)
        self.prefix[0] = 0.0
        self.prefix[1:] = np.cumsum(self.sorted_vals,
                                    dtype=np.longdouble).astype(np.float64)

    def closure_sizes(self, thresholds):
        """Number of probabilities >= threshold, for scalar or vector thresholds."""
        return np.searchsorted(-self.sorted_vals, -np.asarray(thresholds), side="right")

    def scores(self, kind: str, closure_size):
        """Score of the closure(s) holding the `closure_size` largest probabilities."""
        if kind == "pre":
            return -(self.prefix[closure_size] / closure_size)
        if kind == "rec":
            total = self.prefix[-1]
            if total <= 0.0:
                raise ValueError("'rec' score needs positive total probability mass")
            return self.prefix[closure_size] / total
        if kind == "min":
            return -self.sorted_vals[closure_size - 1]
        raise ValueError(f"unknown score kind {kind!r}")

    def positions(self, members) -> np.ndarray:
        """Ascending positions of the node set `members` in the canonical order."""
        members = check_node_set(members, self.order.size)
        inverse = np.empty_like(self.order)
        inverse[self.order] = np.arange(self.order.size)
        return np.sort(inverse[members])

    def shrunk_score(self, kind: str, positions: np.ndarray, beta: float) -> float:
        """Score of shrink_set(probs, members, beta), given positions(members).

        The shrunken set's smallest kept probability is its closure
        threshold; beta = 0 scores the set itself.
        """
        keep = required_hits(positions.size, beta)
        threshold = self.sorted_vals[positions[keep - 1]]
        return float(self.scores(kind, int(self.closure_sizes(threshold))))

    def singleton_scores(self, kind: str) -> np.ndarray:
        """scores[j] is the score of {order[j]}; non-decreasing in j."""
        return np.asarray(self.scores(kind, self.closure_sizes(self.sorted_vals)))


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


def set_score(kind: str, probs, members) -> float:
    """Monotone non-conformity score of a node set.

    Evaluated on the upward closure of `members`, so scoring a set and
    scoring its closure give bit-identical results, and enlarging the
    closure can only increase the score.
    """
    ranked = RankedProbs(probs)
    return ranked.shrunk_score(kind, ranked.positions(members), 0.0)


def singleton_scores(kind: str, probs) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every single-node set, evaluated along the canonical order.

    Returns (order, scores) where scores[j] is the score of
    {order[j]}. Computed once per probability vector in O(N log N); entries
    are bit-identical to set_score(kind, probs, [order[j]]).
    """
    ranked = RankedProbs(probs)
    return ranked.order, ranked.singleton_scores(kind)


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
    <= comparisons are reproducible.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    scores = []
    for probs, sources in samples:
        ranked = RankedProbs(probs)
        scores.append(ranked.shrunk_score(kind, ranked.positions(sources), levels.beta))
    if not scores:
        raise ValueError("need at least one calibration sample")
    q_hat = finite_sample_quantile(np.asarray(scores), levels.alpha)
    return ConformalModel(score=kind, levels=levels, q_hat=q_hat, n_cal=len(scores))


def predict(model: ConformalModel, probs) -> PredictionSet:
    """Nodes whose singleton score is within the calibrated threshold.

    The singleton scores are non-decreasing along the canonical order, so the
    result is a closure-prefix; an infinite threshold returns all nodes.
    """
    order, scores = singleton_scores(model.score, probs)
    nodes = np.sort(order[scores <= model.q_hat])
    return PredictionSet(nodes=nodes, threshold_used=model.q_hat)


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
#
# The family C_lambda = {v : prob(v) >= 1 - lambda} controls recall directly:
# lambda_hat is the smallest threshold whose empirical violation bound
# (violations + 1) / (n + 1) <= alpha holds (Angelopoulos et al., Conformal
# Risk Control). Membership is evaluated in the rearranged form
# 1 - prob <= lambda, so sample i is satisfied exactly when
# t_i <= lambda, where t_i is the required_hits-th smallest 1 - prob over its
# sources. With m = floor(alpha (n + 1)) - 1 violations allowed, lambda_hat
# is the (n - m)-th smallest t_i: an empirical quantile, read off by rank
# instead of scanning every candidate threshold. Each t_i is itself a
# 1 - prob value, so the result is the float a scan over all 1 - prob
# values would return, and it agrees with the min-score quantile path down
# to the last bit.


def crc_calibrate(samples, levels: NominalLevels) -> float:
    """Smallest lambda with (violations(lambda) + 1) / (n + 1) <= alpha.

    violations(lambda) counts calibration samples whose set
    {v : 1 - prob(v) <= lambda} covers fewer than required_hits of the true
    sources. A sample is satisfied exactly when lambda reaches its t_i, the
    required_hits-th smallest 1 - prob over its sources, so with m
    violations allowed lambda_hat is the (n - m)-th smallest t_i. Returns
    +inf when even zero violations break the bound (the infimum of an empty
    set; the prediction set is then the full node set), and the smallest
    1 - prob over all sources when every sample may be violated. Costs one
    partition per sample plus one over the n values of t, so O(total source
    entries + n).
    """
    samples = list(samples)
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one calibration sample")
    allowed = math.floor(levels.alpha * (n + 1) + _CEIL_NUDGE) - 1
    t = np.empty(n)
    for i, (probs, sources) in enumerate(samples):
        probs = _check_probs(probs)
        y = check_node_set(sources, probs.size)
        # when every sample may be violated, the answer is the smallest
        # 1 - prob of any sample, so each sample contributes its smallest
        k = 1 if allowed >= n else required_hits(y.size, levels.beta)
        t[i] = np.partition(1.0 - probs[y], k - 1)[k - 1]
    if allowed < 0:
        return math.inf
    rank = max(n - allowed, 1)
    return float(np.partition(t, rank - 1)[rank - 1])


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
    probs = _check_probs(probs)
    n = probs.size
    if n > _BRUTEFORCE_MAX_NODES:
        raise ValueError(f"brute force refuses N > {_BRUTEFORCE_MAX_NODES} nodes")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    ranked = RankedProbs(probs)
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member_bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    thresholds = np.min(np.where(member_bits, probs[None, :], np.inf), axis=1)
    scores = np.asarray(ranked.scores(kind, ranked.closure_sizes(thresholds)))
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


def load_model(path) -> tuple[ConformalModel, dict]:
    header: dict = {}
    model = None
    for rec in read_jsonl(path):
        if rec.get("record") == "header":
            header = rec
        elif rec.get("record") == "model":
            q = rec["q_hat"]
            model = ConformalModel(
                score=rec["score"],
                levels=NominalLevels(alpha=rec["alpha"], beta=rec["beta"]),
                q_hat=math.inf if q == "inf" else float(q),
                n_cal=rec["n_cal"],
            )
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
