"""Conformal machinery: closures, scores, quantiles, prediction, equivalences.

Expected values marked "by direct evaluation" were computed by hand from the
score definitions on tiny vectors; independent numeric cross-checks use plain
numpy reductions instead of the canonical ranked view.
"""

import itertools
import math

import numpy as np
import pytest

from sourceset import conformal
from sourceset.conformal import (
    SCORE_KINDS,
    ConformalModel,
    NominalLevels,
    SetMetrics,
    bruteforce_prediction_set,
    calibrate,
    crc_calibrate,
    crc_predict,
    evaluate_set,
    finite_sample_quantile,
    predict,
    required_hits,
    run_equivalence_checks,
    save_model,
    load_model,
    ranked_blocks,
    set_score,
    shrink_set,
    singleton_scores,
    stable_ceil,
    upward_closure,
)
from sourceset.diffusion import GenerativeConfig, SirParams, simulate
from sourceset.estimators import PROB_FLOOR
from sourceset.experiment import ExperimentConfig, run_experiment
from sourceset.graph import complete_graph
from sourceset.util import check_node_set, substream


def direct_score(kind, probs, members):
    """Plain-numpy score evaluation, independent of the ranked view."""
    thr = probs[np.asarray(members)].min()
    closure = probs[probs >= thr]
    if kind == "pre":
        return -float(np.mean(closure))
    if kind == "rec":
        return float(np.sum(closure) / np.sum(probs))
    return -float(np.min(closure))


def reference_set_score(kind, probs, members):
    """set_score from the definitions, bit for bit: the upward closure's
    probabilities in descending order, summed one after another in float64
    as the suffix sums are, with -0.0 read as 0.0."""
    probs = np.asarray(probs, dtype=np.float64) + 0.0
    closure = np.sort(probs[upward_closure(probs, members)])[::-1]
    if kind == "min":
        return -closure[-1]
    mass = np.cumsum(closure)[-1]
    if kind == "pre":
        return -(mass / closure.size)
    return mass / np.cumsum(np.sort(probs)[::-1])[-1]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def random_set(rng, n, max_size=None):
    size = int(rng.integers(1, (max_size or n) + 1))
    return np.sort(rng.choice(n, size=size, replace=False))


class TestStableCeil:
    def test_forgives_float_noise_above_integers(self):
        assert stable_ceil((1 - 1 / 3) * 3) == 2
        assert stable_ceil((1 - 0.7) * 10) == 3
        assert stable_ceil(0.9 * 10) == 9
        assert stable_ceil(2.3) == 3
        assert stable_ceil(5.0) == 5

    def test_required_hits(self):
        assert required_hits(3, 1 / 3) == 2
        assert required_hits(1, 0.9) == 1
        assert required_hits(10, 0.3) == 7
        assert required_hits(10, 0.0) == 10


class TestNominalLevels:
    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            NominalLevels(alpha=0.1, beta=1.0)
        with pytest.raises(ValueError):
            NominalLevels(alpha=0.0, beta=0.1)
        with pytest.raises(ValueError):
            NominalLevels(alpha=1.0, beta=0.1)
        NominalLevels(alpha=0.1, beta=0.0)

    @pytest.mark.parametrize("alpha, beta", [("0.1", 0.0), (0.1, None), (0.1, False)])
    def test_non_number_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="must be a number"):
            NominalLevels(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("n_cal", ["x", 0, 2.0, True])
    def test_model_needs_positive_integer_n_cal(self, n_cal):
        with pytest.raises(ValueError, match="n_cal must be a positive integer"):
            ConformalModel("rec", NominalLevels(0.1), 0.5, n_cal)


class TestUpwardClosure:
    def test_worked_example(self):
        # nodes pre-sorted by probability; closing {v1, v2, v4} pulls in v3
        probs = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        assert upward_closure(probs, [0, 1, 3]).tolist() == [0, 1, 2, 3]

    def test_unique_argmax_closes_to_itself(self):
        probs = np.array([0.2, 0.8, 0.5])
        assert upward_closure(probs, [1]).tolist() == [1]

    def test_full_set_closes_to_full_set(self):
        rng = np.random.default_rng(0)
        probs = rng.random(12)
        assert upward_closure(probs, np.arange(12)).tolist() == list(range(12))

    def test_ties_enter_together(self):
        probs = np.array([0.5, 0.3, 0.3, 0.1])
        assert upward_closure(probs, [2]).tolist() == [0, 1, 2]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            upward_closure(np.array([0.5, 0.1]), [])


class TestShrink:
    def test_worked_example(self):
        probs = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        kept = shrink_set(probs, [0, 1, 3], beta=1 / 3)
        assert kept.tolist() == [0, 1]

    def test_beta_zero_keeps_all(self):
        probs = np.array([0.4, 0.6, 0.1])
        assert shrink_set(probs, [0, 2], beta=0.0).tolist() == [0, 2]

    def test_singleton_survives_any_beta(self):
        probs = np.array([0.4, 0.6, 0.1])
        for beta in (0.0, 0.5, 0.99):
            assert shrink_set(probs, [2], beta=beta).tolist() == [2]

    def test_tie_break_prefers_smaller_index(self):
        probs = np.array([0.5, 0.5, 0.5, 0.5])
        assert shrink_set(probs, [1, 2, 3], beta=0.5).tolist() == [1, 2]

    def test_shrink_properties_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            probs = rng.random(n)
            members = random_set(rng, n)
            beta = float(rng.uniform(0, 0.99))
            kept = shrink_set(probs, members, beta)
            assert set(kept) <= set(members)
            assert kept.size >= (1 - beta) * members.size - 1e-9
            assert kept.size >= 1


class TestSetScore:
    def test_worked_examples(self):
        probs = np.array([0.5, 0.3, 0.2])
        # closure of {v2} is {v1, v2}; values by direct evaluation
        assert set_score("pre", probs, [1]) == pytest.approx(-0.4, abs=1e-12)
        assert set_score("rec", probs, [1]) == pytest.approx(0.8, abs=1e-12)
        assert set_score("min", probs, [1]) == -0.3

    def test_rec_of_full_set_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = rng.random(int(rng.integers(1, 15)))
            assert set_score("rec", probs, np.arange(probs.size)) == pytest.approx(1.0)

    def test_rec_degenerates_to_full_set_on_uniform_probs(self):
        # with all-equal probabilities every closure is the full node set, so
        # every 'rec' singleton score is 1 and prediction returns all nodes;
        # this is the documented literal behavior, not an error
        probs = np.full(8, 0.25)
        model = calibrate([(probs, np.array([2]))], "rec",
                          NominalLevels(alpha=0.5, beta=0.0))
        assert model.q_hat == 1.0
        assert predict(model, probs).nodes.tolist() == list(range(8))

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            probs = rng.random(n)
            members = random_set(rng, n)
            for kind in SCORE_KINDS:
                canonical = set_score(kind, probs, members)
                assert canonical == pytest.approx(direct_score(kind, probs, members),
                                                  abs=1e-12)

    def test_closure_idempotence_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            probs = rng.random(n)
            # include tie-heavy vectors
            if rng.random() < 0.3:
                probs = np.round(probs, 1)
            if not np.any(probs > 0):
                probs[0] = 0.5
            members = random_set(rng, n)
            closure = upward_closure(probs, members)
            for kind in SCORE_KINDS:
                assert set_score(kind, probs, members) == set_score(kind, probs, closure)

    def test_monotone_under_nested_closures(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            probs = rng.random(n)
            outer = random_set(rng, n)
            inner_size = int(rng.integers(1, outer.size + 1))
            inner = np.sort(rng.choice(outer, size=inner_size, replace=False))
            for kind in SCORE_KINDS:
                assert set_score(kind, probs, inner) <= set_score(kind, probs, outer)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            set_score("max", np.array([0.5]), [0])


class TestFiniteSampleQuantile:
    def test_rank_formula(self):
        # n=9, alpha=0.1: rank ceil(0.9 * 10) = 9 -> 9th smallest
        assert finite_sample_quantile(np.arange(1, 10), 0.1) == 9.0

    def test_single_value(self):
        assert finite_sample_quantile(np.array([3.5]), 0.5) == 3.5

    def test_overflow_returns_inf(self):
        assert finite_sample_quantile(np.arange(1, 6), 0.01) == math.inf

    def test_sandwich_property(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            values = rng.normal(size=n)
            alpha = float(rng.uniform(0.01, 0.5))
            q = finite_sample_quantile(values, alpha)
            rank = stable_ceil((1 - alpha) * (n + 1))
            if math.isinf(q):
                assert rank > n
            else:
                assert np.count_nonzero(values <= q) >= rank
                assert q in values

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_sample_quantile(np.array([]), 0.1)

    @pytest.mark.parametrize("alpha, message", [
        (1.5, r"alpha must be in \(0, 1\), got 1.5"),
        (0, r"alpha must be in \(0, 1\), got 0"),
        (1.0, r"alpha must be in \(0, 1\), got 1.0"),
        (-0.5, r"alpha must be in \(0, 1\), got -0.5"),
        (float("nan"), r"alpha must be in \(0, 1\), got nan"),
        (True, "alpha must be a number, got True"),
        ("0.1", "alpha must be a number, got '0.1'"),
    ])
    def test_alpha_outside_unit_interval_rejected(self, alpha, message):
        """The levels NominalLevels refuses, with its message: 1.5 returned the
        minimum, 0 and -0.5 +inf, and NaN failed in an int conversion."""
        with pytest.raises(ValueError, match=message):
            finite_sample_quantile(np.arange(1, 10), alpha)
        with pytest.raises(ValueError, match=message):
            NominalLevels(alpha=alpha)


class TestCalibratePredict:
    def make_samples(self, rng, n_nodes, n_samples, max_sources=None):
        out = []
        for _ in range(n_samples):
            probs = rng.random(n_nodes)
            out.append((probs, random_set(rng, n_nodes, max_sources)))
        return out

    def test_single_sample_alpha_half(self):
        rng = np.random.default_rng(7)
        probs = rng.random(10)
        y = np.array([2, 5])
        levels = NominalLevels(alpha=0.5, beta=0.3)
        model = calibrate([(probs, y)], "rec", levels)
        expected = set_score("rec", probs, shrink_set(probs, y, 0.3))
        assert model.q_hat == expected
        assert model.n_cal == 1

    def test_beta_zero_reduces_to_plain_sets(self):
        rng = np.random.default_rng(8)
        samples = self.make_samples(rng, 15, 40)
        levels = NominalLevels(alpha=0.2, beta=0.0)
        model = calibrate(samples, "pre", levels)
        raw_scores = np.asarray([set_score("pre", p, y) for p, y in samples])
        assert model.q_hat == finite_sample_quantile(raw_scores, 0.2)

    def test_calibration_deterministic(self):
        rng = np.random.default_rng(9)
        samples = self.make_samples(rng, 12, 100)
        levels = NominalLevels(alpha=0.1, beta=0.3)
        a = calibrate(samples, "min", levels)
        b = calibrate(samples, "min", levels)
        assert a == b

    def test_infinite_threshold_returns_all_nodes(self):
        model = ConformalModel("rec", NominalLevels(0.1, 0.0), math.inf, 5)
        probs = np.random.default_rng(10).random(20)
        assert predict(model, probs).nodes.tolist() == list(range(20))

    def test_perfect_separation_recovers_sources(self):
        rng = np.random.default_rng(11)
        n = 30
        samples = []
        for _ in range(60):
            y = random_set(rng, n, 5)
            probs = np.zeros(n)
            probs[y] = 1.0
            samples.append((probs, y))
        levels = NominalLevels(alpha=0.2, beta=0.0)
        for kind in ("pre", "min"):
            model = calibrate(samples, kind, levels)
            y = np.array([4, 17, 22])
            probs = np.zeros(n)
            probs[y] = 1.0
            assert predict(model, probs).nodes.tolist() == y.tolist()

    def test_prediction_set_is_probability_prefix(self):
        rng = np.random.default_rng(12)
        samples = self.make_samples(rng, 25, 50)
        model = calibrate(samples, "pre", NominalLevels(alpha=0.2, beta=0.3))
        for _ in range(50):
            probs = rng.random(25)
            nodes = predict(model, probs).nodes
            if nodes.size and nodes.size < 25:
                inside_min = probs[nodes].min()
                outside = np.setdiff1d(np.arange(25), nodes)
                assert np.all(probs[outside] < inside_min)

    def test_singleton_scores_match_set_score_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            probs = rng.random(n)
            if rng.random() < 0.4:
                probs = np.round(probs, 1)
                probs[probs == 0] = 0.05
            for kind in SCORE_KINDS:
                order, scores = singleton_scores(kind, probs)
                reference = [reference_set_score(kind, probs, [v]) for v in order]
                assert np.array_equal(bits(scores), bits(reference))
                single = [set_score(kind, probs, [v]) for v in order]
                assert np.array_equal(bits(single), bits(reference))

    def test_calibration_scores_match_reference_bitwise_on_ties(self):
        """calibrate's per-sample scores are the reference scores of
        shrink_set(...) exactly.

        Every rank of the calibration scores is read back through q_hat, with
        alpha = 1 - k/(n+1) selecting rank k.
        """
        rng = np.random.default_rng(16)
        samples = []
        for _ in range(30):
            n = int(rng.integers(1, 25))
            probs = np.round(rng.random(n), int(rng.integers(1, 3)))
            probs[probs == 0] = 0.05
            samples.append((probs, random_set(rng, n)))
        n_cal = len(samples)
        for kind in SCORE_KINDS:
            for beta in (0.0, 0.1, 0.3, 0.5, 0.7):
                reference = np.asarray([reference_set_score(kind, p, shrink_set(p, y, beta))
                                        for p, y in samples])
                # each sample ranked alone, as a one-row block
                fast = [next(ranked_blocks([(p, y)])).shrunk_scores(kind, beta)[0]
                        for p, y in samples]
                assert np.array_equal(bits(fast), bits(reference))
                ranks = np.sort(reference)
                for k in range(1, n_cal + 1):
                    levels = NominalLevels(alpha=1 - k / (n_cal + 1), beta=beta)
                    q_hat = calibrate(samples, kind, levels).q_hat
                    assert np.float64(q_hat).view(np.uint64) == ranks[k - 1].view(np.uint64)

    def test_set_size_monotone_in_alpha(self):
        rng = np.random.default_rng(14)
        samples = self.make_samples(rng, 20, 80)
        for kind in SCORE_KINDS:
            m_loose = calibrate(samples, kind, NominalLevels(alpha=0.5, beta=0.3))
            m_tight = calibrate(samples, kind, NominalLevels(alpha=0.1, beta=0.3))
            for _ in range(30):
                probs = rng.random(20)
                assert (predict(m_loose, probs).size
                        <= predict(m_tight, probs).size)

    def test_shrunken_set_inside_prediction_implies_recall(self):
        rng = np.random.default_rng(15)
        samples = self.make_samples(rng, 18, 60)
        levels = NominalLevels(alpha=0.2, beta=0.4)
        model = calibrate(samples, "rec", levels)
        checked = 0
        for _ in range(200):
            probs = rng.random(18)
            y = random_set(rng, 18)
            pset = predict(model, probs)
            kept = shrink_set(probs, y, levels.beta)
            if set(kept) <= set(pset.nodes):
                metrics = evaluate_set(pset.nodes, y, levels.beta)
                assert metrics.included
                checked += 1
        assert checked > 20


def block_rows_budget(monkeypatch, rows, n_nodes):
    """Set the scoring block budget to `rows` rows of `n_nodes` probabilities."""
    row_bytes = np.dtype(np.float64).itemsize * n_nodes
    monkeypatch.setattr(conformal, "_SCORE_BLOCK_BYTES", rows * row_bytes)


class TestRankedBlock:
    """The block core against the value-based reference, bit for bit."""

    LENGTHS = (9, 9, 9, 1, 1, 20, 9, 9, 1, 13, 13, 13, 13)

    def samples(self, seed):
        """Runs of mixed lengths; tie-heavy vectors with exact zeros of both
        signs, and source lists with repeated ids."""
        rng = np.random.default_rng(seed)
        out = []
        for n in self.LENGTHS:
            for _ in range(int(rng.integers(1, 9))):
                probs = np.round(rng.random(n), int(rng.integers(1, 3)))
                probs[rng.random(n) < 0.2] = 0.0
                probs[rng.random(n) < 0.1] = -0.0
                if not probs.any():
                    probs[int(rng.integers(n))] = 0.5  # 'rec' needs positive mass
                sources = rng.integers(0, n, size=int(rng.integers(1, n + 3)))
                out.append((probs, sources.tolist()))
        return out

    def test_worked_example_with_ties(self):
        probs = [0.2, 0.5, 0.5, 0.1]
        block = next(ranked_blocks([(probs, [3, 2, 3])]))
        assert block.ascending.tolist() == [[0.1, 0.2, 0.5, 0.5]]
        assert block.source_nodes.tolist() == [2, 3]
        order, scores = singleton_scores("min", probs)
        assert order.tolist() == [1, 2, 0, 3]
        assert scores.tolist() == [-0.5, -0.5, -0.2, -0.1]
        # the tied pair {1, 2} closes together: nodes 0-3 have closures of
        # 3, 2, 2 and 4 nodes, read along the order [1, 2, 0, 3]
        # suffix[j] sums ascending[j:], so a closure of k nodes reads suffix[4 - k]
        suffix = block.suffix[0]
        assert suffix.tolist() == [1.3, 1.2, 1.0, 0.5]
        assert singleton_scores("rec", probs)[1].tolist() == \
            (suffix[[2, 2, 1, 0]] / suffix[0]).tolist()
        assert singleton_scores("pre", probs)[1].tolist() == \
            (-(suffix[[2, 2, 1, 0]] / [2, 2, 3, 4])).tolist()
        # closures of 2, 3 and 4 nodes score -0.5, -0.39999999999999997 and
        # -0.325; no closure has one node
        floors = block.test_set_floors("pre", [-0.6, -0.5, -0.45, -0.35, -0.3])
        assert floors.tolist() == [[math.inf], [0.5], [0.5], [0.2], [0.1]]
        assert [np.count_nonzero(block.probs >= f) for f in floors] == [0, 2, 2, 3, 4]
        # at least 1 of the 2 sources at beta = 0.5: node 2 is the larger
        assert block.included(floors[:, 0], 0.5).tolist() == [False, True, True, True, True]
        assert block.included(floors[:, 0], 0.0).tolist() == [False, False, False, False,
                                                               True]
        # the distinct sources sit at positions 1 and 3 of the canonical order
        assert [order.tolist().index(v) for v in block.source_nodes] == [1, 3]
        # beta = 0.5 keeps node 2, whose closure is the tied pair {1, 2}
        assert block.shrunk_scores("pre", 0.5).tolist() == [-0.5]
        assert block.shrunk_scores("min", 0.0).tolist() == [-0.1]
        assert set_score("min", probs, [3, 2, 3]) == -0.1

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_scores_match_reference_bitwise(self, monkeypatch, rows):
        if rows is not None:
            block_rows_budget(monkeypatch, rows, 9)
        samples = self.samples(21)
        for kind in SCORE_KINDS:
            for beta in (0.0, 0.1, 0.3, 0.5, 0.7):
                reference = [reference_set_score(kind, p, shrink_set(p, y, beta))
                             for p, y in samples]
                blocks = list(ranked_blocks(samples))
                fast = np.concatenate([b.shrunk_scores(kind, beta) for b in blocks])
                assert np.array_equal(bits(fast), bits(reference))
        # a change of length closes a block
        assert len(blocks) >= len(set(self.LENGTHS))

    def test_singleton_scores_match_reference_on_ties_and_zeros(self):
        samples = self.samples(22)
        for block in ranked_blocks(samples):
            for kind in SCORE_KINDS:
                for probs in block.probs:
                    order, singles = singleton_scores(kind, probs)
                    assert order.tolist() == np.argsort(-probs, kind="stable").tolist()
                    reference = [reference_set_score(kind, probs, [v]) for v in order]
                    assert np.array_equal(bits(singles), bits(reference))

    def test_min_reads_threshold_as_sorted_lookup(self):
        """'min' reads each closure's threshold; it equals the sorted-view
        lookup, -np.sort(probs + 0.0)[N - size], bit for bit, also where a
        threshold is -0.0."""
        def lookup(probs, size):
            return -np.sort(probs + 0.0)[probs.size - size]

        rows = [
            ([0.5, -0.0, 0.0, 0.25, -0.0, 0.5, 0.0], [1, 3, 4, 0]),
            ([-0.0, 0.0, -0.0, 0.75, 0.75, 0.0, 0.25], [0, 2]),
            ([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.5], [1, 5, 6]),
            ([0.25, 0.25, -0.0, 0.25, 0.0, 1.0, -0.0], [2, 6, 0, 5, 1]),
        ]
        samples = [(np.array(p), y) for p, y in rows] + self.samples(24)
        for beta in (0.0, 0.1, 0.3, 0.5, 0.7):
            fast = np.concatenate([b.shrunk_scores("min", beta)
                                   for b in ranked_blocks(samples)])
            reference = []
            for probs, y in samples:
                threshold = probs[shrink_set(probs, y, beta)].min()
                reference.append(lookup(probs, np.count_nonzero(probs >= threshold)))
            assert np.array_equal(bits(fast), bits(reference))
        for block in ranked_blocks(samples):
            for probs in block.probs:
                order, singles = singleton_scores("min", probs)
                reference = np.array([lookup(probs, np.count_nonzero(probs >= probs[v]))
                                      for v in order])
                assert np.array_equal(bits(singles), bits(reference))
                # a 'min' test set holds the nodes whose lookup score passes
                q_hats = np.concatenate([reference, [-1.5, 1.5, -0.0]])
                floors = conformal._ranked_row(probs).test_set_floors("min", q_hats)
                assert [np.count_nonzero(probs >= f) for f in floors[:, 0]] == \
                    [np.count_nonzero(reference <= q) for q in q_hats]
        # a source at -0.0 as the threshold scores -0.0, as the sorted 0.0 does
        assert bits(set_score("min", rows[0][0], [1])) == bits(-0.0)

    def test_suffix_total_within_float64_bound(self):
        """A row total summed in sequence in float64 is within (N - 1) * eps
        of the correctly rounded sum, relatively."""
        n = 20_000
        rng = np.random.default_rng(26)
        # values spread over many binades, so additions round
        probs = rng.random((4, n)) ** 8
        block = conformal.RankedBlock(probs)
        assert block.suffix.dtype == np.float64
        bound = (n - 1) * np.finfo(np.float64).eps
        for row, total in zip(probs, block.suffix[:, 0]):
            exact = math.fsum(row)
            assert abs(total - exact) <= bound * exact

    def test_q_hat_independent_of_block_size(self, monkeypatch):
        samples = self.samples(23)
        levels = [NominalLevels(alpha=a, beta=b) for a in (0.05, 0.2, 0.5)
                  for b in (0.0, 0.3, 0.7)]
        expected = {(kind, lv): calibrate(samples, kind, lv).q_hat
                    for kind in SCORE_KINDS for lv in levels}
        expected.update({("crc", lv): crc_calibrate(samples, lv) for lv in levels})
        for rows in (1, 7):
            block_rows_budget(monkeypatch, rows, 9)
            for (kind, lv), q_hat in expected.items():
                got = (crc_calibrate(iter(samples), lv) if kind == "crc"
                       else calibrate(iter(samples), kind, lv).q_hat)
                assert np.float64(got).view(np.uint64) == np.float64(q_hat).view(np.uint64)

    @pytest.mark.parametrize("bad, message", [
        ([], "node set must be non-empty"),
        ([0, 6], "node index out of range"),  # would alias row 6's node 0
        ([-1], "node index out of range")])
    def test_bad_source_set_in_row_5_of_9(self, bad, message):
        samples = [(np.full(6, 0.5), [i % 6]) for i in range(9)]
        samples[5] = (samples[5][0], bad)
        with pytest.raises(ValueError, match=message):
            calibrate(samples, "rec", NominalLevels(alpha=0.5))
        # risk control reads the same blocks, so it fails with the same message
        with pytest.raises(ValueError, match=message):
            crc_calibrate(samples, NominalLevels(alpha=0.5))


class TestSortedViewBuilds:
    """'min' reads each closure's threshold and risk control only source
    thresholds, so neither sorts a block; 'pre' and 'rec' sort each block
    once, and every kind shares that sort."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The blocks whose sorted view was built, one entry per build."""
        built = []
        view = conformal.RankedBlock.ascending

        def counting(block):
            if block._ascending is None:
                built.append(block)
            return view.fget(block)

        monkeypatch.setattr(conformal.RankedBlock, "ascending", property(counting))
        return built

    @staticmethod
    def samples():
        """20 tie-heavy samples of 9 nodes."""
        rng = np.random.default_rng(27)
        return [(np.round(rng.random(9), 1), random_set(rng, 9)) for _ in range(20)]

    def test_min_and_risk_control_sort_nothing(self, built, monkeypatch):
        block_rows_budget(monkeypatch, 7, 9)
        samples = self.samples()
        levels = NominalLevels(alpha=0.2, beta=0.3)
        model = calibrate(samples, "min", levels)
        crc_calibrate(samples, levels)
        for probs, y in samples:
            predict(model, probs)
            set_score("min", probs, y)
        assert built == []

    @pytest.mark.parametrize("kind", ["pre", "rec"])
    def test_mass_kinds_sort_each_block_once(self, built, monkeypatch, kind):
        block_rows_budget(monkeypatch, 7, 9)
        calibrate(self.samples(), kind, NominalLevels(alpha=0.2, beta=0.3))
        # 20 rows in blocks of 7
        assert len(built) == 3
        assert len({id(block) for block in built}) == 3

    @pytest.mark.parametrize("kinds, sorts", [(SCORE_KINDS, True), (("min",), False)])
    def test_experiment_sorts_each_block_at_most_once(self, built, monkeypatch,
                                                      kinds, sorts):
        blocks = []
        init = conformal.RankedBlock.__init__

        def counting_init(block, *args):
            blocks.append(block)
            init(block, *args)

        monkeypatch.setattr(conformal.RankedBlock, "__init__", counting_init)
        block_rows_budget(monkeypatch, 16, 20)
        gen = GenerativeConfig(source_count=(1, 3), r0=None, sigma_inf=(0.3, 0.6),
                               sigma_rec=(0.1, 0.2), n_snapshots=4)
        run_experiment(ExperimentConfig(
            graph_spec="complete:20", generative=gen, alphas=(0.1, 0.2),
            betas=(0.0, 0.5), score_kinds=kinds, n_cal=150, n_test=60,
            n_trials=2, seed=3))
        # at most 16 rows a block: 10 calibration and 4 test blocks a trial
        assert len(blocks) >= 28
        assert len({id(block) for block in built}) == len(built)
        assert len(built) == (len(blocks) if sorts else 0)


class TestNonFiniteInput:
    """NaN, +-inf and values outside [0, 1] are rejected rather than ranked:
    NaN sorts last and fails every comparison, which silently changed
    thresholds and dropped nodes, and a value above 1 gave a negative
    'min' threshold and a negative risk-control lambda."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.3, 1.3])
    def test_rejected_by_every_entry_point(self, bad):
        probs = np.array([0.5, bad, 0.2])
        levels = NominalLevels(alpha=0.5)
        model = ConformalModel("min", levels, -0.3, 1)
        with pytest.raises(ValueError, match="finite"):
            singleton_scores("min", probs)
        with pytest.raises(ValueError, match="finite"):
            calibrate([(probs, [0])], "min", levels)
        # the bad vector as row 5 of a 9-row block
        samples = [(np.array([0.5, 0.4, 0.2]), [0])] * 9
        samples[5] = (probs, [0])
        with pytest.raises(ValueError, match="finite"):
            calibrate(samples, "min", levels)
        with pytest.raises(ValueError, match="finite"):
            predict(model, probs)
        with pytest.raises(ValueError, match="finite"):
            set_score("min", probs, [0])
        with pytest.raises(ValueError, match="finite"):
            crc_calibrate([(probs, [0])], levels)


class TestEvaluateSet:
    def test_exact_match(self):
        m = evaluate_set([1, 2], [1, 2], beta=0.0)
        assert m.precision == 1.0 and m.recall == 1.0 and m.included

    def test_full_graph_set(self):
        m = evaluate_set(np.arange(100), np.arange(5), beta=0.0)
        assert m.recall == 1.0
        assert m.precision == pytest.approx(0.05)
        assert m.included

    def test_boundary_seven_of_ten(self):
        # 7 hits out of 10 sources at beta=0.3 sits exactly on the boundary
        m = evaluate_set(np.arange(7), np.arange(10), beta=0.3)
        assert m.recall == pytest.approx(0.7)
        assert m.included
        m = evaluate_set(np.arange(6), np.arange(10), beta=0.3)
        assert not m.included

    def test_empty_prediction_has_zero_precision(self):
        m = evaluate_set(np.array([], dtype=np.int64), [1, 2], beta=0.5)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert not m.included

    @staticmethod
    def reference(nodes, true_sources, beta):
        """Both arguments deduplicated and sorted, then intersected."""
        y = np.unique(np.asarray(true_sources, dtype=np.int64))
        pred = np.unique(np.asarray(nodes, dtype=np.int64))
        hits = int(np.intersect1d(pred, y, assume_unique=True).size)
        return SetMetrics(precision=hits / pred.size if pred.size else 0.0,
                          recall=hits / y.size,
                          included=hits >= required_hits(y.size, beta))

    @staticmethod
    def forms(rng, nodes):
        """A set as sorted, shuffled, duplicated, list and 2-D inputs."""
        shuffled = rng.permutation(nodes)
        doubled = np.concatenate([nodes, nodes[: (nodes.size + 1) // 2]])
        out = [nodes, shuffled, doubled, np.sort(doubled), nodes.tolist(),
               shuffled.tolist(), nodes[::-1]]
        if nodes.size % 2 == 0:
            out += [nodes.reshape(2, -1), shuffled.reshape(-1, 2)]
        return out

    def test_matches_sorting_every_argument(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pred = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            y = random_set(rng, n)
            for nodes in self.forms(rng, pred):
                for sources in self.forms(rng, y):
                    for beta in (0.0, 0.3, 0.5):
                        assert evaluate_set(nodes, sources, beta) == \
                            self.reference(nodes, sources, beta)
        for nodes in ([], np.array([], dtype=np.int64), [[]], [3], [3, 3]):
            assert evaluate_set(nodes, [1, 3], 0.5) == self.reference(nodes, [1, 3], 0.5)
        for empty in ([], [[]], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="true source set must be non-empty"):
                evaluate_set([1, 2], empty, 0.0)


class TestBruteforceEquivalence:
    def test_single_node(self):
        probs = np.array([0.4])
        assert bruteforce_prediction_set(probs, -0.4, "min").tolist() == [0]
        assert bruteforce_prediction_set(probs, -0.5, "min").tolist() == []

    def test_refuses_large_graphs(self):
        with pytest.raises(ValueError):
            bruteforce_prediction_set(np.random.default_rng(0).random(17), 0.0, "pre")

    def test_matches_fast_rule_on_random_instances(self):
        report = run_equivalence_checks(n_nodes=8, trials=150, seed=17)
        assert report.bruteforce_mismatches == 0

    @pytest.mark.parametrize("n_nodes, trials, message", [
        (0, 5, r"n_nodes must be in \[1, 16\], got 0"),
        (17, 5, r"n_nodes must be in \[1, 16\], got 17"),
        (8, 0, "trials must be >= 1, got 0"),
        (8, -3, "trials must be >= 1, got -3")])
    def test_checks_refuse_vacuous_or_oversized_runs(self, n_nodes, trials, message):
        with pytest.raises(ValueError, match=message):
            run_equivalence_checks(n_nodes=n_nodes, trials=trials, seed=1)

    def test_subset_minimum_equals_singleton_closure_score(self):
        # independent enumeration with plain-numpy scoring
        rng = np.random.default_rng(18)
        n = 8
        for _ in range(20):
            probs = rng.random(n)
            for kind in SCORE_KINDS:
                for v in range(n):
                    best = math.inf
                    for mask in range(1, 1 << n):
                        if not (mask >> v) & 1:
                            continue
                        members = [i for i in range(n) if (mask >> i) & 1]
                        best = min(best, direct_score(kind, probs, members))
                    target = direct_score(kind, probs,
                                          upward_closure(probs, [v]).tolist())
                    assert best == pytest.approx(target, abs=1e-12)


EPS = np.finfo(np.float64).eps
# a 'pre' mean that rises by an ulp as the closure grows: the closure of
# all 7 nodes scores below the closure of the top 3
ULP_RISE = np.array([1 - EPS] * 3 + [1 - 2 * EPS] * 4)


class TestLargestPassingClosure:
    """A test set is the largest upward closure whose score is <= q_hat:
    predict and the experiment's per-cell size and inclusion
    (RankedBlock.test_set_floors and included) give the brute-force oracle's
    set, on ties, zeros of both signs and ulp-spaced values."""

    def test_pre_singleton_scores_are_not_monotone(self):
        order, scores = singleton_scores("pre", ULP_RISE)
        assert order.tolist() == list(range(7))
        assert not np.all(np.diff(scores) >= 0)
        assert scores[6] < scores[0]

    def test_pre_set_keeps_the_top_of_a_passing_closure(self):
        q_hat = set_score("pre", ULP_RISE, [3])
        # node 0's own closure fails, but the closure of all 7 nodes passes
        assert set_score("pre", ULP_RISE, [0]) > q_hat
        assert bruteforce_prediction_set(ULP_RISE, q_hat, "pre").tolist() == list(range(7))
        model = ConformalModel("pre", NominalLevels(alpha=0.1), q_hat, 10)
        assert predict(model, ULP_RISE).nodes.tolist() == list(range(7))
        floors = conformal._ranked_row(ULP_RISE).test_set_floors("pre", [q_hat])
        assert floors.tolist() == [[1 - 2 * EPS]]

    @staticmethod
    def vectors(seed, n):
        """Tie-heavy, signed-zero and ulp-spaced vectors of n nodes, each
        with positive mass."""
        rng = np.random.default_rng(seed)
        out = []
        for i in range(24):
            style = i % 3
            if style == 0:
                probs = np.round(rng.random(n), int(rng.integers(1, 3)))
            elif style == 1:
                probs = rng.choice([0.0, -0.0, 0.25, 0.5], size=n)
            else:
                # a few ulps below a power of two or a rounded value
                base = rng.choice([1.0, 0.5, 0.3, 1e-6])
                probs = base - rng.integers(0, 4, size=n) * np.spacing(base / 2)
            probs[rng.random(n) < 0.15] = -0.0
            if not probs.any():
                probs[int(rng.integers(n))] = 1.0 - EPS
            out.append(np.minimum(probs, 1.0))
        if n == ULP_RISE.size:
            out.append(ULP_RISE.copy())
        return out

    @staticmethod
    def thresholds(kind, probs):
        """Every closure score of `probs`, the floats next to each, the
        points between them, and a threshold below and above them all."""
        scores = np.unique([set_score(kind, probs, [v]) for v in range(probs.size)])
        return np.concatenate([scores, np.nextafter(scores, -np.inf),
                               np.nextafter(scores, np.inf), (scores[1:] + scores[:-1]) / 2,
                               [scores[0] - 1.0, np.inf]])

    @pytest.mark.parametrize("n", [1, 4, 7, 9])
    def test_predict_and_experiment_sets_match_bruteforce(self, n):
        rng = np.random.default_rng(40 + n)
        vectors = self.vectors(30 + n, n)
        sources = [random_set(rng, n) for _ in vectors]
        block = conformal.RankedBlock(np.array(vectors), sources)
        differs = 0
        for kind in SCORE_KINDS:
            for r, probs in enumerate(vectors):
                q_hats = self.thresholds(kind, probs)
                floors = block.test_set_floors(kind, q_hats)
                order, singles = singleton_scores(kind, probs)
                for i, q in enumerate(q_hats):
                    brute = bruteforce_prediction_set(probs, q, kind)
                    if math.isfinite(q):
                        model = ConformalModel(kind, NominalLevels(alpha=0.1), q, 1)
                        assert predict(model, probs).nodes.tolist() == brute.tolist()
                    assert np.flatnonzero(probs >= floors[i, r]).tolist() == brute.tolist()
                    for beta in (0.0, 0.3, 0.5):
                        assert block.included(floors[i], beta)[r] == \
                            evaluate_set(brute, sources[r], beta).included
                    differs += sorted(order[singles <= q]) != brute.tolist()
        if n == ULP_RISE.size:
            # comparing singleton scores node by node misses some of these sets
            assert differs > 0


class TestFlatSortedView:
    """A block reads every closure of all its rows off one flat sorted view:
    tie runs found by flat position with each row's start forced, sizes and
    masses from the suffix sums aligned to the ascending values."""

    N = 9
    ROWS = [
        np.full(N, 0.5),  # a single run of ties
        np.linspace(0.5, 0.9, N),  # all distinct; its smallest ties the row above
        np.array([0.0, -0.0, 0.25, -0.0, 0.0, 0.9, 0.25, 0.0, 0.5]),  # zeros of both signs
        np.array([PROB_FLOOR] * 6 + [0.5, PROB_FLOOR, 0.9]),  # heuristic-like, floored
    ]

    @classmethod
    def blocks(cls):
        """Every order of the four rows, and each row twice in a row, so that
        a row's largest value meets the next row's smallest."""
        for order in itertools.permutations(range(len(cls.ROWS))):
            yield order, conformal.RankedBlock(np.array([cls.ROWS[r] for r in order]))
        for r in range(len(cls.ROWS)):
            yield (r, r), conformal.RankedBlock(np.array([cls.ROWS[r]] * 2))

    def test_floors_match_bruteforce_per_row(self):
        for kind in ("pre", "rec"):
            scores = np.unique([set_score(kind, row, [v])
                                for row in self.ROWS for v in range(self.N)])
            # every closure score, both floats next to each, +inf and below all
            q_hats = np.concatenate([scores, np.nextafter(scores, -np.inf),
                                     np.nextafter(scores, np.inf),
                                     [np.inf, scores[0] - 1.0]])
            brute = [[bruteforce_prediction_set(row, q, kind).tolist() for q in q_hats]
                     for row in self.ROWS]
            for order, block in self.blocks():
                floors = block.test_set_floors(kind, q_hats)
                assert floors.shape == (q_hats.size, len(order))
                for i in range(q_hats.size):
                    for k, (r, probs) in enumerate(zip(order, block.probs)):
                        assert np.flatnonzero(probs >= floors[i, k]).tolist() == brute[r][i]

    def test_suffix_is_a_sequential_sum_from_the_largest_down(self):
        rng = np.random.default_rng(62)
        blocks = [block for _, block in self.blocks()]
        # values over many binades, so that additions round
        blocks.append(conformal.RankedBlock(rng.random((5, 300)) ** 8))
        for block in blocks:
            for probs, ascending, suffix in zip(block.probs, block.ascending, block.suffix):
                values = sorted((probs + 0.0).tolist())
                assert ascending.tolist() == values
                total, sums = 0.0, []
                for value in reversed(values):
                    total += value
                    sums.append(total)
                assert np.array_equal(bits(suffix), bits(sums[::-1]))

    def test_source_count_must_match_rows(self):
        with pytest.raises(ValueError, match="3 source sets for 2 probability rows"):
            conformal.RankedBlock(np.full((2, 4), 0.5), [np.array([0])] * 3)


class TestCalibrationScores:
    """The one calibration loop scores every (kind, beta) cell of a block
    stream as calibrate scores and thresholds that cell alone, bit for bit."""

    N = 12
    CELLS = [(kind, beta) for kind in SCORE_KINDS for beta in (0.0, 0.3, 0.7)]

    def pairs(self):
        """Tie-heavy, signed-zero and ulp-spaced rows in turn, with source
        lists that repeat ids."""
        rng = np.random.default_rng(73)
        out = []
        for i in range(60):
            if i % 3 == 0:
                probs = np.round(rng.random(self.N), 1) * 0.9 + 0.05
            elif i % 3 == 1:
                probs = rng.random(self.N)
                probs[rng.random(self.N) < 0.3] = 0.0
                probs[rng.random(self.N) < 0.3] = -0.0
                probs[0] = 0.5  # 'rec' needs positive mass
            else:
                probs = 1.0 - EPS * rng.integers(1, 4, size=self.N)
            out.append((probs, rng.integers(0, self.N, size=int(rng.integers(1, 15)))))
        return out

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_every_cell_equals_calibrate(self, monkeypatch, rows):
        pairs = self.pairs()
        if rows is not None:
            block_rows_budget(monkeypatch, rows, self.N)
            assert conformal.block_rows(self.N) == rows
        scores = conformal.calibration_scores(ranked_blocks(pairs), self.CELLS)
        assert list(scores) == self.CELLS
        for kind, beta in self.CELLS:
            reference = [set_score(kind, p, shrink_set(p, y, beta)) for p, y in pairs]
            assert np.array_equal(bits(scores[kind, beta]), bits(reference))
            for alpha in (0.05, 0.2, 0.5):
                model = calibrate(pairs, kind, NominalLevels(alpha=alpha, beta=beta))
                q_hat = finite_sample_quantile(scores[kind, beta], alpha)
                assert bits(q_hat) == bits(model.q_hat)
                assert model.n_cal == len(pairs)

    def test_repeated_cells_scored_once_and_bad_input_refused(self):
        pairs = self.pairs()[:5]
        scores = conformal.calibration_scores(ranked_blocks(pairs), [("pre", 0.3)] * 2)
        assert list(scores) == [("pre", 0.3)]
        with pytest.raises(ValueError, match="unknown score kind"):
            conformal.calibration_scores(ranked_blocks(pairs), [("max", 0.3)])
        with pytest.raises(ValueError, match="at least one calibration sample"):
            conformal.calibration_scores(iter([]), [("pre", 0.3)])


P5 = np.linspace(0.1, 0.9, 5)
LEVELS_01 = NominalLevels(alpha=0.1)

# every entry point that reads node ids, each returning something comparable
NODE_ID_ENTRY_POINTS = {
    "evaluate_set nodes": lambda ids: evaluate_set(ids, [1, 2], 0.0),
    "evaluate_set sources": lambda ids: evaluate_set([1, 2], ids, 0.0),
    "check_node_set": lambda ids: check_node_set(ids, 5).tolist(),
    "upward_closure": lambda ids: upward_closure(P5, ids).tolist(),
    "shrink_set": lambda ids: shrink_set(P5, ids, 0.0).tolist(),
    "set_score": lambda ids: set_score("pre", P5, ids),
    "simulate": lambda ids: simulate(complete_graph(5), SirParams(0.3, 0.1, horizon=3),
                                     ids, 0).statuses.tolist(),
    "calibrate": lambda ids: calibrate([(P5, ids)] * 5, "min", LEVELS_01),
    "crc_calibrate": lambda ids: crc_calibrate([(P5, ids)] * 5, LEVELS_01),
    "RankedBlock": lambda ids: conformal.RankedBlock(
        P5[None], [np.asarray(ids).ravel()]).source_nodes.tolist(),
    # a bool set among integer ones, which concatenate would cast to 0/1
    "mixed block": lambda ids: calibrate([(P5, [3])] * 3 + [(P5, ids)], "min", LEVELS_01),
}


class TestNodeIds:
    """Node ids must be whole numbers: a fractional float or a bool is
    refused by every entry point, where a cast would truncate it."""

    @pytest.mark.parametrize("entry", list(NODE_ID_ENTRY_POINTS))
    @pytest.mark.parametrize("ids", [[1.5, 2.7], [1.7, 0.2], [1.9], np.array([True, False]),
                                     [np.nan], [np.inf, 1.0]], ids=repr)
    def test_refused(self, entry, ids):
        with pytest.raises(ValueError, match="node ids must be whole numbers"):
            NODE_ID_ENTRY_POINTS[entry](ids)

    @pytest.mark.parametrize("entry", list(NODE_ID_ENTRY_POINTS))
    def test_whole_floats_read_as_integers(self, entry):
        fn = NODE_ID_ENTRY_POINTS[entry]
        assert fn([1.0, 2.0]) == fn([1, 2])
        assert fn(np.array([[2.0], [1.0]])) == fn(np.array([[2], [1]]))

    def test_message_names_the_value(self):
        with pytest.raises(ValueError, match="got 2.7"):
            evaluate_set([2.0, 2.7], [1, 2], 0.0)
        with pytest.raises(ValueError, match="got True"):
            check_node_set(np.array([True]), 5)

    def test_empty_inputs_as_before(self):
        assert evaluate_set([], [1], 0.0) == SetMetrics(0.0, 0.0, False)
        with pytest.raises(ValueError, match="node set must be non-empty"):
            check_node_set([], 5)
        with pytest.raises(ValueError, match="node set must be non-empty"):
            calibrate([(P5, [])], "min", LEVELS_01)


def reference_crc_calibrate(samples, levels):
    """Candidate scan: every distinct 1 - prob over the sources, in increasing
    order, with a full violation count at each one; the first candidate that
    meets (violations + 1) <= alpha (n + 1) is lambda_hat. A candidate that
    violates all n samples never qualifies: (n + 1) / (n + 1) = 1 > alpha."""
    n = len(samples)
    needed = np.array([required_hits(len(y), levels.beta) for _, y in samples])
    flat = np.concatenate([1.0 - p[y] for p, y in samples])
    owners = np.repeat(np.arange(n), [len(y) for _, y in samples])
    bound = levels.alpha * (n + 1) + 1e-9  # the nudge of stable_ceil
    for lam in np.unique(flat):
        violations = np.count_nonzero(np.bincount(owners[flat <= lam], minlength=n)
                                      < needed)
        if violations < n and violations + 1 <= bound:
            return float(lam)
    return math.inf


class TestCrcEquivalence:
    def make_samples(self, rng, n_nodes, n_samples):
        return [(rng.random(n_nodes), random_set(rng, n_nodes))
                for _ in range(n_samples)]

    def test_order_statistic_rule_matches_candidate_scan(self):
        alphas = (0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-10)
        betas = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
        branches = {"inf": 0, "all_violated": 0, "n_cal_1": 0, "rank": 0}
        for t in range(2400):
            rng = substream(41, t)
            n_nodes = int(rng.integers(1, 13))
            n_cal = int(rng.choice([1, 2, 3, 5, 9, 20, 60]))
            decimals = int(rng.integers(0, 3))  # 0 and 1 decimals: tie-heavy
            levels = NominalLevels(alpha=float(rng.choice(alphas)),
                                   beta=float(rng.choice(betas)))
            samples = [(np.round(rng.random(n_nodes), decimals) if decimals < 2
                        else rng.random(n_nodes), random_set(rng, n_nodes))
                       for _ in range(n_cal)]
            lam = crc_calibrate(samples, levels)
            assert lam == reference_crc_calibrate(samples, levels), (t, levels)
            allowed = math.floor(levels.alpha * (n_cal + 1) + 1e-9) - 1
            if allowed < 0:
                assert lam == math.inf
                branches["inf"] += 1
            elif allowed >= n_cal:
                # the rank rule clamps to the smallest t_i, the 'min' threshold
                assert lam == 1.0 + calibrate(samples, "min", levels).q_hat, (t, levels)
                branches["all_violated"] += 1
            else:
                branches["rank"] += 1
            branches["n_cal_1"] += n_cal == 1
        assert min(branches.values()) >= 50, branches

    @pytest.mark.parametrize("n_cal, alpha", [(5, 1.0 - 1e-10), (10, 1.0 - 1e-11)])
    def test_alpha_near_one_keeps_min_identity(self, n_cal, alpha):
        # the rank clamps to the smallest t_i: lambda never violates every sample
        rng = np.random.default_rng(22)
        samples = self.make_samples(rng, 12, n_cal)
        levels = NominalLevels(alpha=alpha, beta=0.3)
        lam = crc_calibrate(samples, levels)
        assert lam == 1.0 + calibrate(samples, "min", levels).q_hat
        assert lam == reference_crc_calibrate(samples, levels)

    def test_threshold_identity_and_set_equality(self):
        report = run_equivalence_checks(n_nodes=12, trials=150, seed=19)
        assert report.crc_set_mismatches == 0
        assert report.max_lambda_gap <= 1e-12

    def test_lambda_formula_tiny_case(self):
        # single calibration sample: violations(lambda) + 1 <= alpha * 2
        # requires alpha >= 1/2 even when the sample is satisfied
        rng = np.random.default_rng(20)
        samples = self.make_samples(rng, 6, 1)
        assert crc_calibrate(samples, NominalLevels(alpha=0.49, beta=0.0)) == math.inf
        lam = crc_calibrate(samples, NominalLevels(alpha=0.5, beta=0.0))
        assert math.isfinite(lam)

    def test_lambda_finite_under_separation(self):
        rng = np.random.default_rng(21)
        samples = []
        for _ in range(200):
            y = random_set(rng, 10, 3)
            probs = np.full(10, 0.01) + 0.01 * rng.random(10)
            probs[y] = 0.8 + 0.1 * rng.random(y.size)
            samples.append((probs, y))
        lam = crc_calibrate(samples, NominalLevels(alpha=0.1, beta=0.0))
        assert math.isfinite(lam)
        assert lam < 0.5

    def test_crc_set_is_high_probability_nodes(self):
        probs = np.array([0.9, 0.4, 0.05, 0.7])
        assert crc_predict(0.35, probs).tolist() == [0, 3]
        assert crc_predict(math.inf, probs).tolist() == [0, 1, 2, 3]


class TestInclusionEquivalence:
    def test_set_membership_iff_score_within_threshold(self):
        # 10k random instances; beta = 0 path
        count = 0
        for t in range(10_000):
            rng = substream(23, t)
            n = int(rng.integers(2, 30))
            probs = rng.random(n)
            y = random_set(rng, n)
            q_hat = float(rng.uniform(-1.2, 1.2))
            kind = SCORE_KINDS[t % 3]
            model = ConformalModel(kind, NominalLevels(0.1, 0.0), q_hat, 10)
            covered = set(y) <= set(predict(model, probs).nodes.tolist())
            score_ok = set_score(kind, probs, y) <= q_hat
            assert covered == score_ok
            count += 1
        assert count == 10_000


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        model = ConformalModel("rec", NominalLevels(0.1, 0.3), -0.123456789, 100)
        path = tmp_path / "model.json"
        save_model(model, path, seed=5, config={"estimator": "oracle:1.0"})
        loaded, header = load_model(path)
        assert loaded == model
        assert header["config"]["estimator"] == "oracle:1.0"

    def test_infinite_threshold_token(self, tmp_path):
        model = ConformalModel("min", NominalLevels(0.05, 0.0), math.inf, 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert '"inf"' in path.read_text()
        loaded, _ = load_model(path)
        assert math.isinf(loaded.q_hat)
