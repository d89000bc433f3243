"""Conformal machinery: closures, scores, quantiles, prediction, equivalences.

Expected values marked "by direct evaluation" were computed by hand from the
score definitions on tiny vectors; independent numeric cross-checks use plain
numpy reductions instead of the canonical prefix path.
"""

import math

import numpy as np
import pytest

from sourceset import conformal
from sourceset.conformal import (
    SCORE_KINDS,
    ConformalModel,
    NominalLevels,
    RankedProbs,
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
from sourceset.util import substream


def direct_score(kind, probs, members):
    """Plain-numpy score evaluation, independent of the prefix machinery."""
    thr = probs[np.asarray(members)].min()
    closure = probs[probs >= thr]
    if kind == "pre":
        return -float(np.mean(closure))
    if kind == "rec":
        return float(np.sum(closure) / np.sum(probs))
    return -float(np.min(closure))


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
                for j in range(n):
                    assert scores[j] == set_score(kind, probs, [order[j]])

    def test_calibration_scores_match_reference_bitwise_on_ties(self):
        """calibrate's per-sample scores are set_score(shrink_set(...)) exactly.

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
                reference = np.asarray([set_score(kind, p, shrink_set(p, y, beta))
                                        for p, y in samples])
                fast = []
                for p, y in samples:
                    ranked = RankedProbs(p)
                    fast.append(ranked.shrunk_score(kind, ranked.positions(y), beta))
                assert np.array_equal(np.asarray(fast).view(np.uint64),
                                      reference.view(np.uint64))
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


class TestRankedProbs:
    def test_worked_example_with_ties(self):
        ranked = RankedProbs([0.2, 0.5, 0.5, 0.1])
        assert ranked.order.tolist() == [1, 2, 0, 3]
        assert ranked.sorted_vals.tolist() == [0.5, 0.5, 0.2, 0.1]
        assert ranked.closure_sizes(0.5) == 2
        assert ranked.closure_sizes([0.2, 0.1]).tolist() == [3, 4]
        positions = ranked.positions([3, 2, 3])
        assert positions.tolist() == [1, 3]
        # beta = 0.5 keeps node 2, whose closure is the tied pair {1, 2}
        assert ranked.shrunk_score("pre", positions, 0.5) == -0.5
        assert ranked.shrunk_score("min", positions, 0.0) == -0.1
        assert ranked.singleton_scores("min").tolist() == [-0.5, -0.5, -0.2, -0.1]


def block_rows_budget(monkeypatch, rows, n_nodes):
    """Set the scoring block budget to `rows` rows of `n_nodes` probabilities."""
    row_bytes = np.dtype(np.longdouble).itemsize * n_nodes
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

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_scores_match_reference_bitwise(self, monkeypatch, rows):
        if rows is not None:
            block_rows_budget(monkeypatch, rows, 9)
        samples = self.samples(21)
        for kind in SCORE_KINDS:
            for beta in (0.0, 0.1, 0.3, 0.5, 0.7):
                reference = np.asarray([set_score(kind, p, shrink_set(p, y, beta))
                                        for p, y in samples])
                blocks = list(ranked_blocks(samples))
                fast = np.concatenate([b.shrunk_scores(kind, beta) for b in blocks])
                assert np.array_equal(fast.view(np.uint64), reference.view(np.uint64))
        # a change of length closes a block
        assert len(blocks) >= len(set(self.LENGTHS))

    def test_node_scores_match_singleton_scores(self):
        samples = self.samples(22)
        for block in ranked_blocks(samples):
            sizes = block.node_closure_sizes()
            for kind in SCORE_KINDS:
                scores = block.scores(kind, sizes)
                for probs, row in zip(block.probs, scores):
                    order, singles = singleton_scores(kind, probs)
                    assert np.array_equal(row[order].view(np.uint64),
                                          singles.view(np.uint64))

    def test_q_hat_independent_of_block_size(self, monkeypatch):
        samples = self.samples(23)
        levels = [NominalLevels(alpha=a, beta=b) for a in (0.05, 0.2, 0.5)
                  for b in (0.0, 0.3, 0.7)]
        expected = {(kind, lv): calibrate(samples, kind, lv).q_hat
                    for kind in SCORE_KINDS for lv in levels}
        for rows in (1, 7):
            block_rows_budget(monkeypatch, rows, 9)
            for (kind, lv), q_hat in expected.items():
                got = calibrate(iter(samples), kind, lv).q_hat
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
            RankedProbs(probs)
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


def reference_crc_calibrate(samples, levels):
    """Candidate scan: every distinct 1 - prob over the sources, in increasing
    order, with a full violation count at each one; the first candidate that
    meets (violations + 1) <= alpha (n + 1) is lambda_hat."""
    n = len(samples)
    needed = np.array([required_hits(len(y), levels.beta) for _, y in samples])
    flat = np.concatenate([1.0 - p[y] for p, y in samples])
    owners = np.repeat(np.arange(n), [len(y) for _, y in samples])
    bound = levels.alpha * (n + 1) + 1e-9  # the nudge of stable_ceil
    for lam in np.unique(flat):
        hits = np.bincount(owners[flat <= lam], minlength=n)
        if np.count_nonzero(hits < needed) + 1 <= bound:
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
                branches["all_violated"] += 1
            else:
                branches["rank"] += 1
            branches["n_cal_1"] += n_cal == 1
        assert min(branches.values()) >= 50, branches

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
